/**
 * @file
 * Every harness bench program: this file built once per registered
 * experiment, with UNXPEC_EXPERIMENT set to the experiment's name
 * (bench/CMakeLists.txt). The experiments live in src/experiments/.
 */

#include "experiments/experiment.hh"

int
main(int argc, char **argv)
{
    return unxpec::runRegistered(UNXPEC_EXPERIMENT, argc, argv);
}
