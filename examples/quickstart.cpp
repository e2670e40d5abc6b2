/**
 * @file
 * Quickstart: build a tiny program with the ProgramBuilder, run it on
 * the simulated out-of-order core behind a CleanupSpec-protected cache
 * hierarchy, and read back registers, memory, and statistics. The
 * defense is picked from the harness registry, so the same walkthrough
 * runs on any scheme:
 *
 *   $ ./quickstart                # CleanupSpec (Cleanup_FOR_L1L2)
 *   $ ./quickstart --mode invisispec
 *   $ ./quickstart --list-modes
 */

#include <iostream>

#include "cpu/assembler.hh"
#include "cpu/core.hh"
#include "harness/cli.hh"
#include "harness/session.hh"

using namespace unxpec;

int
main(int argc, char **argv)
{
    HarnessCli cli("quickstart",
                   "Assemble, run, and inspect a tiny program on a "
                   "defense picked from the registry");
    const HarnessOptions opt = cli.parse(argc, argv);

    // 1. Configure the Table-I system (1 core @ 2 GHz, 192-entry ROB,
    //    32 KB L1s, 2 MB L2) with the selected defense — by default
    //    CleanupSpec in Cleanup_FOR_L1L2 mode.
    const SystemConfig cfg = Session::configFor(cli.baseSpec(opt), opt.seed);
    cfg.print(std::cout);
    Core core(cfg);

    // 2. Assemble a program: sum an in-memory array, timing the loop
    //    with rdtscp.
    ProgramBuilder b;
    const Addr array = b.alloc(8 * 16);
    for (unsigned i = 0; i < 16; ++i)
        b.initWord64(array + 8 * i, i * i);

    b.li(1, static_cast<std::int64_t>(array)); // base
    b.li(2, 0);                                // i
    b.li(3, 16);                               // count
    b.li(4, 0);                                // sum
    b.rdtscp(10);

    const int top = b.label();
    b.bind(top);
    b.shl(5, 2, 3);
    b.add(5, 5, 1);
    b.load(6, 5, 0);
    b.add(4, 4, 6);
    b.addi(2, 2, 1);
    b.blt(2, 3, top);

    b.rdtscp(11);
    b.sub(12, 11, 10);
    b.halt();
    const Program program = b.build();

    std::cout << "\nProgram (" << program.size() << " instructions):\n"
              << program.listing() << "\n";

    // 3. Run it.
    const RunResult result = core.run(program);
    std::cout << "sum of squares 0..15 = " << result.reg(4)
              << " (expected 1240)\n";
    std::cout << "loop time: " << result.reg(12) << " cycles; total run: "
              << result.cycles << " cycles for " << result.instructions
              << " instructions\n\n";

    // 4. The raw gem5-style statistics.
    std::cout << "Raw counters:\n";
    core.stats().dump(std::cout);
    core.hierarchy().l1d().stats().dump(std::cout);
    core.cleanup().stats().dump(std::cout);

    // 5. The same kernel can be written as plain assembly text.
    const Program assembled = Assembler::assemble(R"(
        .data vec 128
        .word vec 0  11
        .word vec 64 31
        li r1, vec
        load8 r2, [r1+0]
        load8 r3, [r1+64]
        add r4, r2, r3
        halt
    )");
    const RunResult asm_result = core.run(assembled);
    std::cout << "\nAssembled kernel: 11 + 31 = " << asm_result.reg(4)
              << "\n";
    return 0;
}
