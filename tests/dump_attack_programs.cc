/**
 * @file
 * Prints every attack program the simulator runs — its listing and
 * its initial-data image — so the golden_attack_programs ctest can
 * diff them against tests/golden/attack_programs.txt. The layout sets
 * the cache sets each line maps to and so the channel's timing: any
 * change to an instruction or a data address shows up as a diff.
 *
 * Covered: every unxpecVariants() entry at 1 and 8 in-branch loads,
 * ContentionAttack and SpectreV1, each at its default config on the
 * default system.
 *
 * Regenerate after a deliberate program change:
 *
 *   $ scripts/regen_artifacts.sh --regen attack_programs.txt
 */

#include <cinttypes>
#include <cstdio>
#include <string>

#include "attack/contention.hh"
#include "attack/spectre_v1.hh"
#include "attack/unxpec.hh"
#include "cpu/core.hh"
#include "memory/main_memory.hh"
#include "sim/rng.hh"

namespace unxpec {
namespace {

/** ProgramBuilder's first data address; every image starts here. */
constexpr Addr kDataBase = 0x10000000;
/**
 * Bytes of the data segment scanned for the initial image: every image
 * sits in the first few KiB (the probe array, A, the chain and the
 * index table come first; the larger eviction-set pool has no image).
 */
constexpr Addr kDataScan = 256 * 1024;

void
dump(const std::string &name, const Program &program)
{
    std::printf("== %s\n%s-- data\n", name.c_str(),
                program.listing().c_str());
    Rng rng;
    MainMemory mem(MemoryConfig{}, rng);
    program.loadInitialData(mem);
    for (Addr addr = kDataBase; addr < kDataBase + kDataScan; addr += 8) {
        const std::uint64_t word = mem.read64(addr);
        if (word != 0)
            std::printf("%#" PRIx64 ": %#" PRIx64 "\n",
                        static_cast<std::uint64_t>(addr), word);
    }
}

} // namespace
} // namespace unxpec

int
main()
{
    using namespace unxpec;
    for (const unsigned loads : {1u, 8u}) {
        const std::string suffix = " loads=" + std::to_string(loads);
        for (const UnxpecVariant &variant : unxpecVariants()) {
            UnxpecConfig cfg;
            variant.apply(cfg);
            cfg.inBranchLoads = loads;
            Core core(SystemConfig::makeDefault());
            dump(variant.name + suffix, UnxpecAttack(core, cfg).program());
        }
    }
    Core core(SystemConfig::makeDefault());
    dump("contention", ContentionAttack(core).program());
    dump("spectre-v1", SpectreV1(core).program());
    return 0;
}
