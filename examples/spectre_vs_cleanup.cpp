/**
 * @file
 * The paper's story in one run: Spectre v1 with Flush+Reload leaks a
 * byte per round on the unsafe baseline; CleanupSpec's Undo rollback
 * defeats it; unXpec then re-opens a channel on the very same
 * CleanupSpec machine by timing the rollback itself. The defended
 * machine comes from the harness registry, so other schemes can be
 * auditioned for Acts 2 and 3:
 *
 *   $ ./spectre_vs_cleanup [--mode cleanup_l1]
 */

#include <iostream>

#include "attack/channel.hh"
#include "attack/spectre_v1.hh"
#include "harness/cli.hh"
#include "harness/session.hh"

using namespace unxpec;

namespace {

void
runSpectre(const char *label, const SystemConfig &cfg)
{
    Core core(cfg);
    SpectreV1 spectre(core);
    const std::uint8_t secret = 0x5A;
    spectre.setSecretByte(secret);
    const SpectreResult result = spectre.leakByte();
    std::cout << label << ": probe argmin = " << result.guessedByte
              << " at " << result.guessLatency << " cycles -> "
              << (result.cacheHitSignal
                      ? (result.guessedByte == secret
                             ? "LEAKED the secret byte 0x5A"
                             : "hit on wrong byte")
                      : "no cache hit, attack DEFEATED")
              << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    HarnessCli cli("spectre_vs_cleanup",
                   "Spectre v1 vs CleanupSpec vs unXpec, in three acts");
    const HarnessOptions opt = cli.parse(argc, argv);
    ExperimentSpec spec = cli.baseSpec(opt);
    spec.attack = "unxpec-evset";

    std::cout << "--- Act 1: Spectre v1 vs the unprotected cache ---\n";
    runSpectre("unsafe baseline", makeDefense("unsafe"));

    std::cout << "\n--- Act 2: Spectre v1 vs " << spec.defense << " ---\n";
    runSpectre(spec.defense.c_str(), Session::configFor(spec, opt.seed));

    std::cout << "\n--- Act 3: unXpec vs the same " << spec.defense
              << " machine ---\n";
    Session session(spec, opt.seed);
    UnxpecAttack &attack = session.unxpec();
    const double threshold = attack.calibrate(6);

    const std::uint8_t secret = 0x5A;
    int recovered = 0;
    for (int bit = 7; bit >= 0; --bit) {
        attack.setSecret((secret >> bit) & 1);
        const double latency = attack.measureOnce();
        const int guess = CovertChannel::decode(latency, threshold);
        recovered = (recovered << 1) | guess;
        std::cout << "  bit " << bit << ": latency " << latency
                  << " cycles -> " << guess << "\n";
    }
    std::cout << "unXpec recovered byte 0x" << std::hex << recovered
              << std::dec
              << (recovered == secret ? "  -- secret LEAKED through the "
                                        "rollback timing channel"
                                      : "  -- decode failed")
              << "\n";

    std::cout << "\nModeration note: the rollback that erased Spectre's "
                 "footprint is itself the signal unXpec reads.\n";
    return 0;
}
