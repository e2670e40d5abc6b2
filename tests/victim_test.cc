/**
 * @file
 * End-to-end tests for the secret-bearing victim programs: the AES
 * T-table and RSA square-and-multiply listings assemble through the
 * text assembler, a planted AES key is recovered in full under the
 * unsafe baseline, undo defenses degrade the recovery, and the
 * FU-contention receiver re-opens the RSA channel under cache-hiding
 * defenses. Everything must be deterministic for a given seed. A
 * listing is a pure function of its VictimConfig, built once per
 * process and shared read-only, also by threads that attack at once.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <latch>
#include <limits>
#include <thread>
#include <vector>

#include "attack/victim_attack.hh"
#include "cpu/core.hh"
#include "memory/main_memory.hh"
#include "sim/config.hh"
#include "sim/rng.hh"

namespace unxpec {
namespace {

/** FIPS-197 example key (appendix A.1). */
constexpr std::array<std::uint8_t, 16> kDemoKey = {
    0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
    0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c,
};

constexpr std::uint64_t kDemoExponent = 0x9e3779b97f4a7c15ull;

unsigned
correctBytes(const AesRecoveryResult &result)
{
    unsigned correct = 0;
    for (unsigned b = 0; b < 16; ++b)
        correct += result.guess[b] == kDemoKey[b];
    return correct;
}

unsigned
correctExponentBits(std::uint64_t guess)
{
    const std::uint64_t wrong = guess ^ kDemoExponent;
    unsigned correct = 64;
    for (unsigned b = 0; b < 64; ++b)
        correct -= (wrong >> b) & 1;
    return correct;
}

AesRecoveryResult
recoverAes(const SystemConfig &base, const VictimAttackConfig &vcfg = {})
{
    SystemConfig cfg = base;
    cfg.seed = 1;
    Core core(cfg);
    VictimAttack attack(core, vcfg);
    attack.setKey(kDemoKey);
    return attack.recoverAesKey();
}

RsaRecoveryResult
recoverRsa(const SystemConfig &base, bool contention_receiver)
{
    SystemConfig cfg = base;
    cfg.seed = 1;
    Core core(cfg);
    VictimAttackConfig vcfg;
    vcfg.victim.kind = VictimKind::RsaSqMul;
    VictimAttack attack(core, vcfg);
    attack.setExponent(kDemoExponent);
    return attack.recoverExponent(contention_receiver);
}

TEST(VictimListingTest, BothListingsAssemble)
{
    VictimConfig cfg;
    const VictimListing aes = buildVictim(cfg);
    EXPECT_GT(aes.program.size(), 0u);
    EXPECT_NE(aes.source.find("load1"), std::string::npos);
    EXPECT_EQ(aes.trials, cfg.mistrainIterations + 1);
    // The pokable cells the harness depends on.
    for (const char *sym :
         {kAesTableSym, kAesKeySym, kAesPlaintextSym, kAesTableBaseSym,
          kAesFlushSym, kIdxTabSym, kAesProbeOutSym}) {
        EXPECT_NO_FATAL_FAILURE(aes.symbol(sym)) << sym;
    }

    cfg.kind = VictimKind::RsaSqMul;
    const VictimListing rsa = buildVictim(cfg);
    EXPECT_GT(rsa.program.size(), 0u);
    for (const char *sym :
         {kRsaExponentSym, kRsaMulTabSym, kRsaProbeOutSym,
          kRsaContentionOutSym, kIdxTabSym}) {
        EXPECT_NO_FATAL_FAILURE(rsa.symbol(sym)) << sym;
    }
}

/** Builds `cfg` twice and expects equal listings; returns the count of
 *  nonzero 64-bit words in the initial-data image. */
unsigned
expectPureBuild(const VictimConfig &cfg)
{
    const VictimListing a = buildVictim(cfg);
    const VictimListing b = buildVictim(cfg);
    EXPECT_EQ(a.source, b.source);
    EXPECT_EQ(a.trials, b.trials);
    EXPECT_EQ(a.symbols, b.symbols);
    EXPECT_EQ(a.program.listing(), b.program.listing());

    // The data image: load each build into its own fresh memory and
    // compare every word from the lowest symbol to the T-tables' size
    // past the highest, the largest span one symbol covers.
    const MemoryConfig memCfg;
    Rng rngA, rngB;
    MainMemory memA(memCfg, rngA);
    MainMemory memB(memCfg, rngB);
    a.program.loadInitialData(memA);
    b.program.loadInitialData(memB);
    Addr lo = std::numeric_limits<Addr>::max();
    Addr hi = 0;
    for (const auto &[name, addr] : a.symbols) {
        lo = std::min(lo, addr);
        hi = std::max(hi, addr);
    }
    hi += kAesNumTables * aesTableBytes();
    unsigned dataMismatches = 0;
    unsigned nonzero = 0;
    for (Addr addr = lo; addr < hi; addr += 8) {
        dataMismatches += memA.read64(addr) != memB.read64(addr);
        nonzero += memA.read64(addr) != 0;
    }
    EXPECT_EQ(dataMismatches, 0u);
    return nonzero;
}

TEST(VictimListingTest, BuildIsPure)
{
    VictimConfig cfg;
    // The AES image holds the T-tables, one entry per line; each table
    // has one zero entry, at the index where the S-box reads 0.
    EXPECT_GE(expectPureBuild(cfg),
              kAesNumTables * (kAesTableEntries - 1));
    cfg.kind = VictimKind::RsaSqMul;
    expectPureBuild(cfg);
}

TEST(VictimListingTest, EqualConfigsShareOneListing)
{
    SystemConfig cfg = SystemConfig::makeUnsafeBaseline();
    cfg.seed = 1;
    Core first(cfg);
    Core second(cfg);
    VictimAttackConfig vcfg;
    const VictimAttack a(first, vcfg);
    const VictimAttack b(second, vcfg);
    EXPECT_EQ(&a.listing(), &b.listing());
    EXPECT_EQ(&a.listing(), &victimListing(vcfg.victim));

    VictimAttackConfig shorter = vcfg;
    shorter.victim.mistrainIterations = 8;
    const VictimAttack c(first, shorter);
    EXPECT_NE(&c.listing(), &a.listing());
    EXPECT_EQ(c.listing().trials, 9u);
    EXPECT_EQ(&c.listing(), &victimListing(shorter.victim));
}

TEST(VictimListingTest, TtablesDeriveFromTheSbox)
{
    // T0[0x00]: S[0] = 0x63 -> [2*63, 63, 63, 3*63] = c6 63 63 a5.
    EXPECT_EQ(aesTtableEntry(0, 0), 0xc66363a5u);
    // T1..T3 are byte rotations of T0.
    EXPECT_EQ(aesTtableEntry(1, 0), 0xa5c66363u);
    EXPECT_EQ(aesTtableEntry(2, 0), 0x63a5c663u);
    EXPECT_EQ(aesTtableEntry(3, 0), 0x6363a5c6u);
    EXPECT_EQ(aesSbox()[0x53], 0xed);
}

TEST(VictimRecoveryTest, AesFullKeyUnderUnsafeBaseline)
{
    const AesRecoveryResult result =
        recoverAes(SystemConfig::makeUnsafeBaseline());
    EXPECT_EQ(correctBytes(result), 16u);
    EXPECT_EQ(result.confidentBytes, 16u);
    for (unsigned b = 0; b < 16; ++b)
        EXPECT_GT(result.margin[b], 0.0) << "byte " << b;
}

TEST(VictimRecoveryTest, AesDegradedUnderSafeSpec)
{
    const AesRecoveryResult result =
        recoverAes(SystemConfig::makeSafeSpec());
    EXPECT_LE(correctBytes(result), 8u);
    EXPECT_LE(result.confidentBytes, 8u);
}

TEST(VictimRecoveryTest, RsaExponentUnderUnsafeBaseline)
{
    const RsaRecoveryResult result =
        recoverRsa(SystemConfig::makeUnsafeBaseline(), false);
    EXPECT_TRUE(result.confident);
    EXPECT_EQ(correctExponentBits(result.guess), 64u);
}

TEST(VictimRecoveryTest, RsaContentionReopensUnderSafeSpec)
{
    // SafeSpec hides all speculative cache state: the reload receiver
    // must collapse...
    const RsaRecoveryResult cache =
        recoverRsa(SystemConfig::makeSafeSpec(), false);
    EXPECT_LE(correctExponentBits(cache.guess), 48u);

    // ...but the burst's busy window on a non-pipelined multiplier
    // survives the squash (SpectreRewind), re-opening recovery.
    SystemConfig cfg = SystemConfig::makeSafeSpec();
    cfg.core.mulPipelined = false;
    const RsaRecoveryResult fu = recoverRsa(cfg, true);
    EXPECT_TRUE(fu.confident);
    EXPECT_EQ(correctExponentBits(fu.guess), 64u);
}

TEST(VictimRecoveryTest, RecoveryIsDeterministic)
{
    const AesRecoveryResult a =
        recoverAes(SystemConfig::makeUnsafeBaseline());
    const AesRecoveryResult b =
        recoverAes(SystemConfig::makeUnsafeBaseline());
    EXPECT_EQ(a.guess, b.guess);
    EXPECT_EQ(a.margin, b.margin);

    const RsaRecoveryResult r1 =
        recoverRsa(SystemConfig::makeUnsafeBaseline(), false);
    const RsaRecoveryResult r2 =
        recoverRsa(SystemConfig::makeUnsafeBaseline(), false);
    EXPECT_EQ(r1.guess, r2.guess);
    EXPECT_EQ(r1.stats, r2.stats);
}

TEST(VictimConcurrencyTest, SimultaneousAttacksRecoverTheSerialKey)
{
    // A config no other test claims, so the threads race on its first
    // build as well as on the shared listing.
    VictimAttackConfig vcfg;
    vcfg.plaintexts = 1;
    vcfg.victim.mistrainIterations = 12;
    constexpr unsigned kThreads = 3;
    std::latch start(kThreads);
    std::vector<AesRecoveryResult> results(kThreads);
    std::vector<const VictimListing *> listings(kThreads, nullptr);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            SystemConfig cfg = SystemConfig::makeUnsafeBaseline();
            cfg.seed = 1;
            Core core(cfg);
            start.arrive_and_wait();
            VictimAttack attack(core, vcfg);
            listings[t] = &attack.listing();
            attack.setKey(kDemoKey);
            results[t] = attack.recoverAesKey();
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    const AesRecoveryResult serial =
        recoverAes(SystemConfig::makeUnsafeBaseline(), vcfg);
    EXPECT_EQ(correctBytes(serial), 16u);
    for (unsigned t = 0; t < kThreads; ++t) {
        EXPECT_EQ(listings[t], &victimListing(vcfg.victim)) << t;
        EXPECT_EQ(results[t].guess, serial.guess) << t;
        EXPECT_EQ(results[t].margin, serial.margin) << t;
        EXPECT_EQ(results[t].confident, serial.confident) << t;
    }
}

} // namespace
} // namespace unxpec
