#include "attack/victim_attack.hh"

#include "sim/log.hh"

namespace unxpec {

namespace {

/** Deterministic known-plaintext schedule (any bytes work: with one
 *  table entry per line the first plaintext already pins the byte;
 *  extras cross-check it). */
constexpr std::array<std::uint8_t, 8> kPlaintexts = {
    0x00, 0xa5, 0x3c, 0x71, 0xe2, 0x17, 0x88, 0x4b,
};

} // namespace

VictimAttack::VictimAttack(Core &core, const VictimAttackConfig &cfg)
    : core_(core), cfg_(cfg), listing_(victimListing(cfg.victim))
{
    if (cfg_.plaintexts == 0 || cfg_.plaintexts > kPlaintexts.size())
        fatal("VictimAttack: plaintexts must be in [1, ",
              kPlaintexts.size(), "]");
    if (cfg_.victim.kind == VictimKind::AesTtable) {
        oobIndex_ = listing_.symbol(kAesKeySym) -
                    listing_.symbol(kAesTrainKeySym);
    } else {
        oobIndex_ = listing_.symbol(kRsaExponentSym) -
                    listing_.symbol(kRsaTrainBitsSym);
    }
}

void
VictimAttack::setKey(const std::array<std::uint8_t, 16> &key)
{
    if (cfg_.victim.kind != VictimKind::AesTtable)
        fatal("VictimAttack::setKey: not an AES victim");
    const Addr base = listing_.symbol(kAesKeySym);
    for (unsigned i = 0; i < key.size(); ++i)
        core_.mem().write8(base + i, key[i]);
}

void
VictimAttack::setExponent(std::uint64_t exponent)
{
    if (cfg_.victim.kind != VictimKind::RsaSqMul)
        fatal("VictimAttack::setExponent: not an RSA victim");
    const Addr base = listing_.symbol(kRsaExponentSym);
    for (unsigned i = 0; i < kRsaExponentBits; ++i) {
        const unsigned bit = (exponent >> (kRsaExponentBits - 1 - i)) & 1;
        core_.mem().write8(base + i, bit);
    }
}

void
VictimAttack::runOnce()
{
    RunOptions options;
    options.loadData = !dataLoaded_;
    if (!dataLoaded_) {
        // Priming run, result discarded. The transient body is only
        // ever fetched through the final-trial mispredict redirect, so
        // its code lines are stone cold the first time through — the
        // fetch stall would push the burst (and the secret-dependent
        // load) outside the speculation window and poison the first
        // sample. Real attackers discard warm-up samples for the same
        // reason. The spent cycles still count toward the recovery
        // rate.
        //
        // The RSA burst is worse than cold: it only executes when the
        // read bit is 1, so a priming run over a leading 0 bit warms
        // nothing. Plant a 1 in the attacker's own training array and
        // point the priming round at it *in bounds* — the burst then
        // runs architecturally once — and restore the pokes after.
        std::vector<std::uint64_t> savedIdx;
        const bool rsa = cfg_.victim.kind == VictimKind::RsaSqMul;
        const Addr idxTab = listing_.symbol(kIdxTabSym);
        if (rsa) {
            const Addr train = listing_.symbol(kRsaTrainBitsSym);
            for (unsigned t = 0; t < listing_.trials; ++t) {
                savedIdx.push_back(core_.mem().read64(idxTab + 8 * t));
                core_.mem().write64(idxTab + 8 * t,
                                    t + 1 < listing_.trials ? 0 : 1);
            }
            core_.mem().write8(train + 1, 1);
        }
        const RunResult primer = core_.run(listing_.program, options);
        dataLoaded_ = true;
        options.loadData = false;
        ++totalRuns_;
        totalCycles_ += primer.cycles;
        if (rsa) {
            core_.mem().write8(listing_.symbol(kRsaTrainBitsSym) + 1, 0);
            for (unsigned t = 0; t < listing_.trials; ++t)
                core_.mem().write64(idxTab + 8 * t, savedIdx[t]);
        }
    }
    const RunResult result = core_.run(listing_.program, options);
    ++totalRuns_;
    totalCycles_ += result.cycles;
}

std::vector<double>
VictimAttack::runAesProbe(unsigned byte, std::uint8_t pt)
{
    const unsigned trials = listing_.trials;
    const Addr idxTab = listing_.symbol(kIdxTabSym);
    // Training rounds stay in bounds on the zero training key; the
    // final round reaches key[byte] out-of-bounds.
    for (unsigned t = 0; t + 1 < trials; ++t)
        core_.mem().write64(idxTab + 8 * t, byte);
    core_.mem().write64(idxTab + 8 * (trials - 1), oobIndex_ + byte);
    core_.mem().write8(listing_.symbol(kAesPlaintextSym), pt);
    const Addr tbase = listing_.symbol(kAesTableSym) +
                       (byte & 3) * aesTableBytes();
    core_.mem().write64(listing_.symbol(kAesTableBaseSym), tbase);
    // The line the training lookups warm: index 0 ^ pt.
    core_.mem().write64(listing_.symbol(kAesFlushSym),
                        tbase + static_cast<Addr>(pt) * kLineBytes);

    runOnce();

    const Addr probeOut = listing_.symbol(kAesProbeOutSym);
    std::vector<double> latencies;
    latencies.reserve(kAesTableEntries);
    for (unsigned e = 0; e < kAesTableEntries; ++e)
        latencies.push_back(
            static_cast<double>(core_.mem().read64(probeOut + 8 * e)));
    return latencies;
}

AesRecoveryResult
VictimAttack::recoverAesKey()
{
    if (cfg_.victim.kind != VictimKind::AesTtable)
        fatal("VictimAttack::recoverAesKey: not an AES victim");
    AesRecoveryResult result;
    for (unsigned b = 0; b < 16; ++b) {
        std::vector<ProbeEvidence> evidence;
        evidence.reserve(cfg_.plaintexts);
        for (unsigned p = 0; p < cfg_.plaintexts; ++p) {
            ProbeEvidence e;
            e.plaintext = kPlaintexts[p];
            e.entryLatencies = runAesProbe(b, e.plaintext);
            evidence.push_back(std::move(e));
        }
        const ByteRanking ranking =
            rankKeyByte(evidence, cfg_.minMarginCycles);
        result.guess[b] = ranking.best();
        result.margin[b] = ranking.margin;
        result.confident[b] = ranking.confident;
        result.confidentBytes += ranking.confident;
    }
    return result;
}

std::pair<double, double>
VictimAttack::runRsaBit(unsigned bit)
{
    const unsigned trials = listing_.trials;
    const Addr idxTab = listing_.symbol(kIdxTabSym);
    for (unsigned t = 0; t + 1 < trials; ++t)
        core_.mem().write64(idxTab + 8 * t, bit);
    core_.mem().write64(idxTab + 8 * (trials - 1), oobIndex_ + bit);

    runOnce();

    const double contention = static_cast<double>(
        core_.mem().read64(listing_.symbol(kRsaContentionOutSym)));
    const double reload = static_cast<double>(
        core_.mem().read64(listing_.symbol(kRsaProbeOutSym)));
    return {contention, reload};
}

RsaRecoveryResult
VictimAttack::recoverExponent(bool contention_receiver)
{
    if (cfg_.victim.kind != VictimKind::RsaSqMul)
        fatal("VictimAttack::recoverExponent: not an RSA victim");
    RsaRecoveryResult result;
    result.stats.reserve(kRsaExponentBits);
    for (unsigned b = 0; b < kRsaExponentBits; ++b) {
        const auto [contention, reload] = runRsaBit(b);
        result.stats.push_back(contention_receiver ? contention
                                                   : reload);
    }
    // A 1 bit delays the contention probe (burst occupies the
    // multiplier) but speeds the reload (transient install persists).
    const BitSplit split = splitBits(result.stats, contention_receiver,
                                     cfg_.minGapCycles);
    result.gap = split.gap;
    result.confident = split.confident;
    for (unsigned b = 0; b < kRsaExponentBits; ++b) {
        result.guess = (result.guess << 1) |
                       static_cast<std::uint64_t>(split.bits[b]);
    }
    return result;
}

double
VictimAttack::cyclesPerSample() const
{
    return totalRuns_ == 0
        ? 0.0
        : static_cast<double>(totalCycles_) / totalRuns_;
}

} // namespace unxpec
