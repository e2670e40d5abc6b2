#include "victim/victim.hh"

#include <sstream>

#include "cpu/assembler.hh"
#include "sim/log.hh"

namespace unxpec {

namespace {

/** FIPS-197 S-box. */
constexpr std::array<std::uint8_t, 256> kSbox = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67,
    0x2b, 0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59,
    0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7,
    0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1,
    0x71, 0xd8, 0x31, 0x15, 0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05,
    0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83,
    0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29,
    0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b,
    0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf, 0xd0, 0xef, 0xaa,
    0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c,
    0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc,
    0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19,
    0x73, 0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee,
    0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49,
    0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4,
    0xea, 0x65, 0x7a, 0xae, 0x08, 0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6,
    0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a, 0x70,
    0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9,
    0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e,
    0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf, 0x8c, 0xa1,
    0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0,
    0x54, 0xbb, 0x16,
};

std::uint8_t
xtime(std::uint8_t x)
{
    return static_cast<std::uint8_t>((x << 1) ^ ((x >> 7) * 0x1b));
}

// Register allocation shared by both listings.
constexpr unsigned rIdx = 1;      // index for the current round
constexpr unsigned rBound = 2;    // f(N) chase / bound value
constexpr unsigned rSecret = 3;   // key byte / exponent bit
constexpr unsigned rBase = 5;     // training-data base (ktab / dtab)
constexpr unsigned rIdxTab = 6;   // index-table base
constexpr unsigned rLatOut = 7;   // rollback-delta output
constexpr unsigned rTmp0 = 8;
constexpr unsigned rTmp1 = 9;
constexpr unsigned rTmp2 = 10;
constexpr unsigned rXor = 11;     // AES: pt ^ key; RSA: constant 0
constexpr unsigned rAddr = 12;    // AES: entry address; RSA: mul op A
constexpr unsigned rPtr = 13;     // AES: probe pointer; RSA: mul op B
constexpr unsigned rTmp3 = 14;    // AES: chained probe addr; RSA: sink
constexpr unsigned rDelta = 15;
constexpr unsigned rLine = 16;    // AES: probe counter; RSA: probe chain
constexpr unsigned rTrial = 17;
constexpr unsigned rTrials = 18;
constexpr unsigned rChain = 19;
constexpr unsigned rProbeOut = 20;
constexpr unsigned rPt = 21;      // AES: plaintext byte; RSA: fuout base
constexpr unsigned rTbase = 22;   // AES: active table; RSA: multab base
constexpr unsigned rFlush = 23;   // AES: line training warmed
constexpr unsigned rT0 = 24;
constexpr unsigned rT1 = 25;
constexpr unsigned rFinal = 26;   // final-round index (probe gate)
constexpr unsigned rEntries = 27; // AES: probe-loop bound

std::string
reg(unsigned r)
{
    // Built in place: "r" + std::to_string(r) trips a false
    // -Wrestrict in GCC 12's libstdc++ under -Werror.
    std::string name = std::to_string(r);
    name.insert(name.begin(), 'r');
    return name;
}

/** Build-the-f(N)-chase stores: chain[j] -> chain[j+1], last = bound.
 *  The chain cannot be a data directive because its elements hold its
 *  own (assembler-chosen) address; the listing links it at startup
 *  instead, via the symbol in li-immediate position. */
void
emitChainInit(std::ostream &os, unsigned accesses, unsigned bound)
{
    for (unsigned j = 0; j + 1 < accesses; ++j) {
        os << "    li " << reg(rTmp0) << ", chain\n";
        os << "    addi " << reg(rTmp0) << ", " << reg(rTmp0) << ", "
           << j * kLineBytes << "\n";
        os << "    li " << reg(rTmp1) << ", chain\n";
        os << "    addi " << reg(rTmp1) << ", " << reg(rTmp1) << ", "
           << (j + 1) * kLineBytes << "\n";
        os << "    store8 [" << reg(rTmp0) << "+0], " << reg(rTmp1)
           << "\n";
    }
    os << "    li " << reg(rTmp0) << ", chain\n";
    os << "    addi " << reg(rTmp0) << ", " << reg(rTmp0) << ", "
       << (accesses - 1) * kLineBytes << "\n";
    os << "    li " << reg(rTmp1) << ", " << bound << "\n";
    os << "    store8 [" << reg(rTmp0) << "+0], " << reg(rTmp1) << "\n";
}

/** Flush the chain, then time the chase + ALU padding into rBound. */
void
emitBoundsCondition(std::ostream &os, const VictimConfig &cfg)
{
    for (unsigned j = 0; j < cfg.conditionAccesses; ++j)
        os << "    clflush [" << reg(rChain) << "+" << j * kLineBytes
           << "]\n";
    os << "    fence\n";
    os << "    rdtscp " << reg(rT0) << "\n";
    os << "    mov " << reg(rBound) << ", " << reg(rChain) << "\n";
    for (unsigned j = 0; j < cfg.conditionAccesses; ++j)
        os << "    load8 " << reg(rBound) << ", [" << reg(rBound)
           << "+0]\n";
    for (unsigned p = 0; p < cfg.conditionPadding; ++p)
        os << "    addi " << reg(rBound) << ", " << reg(rBound)
           << ", 0\n";
    os << "    bge " << reg(rIdx) << ", " << reg(rBound) << ", skip\n";
}

std::string
aesSource(const VictimConfig &cfg)
{
    const unsigned trials = cfg.mistrainIterations + 1;
    std::ostringstream os;
    os << "; AES-128 T-table first round under a mistrained bounds\n"
       << "; check, with a Flush+Reload probe of the active table on\n"
       << "; the final round. Generated by buildVictim().\n";

    // ---- data segment --------------------------------------------------
    os << ".data " << kAesTableSym << " "
       << kAesNumTables * aesTableBytes() << "\n";
    os << ".data " << kAesTrainKeySym << " " << kLineBytes << "\n";
    os << ".data " << kAesKeySym << " " << kLineBytes << "\n";
    os << ".data " << kAesPlaintextSym << " " << kLineBytes << "\n";
    os << ".data " << kAesTableBaseSym << " " << kLineBytes << "\n";
    os << ".data " << kAesFlushSym << " " << kLineBytes << "\n";
    os << ".data chain " << cfg.conditionAccesses * kLineBytes << "\n";
    os << ".data " << kIdxTabSym << " " << 8 * trials << "\n";
    os << ".data " << kLatOutSym << " " << kLineBytes << "\n";
    os << ".data " << kAesProbeOutSym << " " << 8 * kAesTableEntries
       << "\n";
    // The four T-tables, one 32-bit entry per cache line.
    for (unsigned t = 0; t < kAesNumTables; ++t) {
        for (unsigned e = 0; e < kAesTableEntries; ++e) {
            os << ".word " << kAesTableSym << " "
               << t * aesTableBytes() + e * kLineBytes << " "
               << aesTtableEntry(t, e) << "\n";
        }
    }

    // ---- warmup --------------------------------------------------------
    os << "    li " << reg(rBase) << ", " << kAesTrainKeySym << "\n";
    os << "    li " << reg(rIdxTab) << ", " << kIdxTabSym << "\n";
    os << "    li " << reg(rLatOut) << ", " << kLatOutSym << "\n";
    os << "    li " << reg(rProbeOut) << ", " << kAesProbeOutSym << "\n";
    os << "    li " << reg(rChain) << ", chain\n";
    os << "    li " << reg(rTrial) << ", 0\n";
    os << "    li " << reg(rTrials) << ", " << trials << "\n";
    os << "    li " << reg(rFinal) << ", " << trials - 1 << "\n";
    os << "    li " << reg(rEntries) << ", " << kAesTableEntries << "\n";
    emitChainInit(os, cfg.conditionAccesses, /*bound=*/16);
    // Runtime parameters the harness poked before this run.
    os << "    li " << reg(rTmp0) << ", " << kAesPlaintextSym << "\n";
    os << "    load1 " << reg(rPt) << ", [" << reg(rTmp0) << "+0]\n";
    os << "    li " << reg(rTmp0) << ", " << kAesTableBaseSym << "\n";
    os << "    load8 " << reg(rTbase) << ", [" << reg(rTmp0) << "+0]\n";
    os << "    li " << reg(rTmp0) << ", " << kAesFlushSym << "\n";
    os << "    load8 " << reg(rFlush) << ", [" << reg(rTmp0) << "+0]\n";
    // Victim-side warmup: the key schedule is resident, so the
    // transient key-byte load hits and the table lookup issues early.
    os << "    load1 " << reg(rTmp1) << ", [" << reg(rBase) << "+0]\n";
    os << "    li " << reg(rTmp0) << ", " << kAesKeySym << "\n";
    os << "    load1 " << reg(rTmp1) << ", [" << reg(rTmp0) << "+0]\n";
    // Flush the active table: earlier runs' probes left it warm.
    os << "    mov " << reg(rPtr) << ", " << reg(rTbase) << "\n";
    os << "    li " << reg(rLine) << ", 0\n";
    os << "tflush:\n";
    os << "    clflush [" << reg(rPtr) << "+0]\n";
    os << "    addi " << reg(rPtr) << ", " << reg(rPtr) << ", "
       << kLineBytes << "\n";
    os << "    addi " << reg(rLine) << ", " << reg(rLine) << ", 1\n";
    os << "    blt " << reg(rLine) << ", " << reg(rEntries)
       << ", tflush\n";

    // ---- POISON loop + measured round ----------------------------------
    os << "loop:\n";
    os << "    shl " << reg(rTmp0) << ", " << reg(rTrial) << ", 3\n";
    os << "    add " << reg(rTmp0) << ", " << reg(rTmp0) << ", "
       << reg(rIdxTab) << "\n";
    os << "    load8 " << reg(rIdx) << ", [" << reg(rTmp0) << "+0]\n";
    // Reset the one table line the previous training round warmed.
    os << "    clflush [" << reg(rFlush) << "+0]\n";
    emitBoundsCondition(os, cfg);
    // First-round lookup: T[b & 3][pt[b] ^ key[b]]. Training rounds
    // run it architecturally on the zero training key; the final
    // round reaches the real key byte out-of-bounds, transiently.
    os << "    add " << reg(rTmp2) << ", " << reg(rBase) << ", "
       << reg(rIdx) << "\n";
    os << "    load1 " << reg(rSecret) << ", [" << reg(rTmp2) << "+0]\n";
    os << "    xor " << reg(rXor) << ", " << reg(rSecret) << ", "
       << reg(rPt) << "\n";
    os << "    shl " << reg(rXor) << ", " << reg(rXor) << ", 6\n";
    os << "    add " << reg(rAddr) << ", " << reg(rTbase) << ", "
       << reg(rXor) << "\n";
    os << "    load8 " << reg(rTmp3) << ", [" << reg(rAddr) << "+0]\n";
    os << "skip:\n";
    os << "    rdtscp " << reg(rT1) << "\n";
    os << "    sub " << reg(rDelta) << ", " << reg(rT1) << ", "
       << reg(rT0) << "\n";
    os << "    store8 [" << reg(rLatOut) << "+0], " << reg(rDelta)
       << "\n";
    // Flush+Reload the whole active table — final round only.
    os << "    blt " << reg(rTrial) << ", " << reg(rFinal)
       << ", next\n";
    os << "    mov " << reg(rPtr) << ", " << reg(rTbase) << "\n";
    os << "    li " << reg(rLine) << ", 0\n";
    os << "probe:\n";
    // Chain each reload's address off the serializing timestamp: the
    // skip path is also the transient body's fall-through, and an
    // unchained reload would issue inside the window and warm its own
    // target.
    os << "    rdtscp " << reg(rT0) << "\n";
    os << "    xor " << reg(rTmp3) << ", " << reg(rT0) << ", "
       << reg(rT0) << "\n";
    os << "    add " << reg(rTmp3) << ", " << reg(rTmp3) << ", "
       << reg(rPtr) << "\n";
    os << "    load8 " << reg(rTmp1) << ", [" << reg(rTmp3) << "+0]\n";
    os << "    rdtscp " << reg(rT1) << "\n";
    os << "    sub " << reg(rDelta) << ", " << reg(rT1) << ", "
       << reg(rT0) << "\n";
    os << "    shl " << reg(rTmp3) << ", " << reg(rLine) << ", 3\n";
    os << "    add " << reg(rTmp3) << ", " << reg(rTmp3) << ", "
       << reg(rProbeOut) << "\n";
    os << "    store8 [" << reg(rTmp3) << "+0], " << reg(rDelta)
       << "\n";
    os << "    addi " << reg(rPtr) << ", " << reg(rPtr) << ", "
       << kLineBytes << "\n";
    os << "    addi " << reg(rLine) << ", " << reg(rLine) << ", 1\n";
    os << "    blt " << reg(rLine) << ", " << reg(rEntries)
       << ", probe\n";
    os << "next:\n";
    os << "    addi " << reg(rTrial) << ", " << reg(rTrial) << ", 1\n";
    os << "    blt " << reg(rTrial) << ", " << reg(rTrials)
       << ", loop\n";
    os << "    halt\n";
    return os.str();
}

std::string
rsaSource(const VictimConfig &cfg)
{
    const unsigned trials = cfg.mistrainIterations + 1;
    std::ostringstream os;
    os << "; RSA square-and-multiply, one exponent bit per run: a\n"
       << "; transiently-read 1 bit redirects the trained skip branch\n"
       << "; into a multiply burst plus a multiplier-table load. Both\n"
       << "; receivers are recorded: a Flush+Reload probe of the\n"
       << "; multiplier line and a timed dependent-multiply chain.\n"
       << "; Generated by buildVictim().\n";

    // ---- data segment --------------------------------------------------
    os << ".data " << kRsaTrainBitsSym << " " << kLineBytes << "\n";
    os << ".data " << kRsaExponentSym << " " << kRsaExponentBits << "\n";
    os << ".data " << kRsaMulTabSym << " " << kLineBytes << "\n";
    os << ".data chain " << cfg.conditionAccesses * kLineBytes << "\n";
    os << ".data " << kIdxTabSym << " " << 8 * trials << "\n";
    os << ".data " << kLatOutSym << " " << kLineBytes << "\n";
    os << ".data " << kRsaProbeOutSym << " " << kLineBytes << "\n";
    os << ".data " << kRsaContentionOutSym << " " << kLineBytes << "\n";

    // ---- warmup --------------------------------------------------------
    os << "    li " << reg(rBase) << ", " << kRsaTrainBitsSym << "\n";
    os << "    li " << reg(rIdxTab) << ", " << kIdxTabSym << "\n";
    os << "    li " << reg(rLatOut) << ", " << kLatOutSym << "\n";
    os << "    li " << reg(rProbeOut) << ", " << kRsaProbeOutSym << "\n";
    os << "    li " << reg(rPt) << ", " << kRsaContentionOutSym << "\n";
    os << "    li " << reg(rTbase) << ", " << kRsaMulTabSym << "\n";
    os << "    li " << reg(rChain) << ", chain\n";
    os << "    li " << reg(rXor) << ", 0\n";
    os << "    li " << reg(rAddr) << ", 3\n";
    os << "    li " << reg(rPtr) << ", 5\n";
    os << "    li " << reg(rTrial) << ", 0\n";
    os << "    li " << reg(rTrials) << ", " << trials << "\n";
    emitChainInit(os, cfg.conditionAccesses, /*bound=*/kRsaExponentBits);
    // Warm the operand lines so the transient bit load hits.
    os << "    load1 " << reg(rTmp1) << ", [" << reg(rBase) << "+0]\n";
    os << "    li " << reg(rTmp0) << ", " << kRsaExponentSym << "\n";
    os << "    load1 " << reg(rTmp1) << ", [" << reg(rTmp0) << "+0]\n";
    // Warm the result lines: the serializing timestamps wait on the
    // stores, so a first-run cold miss would inflate one sample.
    os << "    load8 " << reg(rTmp1) << ", [" << reg(rLatOut) << "+0]\n";
    os << "    load8 " << reg(rTmp1) << ", [" << reg(rProbeOut)
       << "+0]\n";
    os << "    load8 " << reg(rTmp1) << ", [" << reg(rPt) << "+0]\n";

    // ---- POISON loop + measured round ----------------------------------
    os << "loop:\n";
    os << "    shl " << reg(rTmp0) << ", " << reg(rTrial) << ", 3\n";
    os << "    add " << reg(rTmp0) << ", " << reg(rTmp0) << ", "
       << reg(rIdxTab) << "\n";
    os << "    load8 " << reg(rIdx) << ", [" << reg(rTmp0) << "+0]\n";
    os << "    clflush [" << reg(rTbase) << "+0]\n";
    emitBoundsCondition(os, cfg);
    // bit = exponent[idx]; the multiply step runs only for a 1 bit.
    os << "    add " << reg(rTmp2) << ", " << reg(rBase) << ", "
       << reg(rIdx) << "\n";
    os << "    load1 " << reg(rSecret) << ", [" << reg(rTmp2) << "+0]\n";
    os << "    beq " << reg(rSecret) << ", " << reg(rXor) << ", skip\n";
    for (unsigned m = 0; m < cfg.transientMuls; ++m)
        os << "    mul " << reg(rTmp3) << ", " << reg(rAddr) << ", "
           << reg(rPtr) << "\n";
    os << "    load8 " << reg(rTmp1) << ", [" << reg(rTbase) << "+0]\n";
    os << "skip:\n";
    os << "    rdtscp " << reg(rT1) << "\n";
    os << "    sub " << reg(rDelta) << ", " << reg(rT1) << ", "
       << reg(rT0) << "\n";
    os << "    store8 [" << reg(rLatOut) << "+0], " << reg(rDelta)
       << "\n";
    // Contention probe: dependent multiplies chained off t1 so none
    // of them issue transiently.
    os << "    mov " << reg(rLine) << ", " << reg(rT1) << "\n";
    for (unsigned m = 0; m < cfg.probeMuls; ++m)
        os << "    mul " << reg(rLine) << ", " << reg(rLine) << ", "
           << reg(rPtr) << "\n";
    os << "    rdtscp " << reg(rT0) << "\n";
    os << "    sub " << reg(rTmp2) << ", " << reg(rT0) << ", "
       << reg(rT1) << "\n";
    os << "    store8 [" << reg(rPt) << "+0], " << reg(rTmp2) << "\n";
    // Cache probe of the multiplier line, chained like the AES probe.
    os << "    rdtscp " << reg(rT0) << "\n";
    os << "    xor " << reg(rTmp2) << ", " << reg(rT0) << ", "
       << reg(rT0) << "\n";
    os << "    add " << reg(rTmp2) << ", " << reg(rTmp2) << ", "
       << reg(rTbase) << "\n";
    os << "    load8 " << reg(rTmp1) << ", [" << reg(rTmp2) << "+0]\n";
    os << "    rdtscp " << reg(rT1) << "\n";
    os << "    sub " << reg(rTmp2) << ", " << reg(rT1) << ", "
       << reg(rT0) << "\n";
    os << "    store8 [" << reg(rProbeOut) << "+0], " << reg(rTmp2)
       << "\n";
    os << "    addi " << reg(rTrial) << ", " << reg(rTrial) << ", 1\n";
    os << "    blt " << reg(rTrial) << ", " << reg(rTrials)
       << ", loop\n";
    os << "    halt\n";
    return os.str();
}

} // namespace

std::size_t
aesTableBytes()
{
    return static_cast<std::size_t>(kAesTableEntries) * kLineBytes;
}

const std::array<std::uint8_t, 256> &
aesSbox()
{
    return kSbox;
}

std::uint32_t
aesTtableEntry(unsigned table, unsigned index)
{
    if (table >= kAesNumTables || index >= kAesTableEntries)
        fatal("aesTtableEntry: out of range (", table, ", ", index, ")");
    const std::uint8_t s = kSbox[index];
    const std::uint8_t s2 = xtime(s);
    const std::uint8_t s3 = static_cast<std::uint8_t>(s2 ^ s);
    // T0 = [2s, s, s, 3s]; T1..T3 are byte rotations of T0.
    const std::uint32_t t0 = (static_cast<std::uint32_t>(s2) << 24) |
                             (static_cast<std::uint32_t>(s) << 16) |
                             (static_cast<std::uint32_t>(s) << 8) |
                             s3;
    if (table == 0)
        return t0;
    return (t0 >> (8 * table)) | (t0 << (32 - 8 * table));
}

Addr
VictimListing::symbol(const std::string &name) const
{
    const auto it = symbols.find(name);
    if (it == symbols.end())
        fatal("victim listing: unknown data symbol '", name, "'");
    return it->second;
}

VictimListing
buildVictim(const VictimConfig &cfg)
{
    if (cfg.conditionAccesses == 0)
        fatal("buildVictim: the bounds chase needs an access");
    if (cfg.mistrainIterations == 0)
        fatal("buildVictim: need at least one mistraining round");
    VictimListing listing;
    listing.trials = cfg.mistrainIterations + 1;
    listing.source = cfg.kind == VictimKind::AesTtable ? aesSource(cfg)
                                                       : rsaSource(cfg);
    listing.program = Assembler::assemble(listing.source,
                                          listing.symbols);
    return listing;
}

} // namespace unxpec
