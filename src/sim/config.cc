#include "sim/config.hh"

#include <iomanip>
#include <sstream>

#include "sim/log.hh"

namespace unxpec {

const char *
toString(CleanupMode mode)
{
    switch (mode) {
      case CleanupMode::UnsafeBaseline:   return "UnsafeBaseline";
      case CleanupMode::Cleanup_FOR_L1:   return "Cleanup_FOR_L1";
      case CleanupMode::Cleanup_FOR_L1L2: return "Cleanup_FOR_L1L2";
      case CleanupMode::InvisiSpec:       return "InvisiSpec";
      case CleanupMode::DelayOnMiss:      return "DelayOnMiss";
      case CleanupMode::SafeSpec:         return "SafeSpec";
      case CleanupMode::SpecBox:          return "SpecBox";
      case CleanupMode::CacheSquash:      return "CacheSquash";
    }
    return "?";
}

SystemConfig
SystemConfig::makeDefault()
{
    SystemConfig cfg;

    cfg.l1i.name = "l1i";
    cfg.l1i.sizeBytes = 32 * 1024;
    cfg.l1i.ways = 4;              // 128 sets (Table I)
    cfg.l1i.hitLatency = 1;
    cfg.l1i.mshrs = 8;
    cfg.l1i.repl = ReplPolicy::LRU;

    cfg.l1d.name = "l1d";
    cfg.l1d.sizeBytes = 32 * 1024;
    cfg.l1d.ways = 8;              // 64 sets (Table I)
    cfg.l1d.hitLatency = 2;
    cfg.l1d.mshrs = 12;
    // CleanupSpec: random replacement in L1 to hide replacement-state
    // side channels.
    cfg.l1d.repl = ReplPolicy::Random;

    cfg.l2.name = "l2";
    cfg.l2.sizeBytes = 2 * 1024 * 1024;
    cfg.l2.ways = 16;              // 2048 sets (Table I)
    cfg.l2.hitLatency = 12;
    cfg.l2.mshrs = 16;
    cfg.l2.repl = ReplPolicy::LRU;
    // CleanupSpec: CEASER-style randomized mapping on lower-level
    // caches instead of (unaffordable) restoration.
    cfg.l2.index = IndexPolicy::Ceaser;

    cfg.memory.accessLatency = 100; // 50 ns RT at 2 GHz
    return cfg;
}

SystemConfig
SystemConfig::makeUnsafeBaseline()
{
    SystemConfig cfg = makeDefault();
    cfg.cleanupMode = CleanupMode::UnsafeBaseline;
    // The unprotected baseline uses conventional policies.
    cfg.l1d.repl = ReplPolicy::LRU;
    cfg.l2.index = IndexPolicy::Modulo;
    return cfg;
}

SystemConfig
SystemConfig::makeInvisiSpec()
{
    SystemConfig cfg = makeDefault();
    cfg.cleanupMode = CleanupMode::InvisiSpec;
    // Invisible defenses do not rely on randomized policies; they hide
    // speculative state outright.
    cfg.l1d.repl = ReplPolicy::LRU;
    cfg.l2.index = IndexPolicy::Modulo;
    return cfg;
}

SystemConfig
SystemConfig::makeDelayOnMiss()
{
    SystemConfig cfg = makeInvisiSpec();
    cfg.cleanupMode = CleanupMode::DelayOnMiss;
    return cfg;
}

SystemConfig
SystemConfig::makeSafeSpec()
{
    // Shadow-structure defenses hide speculative state outright and do
    // not rely on randomized policies (same reasoning as InvisiSpec).
    SystemConfig cfg = makeInvisiSpec();
    cfg.cleanupMode = CleanupMode::SafeSpec;
    return cfg;
}

SystemConfig
SystemConfig::makeSpecBox()
{
    // SpecBox installs speculative lines in place (labeled), so it
    // keeps the conventional policies too: the labels, not the
    // randomization, provide the isolation.
    SystemConfig cfg = makeInvisiSpec();
    cfg.cleanupMode = CleanupMode::SpecBox;
    return cfg;
}

SystemConfig
SystemConfig::makeCacheSquash()
{
    SystemConfig cfg = makeInvisiSpec();
    cfg.cleanupMode = CleanupMode::CacheSquash;
    return cfg;
}

SystemConfig
SystemConfig::makeNoisyHost()
{
    SystemConfig cfg = makeDefault();
    cfg.memory.accessLatency = 170;  // deeper host hierarchy
    cfg.memory.jitterSigma = 6.0;    // DRAM scheduling/refresh jitter
    cfg.l2.hitLatency = 26;          // stand-in for the host L2+L3 path
    return cfg;
}

void
SystemConfig::validate() const
{
    auto check_cache = [](const CacheConfig &c) {
        if (c.ways == 0 || c.ways > 64)
            fatal("cache ", c.name, ": ways must be in [1, 64]");
        if (c.sizeBytes == 0 ||
            c.sizeBytes % (c.ways * kLineBytes) != 0) {
            fatal("cache ", c.name,
                  ": size must be a multiple of ways x 64 B");
        }
        if (c.mshrs == 0)
            fatal("cache ", c.name, ": need at least one MSHR");
    };
    check_cache(l1i);
    check_cache(l1d);
    check_cache(l2);

    if (core.fetchWidth == 0 || core.issueWidth == 0 ||
        core.commitWidth == 0) {
        fatal("core: pipeline widths must be nonzero");
    }
    if (core.robEntries < 2 * core.fetchWidth)
        fatal("core: ROB must hold at least two fetch groups");
    if (core.lsqEntries == 0)
        fatal("core: LSQ must hold at least one entry");
    if (memory.accessLatency == 0)
        fatal("memory: access latency must be nonzero");
    if (clockGHz <= 0.0)
        fatal("clock frequency must be positive");
    if (numCores == 0 || numCores > 16)
        fatal("machine: numCores must be in [1, 16]");
}

void
SystemConfig::print(std::ostream &os) const
{
    auto row = [&os](const std::string &module, const std::string &value) {
        os << "  " << std::left << std::setw(22) << module << value << "\n";
    };
    os << "System configuration (Table I)\n";
    std::ostringstream ghz;
    ghz << clockGHz;
    row("Processor", std::to_string(numCores) +
        (numCores == 1 ? " core, " : " cores, ") + ghz.str() +
        " GHz, out-of-order " + std::to_string(core.robEntries) +
        "-entry ROB");
    auto cacheRow = [&row](const char *label, const CacheConfig &c) {
        row(label, std::to_string(c.sizeBytes / 1024) + " KB, " +
            std::to_string(c.ways) + "-way, " +
            std::to_string(c.numSets()) + "-set");
    };
    cacheRow("Private L1 I cache", l1i);
    cacheRow("Private L1 D cache", l1d);
    row("Shared L2 cache", std::to_string(l2.sizeBytes / 1024 / 1024) +
        " MB, " + std::to_string(l2.ways) + "-way, " +
        std::to_string(l2.numSets()) + "-set");
    row("Memory", std::to_string(memory.accessLatency) + " cycles (" +
        std::to_string(static_cast<unsigned>(
            memory.accessLatency / clockGHz)) + " ns RT) after L2");
    row("Cleanup mode", toString(cleanupMode));
}

} // namespace unxpec
