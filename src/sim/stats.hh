/**
 * @file
 * Lightweight statistics package, loosely modeled on gem5's Stats.
 *
 * Modules register named counters in a StatGroup; the
 * group can be dumped in a gem5-flavoured `name value # desc` format,
 * which is what the paper's artifact post-processes (sim_ticks,
 * startCycles, extraCleanupSquashTimeCyclesXX and friends).
 */

#ifndef UNXPEC_SIM_STATS_HH
#define UNXPEC_SIM_STATS_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>

namespace unxpec {

/** A named monotonically adjustable scalar statistic. */
class Counter
{
  public:
    Counter() = default;
    Counter(std::string name, std::string desc)
        : name_(std::move(name)), desc_(std::move(desc)) {}

    Counter &operator++() { ++value_; return *this; }
    Counter &operator+=(std::uint64_t delta) { value_ += delta; return *this; }

    void set(std::uint64_t v) { value_ = v; }
    void reset() { value_ = 0; }

    std::uint64_t value() const { return value_; }
    const std::string &name() const { return name_; }
    const std::string &desc() const { return desc_; }

  private:
    std::string name_;
    std::string desc_;
    std::uint64_t value_ = 0;
};

/**
 * A registry of counters with hierarchical dotted names, dumpable in
 * gem5 stats format.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string prefix = "") : prefix_(std::move(prefix)) {}

    /** Create (or fetch) a counter under this group's prefix. */
    Counter &counter(const std::string &name, const std::string &desc = "");

    /** Look up an existing counter; nullptr when absent. */
    const Counter *findCounter(const std::string &name) const;

    /** Reset all registered statistics to zero. */
    void resetAll();

    /** Dump all stats in `name value # desc` lines, sorted by name. */
    void dump(std::ostream &os) const;

  private:
    std::string fullName(const std::string &name) const;

    std::string prefix_;
    std::map<std::string, Counter> counters_;
};

} // namespace unxpec

#endif // UNXPEC_SIM_STATS_HH
