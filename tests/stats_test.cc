/**
 * @file
 * Unit tests for counters and stat groups.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/stats.hh"

namespace unxpec {
namespace {

TEST(CounterTest, IncrementAndAdd)
{
    Counter c("c", "desc");
    ++c;
    c += 10;
    EXPECT_EQ(c.value(), 11u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(StatGroupTest, CounterIsSharedByName)
{
    StatGroup group("grp");
    Counter &a = group.counter("hits");
    Counter &b = group.counter("hits");
    ++a;
    EXPECT_EQ(b.value(), 1u);
    EXPECT_EQ(&a, &b);
}

TEST(StatGroupTest, PrefixAppliedToNames)
{
    StatGroup group("cpu");
    Counter &c = group.counter("sim_ticks");
    EXPECT_EQ(c.name(), "cpu.sim_ticks");
}

TEST(StatGroupTest, FindCounterReturnsNullWhenAbsent)
{
    StatGroup group("g");
    EXPECT_EQ(group.findCounter("nothing"), nullptr);
    group.counter("something");
    EXPECT_NE(group.findCounter("something"), nullptr);
}

TEST(StatGroupTest, ResetAllZeroesCounters)
{
    StatGroup group;
    group.counter("a") += 5;
    group.resetAll();
    EXPECT_EQ(group.findCounter("a")->value(), 0u);
}

TEST(StatGroupTest, DumpContainsNamesAndValues)
{
    StatGroup group("sys");
    group.counter("ticks", "total ticks") += 123;
    std::ostringstream oss;
    group.dump(oss);
    const std::string text = oss.str();
    EXPECT_NE(text.find("sys.ticks"), std::string::npos);
    EXPECT_NE(text.find("123"), std::string::npos);
    EXPECT_NE(text.find("total ticks"), std::string::npos);
}

} // namespace
} // namespace unxpec
