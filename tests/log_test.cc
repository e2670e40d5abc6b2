/**
 * @file
 * Status reporting (sim/log.hh): warn() always prints, formats its
 * arguments exactly once, and carries on; fatal() exits with status 1
 * and panic() aborts, each with its tag on stderr.
 */

#include <gtest/gtest.h>

#include <ostream>

#include "sim/log.hh"

namespace unxpec {
namespace {

/** Counts how many times it is streamed — i.e. formatted. */
struct FormatProbe
{
    mutable int streamed = 0;
};

std::ostream &
operator<<(std::ostream &os, const FormatProbe &probe)
{
    ++probe.streamed;
    return os << "probe";
}

TEST(LogTest, WarnFormatsOnceAndPrintsTaggedLine)
{
    FormatProbe probe;
    ::testing::internal::CaptureStderr();
    warn("value=", probe, " n=", 3);
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(probe.streamed, 1);
    EXPECT_EQ(err, "warn: value=probe n=3\n");
}

TEST(LogDeathTest, FatalExitsWithStatusOne)
{
    EXPECT_EXIT(fatal("bad ", 42), ::testing::ExitedWithCode(1),
                "fatal: bad 42");
}

TEST(LogDeathTest, PanicAborts)
{
    EXPECT_DEATH(panic("broken ", 7), "panic: broken 7");
}

} // namespace
} // namespace unxpec
