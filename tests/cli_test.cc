/**
 * @file
 * CLI error-path tests for the shared harness front end
 * (harness/cli.hh). Every malformed invocation must fail through
 * fatal() — exit code 1 with a clear "fatal: ..." diagnostic on stderr
 * — never crash, hang, or silently misparse. Exercised as gtest death
 * tests so the exit path itself (not just the message formatting) is
 * what is verified.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "harness/cli.hh"

namespace unxpec {
namespace {

/** Run cli.parse() over a brace-list of arguments (argv[0] included). */
template <std::size_t N>
HarnessOptions
parseArgs(const HarnessCli &cli, const char *(&&argv)[N])
{
    return cli.parse(static_cast<int>(N), const_cast<char **>(argv));
}

HarnessCli
makeCli()
{
    HarnessCli cli("cli_test", "CLI error-path test harness");
    cli.scaleOption("problem size", 16);
    return cli;
}

// --- numeric flags ------------------------------------------------------

TEST(CliErrorTest, NonNumericRepsIsFatal)
{
    const HarnessCli cli = makeCli();
    EXPECT_EXIT(parseArgs(cli, {"cli_test", "--reps", "ten"}),
                ::testing::ExitedWithCode(1),
                "fatal: --reps expects a non-negative integer, got 'ten'");
}

TEST(CliErrorTest, ZeroRepsIsFatal)
{
    const HarnessCli cli = makeCli();
    EXPECT_EXIT(parseArgs(cli, {"cli_test", "--reps", "0"}),
                ::testing::ExitedWithCode(1), "fatal: --reps must be >= 1");
}

TEST(CliErrorTest, NegativeRepsIsFatal)
{
    // '-' is not a digit: a negative count must be rejected as
    // non-numeric rather than wrapping around through strtoull.
    const HarnessCli cli = makeCli();
    EXPECT_EXIT(parseArgs(cli, {"cli_test", "--reps", "-3"}),
                ::testing::ExitedWithCode(1),
                "fatal: --reps expects a non-negative integer, got '-3'");
}

TEST(CliErrorTest, NonNumericSeedIsFatal)
{
    const HarnessCli cli = makeCli();
    EXPECT_EXIT(parseArgs(cli, {"cli_test", "--seed", "0x12"}),
                ::testing::ExitedWithCode(1),
                "fatal: --seed expects a non-negative integer, got '0x12'");
}

TEST(CliErrorTest, NonNumericThreadsIsFatal)
{
    const HarnessCli cli = makeCli();
    EXPECT_EXIT(parseArgs(cli, {"cli_test", "--threads", "many"}),
                ::testing::ExitedWithCode(1),
                "fatal: --threads expects a non-negative integer, "
                "got 'many'");
}

TEST(CliErrorTest, NonNumericScaleIsFatal)
{
    const HarnessCli cli = makeCli();
    EXPECT_EXIT(parseArgs(cli, {"cli_test", "--scale", "big"}),
                ::testing::ExitedWithCode(1),
                "fatal: --scale expects a non-negative integer, got 'big'");
}

TEST(CliErrorTest, ZeroScaleIsFatal)
{
    // A zero scale would run no samples: benches print nan rows or die
    // deep inside a worker, so the parser rejects it up front.
    const HarnessCli cli = makeCli();
    EXPECT_EXIT(parseArgs(cli, {"cli_test", "--scale", "0"}),
                ::testing::ExitedWithCode(1), "fatal: --scale must be >= 1");
}

TEST(CliErrorTest, ZeroPositionalScaleIsFatal)
{
    const HarnessCli cli = makeCli();
    EXPECT_EXIT(parseArgs(cli, {"cli_test", "0"}),
                ::testing::ExitedWithCode(1), "fatal: --scale must be >= 1");
}

TEST(CliErrorTest, UnsignedFlagAboveUintMaxIsFatal)
{
    // 2^32 + 1 must not wrap to 1 on its way into an unsigned option.
    const HarnessCli cli = makeCli();
    EXPECT_EXIT(parseArgs(cli, {"cli_test", "--reps", "4294967297"}),
                ::testing::ExitedWithCode(1),
                "fatal: --reps value '4294967297' is out of range");
    EXPECT_EXIT(parseArgs(cli, {"cli_test", "--threads", "4294967296"}),
                ::testing::ExitedWithCode(1),
                "fatal: --threads value '4294967296' is out of range");
}

TEST(CliErrorTest, SeedAboveUint64MaxIsFatal)
{
    // strtoull saturates with ERANGE; the seed must not silently
    // become 2^64 - 1.
    const HarnessCli cli = makeCli();
    EXPECT_EXIT(
        parseArgs(cli, {"cli_test", "--seed", "99999999999999999999999"}),
        ::testing::ExitedWithCode(1),
        "fatal: --seed value '99999999999999999999999' is out of range");
}

TEST(CliErrorTest, UnsignedFlagAcceptsUintMax)
{
    const HarnessCli cli = makeCli();
    const HarnessOptions options = parseArgs(
        cli, {"cli_test", "--retries", "4294967295", "--seed",
              "18446744073709551615"});
    EXPECT_EQ(options.retries, 4294967295u);
    EXPECT_EQ(options.seed, 18446744073709551615ull);
}

TEST(CliErrorTest, ThreadsAboveBoundIsFatal)
{
    // Parse only: the bound rejects the width before any pool exists.
    const HarnessCli cli = makeCli();
    EXPECT_EQ(parseArgs(cli, {"cli_test", "--threads", "1024"}).threads,
              1024u);
    EXPECT_EXIT(parseArgs(cli, {"cli_test", "--threads", "1025"}),
                ::testing::ExitedWithCode(1),
                "fatal: --threads value '1025' is out of range \\(max "
                "1024\\)");
    EXPECT_EXIT(parseArgs(cli, {"cli_test", "--threads", "100000"}),
                ::testing::ExitedWithCode(1),
                "fatal: --threads value '100000' is out of range");
}

// --- registry lookups ---------------------------------------------------

TEST(CliErrorTest, UnknownModeIsFatal)
{
    const HarnessCli cli = makeCli();
    EXPECT_EXIT(parseArgs(cli, {"cli_test", "--mode", "quantum"}),
                ::testing::ExitedWithCode(1),
                "fatal: unknown --mode 'quantum' \\(see --list-modes\\)");
}

TEST(CliErrorTest, UnknownNoiseIsFatal)
{
    const HarnessCli cli = makeCli();
    EXPECT_EXIT(parseArgs(cli, {"cli_test", "--noise", "brownian"}),
                ::testing::ExitedWithCode(1),
                "fatal: unknown --noise 'brownian' \\(see --list-modes\\)");
}

TEST(CliErrorTest, KnownModeStillParses)
{
    // Guard against the error path over-matching: the registry names
    // used across the bench programs must keep working.
    const HarnessCli cli = makeCli();
    const HarnessOptions opt =
        parseArgs(cli, {"cli_test", "--mode", "unsafe"});
    EXPECT_EQ(opt.mode, "unsafe");
}

// --- trace categories ---------------------------------------------------

TEST(CliErrorTest, MalformedTraceCategoriesIsFatal)
{
    const HarnessCli cli = makeCli();
    EXPECT_EXIT(parseArgs(cli,
                          {"cli_test", "--trace-categories", "cpu,bogus"}),
                ::testing::ExitedWithCode(1),
                "fatal: unknown trace category 'bogus' \\(expected cpu, "
                "cache, cleanup, branch, coherence, or all\\)");
}

TEST(CliErrorTest, ValidTraceCategoriesParse)
{
    const HarnessCli cli = makeCli();
    const HarnessOptions opt =
        parseArgs(cli, {"cli_test", "--trace-categories", "cpu,cache"});
    EXPECT_NE(opt.traceCategories, 0u);
}

// --- machine width ------------------------------------------------------

TEST(CliErrorTest, CoresParses)
{
    const HarnessCli cli = makeCli();
    const HarnessOptions opt = parseArgs(cli, {"cli_test", "--cores", "4"});
    EXPECT_EQ(opt.cores, 4u);
}

TEST(CliErrorTest, ZeroCoresIsFatal)
{
    const HarnessCli cli = makeCli();
    EXPECT_EXIT(parseArgs(cli, {"cli_test", "--cores", "0"}),
                ::testing::ExitedWithCode(1),
                "fatal: --cores must be in \\[1, 16\\]");
}

TEST(CliErrorTest, OversizedCoresIsFatal)
{
    const HarnessCli cli = makeCli();
    EXPECT_EXIT(parseArgs(cli, {"cli_test", "--cores", "17"}),
                ::testing::ExitedWithCode(1),
                "fatal: --cores must be in \\[1, 16\\]");
}

// --- argument shape -----------------------------------------------------

TEST(CliErrorTest, MissingValueIsFatal)
{
    const HarnessCli cli = makeCli();
    EXPECT_EXIT(parseArgs(cli, {"cli_test", "--seed"}),
                ::testing::ExitedWithCode(1),
                "fatal: --seed expects a value \\(see --help\\)");
}

TEST(CliErrorTest, UnknownArgumentIsFatal)
{
    const HarnessCli cli = makeCli();
    EXPECT_EXIT(parseArgs(cli, {"cli_test", "--frobnicate"}),
                ::testing::ExitedWithCode(1),
                "fatal: unknown argument '--frobnicate'");
}

TEST(CliErrorTest, HostWallClockTimeoutIsGone)
{
    // Censoring by host milliseconds made results depend on host speed;
    // only the simulated-cycle budget (--trial-timeout-cycles) remains.
    const HarnessCli cli = makeCli();
    EXPECT_EXIT(parseArgs(cli, {"cli_test", "--trial-timeout-ms", "5"}),
                ::testing::ExitedWithCode(1),
                "fatal: unknown argument '--trial-timeout-ms'");
}

TEST(CliErrorTest, SubprocessShardsAreGone)
{
    // A campaign is one process; a run killed from outside is finished
    // with --resume, so there is no worker-count flag.
    const HarnessCli cli = makeCli();
    EXPECT_EXIT(parseArgs(cli, {"cli_test", "--shards", "2"}),
                ::testing::ExitedWithCode(1),
                "fatal: unknown argument '--shards'");
}

TEST(CliErrorTest, StrayPositionalAfterScaleIsFatal)
{
    // Only one positional scale is accepted; a second one is an error,
    // not a silent overwrite.
    const HarnessCli cli = makeCli();
    EXPECT_EXIT(parseArgs(cli, {"cli_test", "42", "43"}),
                ::testing::ExitedWithCode(1),
                "fatal: unknown argument '43'");
}

// --- matrix flag --------------------------------------------------------

TEST(CliErrorTest, MatrixFlagParses)
{
    HarnessCli cli = makeCli();
    cli.matrixOption();
    EXPECT_FALSE(parseArgs(cli, {"cli_test"}).matrix);
    EXPECT_TRUE(parseArgs(cli, {"cli_test", "--matrix"}).matrix);
}

TEST(CliErrorTest, UndeclaredMatrixFlagIsFatal)
{
    // A program that never sweeps the zoo must not accept --matrix
    // and then silently run its usual specs.
    const HarnessCli cli = makeCli();
    EXPECT_EXIT(parseArgs(cli, {"cli_test", "--matrix"}),
                ::testing::ExitedWithCode(1),
                "fatal: unknown argument '--matrix'");
}

// --- registry listing ---------------------------------------------------

/** The "  name" entry lines under `section` in a --list-modes dump. */
std::vector<std::string>
sectionEntries(const std::string &text, const std::string &section)
{
    std::vector<std::string> names;
    std::istringstream is(text);
    std::string line;
    bool inside = false;
    while (std::getline(is, line)) {
        if (line == section + ":") {
            inside = true;
            continue;
        }
        if (!inside)
            continue;
        if (!line.empty() && line[0] != ' ')
            break; // next section header
        if (line.rfind("  ", 0) == 0 && line.rfind("      ", 0) != 0)
            names.push_back(line.substr(2));
    }
    return names;
}

TEST(ListModesTest, RegistriesPrintSorted)
{
    // Goldenability: registration order moves whenever a TU adds an
    // entry, so the listing must be name-sorted instead.
    std::ostringstream oss;
    printRegistries(oss);
    for (const char *section :
         {"defenses (--mode)", "noise profiles (--noise)",
          "attack variants"}) {
        const auto names = sectionEntries(oss.str(), section);
        ASSERT_FALSE(names.empty()) << section;
        EXPECT_TRUE(std::is_sorted(names.begin(), names.end()))
            << section;
    }
}

TEST(ListModesTest, ListsTheDefenseZooAndBothReceiverFamilies)
{
    std::ostringstream oss;
    printRegistries(oss);
    const auto defenses =
        sectionEntries(oss.str(), "defenses (--mode)");
    for (const char *name :
         {"unsafe", "cleanup_l1l2", "invisispec", "delay_on_miss",
          "safespec", "specbox", "cachesquash"}) {
        EXPECT_NE(std::find(defenses.begin(), defenses.end(), name),
                  defenses.end())
            << name;
    }
    const auto attacks = sectionEntries(oss.str(), "attack variants");
    for (const char *name :
         {"unxpec-probe", "contention", "victim-aes", "victim-rsa"}) {
        EXPECT_NE(std::find(attacks.begin(), attacks.end(), name),
                  attacks.end())
            << name;
    }
}

} // namespace
} // namespace unxpec
