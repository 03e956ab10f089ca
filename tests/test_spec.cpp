/**
 * @file
 * The shared `<name>[:key=val,...]` spec grammar: parsing and
 * rendering (SpecGrammar), the typed value readers (SpecValues), and a
 * fixed-seed mutation suite (SpecMutation) that pushes hostile spec
 * strings through every registry and checks that each one either
 * builds or is rejected with a ConfigError — nothing else escapes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/fatal.hpp"
#include "common/rng.hpp"
#include "common/spec.hpp"
#include "link/dvs_level.hpp"
#include "power/link_power.hpp"
#include "search/driver.hpp"
#include "topo/topology.hpp"
#include "workload/factory.hpp"

using dvsnet::ConfigError;
using dvsnet::readBool;
using dvsnet::readDouble;
using dvsnet::readInt;
using dvsnet::Spec;

TEST(SpecGrammar, ParsesNameOnly)
{
    const Spec spec = Spec::parse("some-name");
    EXPECT_EQ(spec.name, "some-name");
    EXPECT_TRUE(spec.params.empty());
    EXPECT_EQ(spec.toString(), "some-name");
}

TEST(SpecGrammar, ParsesKeyValueList)
{
    // Per-registry spec strings are parsed in each registry's own test
    // (WorkloadSpec, LinkPowerSpec, SearchSpec); this pins that
    // parameters keep their written order, repeated keys included.
    const Spec spec = Spec::parse("n:b=2,a=1,b=3");
    EXPECT_EQ(spec.name, "n");
    ASSERT_EQ(spec.params.size(), 3u);
    EXPECT_EQ(spec.params[0].first, "b");
    EXPECT_EQ(spec.params[1].first, "a");
    ASSERT_NE(spec.find("a"), nullptr);
    EXPECT_EQ(*spec.find("a"), "1");
    EXPECT_EQ(spec.find("missing"), nullptr);
    EXPECT_EQ(spec.toString(), "n:b=2,a=1,b=3");
}

TEST(SpecGrammar, KeepsValuesVerbatim)
{
    // Nothing is trimmed or split further: the value is everything
    // after the first '=' up to the next ','.
    const Spec spec = Spec::parse("trace:path=a=b,k= 7,empty=");
    ASSERT_EQ(spec.params.size(), 3u);
    EXPECT_EQ(*spec.find("path"), "a=b");
    EXPECT_EQ(*spec.find("k"), " 7");
    EXPECT_EQ(*spec.find("empty"), "");
}

TEST(SpecGrammar, RejectsMalformedSpecs)
{
    for (const char *text :
         {"", ":k=1", "n:k", "n:=1", "n:k=1,", "n:", "n:k=1,,", "n:,k=1"}) {
        EXPECT_THROW(Spec::parse(text), ConfigError) << '"' << text << '"';
    }
}

TEST(SpecValues, DoubleReaderRejectsNonFiniteAndJunk)
{
    EXPECT_DOUBLE_EQ(readDouble("k", "0.25"), 0.25);
    EXPECT_DOUBLE_EQ(readDouble("k", "-3"), -3.0);
    EXPECT_DOUBLE_EQ(readDouble("k", "1e-3"), 1e-3);
    for (const char *value :
         {"nan", "-nan", "inf", "-inf", "infinity", "1e400", "", " 1",
          "1 ", "1.5x", "0x10"}) {
        EXPECT_THROW(readDouble("k", value), ConfigError)
            << '"' << value << '"';
    }
}

TEST(SpecValues, IntReaderChecksTheTargetRange)
{
    EXPECT_EQ(readInt<std::uint16_t>("k", "65535"), 65535u);
    EXPECT_EQ(readInt<std::int32_t>("k", "-7"), -7);
    EXPECT_EQ(readInt<std::uint64_t>("k", "9223372036854775807"),
              9223372036854775807ull);
    EXPECT_THROW(readInt<std::uint16_t>("k", "65536"), ConfigError);
    EXPECT_THROW(readInt<std::int32_t>("k", "4294967297"), ConfigError);
    EXPECT_THROW(readInt<std::uint64_t>("k", "-1"), ConfigError);
    EXPECT_THROW(readInt<std::uint64_t>("k", "9223372036854775808"),
                 ConfigError);
    for (const char *value : {"", " 7", "7 ", "+7", "7.0", "0x10", "abc"}) {
        EXPECT_THROW(readInt<std::int32_t>("k", value), ConfigError)
            << '"' << value << '"';
    }
}

TEST(SpecValues, BoolReaderTakesWordsOrDigits)
{
    EXPECT_TRUE(readBool("k", "true"));
    EXPECT_TRUE(readBool("k", "1"));
    EXPECT_FALSE(readBool("k", "false"));
    EXPECT_FALSE(readBool("k", "0"));
    for (const char *value : {"", "yes", "TRUE", "2", "true "})
        EXPECT_THROW(readBool("k", value), ConfigError) << value;
}

TEST(SpecValues, ReadLeavesAbsentKeysAlone)
{
    const Spec spec = Spec::parse("x:n=5,f=0.5,b=true");
    std::uint16_t n = 1;
    double f = 0.0;
    bool b = false;
    int missing = 42;
    EXPECT_TRUE(spec.read("n", n));
    EXPECT_TRUE(spec.read("f", f));
    EXPECT_TRUE(spec.read("b", b));
    EXPECT_FALSE(spec.read("missing", missing));
    EXPECT_EQ(n, 5u);
    EXPECT_DOUBLE_EQ(f, 0.5);
    EXPECT_TRUE(b);
    EXPECT_EQ(missing, 42);
}

namespace
{

/**
 * Every spec string the repository passes: the unit tests, the bench
 * and tool smoke runs (bench/ and tools/ CMakeLists.txt), and the
 * host-time benchmark's search spec.
 */
const char *const kSeedSpecs[] = {
    "two-level",
    "two-level:tasks=3,p_local=0.5",
    "two-level:tasks=0",
    "two-level:tasks=nan",
    "two-level:tasks=1e300",
    "two-level:p_local=2",
    "two-level:locality_radius=-1",
    "uniform",
    "uniform:rate=1",
    "transpose",
    "bit-complement",
    "bit-reverse",
    "shuffle",
    "tornado",
    "neighbor",
    "trace",
    "trace:path=x.dvst",
    "cmp",
    "cmp:window=8",
    "cmp:window=4",
    "cmp:window=0",
    "cmp:window=abc",
    "cmp:bogus=1",
    "cmp:window=2,hot_nodes=4,p_hot=0.5",
    "cmp:window=4,reply_flits=5,home_latency=20",
    "cmp:window=8,hot_nodes=4,p_hot=0.3",
    "cmp:request_flits=65537",
    "cmp:window=4294967297",
    "cmp:p_hot=nan,hot_nodes=2",
    "cmp:home_latency=4611686018427387904",
    "table",
    "table:x=1",
    "toggle",
    "toggle:bogus=1",
    "toggle:cw=-1",
    "toggle:cw=4e-12",
    "toggle:cw=3.5e-12,cc=1e-12,idle=0.3,width=16",
    "toggle:idle=0.25,width=16",
    "toggle:idle=0.3",
    "toggle:idle=0.8,width=64",
    "toggle:idle=1.5",
    "toggle:idle=abc",
    "toggle:width=0",
    "toggle:width=65",
    "successive-halving",
    "successive-halving:bogus=1",
    "successive-halving:budget=100",
    "successive-halving:candidates=4,rungs=2",
    "successive-halving:candidates=4,rungs=2,slack=0.08",
    "successive-halving:candidates=12,rungs=3,step=5,slack=0.2,budget=40",
    "successive-halving:candidates=32,rungs=4,step=3,slack=0.1",
    "successive-halving:candidates=18,rungs=3,step=2,slack=1000",
};

/** The value swaps: non-finite, negative, overflowing, 2^63. */
const char *const kHostileValues[] = {"nan", "inf", "-1", "1e400",
                                      "9223372036854775808"};

/** Positions of every delimiter byte in `text`. */
std::vector<std::size_t>
delimiters(const std::string &text)
{
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < text.size(); ++i) {
        if (text[i] == ':' || text[i] == ',' || text[i] == '=')
            out.push_back(i);
    }
    return out;
}

/** `text` with the value after its `which`-th '=' replaced. */
std::string
swapValue(std::string text, std::size_t which, const std::string &value)
{
    std::size_t eq = std::string::npos;
    for (std::size_t i = 0; i < text.size(); ++i) {
        if (text[i] == '=' && which-- == 0) {
            eq = i;
            break;
        }
    }
    if (eq == std::string::npos)
        return text;
    std::size_t end = text.find(',', eq);
    if (end == std::string::npos)
        end = text.size();
    return text.replace(eq + 1, end - eq - 1, value);
}

/** One to three random byte flips, delimiter insertions/deletions and
 *  value swaps, drawn from `state`. */
std::string
mutate(std::string text, std::uint64_t &state)
{
    const std::uint64_t count = 1 + dvsnet::splitmix64(state) % 3;
    for (std::uint64_t n = 0; n < count; ++n) {
        const std::uint64_t r = dvsnet::splitmix64(state);
        const std::uint64_t pick = r >> 8;
        switch (r % 4) {
        case 0:
            if (!text.empty()) {
                text[pick % text.size()] ^=
                    static_cast<char>(1u << ((r >> 4) % 8));
            }
            break;
        case 1:
            text.insert(pick % (text.size() + 1), 1, ":,="[(r >> 4) % 3]);
            break;
        case 2: {
            const auto at = delimiters(text);
            if (!at.empty())
                text.erase(at[pick % at.size()], 1);
            break;
        }
        default:
            text = swapValue(text, pick % 4,
                             kHostileValues[(r >> 4) % 5]);
            break;
        }
    }
    return text;
}

/** Run `step`; a ConfigError is a clean rejection, anything else a
 *  failure.  Returns whether the step succeeded. */
template <typename Step>
bool
succeedsOrRejects(const std::string &text, const char *stage, Step &&step)
{
    try {
        step();
        return true;
    } catch (const ConfigError &) {
        return false;
    } catch (const std::exception &e) {
        ADD_FAILURE() << stage << " of \"" << text
                      << "\" threw a non-ConfigError: " << e.what();
    } catch (...) {
        ADD_FAILURE() << stage << " of \"" << text
                      << "\" threw a non-exception";
    }
    return false;
}

/** Parse, validate and build `text` in every registry; returns how
 *  many registries built it. */
int
exercise(const std::string &text)
{
    namespace power = dvsnet::power;
    namespace search = dvsnet::search;
    namespace workload = dvsnet::workload;

    static const dvsnet::topo::KAryNCube topo(4, 2, false);
    static const auto table = dvsnet::link::DvsLevelTable::standard10();
    const workload::WorkloadContext workloadContext{
        topo, 0.5, 99, dvsnet::traffic::TwoLevelParams{}};
    const power::LinkPowerContext linkContext{
        table.coeffA(), table.coeffB(), dvsnet::link::kLinksPerChannel};

    succeedsOrRejects(text, "parse", [&] { Spec::parse(text); });
    int built = 0;

    // Validation reports problems; it never throws.  A spec it rejects
    // must also be rejected by build, before any builder runs.
    std::vector<std::string> problems;
    EXPECT_NO_THROW(problems = workload::validateWorkloadSpec(text)) << text;
    if (!problems.empty()) {
        EXPECT_THROW(workload::buildWorkload(text, workloadContext),
                     ConfigError)
            << text;
    } else if (Spec::parse(text).name != "trace") {
        // Building only, never running; `trace` stays validate-only so
        // the suite opens no arbitrary paths.
        built += succeedsOrRejects(text, "workload build", [&] {
            workload::buildWorkload(text, workloadContext);
        });
    }

    EXPECT_NO_THROW(problems = power::validateLinkPowerSpec(text)) << text;
    const bool linkBuilt = succeedsOrRejects(text, "link-power build", [&] {
        power::buildLinkPowerModel(text, linkContext);
    });
    EXPECT_FALSE(linkBuilt && !problems.empty()) << text;

    EXPECT_NO_THROW(problems = search::searchRegistry().validate(text))
        << text;
    const bool searchApplied = succeedsOrRejects(text, "search apply", [&] {
        search::SearchConfig config;
        search::applySearchSpec(config, search::SearchSpec::parse(text));
    });
    EXPECT_FALSE(searchApplied && !problems.empty()) << text;
    return built + linkBuilt + searchApplied;
}

} // namespace

TEST(SpecMutation, EveryHostileValueSwapIsBuiltOrRejected)
{
    for (const char *seed : kSeedSpecs) {
        const std::string text = seed;
        exercise(text);
        const std::size_t pairs =
            static_cast<std::size_t>(std::count(text.begin(), text.end(), '='));
        for (std::size_t which = 0; which < pairs; ++which) {
            for (const char *value : kHostileValues)
                exercise(swapValue(text, which, value));
        }
    }
}

TEST(SpecMutation, RandomMutationsAreBuiltOrRejected)
{
    std::uint64_t state = 0x5eedull;
    int inputs = 0;
    int built = 0;
    for (const char *seed : kSeedSpecs) {
        for (int i = 0; i < 100; ++i, ++inputs)
            built += exercise(mutate(seed, state)) > 0;
    }
    // Neither all-accept nor all-reject: both paths were exercised.
    EXPECT_GT(built, inputs / 20) << built << "/" << inputs;
    EXPECT_LT(built, inputs - inputs / 20) << built << "/" << inputs;
}
