/**
 * @file
 * Workload registry tests: spec-string parsing, up-front validation
 * (unknown names/keys rejected with the registered alternatives
 * listed), builder behavior, and the ExperimentSpec integration that
 * carries `--workload` strings into experiments.  The grammar's
 * general cases are tested in test_spec.cpp.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/fatal.hpp"
#include "network/sweep.hpp"
#include "topo/topology.hpp"
#include "workload/factory.hpp"

using dvsnet::ConfigError;
using dvsnet::network::ExperimentSpec;
using dvsnet::topo::KAryNCube;
using dvsnet::workload::buildWorkload;
using dvsnet::workload::validateWorkloadSpec;
using dvsnet::workload::WorkloadContext;
using dvsnet::workload::workloadRegistry;
using WorkloadSpec = dvsnet::Spec;

namespace
{

bool
anyContains(const std::vector<std::string> &problems,
            const std::string &needle)
{
    return std::any_of(problems.begin(), problems.end(),
                       [&](const std::string &p) {
                           return p.find(needle) != std::string::npos;
                       });
}

} // namespace

TEST(WorkloadSpec, ParsesNameOnly)
{
    const WorkloadSpec spec = WorkloadSpec::parse("uniform");
    EXPECT_EQ(spec.name, "uniform");
    EXPECT_TRUE(spec.params.empty());
    EXPECT_EQ(spec.toString(), "uniform");
}

TEST(WorkloadSpec, ParsesKeyValueList)
{
    const WorkloadSpec spec =
        WorkloadSpec::parse("cmp:window=8,hot_nodes=4,p_hot=0.3");
    EXPECT_EQ(spec.name, "cmp");
    ASSERT_EQ(spec.params.size(), 3u);
    ASSERT_NE(spec.find("window"), nullptr);
    EXPECT_EQ(*spec.find("window"), "8");
    EXPECT_EQ(spec.find("missing"), nullptr);
    EXPECT_EQ(spec.toString(), "cmp:window=8,hot_nodes=4,p_hot=0.3");
}

TEST(WorkloadSpec, RejectsMalformedSpecs)
{
    EXPECT_THROW(WorkloadSpec::parse(""), ConfigError);
    EXPECT_THROW(WorkloadSpec::parse(":window=8"), ConfigError);
    EXPECT_THROW(WorkloadSpec::parse("cmp:window"), ConfigError);
    EXPECT_THROW(WorkloadSpec::parse("cmp:=8"), ConfigError);
}

TEST(WorkloadFactory, BuiltinsAreRegistered)
{
    const auto &registry = workloadRegistry();
    for (const char *name :
         {"two-level", "uniform", "transpose", "bit-complement",
          "bit-reverse", "shuffle", "tornado", "neighbor", "trace",
          "cmp"}) {
        EXPECT_NE(registry.find(name), nullptr) << name;
        EXPECT_FALSE(registry.description(name).empty()) << name;
    }
    const auto names = registry.names();
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(WorkloadFactory, UnknownNameListsRegisteredWorkloads)
{
    const auto problems = validateWorkloadSpec("no-such-workload");
    ASSERT_FALSE(problems.empty());
    EXPECT_TRUE(anyContains(problems, "no-such-workload"));
    // The error must teach: every registered name is listed.
    EXPECT_TRUE(anyContains(problems, "two-level"));
    EXPECT_TRUE(anyContains(problems, "cmp"));
}

TEST(WorkloadFactory, UnknownKeyListsValidKeys)
{
    const auto problems = validateWorkloadSpec("cmp:bogus=1");
    ASSERT_FALSE(problems.empty());
    EXPECT_TRUE(anyContains(problems, "bogus"));
    EXPECT_TRUE(anyContains(problems, "window"));
}

TEST(WorkloadFactory, KeylessWorkloadRejectsAnyKey)
{
    const auto problems = validateWorkloadSpec("uniform:rate=1");
    ASSERT_FALSE(problems.empty());
    EXPECT_TRUE(anyContains(problems, "takes no keys"));
}

TEST(WorkloadFactory, ValidSpecsPass)
{
    EXPECT_TRUE(validateWorkloadSpec("two-level").empty());
    EXPECT_TRUE(validateWorkloadSpec("two-level:tasks=3,p_local=0.5")
                    .empty());
    EXPECT_TRUE(validateWorkloadSpec("cmp:window=8").empty());
    EXPECT_TRUE(validateWorkloadSpec("trace:path=x.dvst").empty());
}

TEST(WorkloadFactory, BuildsEachBuiltinKind)
{
    const KAryNCube topo(4, 2, false);
    const WorkloadContext ctx{topo, 0.5, 99,
                              dvsnet::traffic::TwoLevelParams{}};
    EXPECT_STREQ(buildWorkload("two-level", ctx)->name(), "two-level");
    EXPECT_STREQ(buildWorkload("uniform", ctx)->name(), "uniform");
    const auto cmp = buildWorkload("cmp:window=2,hot_nodes=4,p_hot=0.5",
                                   ctx);
    EXPECT_STREQ(cmp->name(), "cmp");
    EXPECT_TRUE(cmp->wantsDeliveries());
}

TEST(WorkloadFactory, BuildRejectsBadValuesAndMissingPath)
{
    const KAryNCube topo(4, 2, false);
    const WorkloadContext ctx{topo, 0.5, 99,
                              dvsnet::traffic::TwoLevelParams{}};
    EXPECT_THROW(buildWorkload("no-such-workload", ctx), ConfigError);
    EXPECT_THROW(buildWorkload("cmp:window=abc", ctx), ConfigError);
    EXPECT_THROW(buildWorkload("cmp:window=0", ctx), ConfigError);
    EXPECT_THROW(buildWorkload("trace", ctx), ConfigError);
    // Out-of-range two-level values throw instead of aborting.
    for (const char *spec :
         {"two-level:tasks=0", "two-level:tasks=nan", "two-level:tasks=1e300",
          "two-level:p_local=2", "two-level:locality_radius=-1"}) {
        EXPECT_THROW(buildWorkload(spec, ctx), ConfigError) << spec;
    }
    // Integer keys are range-checked against their field's type, and
    // NaN fails the probability check.
    for (const char *spec :
         {"cmp:request_flits=65537", "cmp:window=4294967297",
          "cmp:p_hot=nan,hot_nodes=2",
          // Type-valid, but would wrap the reply time in ticks.
          "cmp:home_latency=4611686018427387904"}) {
        EXPECT_THROW(buildWorkload(spec, ctx), ConfigError) << spec;
    }
}

TEST(WorkloadFactory, ExperimentSpecValidatesWorkloadSpec)
{
    ExperimentSpec spec;
    EXPECT_TRUE(spec.validate().empty());  // default: two-level

    spec.workloadSpec = "no-such-workload";
    EXPECT_TRUE(anyContains(spec.validate(), "no-such-workload"));

    spec.workloadSpec = "cmp:bogus=1";
    EXPECT_TRUE(anyContains(spec.validate(), "bogus"));

    spec.workloadSpec = "cmp:window=4";
    EXPECT_TRUE(spec.validate().empty());
}
