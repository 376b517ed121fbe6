/**
 * @file
 * Experiment-registry tests: every registered experiment declares
 * well-formed grids, exactly one of them gated (what the regression
 * gate replays), and a reduced-scale F5 run reproduces a sane headline
 * ratio end to end.
 */

#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "exp/driver.hh"
#include "exp/registry.hh"
#include "workload/registry.hh"
#include "util/error.hh"

#include "expect_error.hh"

namespace cpe::exp {
namespace {

TEST(ExperimentRegistry, AllExperimentsRegistered)
{
    const std::vector<std::string> expected = {
        "T1", "T2", "T3", "F1", "F2", "F3", "F4", "F5",
        "F6", "F7", "F8", "F9", "F10", "F11", "F12", "F13"};
    EXPECT_EQ(ExperimentRegistry::instance().ids(), expected);
}

TEST(ExperimentRegistry, LookupIsCaseExact)
{
    auto &registry = ExperimentRegistry::instance();
    EXPECT_TRUE(registry.has("F5"));
    EXPECT_FALSE(registry.has("F99"));
    EXPECT_EQ(registry.get("F5").id, "F5");
    const Experiment *found = registry.find("F99");
    EXPECT_EQ(found, nullptr);
}

TEST(ExperimentRegistryErrors, UnknownIdThrowsConfigError)
{
    // get() is the user-facing path (--run ids); its message lists
    // what is registered.
    CPE_EXPECT_THROW_MSG(ExperimentRegistry::instance().get("F99"),
                         ConfigError, "F5");
}

std::vector<std::string>
labelsOf(const std::vector<Variant> &variants)
{
    std::vector<std::string> labels;
    for (const auto &variant : variants)
        labels.push_back(variant.label);
    return labels;
}

TEST(ExperimentRegistry, EveryExperimentHasAWellFormedPrimaryGrid)
{
    auto &workloads = workload::WorkloadRegistry::instance();
    std::set<std::string> seen_ids;
    for (const Experiment *experiment :
         ExperimentRegistry::instance().all()) {
        SCOPED_TRACE(experiment->id);
        EXPECT_TRUE(seen_ids.insert(experiment->id).second);
        EXPECT_FALSE(experiment->title.empty());
        ASSERT_TRUE(experiment->grids);
        ASSERT_TRUE(experiment->run);

        std::set<std::string> keys;
        std::vector<const GridSpec *> gated;
        const auto specs = experiment->grids(reducedSuite());
        for (const GridSpec &spec : specs) {
            SCOPED_TRACE(spec.key);
            EXPECT_TRUE(keys.insert(spec.key).second) << "duplicate key";
            ASSERT_FALSE(spec.variants.empty());
            const auto labels = labelsOf(spec.variants);
            const std::set<std::string> unique(labels.begin(),
                                               labels.end());
            EXPECT_EQ(unique.size(), labels.size()) << "duplicate label";
            EXPECT_FALSE(unique.count("")) << "empty label";
            // The baseline and the excluded columns are grid columns.
            if (!spec.baseline.empty()) {
                EXPECT_TRUE(unique.count(spec.baseline))
                    << "baseline '" << spec.baseline
                    << "' is not a variant label";
            }
            for (const auto &label : spec.gateExclude) {
                EXPECT_TRUE(unique.count(label))
                    << "gate-excluded '" << label
                    << "' is not a variant label";
            }
            for (const auto &name : spec.workloads) {
                EXPECT_TRUE(workloads.has(name))
                    << "unknown workload " << name;
            }
            EXPECT_EQ(suiteConfigs(spec.variants, spec.workloads).size(),
                      spec.variants.size() * spec.workloads.size());
            if (spec.gate == Gate::Off) {
                EXPECT_TRUE(spec.gateExclude.empty())
                    << "gateExclude on an ungated grid";
            } else {
                gated.push_back(&spec);
            }
        }
        ASSERT_EQ(gated.size(), 1u) << "gated grids";

        // What perfbench reads is the gated grid's: its columns, and
        // its rows when they are fixed (empty when they are the suite).
        EXPECT_EQ(labelsOf(experiment->variants()),
                  labelsOf(gated[0]->variants));
        EXPECT_EQ(experiment->workloads.empty() ? reducedSuite()
                                                : experiment->workloads,
                  gated[0]->workloads);
    }

    auto &registry = ExperimentRegistry::instance();
    EXPECT_EQ(labelsOf(registry.get("F5").variants()),
              (std::vector<std::string>{"1p plain", "1p+sb", "1p+lb",
                                        "1p+wide", "1p all", "2 ports",
                                        "2p+sb"}));
    EXPECT_TRUE(registry.get("F5").workloads.empty());
    EXPECT_EQ(labelsOf(registry.get("F13").variants()),
              (std::vector<std::string>{"full", "sampled"}));
    EXPECT_EQ(registry.get("F13").workloads,
              (std::vector<std::string>{"compress", "stencil", "copy"}));
    EXPECT_EQ(registry.get("F13").gatedGrid({}).gateExclude,
              std::vector<std::string>{"sampled"});
    EXPECT_EQ(registry.get("F12").workloads,
              (std::vector<std::string>{"compress", "hashjoin", "spmv",
                                        "bsearch", "stencil", "copy"}));
}

TEST(ExperimentRegistry, ReducedSuiteIsRunnable)
{
    // The gate's default workloads must exist and cover the three
    // workload classes (int, fp, mem).
    auto &registry = workload::WorkloadRegistry::instance();
    ASSERT_EQ(reducedSuite().size(), 3u);
    for (const auto &name : reducedSuite())
        EXPECT_TRUE(registry.has(name));
}

TEST(Experiments, ReducedF5RunProducesHeadline)
{
    const Experiment &f5 = ExperimentRegistry::instance().get("F5");
    std::ostringstream out;
    Context context(f5, out, reducedSuite());
    f5.run(context);

    // The rendered output still carries the paper's framing...
    EXPECT_NE(out.str().find("HEADLINE"), std::string::npos);
    EXPECT_NE(out.str().find("Performance relative to '2 ports'"),
              std::string::npos);

    // ...and the JSON document carries the machine-readable ratios.
    const Json &doc = context.doc();
    EXPECT_EQ(doc.at("experiment").asString(), "F5");
    const Json &grid = doc.at("grids").at("main");
    EXPECT_EQ(grid.at("workloads").items().size(), 3u);
    EXPECT_EQ(grid.at("configs").items().size(), 7u);

    double headline =
        doc.at("headlines").at("pct_of_dual_plain").asNumber();
    EXPECT_GT(headline, 0.0);
    EXPECT_LT(headline, 120.0);
}

} // namespace
} // namespace cpe::exp
