/**
 * @file
 * T2 — Workload characterization.  Regenerates the paper's workload
 * table: dynamic instruction counts and mixes for the evaluation
 * suite, with and without operating-system activity (the paper's
 * distinguishing methodological point).
 */

#include "exp/registry.hh"
#include "workload/characterize.hh"

namespace {

using namespace cpe;

/** Gate only: the body characterizes the workloads, it runs none. */
std::vector<exp::GridSpec>
grids(const std::vector<std::string> &suite)
{
    return {{"main",
             {{"default", sim::SimConfig::defaults().core.dcache.tech}},
             suite, "", exp::Gate::Only}};
}

void
run(exp::Context &ctx)
{
    setVerbose(false);

    auto &registry = workload::WorkloadRegistry::instance();

    TextTable table;
    table.addHeader({"workload", "category", "insts", "load%", "store%",
                     "branch%", "fp%", "wset KiB", "kernel% (os2)"});
    for (const auto &info : registry.list()) {
        workload::WorkloadOptions user;
        auto mix = workload::characterize(registry.build(info.name, user));
        workload::WorkloadOptions os;
        os.osLevel = 2;
        auto os_mix =
            workload::characterize(registry.build(info.name, os));
        table.addRow({info.name, info.category,
                      TextTable::num(mix.insts),
                      TextTable::num(100 * mix.loadFrac(), 1),
                      TextTable::num(100 * mix.storeFrac(), 1),
                      TextTable::num(100 * mix.branchFrac(), 1),
                      TextTable::num(100 * mix.fpFrac(), 1),
                      TextTable::num(mix.workingSetKiB(), 0),
                      TextTable::num(100 * os_mix.kernelFrac(), 1)});
    }
    ctx.out() << table.render() << "\n";

    ctx.out() << "Evaluation suite: ";
    for (const auto &name : workload::WorkloadRegistry::evaluationSuite())
        ctx.out() << name << " ";
    ctx.out() << "\n\nWorkload descriptions:\n";
    for (const auto &info : registry.list())
        ctx.out() << "  " << info.name << ": " << info.description
                  << "\n";
}

exp::Registrar reg({
    .id = "T2",
    .title = "workload characterization",
    .description = "Characterizes the workload suite: instruction mix, memory rates, branchiness.",
    .grids = grids,
    .run = run,
});

} // namespace
