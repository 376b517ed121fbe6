/**
 * @file
 * F11 (extension) — branch predictors and the port question.  Fetch
 * quality gates how much load/store pressure reaches the cache: a
 * weak predictor starves the back end and hides the port bottleneck,
 * a strong one exposes it.  Compares the four predictor kinds on the
 * buffered single port.
 */

#include "exp/registry.hh"

namespace {

using namespace cpe;

struct Kind
{
    const char *name;
    cpu::PredictorKind kind;
};

const Kind kKinds[] = {
    {"not-taken", cpu::PredictorKind::AlwaysNotTaken},
    {"bimodal", cpu::PredictorKind::Bimodal},
    {"gshare", cpu::PredictorKind::GShare},
    {"local", cpu::PredictorKind::Local},
};

std::vector<exp::Variant>
variants()
{
    std::vector<exp::Variant> out;
    for (const auto &kind : kKinds) {
        out.push_back(
            {kind.name, core::PortTechConfig::singlePortAllTechniques(),
             0, [k = kind.kind](sim::SimConfig &config) {
                 config.core.bpred.kind = k;
             }});
    }
    return out;
}

std::vector<exp::GridSpec>
grids(const std::vector<std::string> &suite)
{
    return {{"main", variants(), suite, "", exp::Gate::On}};
}

void
run(exp::Context &ctx)
{
    const auto &grid = ctx.grid("main");
    ctx.out() << "IPC:\n" << grid.ipcTable().render() << "\n";

    TextTable table;
    table.setCaption("Conditional-branch direction accuracy:");
    std::vector<std::string> header{"workload"};
    for (const auto &kind : kKinds)
        header.push_back(kind.name);
    table.addHeader(header);
    for (const auto &name : ctx.suite()) {
        std::vector<std::string> row{name};
        for (const auto &kind : kKinds) {
            sim::SimConfig config = sim::SimConfig::defaults();
            config.workloadName = name;
            config.core.dcache.tech =
                core::PortTechConfig::singlePortAllTechniques();
            config.core.bpred.kind = kind.kind;
            auto result = ctx.machineResult(config);
            row.push_back(
                TextTable::num(100 * result.condAccuracy, 1) + "%");
        }
        table.addRow(row);
    }
    ctx.out() << table.render() << "\n";
    ctx.out() << "Reading: history-based predictors (gshare/local) beat "
                 "bimodal on the\npattern-heavy kernels; IPC follows "
                 "accuracy, and the port techniques'\nvalue grows as the "
                 "front end stops stalling.\n";
}

exp::Registrar reg({
    .id = "F11",
    .title = "branch predictors x the buffered single port",
    .description = "Swaps branch predictors to check the buffered port's sensitivity to fetch quality.",
    .grids = grids,
    .run = run,
});

} // namespace
