/**
 * @file
 * F7 — Sensitivity to machine width.  Wider dynamic superscalars
 * demand more cache bandwidth, so the port question sharpens as issue
 * width grows: this sweep runs 2-, 4-, and 8-wide machines under the
 * three key port configurations.
 */

#include <algorithm>

#include "exp/registry.hh"

namespace {

using namespace cpe;

/** Scale the whole machine to @p width-wide issue. */
void
scaleMachine(sim::SimConfig &config, unsigned width)
{
    config.core.renameWidth = width;
    config.core.issueWidth = width;
    config.core.commitWidth = width;
    config.core.fetch.fetchWidth = width;
    config.core.robSize = 16 * width;
    config.core.iqSize = 8 * width;
    config.core.lsq.loadEntries = 4 * width;
    config.core.lsq.storeEntries = 4 * width;
    config.core.fetch.queueCapacity = 4 * width;
    config.core.fu.intAlu.count = std::max(1u, width / 2);
    config.core.fu.memAgu.count = std::max(1u, width / 2);
    config.core.fu.fpAdd.count = std::max(1u, width / 4);
    config.core.fu.fpMul.count = std::max(1u, width / 4);
}

std::vector<exp::Variant>
variantsAt(unsigned width)
{
    auto tweak = [width](sim::SimConfig &config) {
        scaleMachine(config, width);
    };
    return {
        {"1p plain", core::PortTechConfig::singlePortBase(), 0, tweak},
        {"1p all", core::PortTechConfig::singlePortAllTechniques(), 0,
         tweak},
        {"2 ports", core::PortTechConfig::dualPortBase(), 0, tweak},
    };
}

/** The gate replays the evaluation machine's own width. */
std::vector<exp::GridSpec>
grids(const std::vector<std::string> &suite)
{
    std::vector<exp::GridSpec> out;
    for (unsigned width : {2u, 4u, 8u})
        out.push_back({"width" + std::to_string(width), variantsAt(width),
                       suite, "",
                       width == 4 ? exp::Gate::On : exp::Gate::Off});
    return out;
}

void
run(exp::Context &ctx)
{
    TextTable table;
    table.addHeader({"issue width", "1p plain", "1p all", "2 ports",
                     "1p-all/2p"});
    for (unsigned width : {2u, 4u, 8u}) {
        const auto &grid = ctx.grid("width" + std::to_string(width));
        double plain = grid.geomeanIpc("1p plain");
        double all = grid.geomeanIpc("1p all");
        double dual = grid.geomeanIpc("2 ports");
        ctx.headline("pct_of_dual_" + std::to_string(width) + "wide",
                     100.0 * all / dual);
        table.addRow({std::to_string(width) + "-wide",
                      TextTable::num(plain), TextTable::num(all),
                      TextTable::num(dual),
                      TextTable::num(100.0 * all / dual, 1) + "%"});
    }
    ctx.out() << "Geomean IPC across the suite:\n"
              << table.render() << "\n";
    ctx.out() << "Reading: the plain single port falls further behind "
                 "as width grows (more\nbandwidth demand), while the "
                 "buffered port tracks the dual-ported cache.\n";
}

exp::Registrar reg({
    .id = "F7",
    .title = "port configurations vs issue width",
    .description = "Crosses port configurations with machine issue width to locate the port bottleneck.",
    .grids = grids,
    .run = run,
});

} // namespace
