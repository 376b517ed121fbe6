/**
 * @file
 * F4 — Port width.  With the buffering techniques in place (4 line
 * buffers, 8-entry combining store buffer), how much does widening the
 * single port to 16 and 32 bytes buy?  Wider accesses capture more of
 * each line per load ("load-all-wide") and drain more combined store
 * bytes per access.
 */

#include "exp/registry.hh"

namespace {

using namespace cpe;

std::vector<exp::Variant>
variants()
{
    std::vector<exp::Variant> out;
    for (unsigned width : {8u, 16u, 32u}) {
        core::PortTechConfig tech =
            core::PortTechConfig::singlePortAllTechniques();
        tech.portWidthBytes = width;
        out.push_back({std::to_string(width) + "B", tech});
    }
    out.push_back({"2 ports", core::PortTechConfig::dualPortBase()});
    return out;
}

std::vector<exp::GridSpec>
grids(const std::vector<std::string> &suite)
{
    return {{"main", variants(), suite, "8B", exp::Gate::On}};
}

void
run(exp::Context &ctx)
{
    ctx.printGrid("main");

    // How the width changes technique effectiveness.
    TextTable table;
    table.setCaption(
        "Technique activity vs width (suite member 'copy'):");
    table.addHeader({"width", "lb hit rate", "stores/drain",
                     "loads needing port"});
    for (unsigned width : {8u, 16u, 32u}) {
        core::PortTechConfig tech =
            core::PortTechConfig::singlePortAllTechniques();
        tech.portWidthBytes = width;
        sim::SimConfig config = sim::SimConfig::defaults();
        config.workloadName = "copy";
        config.core.dcache.tech = tech;
        auto result = ctx.machineResult(config);
        table.addRow({std::to_string(width) + "B",
                      TextTable::num(100 * result.lineBufferHitRate, 1) +
                          "%",
                      TextTable::num(result.sbStoresPerDrain, 2),
                      TextTable::num(100 * result.loadPortFraction, 1) +
                          "%"});
    }
    ctx.out() << table.render() << "\n";
}

exp::Registrar reg({
    .id = "F4",
    .title = "single buffered port: IPC vs port width",
    .description = "Widens a single buffered port to carry multiple accesses per cycle.",
    .grids = grids,
    .run = run,
});

} // namespace
