/**
 * @file
 * T1 — Machine parameters.  Regenerates the paper's configuration
 * table: the evaluation machine and the named port-subsystem variants
 * every other experiment sweeps.
 */

#include "exp/registry.hh"

namespace {

using namespace cpe;

/** Gate only: the body describes the named variants, it runs none. */
std::vector<exp::GridSpec>
grids(const std::vector<std::string> &suite)
{
    return {{"main",
             {{"1p plain", core::PortTechConfig::singlePortBase()},
              {"2 ports", core::PortTechConfig::dualPortBase()},
              {"1p all", core::PortTechConfig::singlePortAllTechniques()}},
             suite, "", exp::Gate::Only}};
}

void
run(exp::Context &ctx)
{
    sim::SimConfig config = sim::SimConfig::defaults();
    ctx.out() << config.describe() << "\n";

    TextTable table;
    table.setCaption("Named port-subsystem variants:");
    table.addHeader({"tag", "ports", "width", "store buffer",
                     "line buffers"});
    auto row = [&](const core::PortTechConfig &tech) {
        table.addRow({tech.describe(), std::to_string(tech.ports),
                      std::to_string(tech.portWidthBytes) + "B",
                      tech.storeBufferEntries
                          ? std::to_string(tech.storeBufferEntries) +
                                (tech.storeCombining ? " (combining)" : "")
                          : "-",
                      tech.lineBuffers ? std::to_string(tech.lineBuffers)
                                       : "-"});
    };
    row(core::PortTechConfig::singlePortBase());
    row(core::PortTechConfig::dualPortBase());
    row(core::PortTechConfig::singlePortAllTechniques());
    ctx.out() << table.render() << "\n";
}

exp::Registrar reg({
    .id = "T1",
    .title = "machine configuration",
    .description = "Prints the simulated machine configuration used throughout the evaluation.",
    .grids = grids,
    .run = run,
});

} // namespace
