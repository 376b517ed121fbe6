/**
 * @file
 * F6 — Operating-system impact.  The paper's evaluation is
 * distinguished by including OS activity; this experiment measures
 * how kernel behaviour (mode switches flushing line buffers, kernel
 * copy loops hammering the port, scattered kernel stores) changes the
 * technique's effectiveness.
 */

#include "exp/registry.hh"

namespace {

using namespace cpe;

std::vector<exp::Variant>
variantsAt(unsigned os)
{
    return {
        {"1p plain", core::PortTechConfig::singlePortBase(), os},
        {"1p all", core::PortTechConfig::singlePortAllTechniques(), os},
        {"2 ports", core::PortTechConfig::dualPortBase(), os},
    };
}

/** The gate replays the heaviest OS level, where the paper's
 *  methodological point bites hardest. */
std::vector<exp::GridSpec>
grids(const std::vector<std::string> &suite)
{
    std::vector<exp::GridSpec> out;
    for (unsigned os : {0u, 1u, 2u})
        out.push_back({"os" + std::to_string(os), variantsAt(os), suite,
                       "2 ports", os == 2 ? exp::Gate::On : exp::Gate::Off});
    return out;
}

void
run(exp::Context &ctx)
{
    for (unsigned os : {0u, 1u, 2u}) {
        ctx.out() << "--- OS level " << os
                  << (os == 0 ? " (user-only)"
                              : os == 1 ? " (timer-tick kernel entries)"
                                        : " (I/O-heavy kernel activity)")
                  << " ---\n";
        const std::string key = "os" + std::to_string(os);
        const auto &grid = ctx.grid(key);
        ctx.out() << ctx.relativeTable(key).render();
        double recovered = 100.0 * grid.geomeanIpc("1p all") /
                           grid.geomeanIpc("2 ports");
        ctx.headline("recovery_os" + std::to_string(os), recovered);
        ctx.out() << "geomean recovery: " << TextTable::num(recovered, 1)
                  << "%\n\n";
    }

    ctx.out() << "Reading: kernel entries flush line buffers and inject "
                 "port traffic, so the\nrecovered fraction shifts with "
                 "OS intensity — the effect the paper argues\nuser-only "
                 "simulation would miss.\n";
}

exp::Registrar reg({
    .id = "F6",
    .title = "technique effectiveness vs OS activity",
    .description = "Re-runs the headline comparison while dialing in OS-like interference.",
    .grids = grids,
    .run = run,
});

} // namespace
