/**
 * @file
 * T3 — Port-traffic accounting.  Under the full-technique single-port
 * configuration: where loads are serviced from, how well stores
 * combine, and how busy the one port actually is.  This is the
 * mechanism-level evidence behind F5's performance recovery.
 */

#include "exp/registry.hh"

namespace {

using namespace cpe;

std::vector<exp::GridSpec>
grids(const std::vector<std::string> &suite)
{
    return {{"main",
             {{"1p all", core::PortTechConfig::singlePortAllTechniques()}},
             suite, "", exp::Gate::On}};
}

void
run(exp::Context &ctx)
{
    setVerbose(false);

    const auto &grid = ctx.grid("main");

    TextTable table;
    table.addHeader({"workload", "ld sb-fwd%", "ld linebuf%",
                     "ld port%", "stores/drain", "port util%",
                     "l1d miss%"});
    for (const auto &name : ctx.suite()) {
        const sim::SimResult &result = grid.result(name, "1p all");

        // The load-source breakdown is in the stats of the machine's
        // run (the grid's own, unless a hook or fault changed it).
        sim::SimConfig config = sim::SimConfig::defaults();
        config.workloadName = name;
        config.core.dcache.tech =
            core::PortTechConfig::singlePortAllTechniques();
        Json stats =
            Json::parse(ctx.machineResult(config).statsJson, "stats");
        const Json &dcache = stats.at("core").at("dcache_unit");
        auto loads = [&](const char *source) {
            return static_cast<std::uint64_t>(
                dcache.at(source).asNumber());
        };
        double total_loads = static_cast<double>(
            loads("loads_sb_fwd") + loads("loads_line_buf") +
            loads("loads_cache_hit") + loads("loads_miss") +
            loads("loads_miss_merged"));
        auto pct = [&](std::uint64_t value) {
            return TextTable::num(100.0 * value / total_loads, 1);
        };
        table.addRow(
            {name, pct(loads("loads_sb_fwd")),
             pct(loads("loads_line_buf")),
             pct(loads("loads_cache_hit") + loads("loads_miss")),
             TextTable::num(result.sbStoresPerDrain, 2),
             TextTable::num(100 * result.portUtilization, 1),
             TextTable::num(100 * result.l1dMissRate, 1)});
    }
    ctx.out() << table.render() << "\n";
    ctx.out() << "Reading: loads served by line buffers and forwarding "
                 "never touch the port;\nstores/drain > 1 means "
                 "combining turned several stores into one access.\n";
}

exp::Registrar reg({
    .id = "T3",
    .title = "port-traffic accounting (1p all-techniques)",
    .description = "Accounts L1D port traffic by source for the all-techniques single-port machine.",
    .grids = grids,
    .run = run,
});

} // namespace
