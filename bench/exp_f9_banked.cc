/**
 * @file
 * F9 (extension) — multi-banking vs the paper's techniques.  Banking
 * is the classic cheaper-than-true-multi-porting alternative (two
 * access buses over N single-ported banks, conflicts when same-cycle
 * accesses collide in a bank).  This experiment asks the natural
 * follow-on question the paper's design space raises: does a buffered
 * single port beat a banked pseudo-dual-ported cache?
 */

#include "exp/registry.hh"

namespace {

using namespace cpe;

std::vector<exp::Variant>
variants()
{
    std::vector<exp::Variant> out;
    out.push_back({"1p plain", core::PortTechConfig::singlePortBase()});
    for (unsigned banks : {2u, 4u, 8u}) {
        core::PortTechConfig tech = core::PortTechConfig::dualPortBase();
        tech.banks = banks;
        out.push_back({"2bus " + std::to_string(banks) + "bank", tech});
    }
    out.push_back({"1p all",
                   core::PortTechConfig::singlePortAllTechniques()});
    out.push_back({"2 ports", core::PortTechConfig::dualPortBase()});
    return out;
}

std::vector<exp::GridSpec>
grids(const std::vector<std::string> &suite)
{
    return {{"main", variants(), suite, "2 ports", exp::Gate::On}};
}

void
run(exp::Context &ctx)
{
    ctx.printGrid("main");

    // Bank-conflict rates for the banked points, on the most
    // port-hungry workload.
    TextTable table;
    table.setCaption("Bank conflicts on 'copy':");
    table.addHeader({"banks", "conflict rejects", "IPC"});
    for (unsigned banks : {2u, 4u, 8u}) {
        core::PortTechConfig tech = core::PortTechConfig::dualPortBase();
        tech.banks = banks;
        sim::SimConfig config = sim::SimConfig::defaults();
        config.workloadName = "copy";
        config.core.dcache.tech = tech;
        sim::SimResult result = ctx.machineResult(config);
        Json stats = Json::parse(result.statsJson, "stats");
        auto conflicts = static_cast<std::uint64_t>(
            stats.at("core").at("dcache_unit").at("bank_conflicts")
                .asNumber());
        table.addRow({std::to_string(banks), TextTable::num(conflicts),
                      TextTable::num(result.ipc)});
    }
    ctx.out() << table.render() << "\n";
    ctx.out() << "Reading: enough banks approximate a true dual port; "
                 "the buffered single\nport is competitive with banked "
                 "designs while needing only one access bus.\n";
}

exp::Registrar reg({
    .id = "F9",
    .title = "banked pseudo-dual-port vs buffered single port",
    .description = "Pits a banked pseudo-dual-port cache against the buffered single port.",
    .grids = grids,
    .run = run,
});

} // namespace
