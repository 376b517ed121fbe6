/**
 * @file
 * F3 — Load-all line buffers.  Single-ported cache with a growing
 * line-buffer file (port width fixed at 8 bytes, so each access
 * captures one window; the wide-port amplification is F4's job).
 */

#include "exp/registry.hh"

namespace {

using namespace cpe;

std::vector<exp::Variant>
variants()
{
    std::vector<exp::Variant> out;
    for (unsigned buffers : {0u, 1u, 2u, 4u, 8u}) {
        core::PortTechConfig tech = core::PortTechConfig::singlePortBase();
        tech.lineBuffers = buffers;
        out.push_back({buffers ? "lb" + std::to_string(buffers)
                               : "no lb",
                       tech});
    }
    out.push_back({"2 ports", core::PortTechConfig::dualPortBase()});
    return out;
}

std::vector<exp::GridSpec>
grids(const std::vector<std::string> &suite)
{
    return {{"main", variants(), suite, "no lb", exp::Gate::On}};
}

void
run(exp::Context &ctx)
{
    ctx.printGrid("main");

    // Line-buffer hit rates for the largest file.
    TextTable table;
    table.setCaption("Line-buffer load hit rate (lb8, narrow port):");
    table.addHeader({"workload", "hit rate"});
    core::PortTechConfig tech = core::PortTechConfig::singlePortBase();
    tech.lineBuffers = 8;
    for (const auto &name : ctx.suite()) {
        sim::SimConfig config = sim::SimConfig::defaults();
        config.workloadName = name;
        config.core.dcache.tech = tech;
        auto result = ctx.machineResult(config);
        table.addRow({name,
                      TextTable::num(100 * result.lineBufferHitRate, 1) +
                          "%"});
    }
    ctx.out() << table.render() << "\n";
}

exp::Registrar reg({
    .id = "F3",
    .title = "single-port IPC vs number of line buffers",
    .description = "Varies line-buffer count for the load-all-ports technique on one cache port.",
    .grids = grids,
    .run = run,
});

} // namespace
