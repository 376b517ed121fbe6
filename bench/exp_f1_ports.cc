/**
 * @file
 * F1 — The port bottleneck.  IPC as the number of cache data ports
 * grows (1, 2, 4) with no buffering techniques: establishes how much
 * performance multi-porting buys, i.e. the gap the paper's techniques
 * must close.
 */

#include "exp/registry.hh"

namespace {

using namespace cpe;

std::vector<exp::Variant>
variants()
{
    std::vector<exp::Variant> out;
    for (unsigned ports : {1u, 2u, 4u}) {
        core::PortTechConfig tech = core::PortTechConfig::singlePortBase();
        tech.ports = ports;
        out.push_back({std::to_string(ports) + " port" +
                           (ports > 1 ? "s" : ""),
                       tech});
    }
    return out;
}

std::vector<exp::GridSpec>
grids(const std::vector<std::string> &suite)
{
    return {{"main", variants(), suite, "1 port", exp::Gate::On}};
}

void
run(exp::Context &ctx)
{
    ctx.printGrid("main");

    ctx.out() << "Reading: the paper's premise is the 1-port column "
                 "trailing the 2-port\nbaseline noticeably on "
                 "memory-intensive codes, with diminishing returns\n"
                 "beyond 2 ports.\n";
}

exp::Registrar reg({
    .id = "F1",
    .title = "performance vs number of cache ports",
    .description = "Sweeps the L1D port count to show how far beyond one port the baseline core can profit.",
    .grids = grids,
    .run = run,
});

} // namespace
