/**
 * @file
 * F2 — Store-buffer depth.  Single-ported cache with a combining
 * store buffer of growing depth, plus a non-combining column to
 * isolate how much of the win is the combining itself.
 */

#include "exp/registry.hh"

namespace {

using namespace cpe;

std::vector<exp::Variant>
variants()
{
    std::vector<exp::Variant> out;
    out.push_back({"no sb", core::PortTechConfig::singlePortBase()});
    for (unsigned depth : {2u, 4u, 8u, 16u}) {
        core::PortTechConfig tech = core::PortTechConfig::singlePortBase();
        tech.storeBufferEntries = depth;
        tech.storeCombining = true;
        out.push_back({"sb" + std::to_string(depth), tech});
    }
    {
        core::PortTechConfig tech = core::PortTechConfig::singlePortBase();
        tech.storeBufferEntries = 8;
        tech.storeCombining = false;
        out.push_back({"sb8 no-comb", tech});
    }
    out.push_back({"2 ports", core::PortTechConfig::dualPortBase()});
    return out;
}

std::vector<exp::GridSpec>
grids(const std::vector<std::string> &suite)
{
    return {{"main", variants(), suite, "no sb", exp::Gate::On}};
}

void
run(exp::Context &ctx)
{
    ctx.printGrid("main");

    ctx.out() << "Reading: a small buffer captures most of the benefit "
                 "(the paper's point\nthat modest extra buffering goes a "
                 "long way); combining matters most on\nstore-dense "
                 "codes (copy, histogram).\n";
}

exp::Registrar reg({
    .id = "F2",
    .title = "single-port IPC vs store-buffer depth",
    .description = "Deepens the store buffer on a single-ported cache to recover store-bound IPC.",
    .grids = grids,
    .run = run,
});

} // namespace
