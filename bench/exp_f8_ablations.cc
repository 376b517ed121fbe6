/**
 * @file
 * F8 — Design-choice ablations (the decisions DESIGN.md calls out):
 *   1. line-buffer write policy: patch vs invalidate, and whether
 *      kernel/user transitions flush the file (run under OS activity,
 *      where it matters);
 *   2. store-buffer drain policy: idle-cycle stealing vs store-priority
 *      (eager) vs threshold-held combining;
 *   3. fill policy: fills stealing the data port vs a dedicated fill
 *      port.
 */

#include "exp/registry.hh"

namespace {

using namespace cpe;

using TC = core::PortTechConfig;

exp::Variant
withVictims(unsigned entries, const std::string &label)
{
    return {label, TC::singlePortAllTechniques(), 0,
            [entries](sim::SimConfig &config) {
                config.core.dcache.cache.assoc = 1;
                config.core.dcache.victimEntries = entries;
            }};
}

exp::Variant
withPrefetch(bool prefetch, unsigned ports, const std::string &label)
{
    return {label,
            ports == 1 ? TC::singlePortAllTechniques() : TC::dualPortBase(),
            0, [prefetch](sim::SimConfig &config) {
                config.core.dcache.nextLinePrefetch = prefetch;
            }};
}

exp::Variant
withWrongPath(bool on, const std::string &label)
{
    return {label, TC::singlePortAllTechniques(), 0,
            [on](sim::SimConfig &config) {
                config.core.fetch.modelWrongPathIFetch = on;
            }};
}

std::vector<exp::GridSpec>
grids(const std::vector<std::string> &suite)
{
    TC update = TC::singlePortAllTechniques();
    TC inval = update;
    inval.lineBufferWrite = core::LineBufferWritePolicy::Invalidate;
    TC no_flush = update;
    no_flush.flushLineBuffersOnModeSwitch = false;

    TC idle = TC::singlePortAllTechniques();
    TC eager = idle;
    eager.drainPolicy = core::DrainPolicy::Eager;
    TC threshold = idle;
    threshold.drainPolicy = core::DrainPolicy::Threshold;
    threshold.drainThreshold = 6;

    TC steal = TC::singlePortAllTechniques();
    TC dedicated = steal;
    dedicated.fillPolicy = core::FillPolicy::DedicatedFillPort;
    TC slow_fill = steal;
    slow_fill.fillOccupancyCycles = 4;

    return {
        // Use the read-modify-write-heavy kernels where write policy
        // can matter at all; pure streaming kernels never re-read
        // stored lines.
        {"lb_write_policy",
         {{"patch", update, 2},
          {"invalidate", inval, 2},
          {"patch, no mode flush", no_flush, 2}},
         {"histogram", "crc", "copy", "stencil", "saxpy", "sort"},
         "patch"},
        // The gate replays the drain-policy ablation: the one whose
        // ordering the paper's design argument leans on.
        {"drain_policy",
         {{"idle-steal", idle},
          {"store-priority", eager},
          {"threshold-6", threshold}},
         suite, "idle-steal", exp::Gate::On},
        {"fill_policy",
         {{"steal (2 cyc)", steal},
          {"dedicated port", dedicated},
          {"steal (4 cyc)", slow_fill}},
         suite, "steal (2 cyc)"},
        {"victim_cache",
         {withVictims(0, "no victims"), withVictims(4, "4 victims"),
          withVictims(8, "8 victims")},
         suite, "no victims"},
        {"prefetch",
         {withPrefetch(false, 1, "1p all"), withPrefetch(true, 1, "1p all+pf"),
          withPrefetch(false, 2, "2p"), withPrefetch(true, 2, "2p+pf")},
         suite, "1p all"},
        // Include the mispredict-heavy kernels where it could matter.
        {"wrong_path",
         {withWrongPath(false, "no wrong path"),
          withWrongPath(true, "wrong-path ifetch")},
         {"compress", "sort", "hashjoin", "bsearch", "strops", "stencil"},
         "no wrong path"},
    };
}

void
run(exp::Context &ctx)
{
    // Each section: its heading, the grid (whose replay line and any
    // profiles print as it is fetched), then its relative view.
    auto section = [&](const char *heading, const std::string &key) {
        ctx.out() << heading;
        TextTable relative = ctx.relativeTable(key);
        ctx.out() << relative.render() << "\n";
    };
    section("--- line-buffer write policy (OS level 2) ---\n",
            "lb_write_policy");
    section("--- store-buffer drain policy ---\n", "drain_policy");
    section("--- fill policy ---\n", "fill_policy");
    section("--- victim cache (extension; direct-mapped L1, "
            "Jouppi's setting) ---\n",
            "victim_cache");
    section("--- next-line prefetch (extension) ---\n", "prefetch");
    section("--- wrong-path I-fetch modelling (fidelity check) ---\n",
            "wrong_path");

    ctx.out() << "Reading: patching beats invalidating (keeps hot lines "
                 "servable); idle-cycle\nstealing beats store priority "
                 "(loads are latency-critical); a dedicated fill\nport "
                 "buys little once fills are short.\n";
}

exp::Registrar reg({
    .id = "F8",
    .title = "ablations of the design choices",
    .description = "Removes each port-efficiency technique in turn to attribute the headline gain.",
    .grids = grids,
    .run = run,
});

} // namespace
