/**
 * @file
 * F13 — Sampled-simulation validation.  Runs each workload twice at an
 * inflated problem size: once full-detail and once under the periodic
 * SMARTS-style schedule, then reports the IPC estimate's error against
 * the full run, whether the confidence interval covers it, and the
 * wall-clock speedup.  The methodology target (at 100x scale, see
 * EXPERIMENTS.md) is >= 50x speedup at <= 3% IPC error with the CI
 * covering the full-detail value.  The speedup is a wall-clock ratio
 * whose full-detail column also pays the one-time functional capture
 * both columns replay, so a cheaper capture lowers it: with the
 * current capture the 50x target is not met (EXPERIMENTS.md, F13).
 *
 * The problem-size multiplier comes from CPESIM_F13_SCALE (default 8,
 * kept modest so `--run all` stays quick; the headline numbers in
 * EXPERIMENTS.md use 100).  The workloads here all scale linearly
 * with the multiplier (matmul, say, is cubic — a 100x run of it
 * would be infeasible full-detail), and the sampling period grows
 * with the scale so the interval count, and with it the detailed
 * fraction, stays put.
 *
 * The sampled column is a statistical estimate with its own
 * confidence interval, so it is excluded from the regression gate
 * (GridSpec::gateExclude): only the full-detail column is baselined.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>

#include "exp/registry.hh"
#include "sim/simulator.hh"
#include "sim/trace_cache.hh"
#include "util/table.hh"

namespace {

using namespace cpe;

unsigned
scaleFactor()
{
    if (const char *env = std::getenv("CPESIM_F13_SCALE")) {
        unsigned scale = static_cast<unsigned>(
            std::strtoul(env, nullptr, 10));
        if (scale)
            return scale;
    }
    return 8;
}

void
applyScale(sim::SimConfig &config)
{
    config.workload.scale = scaleFactor();
}

std::vector<exp::Variant>
variants()
{
    core::PortTechConfig machine =
        core::PortTechConfig::singlePortAllTechniques();
    return {
        {"full", machine, 0, applyScale},
        {"sampled", machine, 0,
         [](sim::SimConfig &config) {
             applyScale(config);
             config.sample.mode = sim::SampleParams::Mode::Periodic;
             // Scale the period with the problem size: a constant
             // interval count per workload keeps the detailed
             // fraction (and so the speedup) scale-invariant instead
             // of letting the 3%-detailed default cap large runs.
             config.sample.periodInsts = std::max<std::uint64_t>(
                 config.sample.periodInsts,
                 12'500ull * scaleFactor());
         }},
    };
}

/** The validated workloads, whatever the suite: each scales linearly. */
const std::vector<std::string> kWorkloads = {"compress", "stencil", "copy"};

/** Gate only: the body times its own runs (see run()). */
std::vector<exp::GridSpec>
grids(const std::vector<std::string> &)
{
    return {{"main", variants(), kWorkloads, "full", exp::Gate::Only,
             {"sampled"}}};
}

double
elapsedMs(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

void
run(exp::Context &ctx)
{
    // Timed by hand rather than through a declared grid: the point is
    // the wall-clock ratio of the two columns, which a parallel sweep
    // would scramble, so F13 runs alone, after cpe_eval's pool.  Run
    // serially, full first (it also pays the one-time functional
    // capture both columns replay).
    auto configs = exp::suiteConfigs(variants(), kWorkloads);

    TextTable table;
    table.addHeader({"workload", "full IPC", "sampled IPC", "err%",
                     "CI95", "covers", "full ms", "sampled ms",
                     "speedup"});
    double log_speedup_sum = 0.0;
    double max_err_pct = 0.0;
    unsigned covered = 0;
    unsigned pairs = 0;
    Json rows = Json::array();
    for (std::size_t i = 0; i + 1 < configs.size(); i += 2) {
        auto start_full = std::chrono::steady_clock::now();
        // The full column pays the capture and the warm index the
        // sampled column fast-forwards over: prepare the stream for the
        // sampled config, and the full run claims that capture.
        if (sim::TraceCache *cache = configs[i + 1].traceCache)
            cache->prepare(configs[i + 1]);
        sim::SimResult full = sim::simulate(configs[i]);
        double full_ms = elapsedMs(start_full);

        auto start_sampled = std::chrono::steady_clock::now();
        sim::SimResult sampled = sim::simulate(configs[i + 1]);
        double sampled_ms = elapsedMs(start_sampled);

        double err_pct =
            100.0 * std::abs(sampled.ipc - full.ipc) / full.ipc;
        bool covers = sampled.ipcCiLow <= full.ipc &&
                      full.ipc <= sampled.ipcCiHigh;
        double speedup = sampled_ms > 0.0 ? full_ms / sampled_ms : 0.0;
        max_err_pct = std::max(max_err_pct, err_pct);
        covered += covers;
        ++pairs;
        log_speedup_sum += std::log(speedup);

        table.addRow({full.workload, TextTable::num(full.ipc),
                      TextTable::num(sampled.ipc),
                      TextTable::num(err_pct, 2),
                      "[" + TextTable::num(sampled.ipcCiLow) + ", " +
                          TextTable::num(sampled.ipcCiHigh) + "]",
                      covers ? "yes" : "NO", TextTable::num(full_ms, 1),
                      TextTable::num(sampled_ms, 1),
                      TextTable::num(speedup, 1) + "x"});

        Json row = Json::object();
        row["workload"] = full.workload;
        row["full_ipc"] = full.ipc;
        row["sampled_ipc"] = sampled.ipc;
        row["err_pct"] = err_pct;
        row["ci_low"] = sampled.ipcCiLow;
        row["ci_high"] = sampled.ipcCiHigh;
        row["ci_covers_full"] = covers;
        row["intervals"] = sampled.measuredIntervals;
        row["ff_insts"] = sampled.ffInsts;
        row["full_ms"] = full_ms;
        row["sampled_ms"] = sampled_ms;
        row["speedup"] = speedup;
        rows.push(std::move(row));
    }

    double geomean_speedup =
        pairs ? std::exp(log_speedup_sum / pairs) : 0.0;
    ctx.out() << "scale " << scaleFactor()
              << "x (CPESIM_F13_SCALE):\n\n"
              << table.render() << "\n"
              << "HEADLINE: geomean " << TextTable::num(geomean_speedup, 1)
              << "x speedup, max IPC error "
              << TextTable::num(max_err_pct, 2) << "%, CI covers "
              << covered << "/" << pairs << " full-detail runs.\n"
              << "Methodology target at 100x scale: >= 50x at <= 3% "
                 "error with full coverage.\n";
    ctx.headline("geomean_speedup", geomean_speedup);
    ctx.headline("max_err_pct", max_err_pct);
    ctx.headline("ci_coverage",
                 pairs ? static_cast<double>(covered) / pairs : 0.0);
    ctx.record("sampled_validation", std::move(rows));
}

exp::Registrar reg({
    .id = "F13",
    .title = "sampled simulation vs full detail",
    .description = "Validates the SMARTS-style sampled mode: IPC error, CI coverage, and wall-clock speedup against full-detail runs.",
    .grids = grids,
    .run = run,
});

} // namespace
