#include "sim/config.hh"

#include <sstream>

#include "util/bits.hh"
#include "util/error.hh"

namespace cpe::sim {

SimConfig
SimConfig::defaults()
{
    SimConfig config;
    // The defaults declared inline in the component parameter structs
    // already describe the evaluation machine; restate the key ones
    // here so this function is the single authoritative source.
    config.core.renameWidth = 4;
    config.core.issueWidth = 4;
    config.core.commitWidth = 4;
    config.core.robSize = 64;
    config.core.iqSize = 32;
    config.core.fetch.fetchWidth = 4;
    config.core.dcache.cache.sizeBytes = 16 * 1024;
    config.core.dcache.cache.assoc = 2;
    config.core.dcache.cache.lineBytes = 32;
    config.core.dcache.hitLatency = 1;
    config.core.dcache.mshrs = 8;
    config.l2.cache.sizeBytes = 512 * 1024;
    config.l2.hitLatency = 8;
    config.dram.latency = 50;
    return config;
}

std::string
SimConfig::tag() const
{
    return label.empty() ? tech().describe() : label;
}

namespace {

/** Checks one cache's geometry against mem::Cache's contracts. */
void
validateCacheGeometry(const std::string &prefix,
                      const mem::CacheParams &cache,
                      std::vector<ConfigDiagnostic> &out)
{
    auto bad = [&](const std::string &field, const std::string &msg) {
        out.push_back({prefix + "." + field, msg});
    };
    if (cache.sizeBytes == 0 || !isPowerOf2(cache.sizeBytes))
        bad("size", "cache size must be a nonzero power of two, got " +
                        std::to_string(cache.sizeBytes) + " bytes");
    if (cache.lineBytes < 8 || cache.lineBytes > 64 ||
        !isPowerOf2(cache.lineBytes))
        bad("line", "line size must be a power of two in [8, 64], got " +
                        std::to_string(cache.lineBytes));
    if (cache.assoc == 0) {
        bad("assoc", "associativity must be >= 1");
        return;  // the set computations below would divide by zero
    }
    if (cache.lineBytes == 0 || cache.sizeBytes == 0)
        return;
    if (cache.sizeBytes % (cache.lineBytes * cache.assoc) != 0) {
        bad("assoc", "size must divide evenly into " +
                         std::to_string(cache.assoc) + " ways of " +
                         std::to_string(cache.lineBytes) + "B lines");
        return;
    }
    std::uint64_t sets =
        cache.sizeBytes / (cache.lineBytes * cache.assoc);
    if (!isPowerOf2(sets))
        bad("assoc", "set count " + std::to_string(sets) +
                         " is not a power of two");
}

} // namespace

std::vector<ConfigDiagnostic>
SimConfig::validate() const
{
    std::vector<ConfigDiagnostic> out;
    auto bad = [&](const std::string &field, const std::string &msg) {
        out.push_back({field, msg});
    };
    auto require_nonzero = [&](const std::string &field,
                               std::uint64_t value) {
        if (value == 0)
            bad(field, "must be >= 1");
    };

    // Workload: an unknown name would otherwise surface only when the
    // run's worker thread tries to build the program.
    if (!workload::WorkloadRegistry::instance().has(workloadName))
        bad("workload", "unknown workload '" + workloadName + "'");

    // Core widths and window sizes.
    require_nonzero("core.rename_width", core.renameWidth);
    require_nonzero("core.issue_width", core.issueWidth);
    require_nonzero("core.commit_width", core.commitWidth);
    require_nonzero("core.fetch_width", core.fetch.fetchWidth);
    require_nonzero("core.rob", core.robSize);
    require_nonzero("core.iq", core.iqSize);
    require_nonzero("core.lq", core.lsq.loadEntries);
    require_nonzero("core.sq", core.lsq.storeEntries);
    if (core.fetch.queueCapacity < core.fetch.fetchWidth)
        bad("core.fetch_width",
            "fetch queue capacity " +
                std::to_string(core.fetch.queueCapacity) +
                " is smaller than the fetch width " +
                std::to_string(core.fetch.fetchWidth));

    // Branch predictor tables are indexed by masking, so they must be
    // powers of two.
    if (!isPowerOf2(core.bpred.tableEntries))
        bad("bpred.table_entries", "must be a power of two, got " +
                                       std::to_string(
                                           core.bpred.tableEntries));
    if (!isPowerOf2(core.bpred.btbEntries))
        bad("bpred.btb_entries", "must be a power of two, got " +
                                     std::to_string(
                                         core.bpred.btbEntries));
    if (core.bpred.btbAssoc == 0 ||
        core.bpred.btbEntries % core.bpred.btbAssoc != 0)
        bad("bpred.btb_assoc", "must divide btb_entries " +
                                   std::to_string(core.bpred.btbEntries) +
                                   ", got " +
                                   std::to_string(core.bpred.btbAssoc));
    if (!isPowerOf2(core.bpred.localHistories))
        bad("bpred.local_histories",
            "must be a power of two, got " +
                std::to_string(core.bpred.localHistories));

    // Cache geometries (what mem::Cache's constructor would panic on).
    validateCacheGeometry("l1d", core.dcache.cache, out);
    validateCacheGeometry("l1i", core.fetch.icache, out);
    validateCacheGeometry("l2", l2.cache, out);

    // MSHRs: zero would let a miss retry forever (a guaranteed
    // watchdog trip), and targets must allow at least the miss itself.
    require_nonzero("l1d.mshrs", core.dcache.mshrs);
    require_nonzero("l1d.mshr_targets", core.dcache.mshrTargets);

    // The port subsystem under study.
    const auto &t = core.dcache.tech;
    const unsigned line = core.dcache.cache.lineBytes;
    if (t.ports < 1 || t.ports > 8)
        bad("tech.ports", "data ports must be in [1, 8], got " +
                              std::to_string(t.ports));
    if (!isPowerOf2(t.portWidthBytes) || t.portWidthBytes < 8 ||
        (line >= 8 && t.portWidthBytes > line))
        bad("tech.width",
            "port width must be a power of two in [8, line size " +
                std::to_string(line) + "], got " +
                std::to_string(t.portWidthBytes));
    if (t.banks == 0 || !isPowerOf2(t.banks))
        bad("tech.banks", "bank count must be a nonzero power of two, "
                          "got " + std::to_string(t.banks));
    if (!isPowerOf2(t.bankInterleaveBytes))
        bad("tech.bank_interleave",
            "bank interleave must be a power of two, got " +
                std::to_string(t.bankInterleaveBytes));
    if (t.storeBufferEntries > 256)
        bad("tech.store_buffer", "store buffer capped at 256 entries, "
                                 "got " +
                                     std::to_string(
                                         t.storeBufferEntries));
    if (t.storeBufferEntries > 0 &&
        t.drainPolicy == core::DrainPolicy::Threshold &&
        (t.drainThreshold == 0 ||
         t.drainThreshold > t.storeBufferEntries))
        bad("tech.drain_threshold",
            "threshold drain needs 1 <= threshold <= capacity, got " +
                std::to_string(t.drainThreshold) + " of " +
                std::to_string(t.storeBufferEntries));
    if (t.lineBuffers > 256)
        bad("tech.line_buffers", "line buffers capped at 256, got " +
                                     std::to_string(t.lineBuffers));
    if (t.fillPolicy == core::FillPolicy::StealPort &&
        t.fillOccupancyCycles == 0)
        bad("tech.fill_cycles",
            "a port-stealing fill must occupy >= 1 cycle");

    // Warm-up vs. run length: the measurement region must be able to
    // exist.  The functional executor fuses at 500M instructions, so a
    // warm-up at or beyond it guarantees an empty measurement region.
    if (warmupInsts >= 500'000'000)
        bad("warmup_insts",
            "warm-up of " + std::to_string(warmupInsts) +
                " meets the 500M-instruction executor fuse; the "
                "measurement region would be empty");

    // Sampled simulation: the sampled run owns the warm-up/measure
    // structure itself, and the cycle-exact observability artifacts
    // (interval timeseries, event traces) are full-detail features —
    // a sampled run's cycle axis has holes they cannot represent.
    if (sample.enabled()) {
        if (warmupInsts)
            bad("sample.mode",
                "sampled mode schedules its own per-interval warm-up; "
                "drop warmup_insts");
        if (obs.sampleCycles)
            bad("sample.mode",
                "cycle-interval stats sampling needs a full-detail "
                "run; drop [obs] sample_cycles");
        if (obs.traceSink)
            bad("sample.mode",
                "event tracing needs a full-detail run; drop --trace");
        require_nonzero("sample.measure_insts", sample.measureInsts);
        if (sample.mode == SampleParams::Mode::Periodic)
            require_nonzero("sample.period_insts", sample.periodInsts);
        if (sample.mode == SampleParams::Mode::Fixed)
            require_nonzero("sample.intervals", sample.intervals);
        if (!(sample.confidence > 0.0 && sample.confidence < 1.0))
            bad("sample.confidence",
                "confidence level must be in (0, 1), got " +
                    std::to_string(sample.confidence));
    }

    // Watchdog budgets.
    require_nonzero("core.max_cycles", core.maxCycles);
    if (core.noCommitCycleLimit > core.maxCycles)
        bad("core.no_commit_limit",
            "no-commit limit " + std::to_string(core.noCommitCycleLimit) +
                " exceeds the absolute cycle budget " +
                std::to_string(core.maxCycles) +
                " and can never trip first");

    return out;
}

void
SimConfig::validateOrThrow() const
{
    std::vector<ConfigDiagnostic> diagnostics = validate();
    if (diagnostics.empty())
        return;
    std::ostringstream msg;
    msg << "invalid configuration";
    if (!workloadName.empty())
        msg << " (" << workloadName << " / " << tag() << ")";
    msg << ":";
    for (const auto &diagnostic : diagnostics)
        msg << "\n  " << diagnostic.field << ": " << diagnostic.message;
    throw ConfigError(msg.str());
}

std::string
SimConfig::describe() const
{
    std::ostringstream out;
    auto line = [&](const std::string &key, const std::string &value) {
        out << "  " << key;
        if (key.size() < 28)
            out << std::string(28 - key.size(), ' ');
        out << value << "\n";
    };
    const auto &d = core.dcache;
    const auto &t = d.tech;
    out << "Machine configuration\n";
    line("issue width", std::to_string(core.issueWidth) + "-way ooo");
    line("fetch width", std::to_string(core.fetch.fetchWidth));
    line("rob / iq", std::to_string(core.robSize) + " / " +
                         std::to_string(core.iqSize));
    line("lsq (ld/st)", std::to_string(core.lsq.loadEntries) + " / " +
                            std::to_string(core.lsq.storeEntries));
    line("branch predictor",
         core.bpred.kind == cpu::PredictorKind::GShare
             ? "gshare " + std::to_string(core.bpred.tableEntries)
             : "bimodal " + std::to_string(core.bpred.tableEntries));
    line("l1i", std::to_string(core.fetch.icache.sizeBytes / 1024) +
                    " KiB, " + std::to_string(core.fetch.icache.assoc) +
                    "-way, " +
                    std::to_string(core.fetch.icache.lineBytes) + "B");
    line("l1d", std::to_string(d.cache.sizeBytes / 1024) + " KiB, " +
                    std::to_string(d.cache.assoc) + "-way, " +
                    std::to_string(d.cache.lineBytes) + "B, " +
                    std::to_string(d.hitLatency) + "-cycle hit");
    line("l1d mshrs", std::to_string(d.mshrs));
    line("l2", std::to_string(l2.cache.sizeBytes / 1024) + " KiB, " +
                   std::to_string(l2.cache.assoc) + "-way, " +
                   std::to_string(l2.hitLatency) + "-cycle");
    line("dram", std::to_string(dram.latency) + "-cycle + " +
                     std::to_string(dram.cyclesPerLine) +
                     "-cycle/line bus");
    line("watchdog",
         std::to_string(core.maxCycles) + "-cycle budget, " +
             (core.noCommitCycleLimit
                  ? std::to_string(core.noCommitCycleLimit) +
                        "-cycle no-commit limit"
                  : std::string("no-commit limit off")));
    out << "D-cache port subsystem\n";
    line("data ports", std::to_string(t.ports));
    line("port width", std::to_string(t.portWidthBytes) + " bytes");
    line("store buffer",
         t.storeBufferEntries
             ? std::to_string(t.storeBufferEntries) + " entries" +
                   (t.storeCombining ? ", combining" : "")
             : "disabled");
    line("line buffers",
         t.lineBuffers ? std::to_string(t.lineBuffers) : "disabled");
    line("fill policy", t.fillPolicy == core::FillPolicy::StealPort
                            ? "steals data port"
                            : "dedicated fill port");
    return out.str();
}

} // namespace cpe::sim
