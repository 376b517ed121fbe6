/**
 * @file
 * In-simulator stall-attribution profiler: per-static-PC counters for
 * everything the paper's techniques buy or cost (port grants and
 * conflicts, store-buffer-full stalls, line-buffer hits, MSHR waits,
 * commit stalls by cause) plus per-cache-set access/miss/eviction
 * counters.
 *
 * Components report to it through their obs::Probe (obs/probe.hh,
 * which also states the non-perturbing contract).  The probe carries
 * the attribution PC: the D-cache unit and the commit stage set the PC
 * of the instruction being handled, so seams deep inside the port
 * arbiter or line buffers never need to know which instruction drove
 * them.  PC 0 is the machine itself — store-buffer drains, fills,
 * prefetches — and gets its own bucket.
 */

#ifndef CPE_OBS_PROFILER_HH
#define CPE_OBS_PROFILER_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "util/json.hh"
#include "util/types.hh"

namespace cpe::obs {

/** Everything attributed to one static PC (bucket 0 = no PC). */
struct PcCounters
{
    // Load outcomes (mirrors the dcache_unit loads_* scalars).
    std::uint64_t loads = 0;
    std::uint64_t sbFwd = 0;        ///< forwarded from the store buffer
    std::uint64_t lbServed = 0;     ///< served by a line buffer
    std::uint64_t cacheHits = 0;    ///< port access, L1 hit
    std::uint64_t misses = 0;       ///< primary miss -> new MSHR
    std::uint64_t missMerged = 0;   ///< merged into an in-flight fill
    std::uint64_t stores = 0;       ///< stores accepted (buffer or port)
    // Line-buffer lookups made on behalf of this PC.
    std::uint64_t lbLookups = 0;
    std::uint64_t lbHits = 0;
    // Port traffic driven by this PC (drains/fills land in bucket 0).
    std::uint64_t portGrants = 0;
    std::uint64_t portConflicts = 0;///< retries: every port busy
    // Stall causes.
    std::uint64_t sbFullStalls = 0; ///< store refused: buffer full
    std::uint64_t mshrWaits = 0;    ///< load retries: MSHRs exhausted
    std::uint64_t partialStalls = 0;///< load blocked: partial SB overlap
    std::uint64_t commitStallHead = 0;  ///< commit blocked: head not done
    std::uint64_t commitStallStore = 0; ///< commit blocked: store refused
    // Miss traffic started for this PC.
    std::uint64_t mshrAllocs = 0;

    /** Total stall cycles attributed to this PC (the ranking key). */
    std::uint64_t
    stallCycles() const
    {
        return portConflicts + sbFullStalls + mshrWaits + partialStalls +
               commitStallHead + commitStallStore;
    }

    /** Any activity at all (empty buckets are not reported). */
    bool
    any() const
    {
        return loads || stores || lbLookups || portGrants ||
               mshrAllocs || stallCycles();
    }
};

/** Per-L1D-set counters (conflict heatmap). */
struct SetCounters
{
    std::uint64_t accesses = 0;   ///< demand accesses (hits + misses)
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;  ///< valid lines displaced
};

/**
 * Per-run attribution profiler.  One Profiler belongs to one
 * simulation run, like the Tracer; it is plain data, never shared
 * across threads.
 */
class Profiler
{
  public:
    /**
     * A profiler of an L1D with @p sets sets of @p line_bytes lines
     * (both powers of two), which size the per-set counters.
     */
    Profiler(unsigned sets, unsigned line_bytes);
    Profiler(const Profiler &) = delete;
    Profiler &operator=(const Profiler &) = delete;

    /** The bucket of @p pc, memoized across repeats of one PC. */
    PcCounters &
    bucket(Addr pc)
    {
        if (pc != curPc_) {
            curPc_ = pc;
            cur_ = pc ? &pcs_[pc] : &none_;
        }
        return *cur_;
    }

    /** The counters of the L1D set @p addr maps to. */
    SetCounters &
    setFor(Addr addr)
    {
        return sets_[(addr >> setShift_) & (sets_.size() - 1)];
    }

    /** One cycle with an empty window (no PC to attribute it to). */
    void countRobEmpty() { ++robEmptyCycles_; }

    /**
     * Zero every counter (the warm-up boundary, mirroring
     * StatGroup::resetAll() so the per-PC sums keep matching the
     * post-warm-up aggregates).  Set geometry survives.
     */
    void reset();

    // --- reporting ---

    /** Aggregate of every bucket (equals the StatGroup totals). */
    PcCounters totals() const;

    std::uint64_t robEmptyCycles() const { return robEmptyCycles_; }

    /** The bucket for @p pc, or nullptr (tests; pc 0 = the machine). */
    const PcCounters *counters(Addr pc) const;

    const std::vector<SetCounters> &setCounters() const { return sets_; }

    /**
     * The profile document embedded in JSON results: {"top": N,
     * "totals": {...}, "pcs": [top-N buckets by stall cycles],
     * "sets": {...}}.  Zero-valued per-PC members are omitted (like
     * the trace schema); totals always carry every key.
     */
    Json toJson(unsigned top_n) const;

  private:
    Addr curPc_ = 0;
    PcCounters none_;           ///< bucket for PC 0 (machine-initiated)
    PcCounters *cur_ = &none_;  ///< memoized bucket of curPc_
    std::unordered_map<Addr, PcCounters> pcs_;
    std::vector<SetCounters> sets_;
    unsigned setShift_ = 0;     ///< log2 of the L1D line size
    std::uint64_t robEmptyCycles_ = 0;
};

/**
 * Render a profile document (Profiler::toJson output) as the top-N
 * per-PC stall-attribution table `cpe_eval --profile` prints.
 */
std::string profileTable(const Json &profile);

} // namespace cpe::obs

#endif // CPE_OBS_PROFILER_HH
