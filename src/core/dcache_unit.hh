/**
 * @file
 * The data-cache port subsystem: L1D tags + MSHRs + the paper's three
 * techniques (combining store buffer, line buffers, wide port) behind
 * a load/store interface the LSQ and commit stage drive.
 *
 * Per-cycle protocol (driven by OooCore):
 *
 *   1. beginCycle(now)  — arrived fills install lines (and, under the
 *      Eager drain ablation, the store buffer drains ahead of loads);
 *   2. the LSQ issues loads via tryLoad() and commit retires stores
 *      via tryStore();
 *   3. endCycle(now)    — the store buffer drains into whatever port
 *      slots the cycle left idle, and utilization stats are taken.
 *
 * Coherence rules that keep the buffering techniques correct:
 *   - loads check the store buffer before anything else; full coverage
 *     forwards, partial coverage blocks the load and flags the entry
 *     for priority drain;
 *   - stores patch or invalidate matching line buffers at commit, so a
 *     line buffer never returns bytes the store buffer has newer data
 *     for;
 *   - captures exclude bytes the store buffer still owns (the cache's
 *     copy of those bytes is stale);
 *   - L1 evictions and (optionally) kernel/user transitions invalidate
 *     line buffers.
 */

#ifndef CPE_CORE_DCACHE_UNIT_HH
#define CPE_CORE_DCACHE_UNIT_HH

#include <cstdint>
#include <deque>
#include <string>

#include "core/line_buffer.hh"
#include "core/port_arbiter.hh"
#include "core/port_config.hh"
#include "core/store_buffer.hh"
#include "mem/cache.hh"
#include "mem/hierarchy.hh"
#include "mem/mshr.hh"
#include "stats/stats.hh"

namespace cpe::core {

/** Where a load's data came from. */
enum class LoadSource : std::uint8_t {
    StoreBufferFwd,  ///< forwarded from the store buffer (no port)
    LineBuffer,      ///< serviced by a line buffer (no port)
    CacheHit,        ///< normal port access, L1 hit
    Miss,            ///< port access, L1 miss -> MSHR
};

/** L1D parameters. */
struct DCacheParams
{
    mem::CacheParams cache{
        .name = "l1d", .sizeBytes = 16 * 1024, .assoc = 2,
        .lineBytes = 32};
    /** L1 hit latency, cycles (load-to-use). */
    unsigned hitLatency = 1;
    unsigned mshrs = 8;
    unsigned mshrTargets = 8;
    /**
     * Tagged next-line prefetch: a demand-load miss on line L also
     * requests L+1 when it is absent, not in flight, and at least two
     * MSHRs are free (never starving demand misses).  Extension
     * feature, off by default (not part of the paper's proposal, but
     * it interacts with port bandwidth: prefetch fills steal port
     * cycles under the StealPort policy).
     */
    bool nextLinePrefetch = false;
    /**
     * Victim-cache entries (Jouppi-style): a small fully associative
     * FIFO catching L1 evictions; a demand miss that hits it swaps the
     * line back in one extra cycle instead of a full fill.  Extension
     * feature, 0 (disabled) by default — same theme as the paper's
     * buffers: a few registers instead of a bigger structure.
     */
    unsigned victimEntries = 0;
    PortTechConfig tech;
};

/**
 * The full D-cache port subsystem.
 */
class DCacheUnit
{
  public:
    /** Outcome of a load request. */
    struct LoadResult
    {
        bool accepted = false;      ///< false: structural reject, retry
        Cycle ready = 0;            ///< data-available cycle
        LoadSource source = LoadSource::CacheHit;
    };

    DCacheUnit(const DCacheParams &params, mem::MemHierarchy *next_level);

    /**
     * A load that has computed its address asks for data.
     * Rejections (accepted == false) are structural: no port, MSHRs
     * full, or a partial store-buffer overlap; the LSQ retries next
     * cycle.  @p pc is the load's static PC, used only for
     * observability attribution (0 = unknown/machine).
     */
    LoadResult tryLoad(Addr addr, unsigned size, Cycle now, Addr pc = 0);

    /**
     * Commit retires a store.  @return false when the store cannot be
     * accepted this cycle (store buffer full, or — with the buffer
     * disabled — no port / no MSHR); commit stalls and retries.
     * @p pc attributes the access like tryLoad's.
     */
    bool tryStore(Addr addr, unsigned size, Cycle now, Addr pc = 0);

    /** Phase 1: install arrived fills (and eager drains). */
    void beginCycle(Cycle now);

    /** Phase 3: idle-cycle store-buffer drain + stats tick. */
    void endCycle(Cycle now);

    /** The core switched user/kernel mode. */
    void onModeSwitch();

    /** @return true while fills or buffered stores are outstanding. */
    bool busy() const;

    /**
     * Run the subsystem with no new requests until idle (end of
     * program).  @return the first cycle everything had retired.
     */
    Cycle drainAll(Cycle now);

    const PortTechConfig &tech() const { return params_.tech; }
    unsigned lineBytes() const { return l1d_.lineBytes(); }

    mem::Cache &l1d() { return l1d_; }
    StoreBuffer &storeBuffer() { return storeBuffer_; }
    LineBufferFile &lineBuffers() { return lineBuffers_; }
    PortArbiter &ports() { return ports_; }
    mem::MshrFile &mshrs() { return mshrs_; }

    /**
     * Attach the observability probe to the whole port subsystem
     * (ports, store buffer, line buffers, MSHRs, L1D tags).  Null
     * detaches.
     */
    void setProbe(obs::Probe *probe);

    stats::StatGroup &statGroup() { return statGroup_; }

    // Load outcome counters.
    stats::Scalar loadsForwarded;
    stats::Scalar loadsLineBuffer;
    stats::Scalar loadsCacheHit;
    stats::Scalar loadsMiss;
    stats::Scalar loadsMissMerged;   ///< merged into an existing MSHR
    stats::Scalar loadRejectPort;    ///< retries: no free port
    stats::Scalar loadRejectMshr;    ///< retries: MSHRs full
    stats::Scalar loadRejectPartial; ///< retries: partial SB overlap
    // Store outcome counters.
    stats::Scalar storesToBuffer;
    stats::Scalar storesDirect;      ///< buffer disabled: port at commit
    stats::Scalar storeRejects;
    // Fill accounting.
    stats::Scalar fills;
    stats::Scalar fillPortCycles;    ///< port-cycles consumed by fills
    stats::Scalar bankConflicts;     ///< accesses refused: bank busy
    stats::Scalar prefetchesIssued;  ///< next-line prefetches started
    stats::Scalar prefetchesUseful;  ///< demand merged into a prefetch
    stats::Scalar victimHits;        ///< misses caught by the victim cache
    stats::Scalar victimInserts;     ///< evictions parked in it
    /** Store-buffer occupancy sampled once per cycle. */
    stats::Distribution sbOccupancy;

  private:
    /**
     * Number of consecutive port cycles one line fill occupies under
     * the StealPort policy.
     */
    unsigned fillCycles() const;

    /** Bank index of @p addr (banks > 1 only). */
    unsigned bankFor(Addr addr) const;

    /**
     * Claim the resources one array access at @p addr needs: a free
     * access bus (port) and, when banked, the bank the address maps
     * to.  @return true and book both, or false (nothing booked).
     */
    bool tryAcquireAccess(Addr addr, Cycle now);

    /**
     * Handle an L1 store write (from a drain or a direct store) hitting
     * or missing the array.  On miss allocates a write-intent MSHR.
     * @return false if the MSHR file refused (caller retries).
     */
    bool writeToCache(Addr addr, Cycle now, Addr line_addr);

    /** Install one arrived fill; @return false if it must retry. */
    bool processFill(const mem::Mshr &fill, Cycle now);

    /** Park an evicted line in the victim cache (if enabled). */
    void victimInsert(Addr line_addr, bool dirty);

    /**
     * Probe the victim cache for @p line_addr; on hit the entry is
     * removed and its dirty bit returned through @p dirty.
     */
    bool victimTake(Addr line_addr, bool &dirty);

    /** Handle an L1 eviction: line buffers, victim cache, writeback. */
    void onEviction(const mem::Cache::FillResult &result, Cycle now);

    /** Drain as many store-buffer windows as free ports allow. */
    void drainIntoIdlePorts(Cycle now);

    DCacheParams params_;
    mem::Cache l1d_;
    mem::MshrFile mshrs_;
    StoreBuffer storeBuffer_;
    LineBufferFile lineBuffers_;
    PortArbiter ports_;
    mem::MemHierarchy *nextLevel_;
    /** Fills that arrived but could not claim a port yet. */
    std::deque<mem::Mshr> pendingFills_;
    /** Per-bank busy cursor (banked configurations only). */
    std::vector<Cycle> bankBusyUntil_;
    /** Victim-cache FIFO: line address + dirty bit. */
    std::deque<std::pair<Addr, bool>> victims_;
    obs::Probe *probe_ = nullptr;
    stats::StatGroup statGroup_;
};

/** @return a short name for a LoadSource (stats/tests). */
const char *loadSourceName(LoadSource source);

} // namespace cpe::core

#endif // CPE_CORE_DCACHE_UNIT_HH
