/**
 * @file
 * Set-associative cache state model (tags, replacement, dirty bits).
 *
 * This class models cache *contents*; access latency, ports, and miss
 * handling are orchestrated by the units that own a Cache (the D-cache
 * unit in src/core, the fetch unit's I-cache path, and the L2 inside
 * MemHierarchy).  Keeping state separate from timing lets the same
 * model back every level and makes the state machine unit-testable.
 */

#ifndef CPE_MEM_CACHE_HH
#define CPE_MEM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "obs/probe.hh"
#include "stats/stats.hh"
#include "util/random.hh"
#include "util/types.hh"

namespace cpe::mem {

/** Replacement policy selector. */
enum class ReplPolicy : std::uint8_t { LRU, Random };

/** Geometry and policy of one cache level. */
struct CacheParams
{
    std::string name = "cache";
    std::size_t sizeBytes = 16 * 1024;
    unsigned assoc = 2;
    unsigned lineBytes = 32;
    ReplPolicy repl = ReplPolicy::LRU;
    /** Seed for the Random replacement policy. */
    std::uint64_t replSeed = 1;

    /** @return number of sets implied by the geometry. */
    unsigned sets() const
    {
        return static_cast<unsigned>(sizeBytes / (assoc * lineBytes));
    }
};

/**
 * Tag array + replacement state of a write-back, write-allocate cache.
 */
class Cache
{
  public:
    /** Outcome of allocating a line (fill). */
    struct FillResult
    {
        bool evicted = false;      ///< a valid line was displaced
        Addr evictedAddr = 0;      ///< its line address
        bool evictedDirty = false; ///< it needs a writeback
    };

    explicit Cache(const CacheParams &params);

    /** @return line-aligned address of @p addr. */
    Addr lineAddr(Addr addr) const { return addr & ~lineMask_; }
    unsigned lineBytes() const { return params_.lineBytes; }
    const CacheParams &params() const { return params_; }

    /**
     * Look up @p addr without changing any state (no LRU update).
     * @return true on hit.
     */
    bool probe(Addr addr) const;

    /**
     * Perform a demand access: on hit updates recency (and the dirty
     * bit when @p write).  Misses change nothing — the caller decides
     * whether/when to fill().
     * @return true on hit.
     */
    bool access(Addr addr, bool write);

    /**
     * Allocate the line containing @p addr, evicting the replacement
     * victim if the set is full.  The new line's dirty bit starts at
     * @p dirty.  Must not be called when the line is already present.
     */
    FillResult fill(Addr addr, bool dirty = false);

    /**
     * Warm-only update path (fast-forward phases of a sampled run):
     * the same state transitions as access() followed — on a miss —
     * by a write-allocate fill(), but with no statistics or probe
     * events, so warming leaves every observable counter untouched.  The displaced victim (when any) is reported through
     * @p evicted so the caller can keep the next level's dirty state
     * coherent.
     * @return true on hit.
     */
    bool warmAccess(Addr addr, bool write,
                    FillResult *evicted = nullptr);

    /**
     * Drop the line containing @p addr if present.
     * @return true if a line was invalidated.
     */
    bool invalidate(Addr addr);

    /** Mark the line dirty; panics if not present. */
    void setDirty(Addr addr);

    /** @return true if present and dirty. */
    bool isDirty(Addr addr) const;

    /** Invalidate everything (loses dirty data; tests only). */
    void flushAll();

    /** Count of valid lines (test/debug helper). */
    std::size_t validLines() const;

    /** Statistics group (hits/misses/evictions). */
    stats::StatGroup &statGroup() { return statGroup_; }

    /** Attach the observability probe (null = off, the default). */
    void setProbe(obs::Probe *probe) { probe_ = probe; }

    /** Raw counters, exposed for formulas in owning units. */
    stats::Scalar hits;
    stats::Scalar misses;
    stats::Scalar evictions;
    stats::Scalar writebacks;  ///< dirty evictions

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        Addr tag = 0;
        std::uint64_t lastUse = 0;  ///< LRU timestamp
    };

    /**
     * Set index and tag of one address, derived with a single shift:
     * the tag keeps the set bits, so the set index is just the tag's
     * low bits — every lookup path computes this once and reuses it.
     */
    struct Loc
    {
        std::size_t set;
        Addr tag;
    };
    Loc
    locate(Addr addr) const
    {
        Addr tag = addr >> setShift_;
        return {static_cast<std::size_t>(tag) & setMask_, tag};
    }

    /** Find the way holding @p addr, or -1. */
    int findWay(std::size_t set, Addr tag) const;
    /** Pick a victim way in @p set (invalid first, then policy). */
    unsigned victimWay(std::size_t set);

    /** Forget the memoized most-recent hit (any structural change). */
    void
    forgetLastHit()
    {
        lastHitTag_ = NoTag;
    }

    /** Tag value no in-range address produces (addresses < 2^63). */
    static constexpr Addr NoTag = ~Addr(0);

    CacheParams params_;
    Addr lineMask_;
    unsigned setShift_;
    std::size_t setMask_;
    std::vector<Line> lines_;  ///< sets * assoc, row-major by set
    std::uint64_t useClock_ = 0;
    // One-entry MRU filter for access(): the tag uniquely identifies a
    // line (it retains the set bits), so a repeat access skips the way
    // search entirely.  Invalidated on fill/invalidate/flushAll.
    Addr lastHitTag_ = NoTag;
    std::size_t lastHitLine_ = 0;  ///< index into lines_
    Rng rng_;
    obs::Probe *probe_ = nullptr;
    stats::StatGroup statGroup_;
};

} // namespace cpe::mem

#endif // CPE_MEM_CACHE_HH
