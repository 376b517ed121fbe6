/**
 * @file
 * Miss Status Holding Registers: the bookkeeping that makes the L1
 * caches non-blocking.  One MSHR tracks one outstanding line fill;
 * secondary misses to the same line merge as extra targets instead of
 * issuing duplicate fills.
 */

#ifndef CPE_MEM_MSHR_HH
#define CPE_MEM_MSHR_HH

#include <cstdint>
#include <vector>

#include "obs/probe.hh"
#include "stats/stats.hh"
#include "util/types.hh"

namespace cpe::mem {

/** One in-flight line fill. */
struct Mshr
{
    Addr lineAddr = 0;
    Cycle readyCycle = 0;    ///< when the fill data arrives at L1
    unsigned targets = 0;    ///< merged requests waiting on this line
    bool writeIntent = false;///< any merged request was a store miss
    bool prefetch = false;   ///< speculative fill, no demand waiter yet
};

/**
 * A fixed-capacity file of MSHRs.
 */
class MshrFile
{
  public:
    /**
     * @param name Stat-group name.
     * @param entries Capacity; 0 is allowed and means "always full"
     *        (blocking cache).
     * @param max_targets Merged requests allowed per entry before the
     *        entry refuses further merges.
     */
    MshrFile(const std::string &name, unsigned entries,
             unsigned max_targets = 8);

    /** @return true when no new entry can be allocated. */
    bool full() const { return live_.size() >= entries_; }

    /** @return the in-flight entry for @p line_addr, or nullptr. */
    Mshr *find(Addr line_addr);
    const Mshr *find(Addr line_addr) const;

    /**
     * Allocate an entry for @p line_addr completing at @p ready.
     * Panics if full or duplicate — callers must check first.
     */
    Mshr &allocate(Addr line_addr, Cycle ready, bool write_intent,
                   bool prefetch = false);

    /**
     * Add a merged target to an existing entry.
     * @return false if the entry is at its target cap.
     */
    bool addTarget(Mshr &entry, bool write_intent);

    /**
     * Collect entries whose fills have arrived by @p now, removing them.
     * Entries are returned in arrival order.
     */
    std::vector<Mshr> takeReady(Cycle now);

    std::size_t occupancy() const { return live_.size(); }
    unsigned capacity() const { return entries_; }

    stats::StatGroup &statGroup() { return statGroup_; }

    /** Attach the observability probe (null = off, the default). */
    void setProbe(obs::Probe *probe) { probe_ = probe; }

    stats::Scalar allocations;
    stats::Scalar merges;       ///< secondary misses merged
    stats::Scalar fullRejects;  ///< requests rejected because full

  private:
    unsigned entries_;
    unsigned maxTargets_;
    std::vector<Mshr> live_;
    obs::Probe *probe_ = nullptr;
    stats::StatGroup statGroup_;
};

} // namespace cpe::mem

#endif // CPE_MEM_MSHR_HH
