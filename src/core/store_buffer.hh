/**
 * @file
 * The combining store buffer — technique #1 of the paper.
 *
 * Committed stores enter the buffer instead of demanding a cache port
 * at commit time.  Stores to the same cache line merge into one entry
 * (a line address plus a per-byte valid mask), so a burst of small
 * stores costs a single port access when the entry later drains during
 * an idle port cycle.  A wide port amplifies the win: one drain writes
 * up to portWidth bytes.
 */

#ifndef CPE_CORE_STORE_BUFFER_HH
#define CPE_CORE_STORE_BUFFER_HH

#include <cstdint>
#include <deque>
#include <string>

#include "obs/probe.hh"
#include "stats/stats.hh"
#include "util/types.hh"

namespace cpe::core {

/** How a byte range relates to a store-buffer entry's valid bytes. */
enum class Coverage : std::uint8_t { None, Partial, Full };

/**
 * FIFO of line-granular combining entries.  Line size is capped at 64
 * bytes so a std::uint64_t serves as the per-byte valid mask.
 */
class StoreBuffer
{
  public:
    /** One pending (committed but not yet written) line's worth. */
    struct Entry
    {
        Addr lineAddr = 0;
        std::uint64_t byteMask = 0; ///< bit i = byte i of the line valid
        Cycle allocCycle = 0;
        /** Entry may not drain before this cycle (awaiting a fill). */
        Cycle blockedUntil = 0;
        /** A load partially overlapped: drain at top priority. */
        bool forceDrain = false;
    };

    /** One port access worth of drain work. */
    struct DrainOp
    {
        Addr addr = 0;           ///< window base address
        unsigned bytes = 0;      ///< window width actually written
        Addr lineAddr = 0;
        /** Exact bytes written, as a line-relative mask. */
        std::uint64_t validMask = 0;
        bool entryFinished = false; ///< entry fully written and freed
    };

    /**
     * @param name Stat-group name.
     * @param entries Capacity (0 = buffer disabled; insert() panics).
     * @param line_bytes L1 line size; all masks are per-byte within it.
     * @param combining Merge same-line stores into existing entries.
     */
    StoreBuffer(const std::string &name, unsigned entries,
                unsigned line_bytes, bool combining);

    bool enabled() const { return entries_ > 0; }
    bool empty() const { return fifo_.empty(); }
    bool full() const { return fifo_.size() >= entries_; }
    std::size_t occupancy() const { return fifo_.size(); }
    unsigned capacity() const { return entries_; }

    /**
     * Insert a committed store of @p size bytes at @p addr.
     * @return false when the buffer is full and cannot combine
     *         (commit must stall and retry).
     */
    bool insert(Addr addr, unsigned size, Cycle now);

    /**
     * How the buffered bytes cover a load of @p size at @p addr.
     * Coverage::Full means the load can forward entirely from the
     * buffer; Partial means it must wait (the entry gets flagged for
     * priority drain).
     */
    Coverage coverage(Addr addr, unsigned size) const;

    /** Flag the entry overlapping @p addr for priority drain. */
    void requestDrain(Addr addr);

    /**
     * Flag every entry for priority drain (end-of-program flush, or a
     * barrier).  Overrides the Threshold drain policy's hold-back.
     */
    void requestDrainAll();

    /**
     * @return true if some entry is eligible to drain at @p now
     * (unblocked); used by the unit to decide whether to claim a port.
     */
    bool drainReady(Cycle now) const;

    /**
     * @return true if any entry is flagged forceDrain and eligible.
     */
    bool urgentDrainReady(Cycle now) const;

    /**
     * Produce one port access of drain work: picks the highest-priority
     * eligible entry (forceDrain first, then FIFO order) and clears one
     * @p port_width-aligned window of its valid bytes.
     * Must only be called when drainReady().
     */
    DrainOp drainOne(unsigned port_width, Cycle now);

    /**
     * The line address drainOne() would write next, without changing
     * anything.  Only valid when drainReady().
     */
    Addr peekDrainLine(Cycle now) const;

    /** Block the entry for @p line_addr until @p until (fill pending). */
    void blockEntry(Addr line_addr, Cycle until);

    /**
     * Undo a drain whose cache write was refused: put the exact bytes
     * back at the front of the FIFO (oldest position) so ordering is
     * preserved.  Always succeeds — the drain just freed the space.
     */
    void restore(const DrainOp &op, Cycle now);

    /** The valid-byte mask buffered for @p line_addr (0 if none). */
    std::uint64_t lineMask(Addr line_addr) const;

    stats::StatGroup &statGroup() { return statGroup_; }

    /** Attach the observability probe (null = off, the default). */
    void setProbe(obs::Probe *probe) { probe_ = probe; }

    stats::Scalar inserts;        ///< stores accepted
    stats::Scalar combines;       ///< stores merged into a live entry
    stats::Scalar fullRejects;    ///< stores refused: buffer full
    stats::Scalar drainOps;       ///< port accesses spent draining
    stats::Scalar bytesDrained;   ///< bytes written to the cache
    stats::Scalar forwards;       ///< loads fully forwarded
    stats::Scalar partialBlocks;  ///< loads blocked on partial overlap

  private:
    /** @return mask with bits [offset, offset+size) set. */
    std::uint64_t rangeMask(unsigned offset, unsigned size) const;
    /** Find entry for @p line_addr or nullptr. */
    Entry *find(Addr line_addr);
    const Entry *find(Addr line_addr) const;

    unsigned entries_;
    unsigned lineBytes_;
    bool combining_;
    std::deque<Entry> fifo_;
    obs::Probe *probe_ = nullptr;
    stats::StatGroup statGroup_;
};

} // namespace cpe::core

#endif // CPE_CORE_STORE_BUFFER_HH
