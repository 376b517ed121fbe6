/**
 * @file
 * The line-buffer file — the paper's "load-all" technique.
 *
 * Whenever a load uses a cache port, the port returns an entire
 * port-width-aligned window of the line, not just the requested bytes.
 * That window is captured into a small fully-associative file of line
 * buffers inside the processor.  Subsequent loads whose bytes are
 * already captured are serviced from the buffer without touching a
 * port.  With a port as wide as the line ("load-all-wide"), a single
 * access captures the whole line.
 *
 * Buffers are kept coherent with the cache: stores either patch or
 * invalidate matching buffers (policy), evicted/replaced L1 lines
 * invalidate their buffers, and user/kernel transitions optionally
 * flush the file.
 */

#ifndef CPE_CORE_LINE_BUFFER_HH
#define CPE_CORE_LINE_BUFFER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/port_config.hh"
#include "obs/probe.hh"
#include "stats/stats.hh"
#include "util/types.hh"

namespace cpe::core {

/** Fully associative file of per-line byte-valid buffers. */
class LineBufferFile
{
  public:
    /**
     * @param name Stat-group name.
     * @param buffers Capacity; 0 disables the file entirely.
     * @param line_bytes L1 line size (8..64).
     * @param write_policy What stores do to matching buffers.
     */
    LineBufferFile(const std::string &name, unsigned buffers,
                   unsigned line_bytes,
                   LineBufferWritePolicy write_policy);

    bool enabled() const { return capacity_ > 0; }
    unsigned capacity() const { return capacity_; }

    /**
     * Can a load of @p size bytes at @p addr be serviced from a buffer?
     * On hit, updates recency and counts the hit.
     */
    bool lookup(Addr addr, unsigned size);

    /**
     * Deposit the window [@p addr, @p addr + @p width) of its line into
     * the file, except bytes in @p exclude_mask (per-byte mask over the
     * line — bytes the store buffer still owns, which would be stale in
     * the cache).  Allocates an LRU victim when the line has no buffer.
     */
    void capture(Addr addr, unsigned width, std::uint64_t exclude_mask);

    /**
     * A store wrote [@p addr, @p addr + @p size): apply the write
     * policy (patch bytes valid, or invalidate the buffer).
     */
    void onStore(Addr addr, unsigned size);

    /** The L1 line at @p line_addr was evicted or invalidated. */
    void invalidateLine(Addr line_addr);

    /** Flush the whole file (user/kernel mode switch). */
    void flushAll();

    /** Number of currently valid buffers (test helper). */
    std::size_t validBuffers() const;

    /** Valid-byte mask buffered for @p line_addr (0 if none). */
    std::uint64_t lineMask(Addr line_addr) const;

    stats::StatGroup &statGroup() { return statGroup_; }

    /** Attach the observability probe (null = off, the default). */
    void setProbe(obs::Probe *probe) { probe_ = probe; }

    stats::Scalar hits;          ///< loads serviced from a buffer
    stats::Scalar lookups;       ///< all load lookups
    stats::Scalar captures;      ///< windows deposited
    stats::Scalar storePatches;  ///< stores patched into buffers
    stats::Scalar storeInvals;   ///< buffers invalidated by stores
    stats::Scalar replacements;  ///< valid buffers displaced (LRU)
    stats::Scalar lineInvals;    ///< buffers dropped on L1 eviction
    stats::Scalar flushes;       ///< full-file flushes (mode switches)

  private:
    struct Buffer
    {
        bool valid = false;
        Addr lineAddr = 0;
        std::uint64_t byteMask = 0;
        std::uint64_t lastUse = 0;
    };

    Buffer *find(Addr line_addr);
    const Buffer *find(Addr line_addr) const;

    unsigned capacity_;
    unsigned lineBytes_;
    LineBufferWritePolicy writePolicy_;
    std::vector<Buffer> buffers_;
    std::uint64_t useClock_ = 0;
    obs::Probe *probe_ = nullptr;
    stats::StatGroup statGroup_;
};

} // namespace cpe::core

#endif // CPE_CORE_LINE_BUFFER_HH
