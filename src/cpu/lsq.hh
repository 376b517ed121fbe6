/**
 * @file
 * Load/store queue: memory disambiguation and store-to-load forwarding
 * for speculative (pre-commit) memory traffic.  The post-commit store
 * buffer in src/core is a separate structure — by the time stores reach
 * it they are architectural; the LSQ handles everything younger.
 *
 * Disambiguation is conservative (no speculation): a load may access
 * memory only once every older store has computed its address.  A
 * youngest-first scan then decides forwarding:
 *   - full coverage by one older store -> forward inside the LSQ;
 *   - partial coverage -> the load waits until that store commits;
 *   - no overlap -> the load goes to the D-cache unit.
 */

#ifndef CPE_CPU_LSQ_HH
#define CPE_CPU_LSQ_HH

#include "core/dcache_unit.hh"
#include "cpu/pipeline_types.hh"
#include "cpu/ring.hh"
#include "cpu/rob.hh"
#include "stats/stats.hh"

namespace cpe::cpu {

/** LSQ sizing. */
struct LsqParams
{
    unsigned loadEntries = 16;
    unsigned storeEntries = 16;
};

/** The load/store queue. */
class Lsq
{
  public:
    explicit Lsq(const LsqParams &params);

    /** Is there room to dispatch this memory instruction? */
    bool canDispatch(bool is_store) const;

    /** Enter the queue at dispatch (program order). */
    void dispatch(TimingInst *inst);

    /**
     * A load whose sources are ready attempts its memory access.
     * On success sets inst->doneCycle/loadSource and returns true;
     * on any structural or ordering obstacle returns false (the issue
     * stage retries next cycle, keeping the AGU slot unconsumed).
     */
    bool tryIssueLoad(TimingInst *inst, core::DCacheUnit &dcache,
                      const Rob &rob, Cycle now);

    /** Remove a committed load from the queue. */
    void commitLoad(TimingInst *inst);

    /** Remove a store whose commit-time cache hand-off succeeded. */
    void commitStore(TimingInst *inst);

    std::size_t loads() const { return loadQueue_.size(); }
    std::size_t stores() const { return storeQueue_.size(); }

    /** Phase-boundary squash: drop every queued entry (the pointed-to
     *  instructions are owned — and dropped — by the ROB). */
    void
    clear()
    {
        loadQueue_.clear();
        storeQueue_.clear();
    }

    stats::StatGroup &statGroup() { return statGroup_; }

    stats::Scalar lsqForwards;       ///< loads forwarded from the SQ
    stats::Scalar addrUnknownStalls; ///< older store address unknown
    stats::Scalar partialStalls;     ///< partial SQ overlap
    stats::Scalar dispatchStalls;    ///< LSQ full at dispatch

  private:
    Ring<TimingInst *> loadQueue_;   ///< program order
    Ring<TimingInst *> storeQueue_;  ///< program order
    stats::StatGroup statGroup_;
};

} // namespace cpe::cpu

#endif // CPE_CPU_LSQ_HH
