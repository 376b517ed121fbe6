#include "cpu/lsq.hh"

#include "util/logging.hh"

namespace cpe::cpu {

namespace {

/** Do the byte ranges [a, a+an) and [b, b+bn) intersect? */
bool
overlaps(Addr a, unsigned an, Addr b, unsigned bn)
{
    return a < b + bn && b < a + an;
}

/** Does [outer, outer+on) fully contain [inner, inner+in_)? */
bool
contains(Addr outer, unsigned on, Addr inner, unsigned in_)
{
    return outer <= inner && inner + in_ <= outer + on;
}

} // namespace

Lsq::Lsq(const LsqParams &params)
    : loadQueue_(params.loadEntries), storeQueue_(params.storeEntries),
      statGroup_("lsq")
{
    statGroup_.addScalar("forwards", &lsqForwards,
                         "loads forwarded from the store queue");
    statGroup_.addScalar("addr_unknown_stalls", &addrUnknownStalls,
                         "load retries: older store address unknown");
    statGroup_.addScalar("partial_stalls", &partialStalls,
                         "load retries: partial store-queue overlap");
    statGroup_.addScalar("dispatch_stalls", &dispatchStalls,
                         "dispatch attempts refused: LSQ full");
}

bool
Lsq::canDispatch(bool is_store) const
{
    return is_store ? !storeQueue_.full() : !loadQueue_.full();
}

void
Lsq::dispatch(TimingInst *inst)
{
    CPE_ASSERT(inst->di.isMem(), "non-memory op dispatched to LSQ");
    if (inst->isStore())
        storeQueue_.push_back(inst);
    else
        loadQueue_.push_back(inst);
}

bool
Lsq::tryIssueLoad(TimingInst *inst, core::DCacheUnit &dcache,
                  const Rob &rob, Cycle now)
{
    Addr addr = inst->di.memAddr;
    unsigned size = inst->di.memSize;

    // Conservative disambiguation: every older store must have its
    // address (i.e. have issued through the AGU).
    for (std::size_t i = 0; i < storeQueue_.size(); ++i) {
        const TimingInst *store = storeQueue_[i];
        if (store->di.seq >= inst->di.seq)
            break;
        if (!store->issued) {
            ++addrUnknownStalls;
            return false;
        }
    }

    // Youngest-first scan for the forwarding source.
    for (std::size_t i = storeQueue_.size(); i-- > 0;) {
        const TimingInst *store = storeQueue_[i];
        if (store->di.seq >= inst->di.seq)
            continue;
        if (!overlaps(store->di.memAddr, store->di.memSize, addr, size))
            continue;
        if (contains(store->di.memAddr, store->di.memSize, addr, size) &&
            store->issued &&
            rob.producerDone(store->srcProducer[1], now)) {
            ++lsqForwards;
            inst->doneCycle = now + 1;
            inst->loadSource = core::LoadSource::StoreBufferFwd;
            return true;
        }
        // Partial overlap (or data not ready): wait for the store to
        // commit out of the queue, then retry.
        ++partialStalls;
        return false;
    }

    auto result = dcache.tryLoad(addr, size, now, inst->di.pc);
    if (!result.accepted)
        return false;
    inst->doneCycle = result.ready;
    inst->loadSource = result.source;
    return true;
}

void
Lsq::commitLoad(TimingInst *inst)
{
    CPE_ASSERT(!loadQueue_.empty() && loadQueue_.front() == inst,
               "loads must commit in order");
    loadQueue_.pop_front();
}

void
Lsq::commitStore(TimingInst *inst)
{
    CPE_ASSERT(!storeQueue_.empty() && storeQueue_.front() == inst,
               "stores must commit in order");
    storeQueue_.pop_front();
}

} // namespace cpe::cpu
