#include "core/dcache_unit.hh"

#include "util/bits.hh"
#include "util/logging.hh"

namespace cpe::core {

const char *
loadSourceName(LoadSource source)
{
    switch (source) {
      case LoadSource::StoreBufferFwd: return "sb_fwd";
      case LoadSource::LineBuffer: return "line_buf";
      case LoadSource::CacheHit: return "cache_hit";
      case LoadSource::Miss: return "miss";
    }
    return "?";
}

DCacheUnit::DCacheUnit(const DCacheParams &params,
                       mem::MemHierarchy *next_level)
    : params_(params),
      l1d_(params.cache),
      mshrs_("l1d_mshrs", params.mshrs, params.mshrTargets),
      storeBuffer_("store_buffer", params.tech.storeBufferEntries,
                   params.cache.lineBytes, params.tech.storeCombining),
      lineBuffers_("line_buffers", params.tech.lineBuffers,
                   params.cache.lineBytes, params.tech.lineBufferWrite),
      ports_("dports", params.tech.ports),
      nextLevel_(next_level),
      bankBusyUntil_(params.tech.banks, 0),
      statGroup_("dcache_unit")
{
    CPE_ASSERT(params.tech.banks >= 1 &&
                   isPowerOf2(params.tech.banks) &&
                   isPowerOf2(params.tech.bankInterleaveBytes),
               "banks and interleave must be powers of two");
    CPE_ASSERT(nextLevel_, "DCacheUnit needs a next level");
    CPE_ASSERT(params.tech.portWidthBytes >= 8 &&
                   isPowerOf2(params.tech.portWidthBytes) &&
                   params.tech.portWidthBytes <= params.cache.lineBytes,
               "port width must be a power of two in [8, lineBytes]");

    statGroup_.addChild(&l1d_.statGroup());
    statGroup_.addChild(&mshrs_.statGroup());
    statGroup_.addChild(&storeBuffer_.statGroup());
    statGroup_.addChild(&lineBuffers_.statGroup());
    statGroup_.addChild(&ports_.statGroup());

    statGroup_.addScalar("loads_sb_fwd", &loadsForwarded,
                         "loads forwarded from the store buffer");
    statGroup_.addScalar("loads_line_buf", &loadsLineBuffer,
                         "loads serviced by line buffers");
    statGroup_.addScalar("loads_cache_hit", &loadsCacheHit,
                         "loads hitting L1 through a port");
    statGroup_.addScalar("loads_miss", &loadsMiss,
                         "loads missing L1 (primary)");
    statGroup_.addScalar("loads_miss_merged", &loadsMissMerged,
                         "loads merged into an in-flight fill");
    statGroup_.addScalar("load_reject_port", &loadRejectPort,
                         "load retries: all ports busy");
    statGroup_.addScalar("load_reject_mshr", &loadRejectMshr,
                         "load retries: MSHRs full");
    statGroup_.addScalar("load_reject_partial", &loadRejectPartial,
                         "load retries: partial store-buffer overlap");
    statGroup_.addScalar("stores_buffered", &storesToBuffer,
                         "stores accepted by the store buffer");
    statGroup_.addScalar("stores_direct", &storesDirect,
                         "stores written through a port at commit");
    statGroup_.addScalar("store_rejects", &storeRejects,
                         "commit stalls: store not accepted");
    statGroup_.addScalar("fills", &fills, "lines installed in L1");
    statGroup_.addScalar("fill_port_cycles", &fillPortCycles,
                         "port-cycles consumed by fills");
    statGroup_.addScalar("bank_conflicts", &bankConflicts,
                         "accesses refused because the bank was busy");
    statGroup_.addScalar("prefetches_issued", &prefetchesIssued,
                         "next-line prefetches started");
    statGroup_.addScalar("prefetches_useful", &prefetchesUseful,
                         "demand loads merged into a prefetch fill");
    statGroup_.addScalar("victim_hits", &victimHits,
                         "misses caught by the victim cache");
    statGroup_.addScalar("victim_inserts", &victimInserts,
                         "evicted lines parked in the victim cache");
    if (storeBuffer_.enabled()) {
        sbOccupancy.init(
            0,
            static_cast<std::int64_t>(params.tech.storeBufferEntries) + 1,
            1);
        statGroup_.addDistribution("sb_occupancy", &sbOccupancy,
                                   "store-buffer entries per cycle");
    }
    statGroup_.addFormula(
        "port_accesses_per_load",
        [this]() {
            std::uint64_t loads =
                loadsForwarded.value() + loadsLineBuffer.value() +
                loadsCacheHit.value() + loadsMiss.value() +
                loadsMissMerged.value();
            std::uint64_t port_loads =
                loadsCacheHit.value() + loadsMiss.value();
            return loads ? static_cast<double>(port_loads) / loads : 0.0;
        },
        "fraction of loads needing a data port");
}

void
DCacheUnit::setProbe(obs::Probe *probe)
{
    probe_ = probe;
    ports_.setProbe(probe);
    storeBuffer_.setProbe(probe);
    lineBuffers_.setProbe(probe);
    mshrs_.setProbe(probe);
    l1d_.setProbe(probe);
}

unsigned
DCacheUnit::fillCycles() const
{
    return std::max(1u, params_.tech.fillOccupancyCycles);
}

unsigned
DCacheUnit::bankFor(Addr addr) const
{
    return static_cast<unsigned>(
        (addr / params_.tech.bankInterleaveBytes) %
        params_.tech.banks);
}

bool
DCacheUnit::tryAcquireAccess(Addr addr, Cycle now)
{
    if (params_.tech.banks > 1) {
        Cycle &bank = bankBusyUntil_[bankFor(addr)];
        if (bank > now) {
            ++bankConflicts;
            return false;
        }
        if (!ports_.tryAcquire(now, 1))
            return false;
        bank = now + 1;
        return true;
    }
    return ports_.tryAcquire(now, 1);
}

DCacheUnit::LoadResult
DCacheUnit::tryLoad(Addr addr, unsigned size, Cycle now, Addr pc)
{
    obs::AttrScope attribution(probe_, pc);
    LoadResult result;
    Addr line_addr = l1d_.lineAddr(addr);

    // 1. Store buffer: newest committed data lives here.
    if (storeBuffer_.enabled()) {
        switch (storeBuffer_.coverage(addr, size)) {
          case Coverage::Full:
            ++loadsForwarded;
            ++storeBuffer_.forwards;
            if (probe_)
                probe_->event(obs::EventKind::LoadForwarded);
            result.accepted = true;
            result.ready = now + 1;
            result.source = LoadSource::StoreBufferFwd;
            return result;
          case Coverage::Partial:
            // Cannot merge buffer bytes with cache bytes in one access:
            // flag the entry and retry once it drains.
            ++loadRejectPartial;
            ++storeBuffer_.partialBlocks;
            if (probe_)
                probe_->event(obs::EventKind::PartialStall);
            storeBuffer_.requestDrain(addr);
            return result;
          case Coverage::None:
            break;
        }
    }

    // 2. Line buffers: bytes captured by earlier loads (load-all).
    if (lineBuffers_.lookup(addr, size)) {
        ++loadsLineBuffer;
        if (probe_)
            probe_->event(obs::EventKind::LoadLineBuffer);
        result.accepted = true;
        result.ready = now + 1;
        result.source = LoadSource::LineBuffer;
        return result;
    }

    // 3. In-flight fill for this line? Merge without a port: the fill
    //    delivers the data straight to the load.
    if (mem::Mshr *inflight = mshrs_.find(line_addr)) {
        if (!mshrs_.addTarget(*inflight, false)) {
            ++loadRejectMshr;
            if (probe_)
                probe_->event(obs::EventKind::MshrWait);
            return result;
        }
        if (inflight->prefetch) {
            ++prefetchesUseful;
            inflight->prefetch = false;
        }
        ++loadsMissMerged;
        if (probe_)
            probe_->event(obs::EventKind::LoadMissMerged);
        result.accepted = true;
        result.ready = inflight->readyCycle + params_.hitLatency;
        result.source = LoadSource::Miss;
        return result;
    }

    // 4. A real array access: need a port.  If the access would miss
    //    with every MSHR busy, the LSU's miss-resource scoreboard
    //    rejects it before wasting a port cycle on the probe.
    if (mshrs_.full() && !l1d_.probe(addr)) {
        ++loadRejectMshr;
        ++mshrs_.fullRejects;
        if (probe_)
            probe_->event(obs::EventKind::MshrWait);
        return result;
    }
    if (!tryAcquireAccess(addr, now)) {
        ++loadRejectPort;
        return result;
    }

    if (l1d_.access(addr, false)) {
        ++loadsCacheHit;
        if (probe_)
            probe_->event(obs::EventKind::LoadCacheHit);
        result.accepted = true;
        result.ready = now + params_.hitLatency;
        result.source = LoadSource::CacheHit;
        // Load-all: the port returned a whole window; capture it,
        // excluding bytes the store buffer still owns.
        lineBuffers_.capture(addr, params_.tech.portWidthBytes,
                             storeBuffer_.lineMask(line_addr));
        return result;
    }

    // Victim swap: one extra cycle instead of a full fill.
    {
        bool victim_dirty = false;
        if (victimTake(line_addr, victim_dirty)) {
            ++victimHits;
            auto swap = l1d_.fill(line_addr, victim_dirty);
            onEviction(swap, now);
            ++loadsCacheHit;
            if (probe_)
                probe_->event(obs::EventKind::LoadCacheHit);
            result.accepted = true;
            result.ready = now + params_.hitLatency + 1;
            result.source = LoadSource::CacheHit;
            lineBuffers_.capture(addr, params_.tech.portWidthBytes,
                                 storeBuffer_.lineMask(line_addr));
            return result;
        }
    }

    // 5. Primary miss: allocate an MSHR (the port cycle was spent
    //    discovering the miss, as in real tag arrays).
    if (mshrs_.full()) {
        ++loadRejectMshr;
        if (probe_)
            probe_->event(obs::EventKind::MshrWait);
        return result;
    }
    Cycle data_at_l1 = nextLevel_->fetchLine(line_addr, now + 1);
    mshrs_.allocate(line_addr, data_at_l1, false);
    ++loadsMiss;
    if (probe_)
        probe_->event(obs::EventKind::LoadMiss);
    result.accepted = true;
    result.ready = data_at_l1 + params_.hitLatency;
    result.source = LoadSource::Miss;

    // Tagged next-line prefetch rides behind the demand miss.
    if (params_.nextLinePrefetch) {
        Addr next_line = line_addr + l1d_.lineBytes();
        if (mshrs_.occupancy() + 2 <= mshrs_.capacity() &&
            !l1d_.probe(next_line) && !mshrs_.find(next_line)) {
            Cycle ready = nextLevel_->fetchLine(next_line, now + 1);
            mshrs_.allocate(next_line, ready, false, true);
            ++prefetchesIssued;
        }
    }
    return result;
}

bool
DCacheUnit::tryStore(Addr addr, unsigned size, Cycle now, Addr pc)
{
    obs::AttrScope attribution(probe_, pc);
    Addr line_addr = l1d_.lineAddr(addr);

    if (storeBuffer_.enabled()) {
        if (!storeBuffer_.insert(addr, size, now)) {
            ++storeRejects;
            return false;
        }
        ++storesToBuffer;
        if (probe_)
            probe_->event(obs::EventKind::Store);
        // Keep line buffers coherent: patch or invalidate now so they
        // can never return stale bytes once the entry drains.
        lineBuffers_.onStore(addr, size);
        return true;
    }

    // No store buffer: the store needs a port this cycle.  Check the
    // miss-resource scoreboard first so a stalled store doesn't burn
    // port bandwidth re-probing every cycle.
    if (mshrs_.full() && !l1d_.probe(addr) && !mshrs_.find(line_addr)) {
        ++storeRejects;
        ++mshrs_.fullRejects;
        return false;
    }
    if (!tryAcquireAccess(addr, now)) {
        ++storeRejects;
        return false;
    }
    if (!writeToCache(addr, now, line_addr)) {
        ++storeRejects;
        return false;
    }
    ++storesDirect;
    if (probe_)
        probe_->event(obs::EventKind::Store);
    lineBuffers_.onStore(addr, size);
    return true;
}

void
DCacheUnit::victimInsert(Addr line_addr, bool dirty)
{
    if (!params_.victimEntries)
        return;
    while (victims_.size() >= params_.victimEntries) {
        // FIFO overflow: the oldest victim finally leaves the chip.
        if (victims_.front().second)
            nextLevel_->writebackLine(victims_.front().first, 0);
        victims_.pop_front();
    }
    victims_.emplace_back(line_addr, dirty);
    ++victimInserts;
}

bool
DCacheUnit::victimTake(Addr line_addr, bool &dirty)
{
    for (auto it = victims_.begin(); it != victims_.end(); ++it) {
        if (it->first == line_addr) {
            dirty = it->second;
            victims_.erase(it);
            return true;
        }
    }
    return false;
}

void
DCacheUnit::onEviction(const mem::Cache::FillResult &result, Cycle now)
{
    if (!result.evicted)
        return;
    lineBuffers_.invalidateLine(result.evictedAddr);
    if (params_.victimEntries) {
        victimInsert(result.evictedAddr, result.evictedDirty);
    } else if (result.evictedDirty) {
        nextLevel_->writebackLine(result.evictedAddr, now);
    }
}

bool
DCacheUnit::writeToCache(Addr addr, Cycle now, Addr line_addr)
{
    if (l1d_.access(addr, true))
        return true;

    // Victim swap on a write miss: pull the line back dirty.
    bool victim_dirty = false;
    if (victimTake(line_addr, victim_dirty)) {
        ++victimHits;
        auto swap = l1d_.fill(line_addr, true);
        onEviction(swap, now);
        return true;
    }

    // Write miss: write-allocate through an MSHR.
    if (mem::Mshr *inflight = mshrs_.find(line_addr))
        return mshrs_.addTarget(*inflight, true);
    if (mshrs_.full())
        return false;
    Cycle data_at_l1 = nextLevel_->fetchLine(line_addr, now + 1);
    mshrs_.allocate(line_addr, data_at_l1, true);
    return true;
}

bool
DCacheUnit::processFill(const mem::Mshr &fill, Cycle now)
{
    if (params_.tech.fillPolicy == FillPolicy::StealPort) {
        unsigned cycles = fillCycles();
        if (!ports_.tryAcquire(now, cycles))
            return false;
        fillPortCycles += cycles;
        // A fill streams the whole line: every bank is written.
        for (auto &bank : bankBusyUntil_)
            bank = std::max(bank, now + cycles);
    }
    auto result = l1d_.fill(fill.lineAddr, fill.writeIntent);
    ++fills;
    if (probe_)
        probe_->event(obs::EventKind::Fill, fill.lineAddr,
                      fill.writeIntent);
    onEviction(result, now);
    // The arriving line streams past the processor: with line buffers
    // enabled it is captured whole (fill register behaviour), except
    // bytes the store buffer owns.
    lineBuffers_.capture(fill.lineAddr, l1d_.lineBytes(),
                         storeBuffer_.lineMask(fill.lineAddr));
    // A store-buffer entry blocked on this line may drain now.
    storeBuffer_.blockEntry(fill.lineAddr, now);
    return true;
}

void
DCacheUnit::beginCycle(Cycle now)
{
    // Retry fills that lost arbitration earlier.
    while (!pendingFills_.empty()) {
        if (!processFill(pendingFills_.front(), now))
            return;  // still no port: newly arrived fills must wait too
        pendingFills_.pop_front();
    }
    for (auto &fill : mshrs_.takeReady(now)) {
        if (!pendingFills_.empty() || !processFill(fill, now))
            pendingFills_.push_back(fill);
    }

    // Eager ablation: stores get ports ahead of this cycle's loads.
    if (params_.tech.drainPolicy == DrainPolicy::Eager)
        drainIntoIdlePorts(now);
}

void
DCacheUnit::drainIntoIdlePorts(Cycle now)
{
    if (!storeBuffer_.enabled())
        return;

    bool threshold_ok =
        params_.tech.drainPolicy != DrainPolicy::Threshold ||
        storeBuffer_.occupancy() >= params_.tech.drainThreshold ||
        storeBuffer_.urgentDrainReady(now);

    while (storeBuffer_.drainReady(now) &&
           (threshold_ok || storeBuffer_.urgentDrainReady(now))) {
        // Skip the cycle if the drain would write-allocate with every
        // MSHR busy (no port wasted on the doomed probe).
        Addr drain_line = storeBuffer_.peekDrainLine(now);
        if (mshrs_.full() && !l1d_.probe(drain_line) &&
            !mshrs_.find(drain_line)) {
            break;
        }
        if (ports_.freePorts(now) == 0)
            break;
        auto op = storeBuffer_.drainOne(params_.tech.portWidthBytes, now);
        if (!tryAcquireAccess(op.addr, now)) {
            // Bank conflict with this cycle's loads: put the bytes
            // back and stop for this cycle.
            storeBuffer_.restore(op, now);
            break;
        }
        if (!writeToCache(op.addr, now, op.lineAddr)) {
            // MSHRs full: put the exact bytes back and stop draining
            // for this cycle.
            storeBuffer_.restore(op, now);
            break;
        }
    }
}

void
DCacheUnit::endCycle(Cycle now)
{
    if (params_.tech.drainPolicy != DrainPolicy::Eager)
        drainIntoIdlePorts(now);
    if (storeBuffer_.enabled())
        sbOccupancy.sample(
            static_cast<std::int64_t>(storeBuffer_.occupancy()));
    ports_.tickStats(now);
}

void
DCacheUnit::onModeSwitch()
{
    if (params_.tech.flushLineBuffersOnModeSwitch)
        lineBuffers_.flushAll();
}

bool
DCacheUnit::busy() const
{
    return mshrs_.occupancy() > 0 || !storeBuffer_.empty() ||
           !pendingFills_.empty();
}

Cycle
DCacheUnit::drainAll(Cycle now)
{
    Cycle cycle = now;
    // Threshold-policy buffers would otherwise hold entries forever.
    storeBuffer_.requestDrainAll();
    while (busy()) {
        if (probe_)
            probe_->advanceTo(cycle);
        beginCycle(cycle);
        endCycle(cycle);
        ++cycle;
        CPE_ASSERT(cycle < now + 1'000'000,
                   "drainAll did not converge; stuck subsystem");
    }
    return cycle;
}

} // namespace cpe::core
