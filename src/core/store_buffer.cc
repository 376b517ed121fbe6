#include "core/store_buffer.hh"

#include "util/bits.hh"
#include "util/logging.hh"

namespace cpe::core {

StoreBuffer::StoreBuffer(const std::string &name, unsigned entries,
                         unsigned line_bytes, bool combining)
    : entries_(entries), lineBytes_(line_bytes), combining_(combining),
      statGroup_(name)
{
    CPE_ASSERT(line_bytes >= 8 && line_bytes <= 64 &&
                   isPowerOf2(line_bytes),
               "store buffer supports 8..64 byte lines");
    statGroup_.addScalar("inserts", &inserts, "stores accepted");
    statGroup_.addScalar("combines", &combines,
                         "stores merged into an existing entry");
    statGroup_.addScalar("full_rejects", &fullRejects,
                         "stores refused because the buffer was full");
    statGroup_.addScalar("drain_ops", &drainOps,
                         "port accesses spent draining");
    statGroup_.addScalar("bytes_drained", &bytesDrained,
                         "bytes written to the cache by drains");
    statGroup_.addScalar("forwards", &forwards,
                         "loads fully forwarded from the buffer");
    statGroup_.addScalar("partial_blocks", &partialBlocks,
                         "loads blocked on partial overlap");
    statGroup_.addFormula(
        "stores_per_drain",
        [this]() {
            return drainOps.value()
                       ? static_cast<double>(inserts.value()) /
                             drainOps.value()
                       : 0.0;
        },
        "combining ratio: stores retired per port access");
}

std::uint64_t
StoreBuffer::rangeMask(unsigned offset, unsigned size) const
{
    CPE_ASSERT(offset + size <= lineBytes_, "range crosses line");
    return mask(size) << offset;
}

StoreBuffer::Entry *
StoreBuffer::find(Addr line_addr)
{
    // Front-to-back: with combining there is at most one entry per
    // line; without, this returns the *oldest*, which is what the
    // ordering-sensitive callers (requestDrain, blockEntry) want.
    for (auto &entry : fifo_)
        if (entry.lineAddr == line_addr)
            return &entry;
    return nullptr;
}

const StoreBuffer::Entry *
StoreBuffer::find(Addr line_addr) const
{
    for (const auto &entry : fifo_)
        if (entry.lineAddr == line_addr)
            return &entry;
    return nullptr;
}

bool
StoreBuffer::insert(Addr addr, unsigned size, Cycle now)
{
    CPE_ASSERT(enabled(), "insert into disabled store buffer");
    Addr line_addr = alignDown(addr, lineBytes_);
    unsigned offset = static_cast<unsigned>(addr - line_addr);
    CPE_ASSERT(offset + size <= lineBytes_,
               "store crosses a cache line (unaligned?)");

    if (combining_) {
        if (Entry *entry = find(line_addr)) {
            entry->byteMask |= rangeMask(offset, size);
            ++combines;
            ++inserts;
            if (probe_)
                probe_->event(obs::EventKind::SbMerge, line_addr, size);
            return true;
        }
    }
    if (full()) {
        ++fullRejects;
        if (probe_)
            probe_->event(obs::EventKind::SbFull);
        return false;
    }
    Entry entry;
    entry.lineAddr = line_addr;
    entry.byteMask = rangeMask(offset, size);
    entry.allocCycle = now;
    fifo_.push_back(entry);
    ++inserts;
    if (probe_)
        probe_->event(obs::EventKind::SbInsert, line_addr, size);
    return true;
}

Coverage
StoreBuffer::coverage(Addr addr, unsigned size) const
{
    Addr line_addr = alignDown(addr, lineBytes_);
    std::uint64_t want =
        rangeMask(static_cast<unsigned>(addr - line_addr), size);

    if (combining_) {
        const Entry *entry = find(line_addr);
        if (!entry)
            return Coverage::None;
        std::uint64_t have = entry->byteMask & want;
        if (have == want)
            return Coverage::Full;
        return have ? Coverage::Partial : Coverage::None;
    }

    // Non-combining: entries for the same line can coexist; only the
    // *youngest* overlapping entry holds current data for its bytes.
    // Forward only when that single entry covers the whole load.
    for (auto it = fifo_.rbegin(); it != fifo_.rend(); ++it) {
        if (it->lineAddr != line_addr || !(it->byteMask & want))
            continue;
        return (it->byteMask & want) == want ? Coverage::Full
                                             : Coverage::Partial;
    }
    return Coverage::None;
}

void
StoreBuffer::requestDrain(Addr addr)
{
    // Flag the oldest overlapping entry: same-line entries must drain
    // in FIFO order or an older store would clobber a newer one.
    if (Entry *entry = find(alignDown(addr, lineBytes_)))
        entry->forceDrain = true;
}

void
StoreBuffer::requestDrainAll()
{
    for (auto &entry : fifo_)
        entry.forceDrain = true;
}

bool
StoreBuffer::drainReady(Cycle now) const
{
    for (const auto &entry : fifo_)
        if (entry.blockedUntil <= now)
            return true;
    return false;
}

bool
StoreBuffer::urgentDrainReady(Cycle now) const
{
    for (const auto &entry : fifo_)
        if (entry.forceDrain && entry.blockedUntil <= now)
            return true;
    return false;
}

StoreBuffer::DrainOp
StoreBuffer::drainOne(unsigned port_width, Cycle now)
{
    CPE_ASSERT(port_width >= 8 && isPowerOf2(port_width),
               "bad port width " << port_width);

    // Pick the victim: oldest forceDrain entry, else the FIFO head
    // (oldest eligible).
    std::size_t pick = fifo_.size();
    for (std::size_t i = 0; i < fifo_.size(); ++i) {
        if (fifo_[i].blockedUntil > now)
            continue;
        if (fifo_[i].forceDrain) {
            pick = i;
            break;
        }
        if (pick == fifo_.size())
            pick = i;
    }
    CPE_ASSERT(pick < fifo_.size(), "drainOne with nothing eligible");
    Entry &entry = fifo_[pick];

    // One cache write = one port-width-aligned window of valid bytes.
    unsigned window = std::min(port_width, lineBytes_);
    DrainOp op;
    op.lineAddr = entry.lineAddr;
    for (unsigned off = 0; off < lineBytes_; off += window) {
        std::uint64_t window_mask = rangeMask(off, window);
        std::uint64_t valid = entry.byteMask & window_mask;
        if (!valid)
            continue;
        op.addr = entry.lineAddr + off;
        op.bytes = window;
        op.validMask = valid;
        bytesDrained += popCount(valid);
        entry.byteMask &= ~window_mask;
        break;
    }
    CPE_ASSERT(op.bytes, "drainOne found an empty entry");
    ++drainOps;

    if (!entry.byteMask) {
        op.entryFinished = true;
        fifo_.erase(fifo_.begin() +
                    static_cast<std::deque<Entry>::difference_type>(pick));
    }
    if (probe_)
        probe_->event(obs::EventKind::SbDrain, op.lineAddr,
                      popCount(op.validMask), op.entryFinished);
    return op;
}

Addr
StoreBuffer::peekDrainLine(Cycle now) const
{
    const Entry *pick = nullptr;
    for (const auto &entry : fifo_) {
        if (entry.blockedUntil > now)
            continue;
        if (entry.forceDrain)
            return entry.lineAddr;
        if (!pick)
            pick = &entry;
    }
    CPE_ASSERT(pick, "peekDrainLine with nothing eligible");
    return pick->lineAddr;
}

void
StoreBuffer::restore(const DrainOp &op, Cycle now)
{
    // Merge back into the (oldest) surviving entry for the line, or
    // re-create one at the FIFO front to preserve age order.
    if (Entry *entry = find(op.lineAddr)) {
        entry->byteMask |= op.validMask;
        if (probe_)
            probe_->event(obs::EventKind::SbRestore, op.lineAddr,
                          popCount(op.validMask), 0);
        return;
    }
    if (probe_)
        probe_->event(obs::EventKind::SbRestore, op.lineAddr,
                      popCount(op.validMask), 1);
    Entry entry;
    entry.lineAddr = op.lineAddr;
    entry.byteMask = op.validMask;
    entry.allocCycle = now;
    entry.forceDrain = true;  // it was wanted urgently enough to drain
    fifo_.push_front(entry);
    // Undo the byte accounting; the port op itself still happened.
    CPE_ASSERT(bytesDrained.value() >= popCount(op.validMask),
               "restore without matching drain");
}

void
StoreBuffer::blockEntry(Addr line_addr, Cycle until)
{
    if (Entry *entry = find(line_addr))
        entry->blockedUntil = std::max(entry->blockedUntil, until);
}

std::uint64_t
StoreBuffer::lineMask(Addr line_addr) const
{
    std::uint64_t bits = 0;
    for (const auto &entry : fifo_)
        if (entry.lineAddr == line_addr)
            bits |= entry.byteMask;
    return bits;
}

} // namespace cpe::core
