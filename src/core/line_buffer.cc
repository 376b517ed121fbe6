#include "core/line_buffer.hh"

#include "util/bits.hh"
#include "util/logging.hh"

namespace cpe::core {

LineBufferFile::LineBufferFile(const std::string &name, unsigned buffers,
                               unsigned line_bytes,
                               LineBufferWritePolicy write_policy)
    : capacity_(buffers), lineBytes_(line_bytes),
      writePolicy_(write_policy), buffers_(buffers), statGroup_(name)
{
    CPE_ASSERT(line_bytes >= 8 && line_bytes <= 64 &&
                   isPowerOf2(line_bytes),
               "line buffers support 8..64 byte lines");
    statGroup_.addScalar("hits", &hits, "loads serviced from a buffer");
    statGroup_.addScalar("lookups", &lookups, "load lookups");
    statGroup_.addScalar("captures", &captures, "windows deposited");
    statGroup_.addScalar("store_patches", &storePatches,
                         "stores patched into a buffer");
    statGroup_.addScalar("store_invals", &storeInvals,
                         "buffers invalidated by stores");
    statGroup_.addScalar("replacements", &replacements,
                         "valid buffers displaced");
    statGroup_.addScalar("line_invals", &lineInvals,
                         "buffers dropped on L1 eviction");
    statGroup_.addScalar("flushes", &flushes, "full flushes");
    statGroup_.addFormula(
        "hit_rate",
        [this]() {
            return lookups.value()
                       ? static_cast<double>(hits.value()) /
                             lookups.value()
                       : 0.0;
        },
        "fraction of load lookups hitting a line buffer");
}

LineBufferFile::Buffer *
LineBufferFile::find(Addr line_addr)
{
    for (auto &buffer : buffers_)
        if (buffer.valid && buffer.lineAddr == line_addr)
            return &buffer;
    return nullptr;
}

const LineBufferFile::Buffer *
LineBufferFile::find(Addr line_addr) const
{
    for (const auto &buffer : buffers_)
        if (buffer.valid && buffer.lineAddr == line_addr)
            return &buffer;
    return nullptr;
}

bool
LineBufferFile::lookup(Addr addr, unsigned size)
{
    if (!enabled())
        return false;
    ++lookups;
    Addr line_addr = alignDown(addr, lineBytes_);
    Buffer *buffer = find(line_addr);
    if (!buffer) {
        if (probe_)
            probe_->event(obs::EventKind::LbMiss);
        return false;
    }
    unsigned offset = static_cast<unsigned>(addr - line_addr);
    CPE_ASSERT(offset + size <= lineBytes_, "load crosses a line");
    std::uint64_t want = mask(size) << offset;
    if ((buffer->byteMask & want) != want) {
        if (probe_)
            probe_->event(obs::EventKind::LbMiss);
        return false;
    }
    buffer->lastUse = ++useClock_;
    ++hits;
    if (probe_)
        probe_->event(obs::EventKind::LbHit, line_addr);
    return true;
}

void
LineBufferFile::capture(Addr addr, unsigned width,
                        std::uint64_t exclude_mask)
{
    if (!enabled())
        return;
    Addr line_addr = alignDown(addr, lineBytes_);
    unsigned window = std::min(width, lineBytes_);
    Addr window_base = alignDown(addr, window);
    unsigned offset = static_cast<unsigned>(window_base - line_addr);
    std::uint64_t new_bytes = (mask(window) << offset) & ~exclude_mask;

    Buffer *buffer = find(line_addr);
    if (!buffer) {
        // Allocate: invalid first, else LRU.
        Buffer *victim = nullptr;
        for (auto &candidate : buffers_) {
            if (!candidate.valid) {
                victim = &candidate;
                break;
            }
            if (!victim || candidate.lastUse < victim->lastUse)
                victim = &candidate;
        }
        if (victim->valid) {
            ++replacements;
            if (probe_)
                probe_->event(obs::EventKind::LbEvict, victim->lineAddr,
                              obs::LbEvictReplaced);
        }
        victim->valid = true;
        victim->lineAddr = line_addr;
        victim->byteMask = 0;
        buffer = victim;
    }
    buffer->byteMask |= new_bytes;
    buffer->lastUse = ++useClock_;
    ++captures;
    if (probe_)
        probe_->event(obs::EventKind::LbFill, line_addr,
                      popCount(new_bytes));
}

void
LineBufferFile::onStore(Addr addr, unsigned size)
{
    if (!enabled())
        return;
    Addr line_addr = alignDown(addr, lineBytes_);
    Buffer *buffer = find(line_addr);
    if (!buffer)
        return;
    if (writePolicy_ == LineBufferWritePolicy::Invalidate) {
        buffer->valid = false;
        buffer->byteMask = 0;
        ++storeInvals;
        if (probe_)
            probe_->event(obs::EventKind::LbEvict, line_addr,
                          obs::LbEvictStore);
        return;
    }
    unsigned offset = static_cast<unsigned>(addr - line_addr);
    buffer->byteMask |= mask(size) << offset;
    ++storePatches;
}

void
LineBufferFile::invalidateLine(Addr line_addr)
{
    if (Buffer *buffer = find(line_addr)) {
        buffer->valid = false;
        buffer->byteMask = 0;
        ++lineInvals;
        if (probe_)
            probe_->event(obs::EventKind::LbEvict, line_addr,
                          obs::LbEvictLineInval);
    }
}

void
LineBufferFile::flushAll()
{
    if (!enabled())
        return;
    for (auto &buffer : buffers_) {
        if (buffer.valid && probe_)
            probe_->event(obs::EventKind::LbEvict, buffer.lineAddr,
                          obs::LbEvictFlush);
        buffer.valid = false;
        buffer.byteMask = 0;
    }
    ++flushes;
}

std::size_t
LineBufferFile::validBuffers() const
{
    std::size_t count = 0;
    for (const auto &buffer : buffers_)
        count += buffer.valid ? 1 : 0;
    return count;
}

std::uint64_t
LineBufferFile::lineMask(Addr line_addr) const
{
    const Buffer *buffer = find(line_addr);
    return buffer ? buffer->byteMask : 0;
}

} // namespace cpe::core
