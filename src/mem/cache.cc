#include "mem/cache.hh"

#include "util/bits.hh"
#include "util/logging.hh"

namespace cpe::mem {

Cache::Cache(const CacheParams &params)
    : params_(params), rng_(params.replSeed), statGroup_(params.name)
{
    CPE_ASSERT(isPowerOf2(params_.lineBytes), "line size not a power of 2");
    CPE_ASSERT(params_.assoc >= 1, "associativity must be >= 1");
    CPE_ASSERT(params_.sizeBytes %
                       (params_.assoc * params_.lineBytes) == 0,
               "cache size not divisible by assoc * line");
    unsigned sets = params_.sets();
    CPE_ASSERT(isPowerOf2(sets), "set count not a power of 2");

    lineMask_ = params_.lineBytes - 1;
    setShift_ = floorLog2(params_.lineBytes);
    setMask_ = sets - 1;
    lines_.assign(static_cast<std::size_t>(sets) * params_.assoc, Line{});

    statGroup_.addScalar("hits", &hits, "demand accesses that hit");
    statGroup_.addScalar("misses", &misses, "demand accesses that missed");
    statGroup_.addScalar("evictions", &evictions, "valid lines displaced");
    statGroup_.addScalar("writebacks", &writebacks,
                         "dirty lines displaced");
    statGroup_.addFormula(
        "miss_rate",
        [this]() {
            std::uint64_t total = hits.value() + misses.value();
            return total ? static_cast<double>(misses.value()) / total : 0.0;
        },
        "misses / (hits + misses)");
}

int
Cache::findWay(std::size_t set, Addr tag) const
{
    const Line *base = &lines_[set * params_.assoc];
    for (unsigned way = 0; way < params_.assoc; ++way) {
        if (base[way].valid && base[way].tag == tag)
            return static_cast<int>(way);
    }
    return -1;
}

bool
Cache::probe(Addr addr) const
{
    Loc loc = locate(addr);
    return findWay(loc.set, loc.tag) >= 0;
}

bool
Cache::access(Addr addr, bool write)
{
    Loc loc = locate(addr);
    if (loc.tag == lastHitTag_) {
        Line &line = lines_[lastHitLine_];
        line.lastUse = ++useClock_;
        if (write)
            line.dirty = true;
        ++hits;
        if (probe_)
            probe_->event(obs::EventKind::SetAccess, addr, true);
        return true;
    }
    int way = findWay(loc.set, loc.tag);
    if (way < 0) {
        ++misses;
        if (probe_)
            probe_->event(obs::EventKind::SetAccess, addr, false);
        return false;
    }
    std::size_t index = loc.set * params_.assoc + static_cast<unsigned>(way);
    Line &line = lines_[index];
    line.lastUse = ++useClock_;
    if (write)
        line.dirty = true;
    ++hits;
    if (probe_)
        probe_->event(obs::EventKind::SetAccess, addr, true);
    lastHitTag_ = loc.tag;
    lastHitLine_ = index;
    return true;
}

bool
Cache::warmAccess(Addr addr, bool write, FillResult *evicted)
{
    Loc loc = locate(addr);
    if (loc.tag == lastHitTag_) {
        Line &line = lines_[lastHitLine_];
        line.lastUse = ++useClock_;
        if (write)
            line.dirty = true;
        return true;
    }
    int way = findWay(loc.set, loc.tag);
    if (way >= 0) {
        std::size_t index =
            loc.set * params_.assoc + static_cast<unsigned>(way);
        Line &line = lines_[index];
        line.lastUse = ++useClock_;
        if (write)
            line.dirty = true;
        lastHitTag_ = loc.tag;
        lastHitLine_ = index;
        return true;
    }

    // Miss: write-allocate silently (state only, no counters).
    forgetLastHit();
    unsigned victim = victimWay(loc.set);
    Line &line = lines_[loc.set * params_.assoc + victim];
    if (line.valid && evicted) {
        evicted->evicted = true;
        evicted->evictedAddr = (line.tag << setShift_);
        evicted->evictedDirty = line.dirty;
    }
    line.valid = true;
    line.dirty = write;
    line.tag = loc.tag;
    line.lastUse = ++useClock_;
    return false;
}

unsigned
Cache::victimWay(std::size_t set)
{
    Line *base = &lines_[set * params_.assoc];
    for (unsigned way = 0; way < params_.assoc; ++way)
        if (!base[way].valid)
            return way;

    if (params_.repl == ReplPolicy::Random)
        return static_cast<unsigned>(rng_.below(params_.assoc));

    unsigned lru = 0;
    for (unsigned way = 1; way < params_.assoc; ++way)
        if (base[way].lastUse < base[lru].lastUse)
            lru = way;
    return lru;
}

Cache::FillResult
Cache::fill(Addr addr, bool dirty)
{
    Loc loc = locate(addr);
    std::size_t set = loc.set;
    Addr tag = loc.tag;
    forgetLastHit();
    CPE_ASSERT(findWay(set, tag) < 0,
               params_.name << ": fill of already-present line 0x"
                            << std::hex << lineAddr(addr));

    unsigned way = victimWay(set);
    Line &line = lines_[set * params_.assoc + way];

    FillResult result;
    if (line.valid) {
        result.evicted = true;
        result.evictedAddr = (line.tag << setShift_);
        result.evictedDirty = line.dirty;
        ++evictions;
        if (line.dirty)
            ++writebacks;
        if (probe_)
            probe_->event(obs::EventKind::CacheEvict, result.evictedAddr,
                          result.evictedDirty);
    }
    line.valid = true;
    line.dirty = dirty;
    line.tag = tag;
    line.lastUse = ++useClock_;
    return result;
}

bool
Cache::invalidate(Addr addr)
{
    Loc loc = locate(addr);
    int way = findWay(loc.set, loc.tag);
    if (way < 0)
        return false;
    forgetLastHit();
    lines_[loc.set * params_.assoc + static_cast<unsigned>(way)] = Line{};
    return true;
}

void
Cache::setDirty(Addr addr)
{
    Loc loc = locate(addr);
    int way = findWay(loc.set, loc.tag);
    CPE_ASSERT(way >= 0, params_.name << ": setDirty on absent line");
    lines_[loc.set * params_.assoc + static_cast<unsigned>(way)].dirty =
        true;
}

bool
Cache::isDirty(Addr addr) const
{
    Loc loc = locate(addr);
    int way = findWay(loc.set, loc.tag);
    return way >= 0 &&
           lines_[loc.set * params_.assoc + static_cast<unsigned>(way)]
               .dirty;
}

void
Cache::flushAll()
{
    forgetLastHit();
    for (auto &line : lines_)
        line = Line{};
}

std::size_t
Cache::validLines() const
{
    std::size_t count = 0;
    for (const auto &line : lines_)
        count += line.valid ? 1 : 0;
    return count;
}

} // namespace cpe::mem
