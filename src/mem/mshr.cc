#include "mem/mshr.hh"

#include <algorithm>

#include "util/logging.hh"

namespace cpe::mem {

MshrFile::MshrFile(const std::string &name, unsigned entries,
                   unsigned max_targets)
    : entries_(entries), maxTargets_(max_targets), statGroup_(name)
{
    statGroup_.addScalar("allocations", &allocations,
                         "primary misses that allocated an MSHR");
    statGroup_.addScalar("merges", &merges,
                         "secondary misses merged into an MSHR");
    statGroup_.addScalar("full_rejects", &fullRejects,
                         "requests rejected with all MSHRs busy");
}

Mshr *
MshrFile::find(Addr line_addr)
{
    for (auto &entry : live_)
        if (entry.lineAddr == line_addr)
            return &entry;
    return nullptr;
}

const Mshr *
MshrFile::find(Addr line_addr) const
{
    for (const auto &entry : live_)
        if (entry.lineAddr == line_addr)
            return &entry;
    return nullptr;
}

Mshr &
MshrFile::allocate(Addr line_addr, Cycle ready, bool write_intent,
                   bool prefetch)
{
    CPE_ASSERT(!full(), "MSHR allocate when full");
    CPE_ASSERT(!find(line_addr), "duplicate MSHR for line 0x"
                                     << std::hex << line_addr);
    ++allocations;
    live_.push_back(
        Mshr{line_addr, ready, prefetch ? 0u : 1u, write_intent,
             prefetch});
    if (probe_)
        probe_->event(obs::EventKind::MshrAlloc, line_addr, write_intent,
                      prefetch);
    return live_.back();
}

bool
MshrFile::addTarget(Mshr &entry, bool write_intent)
{
    if (entry.targets >= maxTargets_)
        return false;
    ++entry.targets;
    entry.writeIntent = entry.writeIntent || write_intent;
    ++merges;
    return true;
}

std::vector<Mshr>
MshrFile::takeReady(Cycle now)
{
    std::vector<Mshr> ready;
    auto it = live_.begin();
    while (it != live_.end()) {
        if (it->readyCycle <= now) {
            if (probe_)
                probe_->event(obs::EventKind::MshrRetire, it->lineAddr);
            ready.push_back(*it);
            it = live_.erase(it);
        } else {
            ++it;
        }
    }
    std::sort(ready.begin(), ready.end(),
              [](const Mshr &a, const Mshr &b) {
                  return a.readyCycle < b.readyCycle;
              });
    return ready;
}

} // namespace cpe::mem
