#include "core/port_arbiter.hh"

#include "util/logging.hh"

namespace cpe::core {

PortArbiter::PortArbiter(const std::string &name, unsigned ports)
    : busyUntil_(ports, 0), statGroup_(name)
{
    CPE_ASSERT(ports >= 1, "need at least one cache port");
    statGroup_.addScalar("grants", &grants, "port acquisitions granted");
    statGroup_.addScalar("rejections", &rejections,
                         "port acquisitions refused");
    statGroup_.addScalar("busy_cycles", &busyPortCycles,
                         "port-cycles spent servicing accesses");
    statGroup_.addScalar("idle_cycles", &idlePortCycles,
                         "port-cycles spent idle");
    statGroup_.addFormula(
        "utilization",
        [this]() {
            double total = static_cast<double>(busyPortCycles.value() +
                                               idlePortCycles.value());
            return total > 0.0 ? busyPortCycles.value() / total : 0.0;
        },
        "fraction of port-cycles busy");
}

bool
PortArbiter::tryAcquire(Cycle now, unsigned cycles)
{
    CPE_ASSERT(cycles >= 1, "zero-cycle port acquisition");
    for (auto &until : busyUntil_) {
        if (until <= now) {
            until = now + cycles;
            ++grants;
            if (probe_)
                probe_->event(obs::EventKind::PortGrant, 0, cycles);
            return true;
        }
    }
    ++rejections;
    if (probe_)
        probe_->event(obs::EventKind::PortConflict);
    return false;
}

unsigned
PortArbiter::freePorts(Cycle now) const
{
    unsigned free = 0;
    for (auto until : busyUntil_)
        free += (until <= now) ? 1 : 0;
    return free;
}

void
PortArbiter::tickStats(Cycle now)
{
    for (auto until : busyUntil_) {
        if (until > now)
            ++busyPortCycles;
        else
            ++idlePortCycles;
    }
}

} // namespace cpe::core
