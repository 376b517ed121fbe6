/**
 * @file
 * Cycle-by-cycle arbitration for the cache data ports.
 *
 * Each port is pipelined with single-cycle initiation: it can start one
 * access per cycle, so availability is a per-port "booked through"
 * cursor.  Multi-cycle occupancy (a fill streaming a line through the
 * port) books a port for several consecutive cycles.
 */

#ifndef CPE_CORE_PORT_ARBITER_HH
#define CPE_CORE_PORT_ARBITER_HH

#include <string>
#include <vector>

#include "obs/probe.hh"
#include "stats/stats.hh"
#include "util/types.hh"

namespace cpe::core {

/** Books the data ports. */
class PortArbiter
{
  public:
    PortArbiter(const std::string &name, unsigned ports);

    /**
     * Try to claim any free port at @p now for @p cycles consecutive
     * cycles.  @return true and book it, or false if every port is busy.
     */
    bool tryAcquire(Cycle now, unsigned cycles = 1);

    /** @return how many ports could still start an access at @p now. */
    unsigned freePorts(Cycle now) const;

    unsigned ports() const
    {
        return static_cast<unsigned>(busyUntil_.size());
    }

    /**
     * Account one elapsed cycle for utilization statistics; call once
     * per core cycle after all acquisitions.
     */
    void tickStats(Cycle now);

    stats::StatGroup &statGroup() { return statGroup_; }

    /** Attach the observability probe (null = off, the default). */
    void setProbe(obs::Probe *probe) { probe_ = probe; }

    stats::Scalar grants;       ///< successful acquisitions
    stats::Scalar rejections;   ///< acquisitions refused (all busy)
    stats::Scalar busyPortCycles; ///< port-cycles spent busy
    stats::Scalar idlePortCycles; ///< port-cycles spent idle

  private:
    /** First cycle at or after which port @p port is free. */
    std::vector<Cycle> busyUntil_;
    obs::Probe *probe_ = nullptr;
    stats::StatGroup statGroup_;
};

} // namespace cpe::core

#endif // CPE_CORE_PORT_ARBITER_HH
