/**
 * @file
 * The one instrumentation seam of the timing model.
 *
 * The port arbiter, store buffer, line buffers, MSHRs, L1D tags, the
 * D-cache unit and the core each hold one `obs::Probe *` and report
 * every event with one inline, non-virtual event() call through it.
 * The probe owns the attribution context — the current cycle and the
 * static PC of the instruction being handled — and hands each event
 * to the consumers the run attached: the Tracer writes the 15 traced
 * kinds as trace lines, and the Profiler counts events per PC and per
 * L1D set.
 *
 * Non-perturbing contract.  Observers only read.  No component
 * decides anything from its probe, and no event changes model state,
 * so an observed run and a bare run commit the same instructions in
 * the same cycles and produce byte-identical results.  Unobserved,
 * the probe pointer is null and each seam is one untaken branch.
 * tests/test_obs_differential.cc and tests/test_obs_profile.cc hold
 * the contract; the latter also holds every per-PC profile sum equal
 * to its StatGroup total.
 */

#ifndef CPE_OBS_PROBE_HH
#define CPE_OBS_PROBE_HH

#include <cstdint>

#include "obs/profiler.hh"
#include "obs/tracer.hh"
#include "util/types.hh"

namespace cpe::obs {

/** Per-run event fan-out.  Either consumer may be null. */
class Probe
{
  public:
    Probe(Tracer *tracer, Profiler *profiler)
        : tracer_(tracer), profiler_(profiler)
    {
    }

    Probe(const Probe &) = delete;
    Probe &operator=(const Probe &) = delete;

    /** The owning core moves the event clock once per cycle. */
    void advanceTo(Cycle now) { now_ = now; }

    /**
     * Attribute later events to static PC @p pc.  0, the idle value,
     * marks machine-initiated work: drains, fills, prefetches.
     */
    void setPc(Addr pc) { pc_ = pc; }

    /** Report one event at the current cycle and PC. */
    void
    event(EventKind kind, Addr addr = 0, std::uint64_t a = 0,
          std::uint64_t b = 0)
    {
        if (tracer_ && traced(kind))
            tracer_->record(now_, kind, pc_, addr, a, b);
        if (profiler_)
            count(kind, addr, a);
    }

    /** The warm-up boundary: the profile restarts with the stats. */
    void
    beginMeasurement()
    {
        if (profiler_)
            profiler_->reset();
    }

  private:
    using Field = std::uint64_t PcCounters::*;

    /** The profiler's share of one event. */
    void
    count(EventKind kind, Addr addr, std::uint64_t a)
    {
        switch (kind) {
          case EventKind::PortGrant: bump(&PcCounters::portGrants); break;
          case EventKind::PortConflict:
            bump(&PcCounters::portConflicts);
            break;
          case EventKind::LbHit:
            bump(&PcCounters::lbLookups, &PcCounters::lbHits);
            break;
          case EventKind::LbMiss: bump(&PcCounters::lbLookups); break;
          case EventKind::MshrAlloc: bump(&PcCounters::mshrAllocs); break;
          case EventKind::CacheEvict:
            ++profiler_->setFor(addr).evictions;
            break;
          case EventKind::CommitStall:
            if (a == StallRobEmpty)
                profiler_->countRobEmpty();
            else
                bump(a == StallHeadIncomplete
                         ? &PcCounters::commitStallHead
                         : &PcCounters::commitStallStore);
            break;
          case EventKind::LoadForwarded:
            bump(&PcCounters::loads, &PcCounters::sbFwd);
            break;
          case EventKind::LoadLineBuffer:
            bump(&PcCounters::loads, &PcCounters::lbServed);
            break;
          case EventKind::LoadCacheHit:
            bump(&PcCounters::loads, &PcCounters::cacheHits);
            break;
          case EventKind::LoadMiss:
            bump(&PcCounters::loads, &PcCounters::misses);
            break;
          case EventKind::LoadMissMerged:
            bump(&PcCounters::loads, &PcCounters::missMerged);
            break;
          case EventKind::Store: bump(&PcCounters::stores); break;
          case EventKind::SbFull: bump(&PcCounters::sbFullStalls); break;
          case EventKind::MshrWait: bump(&PcCounters::mshrWaits); break;
          case EventKind::PartialStall:
            bump(&PcCounters::partialStalls);
            break;
          case EventKind::SetAccess: {
            SetCounters &set = profiler_->setFor(addr);
            ++set.accesses;
            if (!a)
                ++set.misses;
            break;
          }
          default:
            break;  // traced only
        }
    }

    /** Count one event in the current PC's bucket. */
    void bump(Field field) { ++(profiler_->bucket(pc_).*field); }

    void
    bump(Field first, Field second)
    {
        PcCounters &counters = profiler_->bucket(pc_);
        ++(counters.*first);
        ++(counters.*second);
    }

    Tracer *tracer_;
    Profiler *profiler_;
    Cycle now_ = 0;
    Addr pc_ = 0;
};

/**
 * Scoped attribution: events reported while alive carry @p pc, and the
 * machine context (PC 0) returns on the way out.  Requests entering
 * the D-cache unit and the commit stage's stalls wrap themselves in
 * one; drains, fills and prefetches run outside and stay at PC 0.
 */
class AttrScope
{
  public:
    AttrScope(Probe *probe, Addr pc) : probe_(pc ? probe : nullptr)
    {
        if (probe_)
            probe_->setPc(pc);
    }

    ~AttrScope()
    {
        if (probe_)
            probe_->setPc(0);
    }

    AttrScope(const AttrScope &) = delete;
    AttrScope &operator=(const AttrScope &) = delete;

  private:
    Probe *probe_;
};

} // namespace cpe::obs

#endif // CPE_OBS_PROBE_HH
