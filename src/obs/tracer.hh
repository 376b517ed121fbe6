/**
 * @file
 * Cycle-level observability: a low-overhead structured event tracer.
 *
 * Components report events through their obs::Probe (obs/probe.hh,
 * which also states the non-perturbing contract); the probe records
 * the traced kinds here.  Events accumulate in a ring and flush to the
 * TraceSink in batches as JSONL (one JSON object per line).
 *
 * Trace-file schema (see docs/observability.md for the full story):
 *
 *   {"t":"run_begin","r":0,"workload":...,"config":...,...}
 *   {"t":"ev","r":0,"s":<seq>,"c":<cycle>,"k":"<kind>"
 *       [,"pc":P][,"addr":A][,"a":N][,"b":M]}
 *   {"t":"interval","r":0,...}          (emitted via IntervalSampler)
 *   {"t":"run_end","r":0,...,"dropped":D,"stats":{...}}
 *
 * "r" is a per-sink run id: parallel sweeps share one FileTraceSink,
 * whose writes are mutex-serialized whole batches — events of one run
 * stay in order, and lines of different runs interleave at batch
 * granularity, each carrying its run id.
 */

#ifndef CPE_OBS_TRACER_HH
#define CPE_OBS_TRACER_HH

#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "util/json.hh"
#include "util/types.hh"

namespace cpe::obs {

/**
 * What happened.  The first 15 kinds are traced, under the names
 * eventKindName() gives them; the rest only feed the profiler.
 */
enum class EventKind : std::uint8_t {
    PortGrant,     ///< port booked;            a = cycles occupied
    PortConflict,  ///< acquisition refused: every port busy
    SbInsert,      ///< new store-buffer entry; addr = line, a = bytes
    SbMerge,       ///< store combined;         addr = line, a = bytes
    SbDrain,       ///< one drain port access;  a = bytes, b = entry freed
    SbRestore,     ///< refused drain undone;   b = entry re-created
    LbFill,        ///< window captured;        addr = line, a = new bytes
    LbHit,         ///< load served by buffer;  addr = line
    LbEvict,       ///< buffer dropped;         addr = line, a = cause
    MshrAlloc,     ///< fill started;           addr = line, a = write,
                   ///<                         b = prefetch
    MshrRetire,    ///< fill data arrived;      addr = line
    CacheEvict,    ///< L1D line displaced;     addr = line, a = dirty
    Fill,          ///< line installed in L1D;  addr = line
    Commit,        ///< instructions committed; a = count this cycle
    CommitStall,   ///< commit made no progress; a = cause
    // Untraced: counted by the profiler only.
    LoadForwarded,   ///< load served by the store buffer
    LoadLineBuffer,  ///< load served by a line buffer
    LoadCacheHit,    ///< load hit L1 through a port
    LoadMiss,        ///< load missed L1: a new MSHR
    LoadMissMerged,  ///< load merged into an in-flight fill
    Store,           ///< store accepted (buffer or port)
    LbMiss,          ///< line-buffer lookup missed
    SbFull,          ///< store refused: buffer full
    MshrWait,        ///< load refused: MSHRs exhausted
    PartialStall,    ///< load blocked: partial store-buffer overlap
    SetAccess,       ///< L1D demand access; addr, a = hit
};

/** @return true for the kinds a trace records. */
constexpr bool
traced(EventKind kind)
{
    return kind <= EventKind::CommitStall;
}

/** LbEvict causes (the "a" payload). */
enum : std::uint64_t {
    LbEvictReplaced = 1,   ///< LRU displacement by a capture
    LbEvictLineInval = 2,  ///< backing L1 line evicted
    LbEvictStore = 3,      ///< invalidated by a store (policy)
    LbEvictFlush = 4,      ///< full-file flush (mode switch)
};

/** CommitStall causes (the "a" payload). */
enum : std::uint64_t {
    StallRobEmpty = 0,     ///< window empty (frontend bound)
    StallHeadIncomplete = 1, ///< head not done executing
    StallStoreReject = 2,  ///< D-cache refused the head store
};

/** @return the stable trace-file name of @p kind (e.g. "sb_insert"). */
const char *eventKindName(EventKind kind);

/** One recorded event; payload meaning depends on the kind. */
struct Event
{
    std::uint64_t seq = 0;  ///< 0-based position in this run's stream
    Cycle cycle = 0;
    EventKind kind = EventKind::Commit;
    Addr pc = 0;  ///< static PC of the instruction in flight, 0 if none
    Addr addr = 0;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
};

/**
 * Destination for trace bytes.  write() must append the whole block
 * atomically with respect to other writers — that is the contract that
 * keeps parallel-sweep traces parseable line by line.
 */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /** Append @p size bytes (always whole JSONL lines). */
    virtual void write(const char *data, std::size_t size) = 0;

    /** Claim the next run id for a Tracer binding to this sink. */
    std::uint64_t claimRunId();

  private:
    std::mutex idMutex_;
    std::uint64_t nextRunId_ = 0;
};

/** Appends to a file; throws IoError if the path cannot be opened. */
class FileTraceSink : public TraceSink
{
  public:
    explicit FileTraceSink(const std::string &path);
    ~FileTraceSink() override;

    void write(const char *data, std::size_t size) override;

  private:
    std::string path_;
    std::ofstream out_;
    std::mutex mutex_;
};

/** Accumulates the trace in memory (tests). */
class StringTraceSink : public TraceSink
{
  public:
    void write(const char *data, std::size_t size) override;

    /** Everything written so far. */
    std::string text() const;

  private:
    mutable std::mutex mutex_;
    std::string text_;
};

/** Discards the trace, counting bytes (overhead benchmarks). */
class CountingTraceSink : public TraceSink
{
  public:
    void write(const char *, std::size_t size) override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        bytes_ += size;
    }

    std::uint64_t bytes() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return bytes_;
    }

  private:
    mutable std::mutex mutex_;
    std::uint64_t bytes_ = 0;
};

/**
 * Per-run event recorder.  One Tracer belongs to one simulation run
 * (single-threaded, like every other per-run structure); only the
 * sink is shared across runs.
 */
class Tracer
{
  public:
    /** Events buffered before a batch is flushed to the sink. */
    static constexpr std::size_t RingEvents = 4096;

    Tracer() = default;
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /**
     * Bind to @p sink and emit the run_begin line.  @p sample_cycles
     * is recorded in the header (0 = no interval sampling);
     * @p l1d_sets / @p line_bytes describe the traced cache's geometry
     * so offline tools can map addresses to sets (0 = unknown).
     */
    void beginRun(TraceSink *sink, const std::string &workload,
                  const std::string &config_tag, Cycle sample_cycles,
                  unsigned l1d_sets = 0, unsigned line_bytes = 0);

    /** @return true when bound to a sink. */
    bool active() const { return sink_ != nullptr; }

    /** Record one event attributed to @p pc (no-op unless active). */
    void
    record(Cycle cycle, EventKind kind, Addr pc, Addr addr,
           std::uint64_t a, std::uint64_t b)
    {
        if (!sink_)
            return;
        ring_.push_back(Event{eventsRecorded_, cycle, kind, pc, addr,
                              a, b});
        ++eventsRecorded_;
        if (ring_.size() >= RingEvents)
            flush();
    }

    /**
     * Emit one interval record (flushes buffered events first so the
     * line lands after the events it summarizes).  @p record is the
     * IntervalSampler's payload; "t" and "r" are added here.
     */
    void emitInterval(const Json &record);

    /**
     * Flush and emit the run_end line carrying the run's headline
     * numbers and final per-stat totals (the interval sum check's
     * ground truth).
     */
    void endRun(Cycle cycles, std::uint64_t insts, double ipc,
                const Json &final_stats);

    /** Events recorded so far this run. */
    std::uint64_t eventsRecorded() const { return eventsRecorded_; }

    /**
     * Events recorded but never written: a sink write failure discards
     * the in-flight batch (the run keeps going, the trace degrades).
     * Reported as the run_end footer's "dropped" field; `cpe_trace
     * validate` flags any nonzero value.
     */
    std::uint64_t eventsDropped() const { return eventsDropped_; }

    /** Write out any buffered events. */
    void flush();

  private:
    void writeAll(const std::string &text);

    TraceSink *sink_ = nullptr;
    std::uint64_t runId_ = 0;
    std::uint64_t eventsRecorded_ = 0;
    std::uint64_t eventsDropped_ = 0;
    std::vector<Event> ring_;
    std::string scratch_;  ///< reused batch-formatting buffer
};

} // namespace cpe::obs

#endif // CPE_OBS_TRACER_HH
