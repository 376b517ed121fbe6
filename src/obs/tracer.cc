#include "obs/tracer.hh"

#include <cinttypes>
#include <cstdio>
#include <exception>

#include "util/error.hh"
#include "util/fault.hh"
#include "util/logging.hh"

namespace cpe::obs {

const char *
eventKindName(EventKind kind)
{
    switch (kind) {
      case EventKind::PortGrant: return "port_grant";
      case EventKind::PortConflict: return "port_conflict";
      case EventKind::SbInsert: return "sb_insert";
      case EventKind::SbMerge: return "sb_merge";
      case EventKind::SbDrain: return "sb_drain";
      case EventKind::SbRestore: return "sb_restore";
      case EventKind::LbFill: return "lb_fill";
      case EventKind::LbHit: return "lb_hit";
      case EventKind::LbEvict: return "lb_evict";
      case EventKind::MshrAlloc: return "mshr_alloc";
      case EventKind::MshrRetire: return "mshr_retire";
      case EventKind::CacheEvict: return "cache_evict";
      case EventKind::Fill: return "fill";
      case EventKind::Commit: return "commit";
      case EventKind::CommitStall: return "commit_stall";
      default: break;  // untraced kinds have no trace name
    }
    return "?";
}

std::uint64_t
TraceSink::claimRunId()
{
    std::lock_guard<std::mutex> lock(idMutex_);
    return nextRunId_++;
}

FileTraceSink::FileTraceSink(const std::string &path)
    : path_(path), out_(path, std::ios::out | std::ios::trunc)
{
    if (!out_)
        throw IoError(Msg() << "cannot open trace file '" << path
                            << "' for writing");
}

FileTraceSink::~FileTraceSink()
{
    out_.flush();
}

void
FileTraceSink::write(const char *data, std::size_t size)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (CPE_FAULT_POINT("trace_sink.write"))
        throw IoError("chaos: injected fault at trace_sink.write");
    out_.write(data, static_cast<std::streamsize>(size));
    if (!out_)
        throw IoError(Msg() << "failed writing trace file '" << path_
                            << "'");
}

void
StringTraceSink::write(const char *data, std::size_t size)
{
    std::lock_guard<std::mutex> lock(mutex_);
    text_.append(data, size);
}

std::string
StringTraceSink::text() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return text_;
}

void
Tracer::beginRun(TraceSink *sink, const std::string &workload,
                 const std::string &config_tag, Cycle sample_cycles,
                 unsigned l1d_sets, unsigned line_bytes)
{
    CPE_ASSERT(sink, "Tracer::beginRun with no sink");
    CPE_ASSERT(!sink_, "Tracer::beginRun called twice");
    sink_ = sink;
    runId_ = sink->claimRunId();
    ring_.reserve(RingEvents);

    Json header = Json::object();
    header["t"] = "run_begin";
    header["r"] = runId_;
    header["workload"] = workload;
    header["config"] = config_tag;
    header["sample_cycles"] = sample_cycles;
    if (l1d_sets)
        header["l1d_sets"] = l1d_sets;
    if (line_bytes)
        header["line_bytes"] = line_bytes;
    writeAll(header.dump() + "\n");
}

void
Tracer::flush()
{
    if (!sink_ || ring_.empty())
        return;
    // Events are hand-formatted: the ring flushes on hot paths, and a
    // Json object per event would dominate the enabled-tracing cost.
    // Zero-valued payload fields are omitted (documented defaults).
    scratch_.clear();
    char buf[160];
    for (const Event &ev : ring_) {
        int len = std::snprintf(buf, sizeof(buf),
                                "{\"t\":\"ev\",\"r\":%" PRIu64
                                ",\"s\":%" PRIu64 ",\"c\":%" PRIu64
                                ",\"k\":\"%s\"",
                                runId_, ev.seq, ev.cycle,
                                eventKindName(ev.kind));
        scratch_.append(buf, static_cast<std::size_t>(len));
        if (ev.pc) {
            len = std::snprintf(buf, sizeof(buf), ",\"pc\":%" PRIu64,
                                ev.pc);
            scratch_.append(buf, static_cast<std::size_t>(len));
        }
        if (ev.addr) {
            len = std::snprintf(buf, sizeof(buf), ",\"addr\":%" PRIu64,
                                ev.addr);
            scratch_.append(buf, static_cast<std::size_t>(len));
        }
        if (ev.a) {
            len = std::snprintf(buf, sizeof(buf), ",\"a\":%" PRIu64,
                                ev.a);
            scratch_.append(buf, static_cast<std::size_t>(len));
        }
        if (ev.b) {
            len = std::snprintf(buf, sizeof(buf), ",\"b\":%" PRIu64,
                                ev.b);
            scratch_.append(buf, static_cast<std::size_t>(len));
        }
        scratch_.append("}\n");
    }
    // A failing sink must not kill the run: the simulation's numbers
    // do not depend on the trace, so discard the batch, remember how
    // many events were lost, and keep going.  The loss is reported in
    // the run_end footer's "dropped" field.
    const std::uint64_t batch = ring_.size();
    ring_.clear();
    try {
        sink_->write(scratch_.data(), scratch_.size());
    } catch (const std::exception &) {
        eventsDropped_ += batch;
    }
}

void
Tracer::emitInterval(const Json &record)
{
    if (!sink_)
        return;
    flush();
    Json line = Json::object();
    line["t"] = "interval";
    line["r"] = runId_;
    for (const auto &[key, value] : record.members())
        line[key] = value;
    writeAll(line.dump() + "\n");
}

void
Tracer::endRun(Cycle cycles, std::uint64_t insts, double ipc,
               const Json &final_stats)
{
    if (!sink_)
        return;
    flush();
    Json footer = Json::object();
    footer["t"] = "run_end";
    footer["r"] = runId_;
    footer["cycles"] = cycles;
    footer["insts"] = insts;
    footer["ipc"] = ipc;
    footer["events"] = eventsRecorded_;
    footer["dropped"] = eventsDropped_;
    footer["stats"] = final_stats;
    // Best effort, like flush(): a dead sink loses the footer but must
    // not turn a finished run into a failure.
    try {
        writeAll(footer.dump() + "\n");
    } catch (const std::exception &) {
    }
    sink_ = nullptr;
}

void
Tracer::writeAll(const std::string &text)
{
    sink_->write(text.data(), text.size());
}

} // namespace cpe::obs
