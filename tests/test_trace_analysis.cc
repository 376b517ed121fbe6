/**
 * @file
 * Unit tests for the offline trace analyzer (obs/analysis.hh, the
 * library behind cpe_trace): real traces produced by full simulations
 * must parse, validate clean, and summarize consistently; corrupted
 * traces — lost events, unknown kinds, failing sinks — must be caught
 * by the same lint, never silently accepted.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "obs/analysis.hh"
#include "obs/tracer.hh"
#include "sim/simulator.hh"
#include "util/error.hh"
#include "util/json.hh"

namespace cpe::obs {
namespace {

sim::SimConfig
tracedConfig(const std::string &workload, TraceSink *sink)
{
    sim::SimConfig config = sim::SimConfig::defaults();
    config.workloadName = workload;
    config.core.dcache.tech =
        core::PortTechConfig::singlePortAllTechniques();
    config.obs.traceSink = sink;
    config.obs.sampleCycles = 2000;
    return config;
}

std::string
tracedRunText(const std::string &workload)
{
    StringTraceSink sink;
    sim::simulate(tracedConfig(workload, &sink));
    return sink.text();
}

TraceFile
parseText(const std::string &text)
{
    std::istringstream in(text);
    return parseTrace(in, "test trace");
}

std::string
joined(const std::vector<std::string> &problems)
{
    std::string all;
    for (const auto &problem : problems)
        all += problem + "\n";
    return all;
}

TEST(TraceAnalysis, RealTraceParsesAndValidatesClean)
{
    TraceFile file = parseText(tracedRunText("copy"));
    ASSERT_EQ(file.runs.size(), 1u);
    const TraceRun &run = file.runs.front();
    EXPECT_EQ(run.id, 0u);
    ASSERT_TRUE(run.begin.isObject());
    ASSERT_TRUE(run.end.isObject());
    EXPECT_EQ(run.workload(), "copy");
    EXPECT_FALSE(run.configTag().empty());
    EXPECT_GT(run.l1dSets(), 0u);
    EXPECT_GT(run.lineBytes(), 0u);
    EXPECT_FALSE(run.events.empty());
    EXPECT_FALSE(run.intervals.empty());
    EXPECT_TRUE(run.unknownKinds.empty());

    std::vector<std::string> problems = validateRun(run);
    EXPECT_TRUE(problems.empty()) << joined(problems);
}

TEST(TraceAnalysis, InterleavedRunsStayApart)
{
    StringTraceSink sink;
    sim::simulate(tracedConfig("copy", &sink));
    sim::simulate(tracedConfig("crc", &sink));

    TraceFile file = parseText(sink.text());
    ASSERT_EQ(file.runs.size(), 2u);
    ASSERT_TRUE(file.findRun(0));
    ASSERT_TRUE(file.findRun(1));
    EXPECT_FALSE(file.findRun(7));
    EXPECT_EQ(file.findRun(0)->workload(), "copy");
    EXPECT_EQ(file.findRun(1)->workload(), "crc");
    for (const TraceRun &run : file.runs) {
        std::vector<std::string> problems = validateRun(run);
        EXPECT_TRUE(problems.empty())
            << "run " << run.id << ":\n" << joined(problems);
    }
}

TEST(TraceAnalysis, SummaryAgreesWithFooter)
{
    TraceFile file = parseText(tracedRunText("copy"));
    const TraceRun &run = file.runs.front();
    Json summary = summarizeRun(run);

    auto field = [&summary](const char *name) {
        return static_cast<std::uint64_t>(
            summary.at(name, "summary").asNumber());
    };
    EXPECT_EQ(field("cycles"), static_cast<std::uint64_t>(
                                   run.end.at("cycles").asNumber()));
    EXPECT_EQ(field("insts"), static_cast<std::uint64_t>(
                                  run.end.at("insts").asNumber()));
    EXPECT_EQ(field("events"), run.events.size());
    EXPECT_EQ(field("dropped"), 0u);
    EXPECT_TRUE(summary.at("stalls", "summary").find("port_conflict"));

    std::string table = summaryTable(summary);
    EXPECT_NE(table.find("cycles"), std::string::npos);
    EXPECT_NE(table.find("stall:port_conflict"), std::string::npos);
}

TEST(TraceAnalysis, HotAndHeatmapRenderFromGeometry)
{
    TraceFile file = parseText(tracedRunText("copy"));
    const TraceRun &run = file.runs.front();

    std::string by_pc = hotReport(run, 5, HotBy::Pc);
    EXPECT_NE(by_pc.find("pc"), std::string::npos);
    EXPECT_NE(by_pc.find("0x"), std::string::npos);
    std::string by_line = hotReport(run, 5, HotBy::Line);
    EXPECT_NE(by_line.find("line"), std::string::npos);
    EXPECT_NE(by_line.find("0x"), std::string::npos);

    std::string csv = heatmapCsv(run);
    EXPECT_EQ(csv.rfind("set,mshr_allocs,fills,evictions,lb_hits\n", 0),
              0u);
    std::size_t lines = 0;
    for (char c : csv)
        lines += c == '\n';
    EXPECT_EQ(lines, run.l1dSets() + 1u);
}

TEST(TraceAnalysis, HeatmapNeedsGeometry)
{
    // A trace from before the schema carried l1d_sets/line_bytes.
    TraceFile file = parseText(
        "{\"t\":\"run_begin\",\"r\":0,\"workload\":\"old\"}\n"
        "{\"t\":\"run_end\",\"r\":0,\"cycles\":1,\"insts\":0,"
        "\"events\":0,\"dropped\":0}\n");
    ASSERT_EQ(file.runs.size(), 1u);
    EXPECT_EQ(file.runs.front().l1dSets(), 0u);
    EXPECT_THROW(heatmapCsv(file.runs.front()), ConfigError);
}

TEST(TraceAnalysis, ValidateFlagsLostEvents)
{
    std::string text = tracedRunText("copy");
    // Delete one mid-stream event line: the seq chain breaks and the
    // footer's event count no longer matches the stream.
    std::size_t cut = text.find("\"s\":10,");
    ASSERT_NE(cut, std::string::npos);
    std::size_t start = text.rfind('\n', cut) + 1;
    std::size_t end = text.find('\n', cut) + 1;
    text.erase(start, end - start);

    TraceFile file = parseText(text);
    std::string problems = joined(validateRun(file.runs.front()));
    EXPECT_NE(problems.find("seq"), std::string::npos) << problems;
    EXPECT_NE(problems.find("claims"), std::string::npos) << problems;
}

TEST(TraceAnalysis, ValidateFlagsUnknownKinds)
{
    TraceFile file = parseText(
        "{\"t\":\"run_begin\",\"r\":0,\"workload\":\"x\","
        "\"config\":\"y\"}\n"
        "{\"t\":\"ev\",\"r\":0,\"s\":0,\"c\":1,\"k\":\"bogus_kind\"}\n"
        "{\"t\":\"run_end\",\"r\":0,\"cycles\":1,\"insts\":0,"
        "\"events\":1,\"dropped\":0}\n");
    ASSERT_EQ(file.runs.size(), 1u);
    const TraceRun &run = file.runs.front();
    ASSERT_EQ(run.unknownKinds.size(), 1u);
    EXPECT_EQ(run.unknownKinds.front(), "bogus_kind");
    std::string problems = joined(validateRun(run));
    EXPECT_NE(problems.find("bogus_kind"), std::string::npos);
}

TEST(TraceAnalysis, TruncatedTraceIsFlaggedNotTrusted)
{
    TraceFile file = parseText(
        "{\"t\":\"run_begin\",\"r\":0,\"workload\":\"x\"}\n"
        "{\"t\":\"ev\",\"r\":0,\"s\":0,\"c\":1,\"k\":\"commit\","
        "\"a\":1}\n");
    std::string problems = joined(validateRun(file.runs.front()));
    EXPECT_NE(problems.find("run_end"), std::string::npos) << problems;
}

TEST(TraceAnalysis, MalformedLinesThrow)
{
    EXPECT_THROW(parseText("{oops\n"), IoError);
    EXPECT_THROW(parseText("{\"r\":0}\n"), IoError);  // no "t"
    EXPECT_THROW(parseText("{\"t\":\"mystery\",\"r\":0}\n"), IoError);
    EXPECT_THROW(loadTraceFile("/nonexistent/trace.jsonl"), IoError);
}

/** A sink that fails exactly one write, then recovers. */
class FlakySink : public TraceSink
{
  public:
    explicit FlakySink(unsigned fail_on) : failOn_(fail_on) {}

    void
    write(const char *data, std::size_t size) override
    {
        if (writes_++ == failOn_)
            throw IoError("injected sink failure");
        text_.append(data, size);
    }

    const std::string &text() const { return text_; }

  private:
    std::string text_;
    unsigned writes_ = 0;
    unsigned failOn_;
};

TEST(TraceAnalysis, DroppedEventsAreCountedAndFlagged)
{
    // Write 0 is the run_begin header; write 1 — the first event
    // batch — fails, dropping those three events.  The run keeps
    // going and the footer must confess.
    FlakySink sink(1);
    Tracer tracer;
    tracer.beginRun(&sink, "flaky", "cfg", 0);
    tracer.record(1, EventKind::Commit, 0, 0, 1, 0);
    tracer.record(2, EventKind::Commit, 0, 0, 1, 0);
    tracer.record(3, EventKind::Commit, 0, 0, 1, 0);
    tracer.flush();
    EXPECT_EQ(tracer.eventsDropped(), 3u);
    tracer.record(4, EventKind::Commit, 0, 0, 1, 0);
    tracer.endRun(4, 4, 1.0, Json::object());

    TraceFile file = parseText(sink.text());
    ASSERT_EQ(file.runs.size(), 1u);
    const TraceRun &run = file.runs.front();
    EXPECT_EQ(run.events.size(), 1u);  // only the post-failure event
    EXPECT_EQ(static_cast<std::uint64_t>(
                  run.end.at("dropped").asNumber()),
              3u);
    std::string problems = joined(validateRun(run));
    EXPECT_NE(problems.find("dropped"), std::string::npos) << problems;

    Json summary = summarizeRun(run);
    EXPECT_EQ(static_cast<std::uint64_t>(
                  summary.at("dropped").asNumber()),
              3u);
}

TEST(TraceAnalysis, CleanSinkDropsNothing)
{
    StringTraceSink sink;
    Tracer tracer;
    tracer.beginRun(&sink, "clean", "cfg", 0);
    tracer.record(1, EventKind::Commit, 0, 0, 1, 0);
    tracer.endRun(1, 1, 1.0, Json::object());
    EXPECT_EQ(tracer.eventsDropped(), 0u);

    TraceFile file = parseText(sink.text());
    const TraceRun &run = file.runs.front();
    EXPECT_EQ(static_cast<std::uint64_t>(
                  run.end.at("dropped").asNumber()),
              0u);
    std::vector<std::string> problems = validateRun(run);
    EXPECT_TRUE(problems.empty()) << joined(problems);
}

} // namespace
} // namespace cpe::obs
