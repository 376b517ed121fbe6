/**
 * @file
 * Golden-trace regression: a tiny deterministic kernel is traced
 * through the full core and the JSONL output compared — line by line,
 * field by field, no tolerances — against a committed reference under
 * tests/golden/.  Any change to event ordering, payloads, or the
 * schema shows up as a diff here and must be intentional (regenerate
 * with CPE_REGEN_GOLDEN=1 and commit the new file).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

#include "cpu/ooo_core.hh"
#include "func/executor.hh"
#include "obs/probe.hh"
#include "prog/builder.hh"
#include "util/json.hh"

#ifndef CPE_GOLDEN_DIR
#error "CPE_GOLDEN_DIR must point at tests/golden"
#endif

namespace cpe::cpu {
namespace {

using namespace prog::reg;
using prog::Builder;
using prog::Label;

/** A small store/load/evict workout: enough iterations to exercise the
 *  store buffer, line buffers, and MSHR fills, small enough that the
 *  golden file stays reviewable. */
prog::Program
goldenKernel()
{
    Builder b("obs_golden");
    Addr data = b.allocData(512, 8);
    b.loadImm(t0, data);
    b.loadImm(t1, 12);
    Label loop = b.here();
    b.sd(t1, 0, t0);
    b.ld(t2, 0, t0);
    b.sd(t2, 64, t0);
    b.ld(t3, 128, t0);
    b.add(t3, t3, t2);
    b.addi(t0, t0, 8);
    b.addi(t1, t1, -1);
    b.bne(t1, zero, loop);
    b.halt();
    return b.build();
}

std::string
runGoldenTrace()
{
    prog::Program program = goldenKernel();
    func::Executor executor(program);
    mem::MemHierarchy hierarchy(mem::L2Params{}, mem::DramParams{});
    CoreParams params;
    params.dcache.tech = core::PortTechConfig::singlePortAllTechniques();
    OooCore core(params, &executor, &hierarchy);

    obs::StringTraceSink sink;
    obs::Tracer tracer;
    tracer.beginRun(&sink, "obs_golden", "single-port+techniques", 0,
                    params.dcache.cache.sets(),
                    params.dcache.cache.lineBytes);
    obs::Probe probe(&tracer, nullptr);
    core.setProbe(&probe);
    Cycle cycles = core.run();
    tracer.endRun(cycles, core.committedInsts(), core.ipc(),
                  Json::object());
    return sink.text();
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

TEST(ObsGolden, TraceMatchesCommittedReference)
{
    const std::string path =
        std::string(CPE_GOLDEN_DIR) + "/obs_trace.jsonl";
    std::string trace = runGoldenTrace();

    if (std::getenv("CPE_REGEN_GOLDEN")) {
        std::ofstream out(path);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << trace;
        GTEST_SKIP() << "regenerated " << path;
    }

    std::ifstream in(path);
    ASSERT_TRUE(in) << "missing golden file " << path
                    << " (generate with CPE_REGEN_GOLDEN=1)";
    std::stringstream buffer;
    buffer << in.rdbuf();

    std::vector<std::string> expected = splitLines(buffer.str());
    std::vector<std::string> actual = splitLines(trace);
    ASSERT_EQ(expected.size(), actual.size())
        << "trace length changed; regenerate the golden file if "
           "intentional";

    for (std::size_t i = 0; i < expected.size(); ++i) {
        Json want = Json::parse(expected[i], "golden line");
        Json got = Json::parse(actual[i], "trace line");
        // Field-by-field: every expected member, exactly, both ways.
        for (const auto &[key, value] : want.members()) {
            const Json *member = got.find(key);
            ASSERT_TRUE(member)
                << "line " << i + 1 << ": missing field '" << key << "'";
            EXPECT_EQ(member->dump(), value.dump())
                << "line " << i + 1 << ": field '" << key << "'";
        }
        for (const auto &[key, value] : got.members())
            EXPECT_TRUE(want.find(key))
                << "line " << i + 1 << ": unexpected field '" << key
                << "' = " << value.dump();
    }
}

TEST(ObsGolden, GoldenRunIsDeterministic)
{
    EXPECT_EQ(runGoldenTrace(), runGoldenTrace());
}

} // namespace
} // namespace cpe::cpu
