/**
 * @file
 * Trace-file tests: write/read round trip, field fidelity, and —
 * the strong property — cycle-exact equivalence between a timing run
 * driven live by the executor and one replayed from the file.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "cpu/ooo_core.hh"
#include "func/executor.hh"
#include "func/trace_file.hh"
#include "workload/registry.hh"
#include "util/error.hh"

#include "expect_error.hh"

namespace cpe::func {
namespace {

/** Temp path helper; removed in the destructor. */
struct TempFile
{
    std::string path;
    explicit TempFile(const std::string &name)
        : path(std::string(::testing::TempDir()) + name)
    {
    }
    ~TempFile() { std::remove(path.c_str()); }
};

prog::Program
sampleProgram()
{
    workload::WorkloadOptions options;
    options.osLevel = 1;  // include kernel-mode records
    return workload::WorkloadRegistry::instance().build("histogram",
                                                        options);
}

TEST(TraceFile, RoundTripsEveryField)
{
    TempFile file("cpe_roundtrip.trace");
    prog::Program program = sampleProgram();

    Executor writer_exec(program);
    std::uint64_t written = writeTrace(writer_exec, file.path, 5000);
    ASSERT_EQ(written, 5000u);

    Executor golden(program);
    auto expected = recordTrace(golden, 5000);

    FileTraceSource reader(file.path);
    EXPECT_EQ(reader.recordCount(), 5000u);
    DynInst inst;
    for (const auto &want : expected) {
        ASSERT_TRUE(reader.next(inst));
        EXPECT_EQ(inst.seq, want.seq);
        EXPECT_EQ(inst.pc, want.pc);
        EXPECT_EQ(inst.inst, want.inst);
        EXPECT_EQ(inst.cls, want.cls);
        EXPECT_EQ(inst.memAddr, want.memAddr);
        EXPECT_EQ(inst.memSize, want.memSize);
        EXPECT_EQ(inst.nextPc, want.nextPc);
        EXPECT_EQ(inst.taken, want.taken);
        EXPECT_EQ(inst.kernelMode, want.kernelMode);
    }
    EXPECT_FALSE(reader.next(inst));
}

TEST(TraceFile, WholeProgramCapture)
{
    TempFile file("cpe_whole.trace");
    prog::Program program = sampleProgram();
    Executor exec(program);
    std::uint64_t written = writeTrace(exec, file.path);

    Executor counter(program);
    EXPECT_EQ(written, counter.run());
}

TEST(TraceFile, ReplayedTimingRunIsCycleExact)
{
    TempFile file("cpe_replay.trace");
    prog::Program program = sampleProgram();
    Executor writer_exec(program);
    writeTrace(writer_exec, file.path);

    auto run = [&](TraceSource &source) {
        cpu::CoreParams params;
        params.dcache.tech =
            core::PortTechConfig::singlePortAllTechniques();
        mem::MemHierarchy hierarchy(mem::L2Params{}, mem::DramParams{});
        cpu::OooCore core(params, &source, &hierarchy);
        Cycle cycles = core.run();
        return std::make_pair(cycles, core.committedInsts());
    };

    Executor live(program);
    auto from_live = run(live);
    FileTraceSource replay(file.path);
    auto from_file = run(replay);

    EXPECT_EQ(from_live.first, from_file.first)
        << "trace replay must be cycle-exact";
    EXPECT_EQ(from_live.second, from_file.second);
}

TEST(TraceFile, MissingFileThrowsIoError)
{
    CPE_EXPECT_THROW_MSG(FileTraceSource("/nonexistent/trace.bin"),
                         IoError, "cannot open");
}

TEST(TraceFile, UnwritablePathThrowsIoError)
{
    prog::Program program = sampleProgram();
    Executor exec(program);
    CPE_EXPECT_THROW_MSG(
        writeTrace(exec, "/nonexistent-dir/trace.cpet", 10), IoError,
        "cannot create");
}

TEST(TraceFile, ReadTraceMatchesStreamingReader)
{
    TempFile file("cpe_readtrace.trace");
    prog::Program program = sampleProgram();
    Executor exec(program);
    writeTrace(exec, file.path, 2000);

    CapturedTrace whole = readTrace(file.path);
    ASSERT_EQ(whole.size(), 2000u);
    FileTraceSource reader(file.path);
    DynInst inst;
    for (std::size_t i = 0; i < whole.size(); ++i) {
        ASSERT_TRUE(reader.next(inst));
        EXPECT_EQ(inst.seq, whole[i].seq);
        EXPECT_EQ(inst.pc, whole[i].pc);
    }
}

TEST(TraceFile, TruncatedFileThrowsIoError)
{
    TempFile file("cpe_truncated.trace");
    prog::Program program = sampleProgram();
    Executor exec(program);
    writeTrace(exec, file.path, 100);

    // Chop the last record in half: the header still promises 100.
    auto size = std::filesystem::file_size(file.path);
    std::filesystem::resize_file(file.path, size - 20);
    CPE_EXPECT_THROW_MSG(readTrace(file.path), IoError, "truncated");
}

TEST(TraceFile, RejectsGarbage)
{
    TempFile file("cpe_garbage.trace");
    std::FILE *f = std::fopen(file.path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("this is not a trace", f);
    std::fclose(f);
    CPE_EXPECT_THROW_MSG(FileTraceSource{file.path}, IoError,
                         "not a CPET trace");
}

} // namespace
} // namespace cpe::func
