/**
 * @file
 * Machine-file parser tests: key coverage across every section,
 * defaults preservation, comment handling, and strict error reporting
 * for typos.
 */

#include <gtest/gtest.h>

#include "sim/config_file.hh"
#include "sim/result_store.hh"
#include "sim/simulator.hh"

namespace cpe::sim {
namespace {

TEST(ConfigFile, EmptyFileYieldsDefaults)
{
    auto parsed = parseConfig("");
    ASSERT_TRUE(parsed) << parsed.error;
    SimConfig defaults = SimConfig::defaults();
    EXPECT_EQ(parsed.config.workloadName, defaults.workloadName);
    EXPECT_EQ(parsed.config.core.issueWidth, defaults.core.issueWidth);
    EXPECT_EQ(parsed.config.tech().ports, defaults.tech().ports);
}

TEST(ConfigFile, FullMachineDescription)
{
    auto parsed = parseConfig(R"(
# The paper's headline configuration, as a machine file.
workload = copy
os_level = 1
scale = 2
seed = 7
warmup_insts = 1000
label = headline

[core]
issue_width = 8
rename_width = 8
commit_width = 8
fetch_width = 8
rob = 128
iq = 64
lq = 32
sq = 32
decode_latency = 3
redirect_penalty = 4

[bpred]
kind = bimodal
table_entries = 1024
btb_entries = 256
ras = 16

[l1d]
size_kib = 32
assoc = 4
line = 32
hit_latency = 2
mshrs = 16
victim_entries = 4
prefetch_next_line = true

[l1i]
size_kib = 32
assoc = 1

[tech]
ports = 1
width = 32
banks = 2
store_buffer = 8
combining = true
drain = threshold
drain_threshold = 6
line_buffers = 4
line_buffer_write = invalidate
flush_on_mode_switch = false
fill = dedicated
fill_cycles = 3

[l2]
size_kib = 1024
assoc = 8
hit_latency = 10

[dram]
latency = 80
cycles_per_line = 8
    )");
    ASSERT_TRUE(parsed) << parsed.error;
    const SimConfig &config = parsed.config;

    EXPECT_EQ(config.workloadName, "copy");
    EXPECT_EQ(config.workload.osLevel, 1u);
    EXPECT_EQ(config.workload.scale, 2u);
    EXPECT_EQ(config.workload.seed, 7u);
    EXPECT_EQ(config.warmupInsts, 1000u);
    EXPECT_EQ(config.label, "headline");

    EXPECT_EQ(config.core.issueWidth, 8u);
    EXPECT_EQ(config.core.robSize, 128u);
    EXPECT_EQ(config.core.lsq.loadEntries, 32u);
    EXPECT_EQ(config.core.decodeLatency, 3u);
    EXPECT_EQ(config.core.fetch.redirectPenalty, 4u);

    EXPECT_EQ(config.core.bpred.kind, cpu::PredictorKind::Bimodal);
    EXPECT_EQ(config.core.bpred.rasEntries, 16u);

    EXPECT_EQ(config.core.dcache.cache.sizeBytes, 32u * 1024);
    EXPECT_EQ(config.core.dcache.cache.assoc, 4u);
    EXPECT_EQ(config.core.dcache.hitLatency, 2u);
    EXPECT_EQ(config.core.dcache.victimEntries, 4u);
    EXPECT_TRUE(config.core.dcache.nextLinePrefetch);
    EXPECT_EQ(config.core.fetch.icache.sizeBytes, 32u * 1024);
    EXPECT_EQ(config.core.fetch.icache.assoc, 1u);

    EXPECT_EQ(config.tech().ports, 1u);
    EXPECT_EQ(config.tech().portWidthBytes, 32u);
    EXPECT_EQ(config.tech().banks, 2u);
    EXPECT_EQ(config.tech().storeBufferEntries, 8u);
    EXPECT_EQ(config.tech().drainPolicy, core::DrainPolicy::Threshold);
    EXPECT_EQ(config.tech().drainThreshold, 6u);
    EXPECT_EQ(config.tech().lineBufferWrite,
              core::LineBufferWritePolicy::Invalidate);
    EXPECT_FALSE(config.tech().flushLineBuffersOnModeSwitch);
    EXPECT_EQ(config.tech().fillPolicy,
              core::FillPolicy::DedicatedFillPort);
    EXPECT_EQ(config.tech().fillOccupancyCycles, 3u);

    EXPECT_EQ(config.l2.cache.sizeBytes, 1024u * 1024);
    EXPECT_EQ(config.dram.latency, 80u);
    EXPECT_EQ(config.dram.cyclesPerLine, 8u);
}

TEST(ConfigFile, ParsedConfigActuallySimulates)
{
    setVerbose(false);
    auto parsed = parseConfig(R"(
workload = crc
[tech]
ports = 2
    )");
    ASSERT_TRUE(parsed) << parsed.error;
    auto result = simulate(parsed.config);
    EXPECT_EQ(result.workload, "crc");
    EXPECT_GT(result.insts, 0u);

    // And it matches the equivalent C++-built configuration exactly.
    auto direct = simulate("crc", core::PortTechConfig::dualPortBase());
    EXPECT_EQ(result.cycles, direct.cycles);
}

TEST(ConfigFile, CommentsAndWhitespace)
{
    auto parsed = parseConfig(
        "  workload = sort   # trailing\n; full-line\n\n[tech]\n"
        "ports=2\n");
    ASSERT_TRUE(parsed) << parsed.error;
    EXPECT_EQ(parsed.config.workloadName, "sort");
    EXPECT_EQ(parsed.config.tech().ports, 2u);
}

TEST(ConfigFile, UnknownSectionIsAnError)
{
    auto parsed = parseConfig("[cachez]\nsize_kib = 16\n");
    EXPECT_FALSE(parsed);
    EXPECT_NE(parsed.error.find("unknown section"), std::string::npos);
    EXPECT_NE(parsed.error.find("line 1"), std::string::npos);
}

TEST(ConfigFile, UnknownKeyIsAnError)
{
    auto parsed = parseConfig("[tech]\nportz = 2\n");
    EXPECT_FALSE(parsed);
    EXPECT_NE(parsed.error.find("portz"), std::string::npos);
    EXPECT_NE(parsed.error.find("line 2"), std::string::npos);
}

TEST(ConfigFile, BadValuesAreErrors)
{
    EXPECT_FALSE(parseConfig("[tech]\nports = many\n"));
    EXPECT_FALSE(parseConfig("[tech]\ncombining = maybe\n"));
    EXPECT_FALSE(parseConfig("[tech]\ndrain = sometimes\n"));
    EXPECT_FALSE(parseConfig("[bpred]\nkind = psychic\n"));
    EXPECT_FALSE(parseConfig("just some text\n"));
    EXPECT_FALSE(parseConfig("[tech\nports = 1\n"));
}

TEST(ConfigFile, SerializationRoundTrips)
{
    // Build a thoroughly non-default config, serialize it, and parse
    // it back: the simulated behaviour must be identical (checked by
    // cycle-exact equality of a run).
    setVerbose(false);
    SimConfig config = SimConfig::defaults();
    config.workloadName = "histogram";
    config.workload.osLevel = 1;
    config.workload.seed = 99;
    config.label = "roundtrip";
    config.core.issueWidth = 2;
    config.core.renameWidth = 2;
    config.core.commitWidth = 2;
    config.core.fetch.fetchWidth = 2;
    config.core.robSize = 32;
    config.core.bpred.kind = cpu::PredictorKind::Local;
    config.core.dcache.cache.assoc = 4;
    config.core.dcache.victimEntries = 4;
    config.core.dcache.nextLinePrefetch = true;
    config.tech() = core::PortTechConfig::singlePortAllTechniques();
    config.tech().drainPolicy = core::DrainPolicy::Threshold;
    config.tech().banks = 2;
    config.l2.hitLatency = 12;
    config.dram.latency = 70;
    config.core.fu.intMul.latency = 5;
    config.core.fu.fpAdd.pipelined = false;
    config.core.bpred.btbAssoc = 2;
    config.core.bpred.localHistories = 512;
    config.core.dcache.mshrTargets = 4;
    config.tech().bankInterleaveBytes = 32;
    config.l2.cyclesPerAccess = 2;

    std::string text = toMachineFile(config);
    auto parsed = parseConfig(text);
    ASSERT_TRUE(parsed) << parsed.error << "\nfile was:\n" << text;
    EXPECT_EQ(toMachineFile(parsed.config), text);

    auto a = simulate(config);
    auto b = simulate(parsed.config);
    EXPECT_EQ(a.cycles, b.cycles) << text;
    EXPECT_EQ(a.insts, b.insts);
    EXPECT_EQ(parsed.config.label, "roundtrip");

    // F7's 8-wide dual-port machine scales the fetch queue and the
    // functional-unit pool too; the text must carry both, or the
    // reparsed machine is a different (slower) one.
    SimConfig wide = SimConfig::defaults();
    wide.workloadName = "matmul";
    wide.tech() = core::PortTechConfig::dualPortBase();
    wide.core.renameWidth = wide.core.issueWidth = wide.core.commitWidth = 8;
    wide.core.fetch.fetchWidth = 8;
    wide.core.robSize = 128;
    wide.core.iqSize = 64;
    wide.core.lsq.loadEntries = wide.core.lsq.storeEntries = 32;
    wide.core.fetch.queueCapacity = 32;
    wide.core.fu.intAlu.count = wide.core.fu.memAgu.count = 4;
    wide.core.fu.fpAdd.count = wide.core.fu.fpMul.count = 2;

    std::string wide_text = toMachineFile(wide);
    auto wide_parsed = parseConfig(wide_text);
    ASSERT_TRUE(wide_parsed) << wide_parsed.error;
    EXPECT_EQ(toMachineFile(wide_parsed.config), wide_text);
    EXPECT_EQ(simulate(wide).cycles, simulate(wide_parsed.config).cycles)
        << wide_text;

    // Two machines that differ only in multiplier latency are two
    // result-memo entries, not one.
    SimConfig slow_mul = SimConfig::defaults();
    slow_mul.workloadName = "matmul";
    SimConfig fast_mul = slow_mul;
    fast_mul.core.fu.intMul.latency = 1;
    EXPECT_NE(ResultStore::keyFor(slow_mul), ResultStore::keyFor(fast_mul));
    EXPECT_NE(simulate(slow_mul).cycles, simulate(fast_mul).cycles);
}

TEST(ConfigFile, MissingFileReportsError)
{
    auto parsed = loadConfigFile("/nonexistent/machine.ini");
    EXPECT_FALSE(parsed);
    EXPECT_NE(parsed.error.find("cannot open"), std::string::npos);
}

} // namespace
} // namespace cpe::sim
