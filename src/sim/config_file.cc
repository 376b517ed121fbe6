#include "sim/config_file.hh"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <utility>

namespace cpe::sim {

namespace {

std::string
trim(const std::string &text)
{
    std::size_t first = text.find_first_not_of(" \t\r");
    if (first == std::string::npos)
        return "";
    std::size_t last = text.find_last_not_of(" \t\r");
    return text.substr(first, last - first + 1);
}

/** Parser context: destination config + error reporting. */
struct Ctx
{
    SimConfig config = SimConfig::defaults();
    std::string error;

    bool
    fail(const std::string &message)
    {
        if (error.empty())
            error = message;
        return false;
    }
};

bool
parseU64(const std::string &value, std::uint64_t &out)
{
    const char *begin = value.c_str();
    char *end = nullptr;
    errno = 0;
    unsigned long long parsed = std::strtoull(begin, &end, 0);
    if (end == begin || *end != '\0' || errno == ERANGE)
        return false;
    out = parsed;
    return true;
}

bool
parseF64(const std::string &value, double &out)
{
    const char *begin = value.c_str();
    char *end = nullptr;
    errno = 0;
    double parsed = std::strtod(begin, &end);
    if (end == begin || *end != '\0' || errno == ERANGE)
        return false;
    out = parsed;
    return true;
}

bool
parseBool(const std::string &value, bool &out)
{
    if (value == "true" || value == "1" || value == "yes") {
        out = true;
        return true;
    }
    if (value == "false" || value == "0" || value == "no") {
        out = false;
        return true;
    }
    return false;
}

/** One settable key. */
using Setter =
    std::function<bool(Ctx &, const std::string &value)>;

/** Helper: numeric setter into any integral field. */
template <typename T, typename Field>
Setter
num(Field field)
{
    return [field](Ctx &ctx, const std::string &value) {
        std::uint64_t parsed;
        if (!parseU64(value, parsed))
            return ctx.fail("expected a number, got '" + value + "'");
        *field(ctx.config) = static_cast<T>(parsed);
        return true;
    };
}

/** Helper: boolean setter. */
template <typename Field>
Setter
boolean(Field field)
{
    return [field](Ctx &ctx, const std::string &value) {
        bool parsed;
        if (!parseBool(value, parsed))
            return ctx.fail("expected true/false, got '" + value + "'");
        *field(ctx.config) = parsed;
        return true;
    };
}

#define FIELD(type, expr)                                                  \
    [](SimConfig &c) -> type * { return &(expr); }

/** The functional-unit classes, in machine-file order. */
constexpr std::pair<const char *, cpu::FuDesc cpu::FuPoolParams::*>
    FuClasses[] = {
        {"int_alu", &cpu::FuPoolParams::intAlu},
        {"int_mul", &cpu::FuPoolParams::intMul},
        {"int_div", &cpu::FuPoolParams::intDiv},
        {"fp_add", &cpu::FuPoolParams::fpAdd},
        {"fp_mul", &cpu::FuPoolParams::fpMul},
        {"fp_div", &cpu::FuPoolParams::fpDiv},
        {"mem_agu", &cpu::FuPoolParams::memAgu},
};

/** [fu]: `<class>`, `<class>_latency` and `<class>_pipelined` keys. */
std::map<std::string, Setter>
fuKeys()
{
    std::map<std::string, Setter> keys;
    for (const auto &[name, unit] : FuClasses) {
        auto desc = [unit](SimConfig &c) -> cpu::FuDesc & {
            return c.core.fu.*unit;
        };
        keys[name] = num<unsigned>(
            [desc](SimConfig &c) { return &desc(c).count; });
        keys[std::string(name) + "_latency"] = num<unsigned>(
            [desc](SimConfig &c) { return &desc(c).latency; });
        keys[std::string(name) + "_pipelined"] =
            boolean([desc](SimConfig &c) { return &desc(c).pipelined; });
    }
    return keys;
}

const std::map<std::string, std::map<std::string, Setter>> &
keyTable()
{
    static const std::map<std::string, std::map<std::string, Setter>>
        table = {
            {"",  // top level
             {
                 {"workload",
                  [](Ctx &ctx, const std::string &value) {
                      ctx.config.workloadName = value;
                      return true;
                  }},
                 {"os_level", num<unsigned>(FIELD(
                                  unsigned, c.workload.osLevel))},
                 {"scale",
                  num<unsigned>(FIELD(unsigned, c.workload.scale))},
                 {"seed", num<std::uint64_t>(FIELD(
                              std::uint64_t, c.workload.seed))},
                 {"warmup_insts", num<std::uint64_t>(FIELD(
                                      std::uint64_t, c.warmupInsts))},
                 {"label",
                  [](Ctx &ctx, const std::string &value) {
                      ctx.config.label = value;
                      return true;
                  }},
             }},
            {"core",
             {
                 {"issue_width",
                  num<unsigned>(FIELD(unsigned, c.core.issueWidth))},
                 {"rename_width",
                  num<unsigned>(FIELD(unsigned, c.core.renameWidth))},
                 {"commit_width",
                  num<unsigned>(FIELD(unsigned, c.core.commitWidth))},
                 {"fetch_width", num<unsigned>(FIELD(
                                     unsigned, c.core.fetch.fetchWidth))},
                 {"fetch_queue",
                  num<std::size_t>(FIELD(std::size_t,
                                         c.core.fetch.queueCapacity))},
                 {"rob",
                  num<std::size_t>(FIELD(std::size_t, c.core.robSize))},
                 {"iq",
                  num<std::size_t>(FIELD(std::size_t, c.core.iqSize))},
                 {"lq", num<unsigned>(FIELD(unsigned,
                                            c.core.lsq.loadEntries))},
                 {"sq", num<unsigned>(FIELD(unsigned,
                                            c.core.lsq.storeEntries))},
                 {"decode_latency",
                  num<unsigned>(FIELD(unsigned, c.core.decodeLatency))},
                 {"redirect_penalty",
                  num<unsigned>(FIELD(unsigned,
                                      c.core.fetch.redirectPenalty))},
                 {"wrong_path_ifetch",
                  boolean(FIELD(bool,
                                c.core.fetch.modelWrongPathIFetch))},
                 {"max_cycles",
                  num<Cycle>(FIELD(Cycle, c.core.maxCycles))},
                 {"no_commit_limit",
                  num<Cycle>(FIELD(Cycle,
                                   c.core.noCommitCycleLimit))},
             }},
            {"fu", fuKeys()},
            {"bpred",
             {
                 {"kind",
                  [](Ctx &ctx, const std::string &value) {
                      auto &kind = ctx.config.core.bpred.kind;
                      if (value == "gshare")
                          kind = cpu::PredictorKind::GShare;
                      else if (value == "bimodal")
                          kind = cpu::PredictorKind::Bimodal;
                      else if (value == "local")
                          kind = cpu::PredictorKind::Local;
                      else if (value == "not_taken")
                          kind = cpu::PredictorKind::AlwaysNotTaken;
                      else
                          return ctx.fail("unknown predictor '" + value +
                                          "'");
                      return true;
                  }},
                 {"table_entries",
                  num<std::size_t>(FIELD(std::size_t,
                                         c.core.bpred.tableEntries))},
                 {"history_bits",
                  num<unsigned>(FIELD(unsigned,
                                      c.core.bpred.historyBits))},
                 {"btb_entries",
                  num<std::size_t>(FIELD(std::size_t,
                                         c.core.bpred.btbEntries))},
                 {"btb_assoc",
                  num<unsigned>(FIELD(unsigned, c.core.bpred.btbAssoc))},
                 {"local_histories",
                  num<std::size_t>(FIELD(std::size_t,
                                         c.core.bpred.localHistories))},
                 {"ras", num<std::size_t>(FIELD(
                             std::size_t, c.core.bpred.rasEntries))},
             }},
            {"l1d",
             {
                 {"size_kib",
                  [](Ctx &ctx, const std::string &value) {
                      std::uint64_t kib;
                      if (!parseU64(value, kib))
                          return ctx.fail("bad size '" + value + "'");
                      ctx.config.core.dcache.cache.sizeBytes =
                          kib * 1024;
                      return true;
                  }},
                 {"assoc", num<unsigned>(FIELD(
                               unsigned, c.core.dcache.cache.assoc))},
                 {"line", num<unsigned>(FIELD(
                              unsigned, c.core.dcache.cache.lineBytes))},
                 {"hit_latency",
                  num<unsigned>(FIELD(unsigned,
                                      c.core.dcache.hitLatency))},
                 {"mshrs",
                  num<unsigned>(FIELD(unsigned, c.core.dcache.mshrs))},
                 {"mshr_targets",
                  num<unsigned>(FIELD(unsigned,
                                      c.core.dcache.mshrTargets))},
                 {"victim_entries",
                  num<unsigned>(FIELD(unsigned,
                                      c.core.dcache.victimEntries))},
                 {"prefetch_next_line",
                  boolean(FIELD(bool,
                                c.core.dcache.nextLinePrefetch))},
             }},
            {"l1i",
             {
                 {"size_kib",
                  [](Ctx &ctx, const std::string &value) {
                      std::uint64_t kib;
                      if (!parseU64(value, kib))
                          return ctx.fail("bad size '" + value + "'");
                      ctx.config.core.fetch.icache.sizeBytes =
                          kib * 1024;
                      return true;
                  }},
                 {"assoc",
                  num<unsigned>(FIELD(unsigned,
                                      c.core.fetch.icache.assoc))},
             }},
            {"tech",
             {
                 {"ports", num<unsigned>(FIELD(
                               unsigned, c.core.dcache.tech.ports))},
                 {"width",
                  num<unsigned>(FIELD(
                      unsigned, c.core.dcache.tech.portWidthBytes))},
                 {"banks", num<unsigned>(FIELD(
                               unsigned, c.core.dcache.tech.banks))},
                 {"bank_interleave",
                  num<unsigned>(FIELD(
                      unsigned, c.core.dcache.tech.bankInterleaveBytes))},
                 {"store_buffer",
                  num<unsigned>(FIELD(
                      unsigned, c.core.dcache.tech.storeBufferEntries))},
                 {"combining",
                  boolean(FIELD(bool,
                                c.core.dcache.tech.storeCombining))},
                 {"drain",
                  [](Ctx &ctx, const std::string &value) {
                      auto &policy =
                          ctx.config.core.dcache.tech.drainPolicy;
                      if (value == "idle")
                          policy = core::DrainPolicy::IdleOnly;
                      else if (value == "eager")
                          policy = core::DrainPolicy::Eager;
                      else if (value == "threshold")
                          policy = core::DrainPolicy::Threshold;
                      else
                          return ctx.fail("unknown drain policy '" +
                                          value + "'");
                      return true;
                  }},
                 {"drain_threshold",
                  num<unsigned>(FIELD(
                      unsigned, c.core.dcache.tech.drainThreshold))},
                 {"line_buffers",
                  num<unsigned>(FIELD(
                      unsigned, c.core.dcache.tech.lineBuffers))},
                 {"line_buffer_write",
                  [](Ctx &ctx, const std::string &value) {
                      auto &policy =
                          ctx.config.core.dcache.tech.lineBufferWrite;
                      if (value == "patch")
                          policy = core::LineBufferWritePolicy::Update;
                      else if (value == "invalidate")
                          policy =
                              core::LineBufferWritePolicy::Invalidate;
                      else
                          return ctx.fail("unknown write policy '" +
                                          value + "'");
                      return true;
                  }},
                 {"flush_on_mode_switch",
                  boolean(FIELD(
                      bool,
                      c.core.dcache.tech.flushLineBuffersOnModeSwitch))},
                 {"fill",
                  [](Ctx &ctx, const std::string &value) {
                      auto &policy =
                          ctx.config.core.dcache.tech.fillPolicy;
                      if (value == "steal")
                          policy = core::FillPolicy::StealPort;
                      else if (value == "dedicated")
                          policy = core::FillPolicy::DedicatedFillPort;
                      else
                          return ctx.fail("unknown fill policy '" +
                                          value + "'");
                      return true;
                  }},
                 {"fill_cycles",
                  num<unsigned>(FIELD(
                      unsigned,
                      c.core.dcache.tech.fillOccupancyCycles))},
             }},
            {"l2",
             {
                 {"size_kib",
                  [](Ctx &ctx, const std::string &value) {
                      std::uint64_t kib;
                      if (!parseU64(value, kib))
                          return ctx.fail("bad size '" + value + "'");
                      ctx.config.l2.cache.sizeBytes = kib * 1024;
                      return true;
                  }},
                 {"assoc",
                  num<unsigned>(FIELD(unsigned, c.l2.cache.assoc))},
                 {"hit_latency",
                  num<unsigned>(FIELD(unsigned, c.l2.hitLatency))},
                 {"cycles_per_access",
                  num<unsigned>(FIELD(unsigned, c.l2.cyclesPerAccess))},
             }},
            {"dram",
             {
                 {"latency",
                  num<unsigned>(FIELD(unsigned, c.dram.latency))},
                 {"cycles_per_line",
                  num<unsigned>(FIELD(unsigned, c.dram.cyclesPerLine))},
             }},
            {"obs",
             {
                 {"sample_cycles",
                  num<Cycle>(FIELD(Cycle, c.obs.sampleCycles))},
                 {"profile",
                  num<unsigned>(FIELD(unsigned, c.obs.profileTop))},
             }},
            {"sample",
             {
                 {"mode",
                  [](Ctx &ctx, const std::string &value) {
                      auto &mode = ctx.config.sample.mode;
                      if (value == "off")
                          mode = SampleParams::Mode::Off;
                      else if (value == "periodic")
                          mode = SampleParams::Mode::Periodic;
                      else if (value == "fixed")
                          mode = SampleParams::Mode::Fixed;
                      else
                          return ctx.fail(
                              "sample mode '" + value +
                              "' is not one of off, periodic, fixed");
                      return true;
                  }},
                 {"measure_insts",
                  num<std::uint64_t>(FIELD(
                      std::uint64_t, c.sample.measureInsts))},
                 {"warmup_insts",
                  num<std::uint64_t>(FIELD(std::uint64_t,
                                           c.sample.warmupInsts))},
                 {"period_insts",
                  num<std::uint64_t>(FIELD(std::uint64_t,
                                           c.sample.periodInsts))},
                 {"intervals",
                  num<std::uint64_t>(FIELD(std::uint64_t,
                                           c.sample.intervals))},
                 {"confidence",
                  [](Ctx &ctx, const std::string &value) {
                      double parsed;
                      if (!parseF64(value, parsed))
                          return ctx.fail("expected a number, got '" +
                                          value + "'");
                      ctx.config.sample.confidence = parsed;
                      return true;
                  }},
             }},
            {"chaos",
             {
                 {"seed", num<std::uint64_t>(FIELD(
                              std::uint64_t, c.chaos.seed))},
                 {"rate",
                  [](Ctx &ctx, const std::string &value) {
                      double parsed;
                      if (!parseF64(value, parsed))
                          return ctx.fail("expected a number, got '" +
                                          value + "'");
                      if (parsed < 0.0 || parsed > 1.0)
                          return ctx.fail("chaos rate " + value +
                                          " is outside [0, 1]");
                      ctx.config.chaos.rate = parsed;
                      return true;
                  }},
                 {"point",
                  [](Ctx &ctx, const std::string &value) {
                      ctx.config.chaos.points = value;
                      return true;
                  }},
             }},
        };
    return table;
}

#undef FIELD

} // namespace

ConfigParseResult
parseConfig(const std::string &source)
{
    ConfigParseResult result;
    Ctx ctx;
    std::string section;

    std::istringstream stream(source);
    std::string raw;
    unsigned line_no = 0;
    while (std::getline(stream, raw)) {
        ++line_no;
        for (const char mark : {'#', ';'}) {
            std::size_t pos = raw.find(mark);
            if (pos != std::string::npos)
                raw = raw.substr(0, pos);
        }
        std::string line = trim(raw);
        if (line.empty())
            continue;

        auto err = [&](const std::string &message) {
            result.error =
                "line " + std::to_string(line_no) + ": " + message;
            return result;
        };

        if (line.front() == '[') {
            if (line.back() != ']')
                return err("unterminated section header");
            section = trim(line.substr(1, line.size() - 2));
            if (!keyTable().count(section))
                return err("unknown section [" + section + "]");
            continue;
        }

        std::size_t eq = line.find('=');
        if (eq == std::string::npos)
            return err("expected key = value");
        std::string key = trim(line.substr(0, eq));
        std::string value = trim(line.substr(eq + 1));

        const auto &sections = keyTable();
        const auto &keys = sections.at(section);
        auto it = keys.find(key);
        if (it == keys.end()) {
            return err("unknown key '" + key + "' in section [" +
                       section + "]");
        }
        if (!it->second(ctx, value))
            return err(ctx.error);
    }

    result.ok = true;
    result.config = ctx.config;
    return result;
}

std::string
toMachineFile(const SimConfig &config)
{
    std::ostringstream out;
    out << "# cpesim machine file (generated by toMachineFile)\n";
    out << "workload = " << config.workloadName << "\n";
    out << "os_level = " << config.workload.osLevel << "\n";
    out << "scale = " << config.workload.scale << "\n";
    out << "seed = " << config.workload.seed << "\n";
    out << "warmup_insts = " << config.warmupInsts << "\n";
    if (!config.label.empty())
        out << "label = " << config.label << "\n";

    const auto &core = config.core;
    out << "\n[core]\n";
    out << "issue_width = " << core.issueWidth << "\n";
    out << "rename_width = " << core.renameWidth << "\n";
    out << "commit_width = " << core.commitWidth << "\n";
    out << "fetch_width = " << core.fetch.fetchWidth << "\n";
    out << "fetch_queue = " << core.fetch.queueCapacity << "\n";
    out << "rob = " << core.robSize << "\n";
    out << "iq = " << core.iqSize << "\n";
    out << "lq = " << core.lsq.loadEntries << "\n";
    out << "sq = " << core.lsq.storeEntries << "\n";
    out << "decode_latency = " << core.decodeLatency << "\n";
    out << "redirect_penalty = " << core.fetch.redirectPenalty << "\n";
    out << "wrong_path_ifetch = "
        << (core.fetch.modelWrongPathIFetch ? "true" : "false") << "\n";
    out << "max_cycles = " << core.maxCycles << "\n";
    out << "no_commit_limit = " << core.noCommitCycleLimit << "\n";

    out << "\n[fu]\n";
    for (const auto &[name, unit] : FuClasses) {
        const cpu::FuDesc &desc = core.fu.*unit;
        out << name << " = " << desc.count << "\n";
        out << name << "_latency = " << desc.latency << "\n";
        out << name << "_pipelined = "
            << (desc.pipelined ? "true" : "false") << "\n";
    }

    out << "\n[bpred]\n";
    const char *kind = "gshare";
    switch (core.bpred.kind) {
      case cpu::PredictorKind::GShare: kind = "gshare"; break;
      case cpu::PredictorKind::Bimodal: kind = "bimodal"; break;
      case cpu::PredictorKind::Local: kind = "local"; break;
      case cpu::PredictorKind::AlwaysNotTaken: kind = "not_taken"; break;
    }
    out << "kind = " << kind << "\n";
    out << "table_entries = " << core.bpred.tableEntries << "\n";
    out << "history_bits = " << core.bpred.historyBits << "\n";
    out << "btb_entries = " << core.bpred.btbEntries << "\n";
    out << "btb_assoc = " << core.bpred.btbAssoc << "\n";
    out << "local_histories = " << core.bpred.localHistories << "\n";
    out << "ras = " << core.bpred.rasEntries << "\n";

    out << "\n[l1d]\n";
    out << "size_kib = " << core.dcache.cache.sizeBytes / 1024 << "\n";
    out << "assoc = " << core.dcache.cache.assoc << "\n";
    out << "line = " << core.dcache.cache.lineBytes << "\n";
    out << "hit_latency = " << core.dcache.hitLatency << "\n";
    out << "mshrs = " << core.dcache.mshrs << "\n";
    out << "mshr_targets = " << core.dcache.mshrTargets << "\n";
    out << "victim_entries = " << core.dcache.victimEntries << "\n";
    out << "prefetch_next_line = "
        << (core.dcache.nextLinePrefetch ? "true" : "false") << "\n";

    out << "\n[l1i]\n";
    out << "size_kib = " << core.fetch.icache.sizeBytes / 1024 << "\n";
    out << "assoc = " << core.fetch.icache.assoc << "\n";

    const auto &tech = core.dcache.tech;
    out << "\n[tech]\n";
    out << "ports = " << tech.ports << "\n";
    out << "width = " << tech.portWidthBytes << "\n";
    out << "banks = " << tech.banks << "\n";
    out << "bank_interleave = " << tech.bankInterleaveBytes << "\n";
    out << "store_buffer = " << tech.storeBufferEntries << "\n";
    out << "combining = " << (tech.storeCombining ? "true" : "false")
        << "\n";
    const char *drain = "idle";
    switch (tech.drainPolicy) {
      case core::DrainPolicy::IdleOnly: drain = "idle"; break;
      case core::DrainPolicy::Eager: drain = "eager"; break;
      case core::DrainPolicy::Threshold: drain = "threshold"; break;
    }
    out << "drain = " << drain << "\n";
    out << "drain_threshold = " << tech.drainThreshold << "\n";
    out << "line_buffers = " << tech.lineBuffers << "\n";
    out << "line_buffer_write = "
        << (tech.lineBufferWrite == core::LineBufferWritePolicy::Update
                ? "patch"
                : "invalidate")
        << "\n";
    out << "flush_on_mode_switch = "
        << (tech.flushLineBuffersOnModeSwitch ? "true" : "false")
        << "\n";
    out << "fill = "
        << (tech.fillPolicy == core::FillPolicy::StealPort
                ? "steal"
                : "dedicated")
        << "\n";
    out << "fill_cycles = " << tech.fillOccupancyCycles << "\n";

    out << "\n[l2]\n";
    out << "size_kib = " << config.l2.cache.sizeBytes / 1024 << "\n";
    out << "assoc = " << config.l2.cache.assoc << "\n";
    out << "hit_latency = " << config.l2.hitLatency << "\n";
    out << "cycles_per_access = " << config.l2.cyclesPerAccess << "\n";

    out << "\n[dram]\n";
    out << "latency = " << config.dram.latency << "\n";
    out << "cycles_per_line = " << config.dram.cyclesPerLine << "\n";

    out << "\n[obs]\n";
    out << "sample_cycles = " << config.obs.sampleCycles << "\n";
    out << "profile = " << config.obs.profileTop << "\n";

    out << "\n[sample]\n";
    out << "mode = " << SampleParams::modeName(config.sample.mode)
        << "\n";
    out << "measure_insts = " << config.sample.measureInsts << "\n";
    out << "warmup_insts = " << config.sample.warmupInsts << "\n";
    out << "period_insts = " << config.sample.periodInsts << "\n";
    out << "intervals = " << config.sample.intervals << "\n";
    out << "confidence = " << config.sample.confidence << "\n";

    // Emitted only when armed: the disarmed default stays absent, so
    // pre-chaos machine files (and every result-store key derived from
    // this text) are byte-identical to before the section existed.
    if (config.chaos.enabled()) {
        out << "\n[chaos]\n";
        out << "seed = " << config.chaos.seed << "\n";
        char rate[64];
        auto end = std::to_chars(rate, rate + sizeof(rate),
                                 config.chaos.rate);
        out << "rate = " << std::string(rate, end.ptr) << "\n";
        out << "point = " << config.chaos.points << "\n";
    }
    return out.str();
}

ConfigParseResult
loadConfigFile(const std::string &path)
{
    std::ifstream file(path);
    if (!file) {
        ConfigParseResult result;
        result.error = "cannot open '" + path + "'";
        return result;
    }
    std::stringstream buffer;
    buffer << file.rdbuf();
    return parseConfig(buffer.str());
}

} // namespace cpe::sim
