#include "obs/profiler.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "util/bits.hh"
#include "util/table.hh"

namespace cpe::obs {

namespace {

std::uint64_t
jsonField(const Json &object, const std::string &name)
{
    const Json *value = object.find(name);
    return value ? static_cast<std::uint64_t>(value->asNumber()) : 0;
}

std::string
pcLabel(Addr pc)
{
    if (!pc)
        return "(machine)";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%" PRIx64, pc);
    return buf;
}

void
accumulate(PcCounters &into, const PcCounters &from)
{
    into.loads += from.loads;
    into.sbFwd += from.sbFwd;
    into.lbServed += from.lbServed;
    into.cacheHits += from.cacheHits;
    into.misses += from.misses;
    into.missMerged += from.missMerged;
    into.stores += from.stores;
    into.lbLookups += from.lbLookups;
    into.lbHits += from.lbHits;
    into.portGrants += from.portGrants;
    into.portConflicts += from.portConflicts;
    into.sbFullStalls += from.sbFullStalls;
    into.mshrWaits += from.mshrWaits;
    into.partialStalls += from.partialStalls;
    into.commitStallHead += from.commitStallHead;
    into.commitStallStore += from.commitStallStore;
    into.mshrAllocs += from.mshrAllocs;
}

/** Append one bucket's counters to @p out (zero members omitted). */
void
emitCounters(Json &out, const PcCounters &counters, bool keep_zero)
{
    auto put = [&out, keep_zero](const char *name, std::uint64_t value) {
        if (value || keep_zero)
            out[name] = value;
    };
    put("loads", counters.loads);
    put("sb_fwd", counters.sbFwd);
    put("lb_served", counters.lbServed);
    put("cache_hits", counters.cacheHits);
    put("misses", counters.misses);
    put("miss_merged", counters.missMerged);
    put("stores", counters.stores);
    put("lb_lookups", counters.lbLookups);
    put("lb_hits", counters.lbHits);
    put("port_grants", counters.portGrants);
    put("port_conflicts", counters.portConflicts);
    put("sb_full_stalls", counters.sbFullStalls);
    put("mshr_waits", counters.mshrWaits);
    put("partial_stalls", counters.partialStalls);
    put("commit_stall_head", counters.commitStallHead);
    put("commit_stall_store", counters.commitStallStore);
    put("mshr_allocs", counters.mshrAllocs);
    out["stall_cycles"] = counters.stallCycles();
}

} // namespace

Profiler::Profiler(unsigned sets, unsigned line_bytes)
    : sets_(sets), setShift_(floorLog2(line_bytes))
{
}

void
Profiler::reset()
{
    none_ = PcCounters{};
    pcs_.clear();
    std::fill(sets_.begin(), sets_.end(), SetCounters{});
    robEmptyCycles_ = 0;
    // The memoized bucket pointer dangles after clear(): forget it.
    curPc_ = 0;
    cur_ = &none_;
}

PcCounters
Profiler::totals() const
{
    PcCounters sum;
    accumulate(sum, none_);
    for (const auto &[pc, counters] : pcs_)
        accumulate(sum, counters);
    return sum;
}

const PcCounters *
Profiler::counters(Addr pc) const
{
    if (!pc)
        return &none_;
    auto it = pcs_.find(pc);
    return it == pcs_.end() ? nullptr : &it->second;
}

Json
Profiler::toJson(unsigned top_n) const
{
    // Rank active buckets: stall cycles first (the question the
    // profiler answers), then raw activity, then PC for determinism.
    std::vector<std::pair<Addr, const PcCounters *>> ranked;
    ranked.reserve(pcs_.size() + 1);
    if (none_.any())
        ranked.emplace_back(0, &none_);
    for (const auto &[pc, counters] : pcs_)
        if (counters.any())
            ranked.emplace_back(pc, &counters);
    std::sort(ranked.begin(), ranked.end(),
              [](const auto &a, const auto &b) {
                  std::uint64_t sa = a.second->stallCycles();
                  std::uint64_t sb = b.second->stallCycles();
                  if (sa != sb)
                      return sa > sb;
                  std::uint64_t aa = a.second->loads + a.second->stores;
                  std::uint64_t ab = b.second->loads + b.second->stores;
                  if (aa != ab)
                      return aa > ab;
                  return a.first < b.first;
              });

    Json out = Json::object();
    out["top"] = top_n;

    Json totals_json = Json::object();
    emitCounters(totals_json, totals(), true);
    totals_json["rob_empty_cycles"] = robEmptyCycles_;
    totals_json["pcs"] = static_cast<std::uint64_t>(ranked.size());
    out["totals"] = std::move(totals_json);

    Json pcs = Json::array();
    std::size_t count = std::min<std::size_t>(top_n, ranked.size());
    for (std::size_t i = 0; i < count; ++i) {
        Json entry = Json::object();
        entry["pc"] = ranked[i].first;
        emitCounters(entry, *ranked[i].second, false);
        pcs.push(std::move(entry));
    }
    out["pcs"] = std::move(pcs);

    if (!sets_.empty()) {
        Json sets = Json::object();
        sets["count"] = static_cast<std::uint64_t>(sets_.size());
        Json accesses = Json::array();
        Json misses = Json::array();
        Json evictions = Json::array();
        for (const SetCounters &set : sets_) {
            accesses.push(set.accesses);
            misses.push(set.misses);
            evictions.push(set.evictions);
        }
        sets["accesses"] = std::move(accesses);
        sets["misses"] = std::move(misses);
        sets["evictions"] = std::move(evictions);
        out["sets"] = std::move(sets);
    }
    return out;
}

std::string
profileTable(const Json &profile)
{
    TextTable table;
    table.setCaption("Stall attribution, top " +
                     std::to_string(jsonField(profile, "top")) +
                     " PCs by attributed stall cycles");
    table.addHeader({"pc", "loads", "stores", "lb_hit", "port_conf",
                     "sb_full", "mshr_wait", "commit", "stalls"});
    auto row = [&table](const std::string &label, const Json &entry) {
        table.addRow(
            {label, TextTable::num(jsonField(entry, "loads")),
             TextTable::num(jsonField(entry, "stores")),
             TextTable::num(jsonField(entry, "lb_hits")),
             TextTable::num(jsonField(entry, "port_conflicts")),
             TextTable::num(jsonField(entry, "sb_full_stalls")),
             TextTable::num(jsonField(entry, "mshr_waits")),
             TextTable::num(jsonField(entry, "commit_stall_head") +
                            jsonField(entry, "commit_stall_store")),
             TextTable::num(jsonField(entry, "stall_cycles"))});
    };
    for (const Json &entry : profile.at("pcs", "profile").items())
        row(pcLabel(static_cast<Addr>(jsonField(entry, "pc"))), entry);
    // The all-PC totals line equals the run's aggregate StatGroup
    // counters (tests/test_obs_profile.cc holds the two together).
    row("total", profile.at("totals", "profile"));
    return table.render();
}

} // namespace cpe::obs
