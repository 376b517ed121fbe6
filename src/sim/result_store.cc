#include "sim/result_store.hh"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "sim/config_file.hh"
#include "util/error.hh"
#include "util/fault.hh"
#include "util/logging.hh"

namespace cpe::sim {

namespace {

std::atomic<ResultStore *> activeStore{nullptr};

std::uint64_t
fnv1a64(const std::string &text)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (char c : text) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ull;
    }
    return hash;
}

std::string
hex64(std::uint64_t value)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

/**
 * Flush @p path (or its directory entry table) to stable storage;
 * throws IoError so insert treats an unsyncable entry exactly like an
 * unwritable one.
 */
void
fsyncPath(const std::string &path, bool directory)
{
    int fd = ::open(path.c_str(),
                    directory ? (O_RDONLY | O_DIRECTORY) : O_RDONLY);
    if (fd < 0)
        throw IoError("cannot open '" + path +
                      "' for fsync: " + std::strerror(errno));
    int rc = ::fsync(fd);
    int saved = errno;
    ::close(fd);
    if (rc != 0)
        throw IoError("fsync failed on '" + path +
                      "': " + std::strerror(saved));
}

std::uint64_t
asU64(const Json &doc, const char *key)
{
    const Json *member = doc.find(key);
    return member && member->isNumber()
               ? static_cast<std::uint64_t>(member->asNumber())
               : 0;
}

double
asF64(const Json &doc, const char *key)
{
    const Json *member = doc.find(key);
    return member && member->isNumber() ? member->asNumber() : 0.0;
}

std::string
asStr(const Json &doc, const char *key)
{
    const Json *member = doc.find(key);
    return member && member->isString() ? member->asString()
                                        : std::string();
}

} // namespace

Json
resultToJson(const SimResult &result)
{
    Json doc = Json::object();
    doc["workload"] = result.workload;
    doc["config"] = result.configTag;
    doc["cycles"] = Json(static_cast<std::uint64_t>(result.cycles));
    doc["insts"] = Json(result.insts);
    doc["ipc"] = result.ipc;
    doc["port_utilization"] = result.portUtilization;
    doc["l1d_miss_rate"] = result.l1dMissRate;
    doc["line_buffer_hit_rate"] = result.lineBufferHitRate;
    doc["sb_stores_per_drain"] = result.sbStoresPerDrain;
    doc["load_port_fraction"] = result.loadPortFraction;
    doc["cond_accuracy"] = result.condAccuracy;
    doc["store_commit_stalls"] = Json(result.storeCommitStalls);
    doc["mode_switches"] = Json(result.modeSwitches);
    doc["stats_dump"] = result.statsDump;
    doc["stats_json"] = result.statsJson;
    doc["timeseries_json"] = result.timeseriesJson;
    doc["profile_json"] = result.profileJson;
    doc["sampled"] = Json(result.sampled);
    doc["measured_intervals"] = Json(result.measuredIntervals);
    doc["ipc_ci_low"] = result.ipcCiLow;
    doc["ipc_ci_high"] = result.ipcCiHigh;
    doc["ipc_ci_half"] = result.ipcCiHalf;
    doc["ipc_rel_err_pct"] = result.ipcRelErrPct;
    doc["ff_insts"] = Json(result.ffInsts);
    doc["sample_json"] = result.sampleJson;
    return doc;
}

SimResult
resultFromJson(const Json &doc)
{
    SimResult result;
    result.workload = asStr(doc, "workload");
    result.configTag = asStr(doc, "config");
    result.cycles = asU64(doc, "cycles");
    result.insts = asU64(doc, "insts");
    result.ipc = asF64(doc, "ipc");
    result.portUtilization = asF64(doc, "port_utilization");
    result.l1dMissRate = asF64(doc, "l1d_miss_rate");
    result.lineBufferHitRate = asF64(doc, "line_buffer_hit_rate");
    result.sbStoresPerDrain = asF64(doc, "sb_stores_per_drain");
    result.loadPortFraction = asF64(doc, "load_port_fraction");
    result.condAccuracy = asF64(doc, "cond_accuracy");
    result.storeCommitStalls = asU64(doc, "store_commit_stalls");
    result.modeSwitches = asU64(doc, "mode_switches");
    result.statsDump = asStr(doc, "stats_dump");
    result.statsJson = asStr(doc, "stats_json");
    result.timeseriesJson = asStr(doc, "timeseries_json");
    result.profileJson = asStr(doc, "profile_json");
    if (const Json *sampled = doc.find("sampled"))
        result.sampled = sampled->isBool() && sampled->asBool();
    result.measuredIntervals = asU64(doc, "measured_intervals");
    result.ipcCiLow = asF64(doc, "ipc_ci_low");
    result.ipcCiHigh = asF64(doc, "ipc_ci_high");
    result.ipcCiHalf = asF64(doc, "ipc_ci_half");
    result.ipcRelErrPct = asF64(doc, "ipc_rel_err_pct");
    result.ffInsts = asU64(doc, "ff_insts");
    result.sampleJson = asStr(doc, "sample_json");
    return result;
}

ResultStore::ResultStore(std::string dir) : dir_(std::move(dir))
{
    if (dir_.empty())
        return;
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec)
        throw IoError("cannot create result store directory '" + dir_ +
                      "': " + ec.message());

    // Sweep tmp leftovers a crashed writer abandoned: they can never
    // become live entries (their rename never happened), and leaving
    // them around would make the directory grow without bound.
    std::size_t swept = 0;
    for (const auto &entry : std::filesystem::directory_iterator(dir_, ec)) {
        const std::string name = entry.path().filename().string();
        if (name.find(".json.tmp.") == std::string::npos)
            continue;
        std::filesystem::remove(entry.path(), ec);
        if (!ec)
            ++swept;
    }
    if (swept)
        inform(Msg() << "result store: swept " << swept
                     << " orphaned tmp file(s) from " << dir_);
}

std::string
ResultStore::version()
{
    std::ostringstream out;
    out << "store-2|sim-" << simulatorVersion();
    return out.str();
}

std::string
versionSummary()
{
    std::ostringstream out;
    out << "simulator " << simulatorVersion() << ", store schema "
        << ResultStore::version();
    return out.str();
}

std::string
ResultStore::keyFor(const SimConfig &config,
                    const std::string &store_version)
{
    // The machine text leaves out the cache fields no experiment,
    // flag or machine file sets (the L1I and L2 line sizes, and every
    // level's replacement policy and seed).  A key over it would
    // conflate machines that differ only there, so such a machine has
    // no key.
    const SimConfig defaults = SimConfig::defaults();
    auto sameRepl = [](const mem::CacheParams &a,
                       const mem::CacheParams &b) {
        return a.repl == b.repl && a.replSeed == b.replSeed;
    };
    CPE_ASSERT(config.core.fetch.icache.lineBytes ==
                       defaults.core.fetch.icache.lineBytes &&
                   config.l2.cache.lineBytes ==
                       defaults.l2.cache.lineBytes &&
                   sameRepl(config.core.fetch.icache,
                            defaults.core.fetch.icache) &&
                   sameRepl(config.core.dcache.cache,
                            defaults.core.dcache.cache) &&
                   sameRepl(config.l2.cache, defaults.l2.cache),
               "a cache field the machine file does not carry is off "
               "its default; the result memo cannot key this machine");

    // The label names a grid column, not a machine.  The '@' line
    // cannot collide with machine text ('@' is not machine-file
    // syntax).
    SimConfig machine = config;
    machine.label.clear();
    return hex64(fnv1a64(toMachineFile(machine) +
                         "\n@version=" + store_version));
}

std::string
ResultStore::entryPath(const std::string &key) const
{
    return dir_ + "/" + key + ".json";
}

bool
ResultStore::lookup(const std::string &key, SimResult &out)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = memo_.find(key);
        if (it != memo_.end()) {
            out = it->second;
            ++stats_.hits;
            return true;
        }
    }
    if (readEntry(key, out)) {
        std::lock_guard<std::mutex> lock(mutex_);
        memo_.emplace(key, out);
        ++stats_.hits;
        ++stats_.diskHits;
        return true;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.misses;
    return false;
}

bool
ResultStore::readEntry(const std::string &key, SimResult &out)
{
    if (dir_.empty())
        return false;
    const std::string path = entryPath(key);
    std::string why;
    try {
        if (CPE_FAULT_POINT("store.read"))
            throw IoError("chaos: injected fault at store.read");
        std::ifstream in(path, std::ios::binary);
        if (!in)
            return false;
        std::ostringstream buffer;
        buffer << in.rdbuf();

        Json doc;
        std::string parse_error;
        if (!Json::tryParse(buffer.str(), doc, parse_error) ||
            !doc.isObject())
            why = "unparseable entry (" + parse_error + ")";
        else if (asStr(doc, "k") != key)
            why = "key mismatch (torn or misnamed entry)";
        else if (asStr(doc, "version") != version())
            why = "version '" + asStr(doc, "version") +
                  "' does not match '" + version() + "'";
        else if (const Json *result = doc.find("result");
                 !result || !result->isObject())
            why = "entry has no result member";
        else {
            out = resultFromJson(*result);
            return true;
        }
    } catch (const SimError &error) {
        why = error.what();
    }
    // An unreadable entry costs one re-execution, nothing more; the
    // next insert overwrites it with a fresh one.
    warn(Msg() << "result store: treating " << path << " as a miss: "
               << why);
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.corrupt;
    return false;
}

void
ResultStore::insert(const std::string &key, const SimResult &result)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        memo_[key] = result;
        ++stats_.inserts;
    }
    if (dir_.empty())
        return;

    Json doc = Json::object();
    doc["t"] = "entry";
    doc["k"] = key;
    doc["version"] = version();
    doc["workload"] = result.workload;
    doc["config"] = result.configTag;
    doc["result"] = resultToJson(result);
    std::string line = doc.dump();
    line.push_back('\n');

    const std::string path = entryPath(key);
    const std::string tmp = path + ".tmp." + std::to_string(::getpid());
    std::error_code ec;
    try {
        if (CPE_FAULT_POINT("store.write"))
            throw IoError("chaos: injected fault at store.write");
        {
            std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
            if (!out || !(out << line) || !out.flush())
                throw IoError("cannot write result store entry '" + tmp +
                              "'");
        }
        fsyncPath(tmp, false);
        std::filesystem::rename(tmp, path, ec);
        if (ec)
            throw IoError("cannot publish result store entry '" + path +
                          "': " + ec.message());
        fsyncPath(dir_, true);
    } catch (...) {
        std::filesystem::remove(tmp, ec);
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.insertFailures;
        throw;
    }
}

SimResult
ResultStore::fetchOrCompute(const std::string &key,
                            const std::function<SimResult()> &compute,
                            std::string *source)
{
    // Single-flight: the first caller of a key installs a promise and
    // works outside the lock; concurrent callers of the same key block
    // on the shared future instead of re-simulating.
    std::shared_future<SimResult> flight;
    std::promise<SimResult> promise;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.fetches;
        if (auto it = memo_.find(key); it != memo_.end()) {
            ++stats_.hits;
            if (source)
                *source = "store";
            return it->second;
        }
        if (auto it = inFlight_.find(key); it != inFlight_.end())
            flight = it->second;
        else
            inFlight_.emplace(key, promise.get_future().share());
    }
    if (flight.valid()) {
        if (source)
            *source = "shared";
        return flight.get(); // rethrows the leader's failure
    }

    auto land = [&]() {
        std::lock_guard<std::mutex> lock(mutex_);
        inFlight_.erase(key);
    };
    SimResult result;
    try {
        if (lookup(key, result)) {
            if (source)
                *source = "store";
            promise.set_value(result);
            land();
            return result;
        }
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.computes;
        }
        result = compute();
    } catch (...) {
        // Failures propagate to every waiter of this flight and are
        // never memoized: the next request retries from scratch.
        promise.set_exception(std::current_exception());
        land();
        throw;
    }

    if (source)
        *source = "sim";
    try {
        insert(key, result);
    } catch (const SimError &error) {
        // Losing durability for one entry costs a re-simulation in
        // some later invocation; losing the result would cost this one.
        warn(Msg() << "result store: could not store " << key << ": "
                   << error.what());
    }
    promise.set_value(result);
    land();
    return result;
}

void
ResultStore::clear()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        memo_.clear();
    }
    if (dir_.empty())
        return;
    std::error_code ec;
    for (const auto &entry : std::filesystem::directory_iterator(dir_, ec))
        if (entry.path().extension() == ".json")
            std::filesystem::remove(entry.path(), ec);
}

std::size_t
ResultStore::entries() const
{
    std::size_t count = 0;
    if (dir_.empty())
        return count;
    std::error_code ec;
    for (const auto &entry : std::filesystem::directory_iterator(dir_, ec))
        count += entry.path().extension() == ".json";
    return count;
}

ResultStore::Stats
ResultStore::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

void
ResultStore::setActive(ResultStore *store)
{
    activeStore.store(store, std::memory_order_release);
}

ResultStore *
ResultStore::active()
{
    return activeStore.load(std::memory_order_acquire);
}

} // namespace cpe::sim
