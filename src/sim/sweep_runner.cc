#include "sim/sweep_runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <map>
#include <mutex>
#include <thread>

#include "sim/result_store.hh"
#include "util/fault.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"
#include "workload/registry.hh"

namespace cpe::sim {

namespace {
std::atomic<unsigned> jobsOverride{0};

std::mutex defaultPolicyMutex;
util::RetryPolicy defaultPolicy;

/**
 * Simulate one config with fault capture and the runner's retry
 * policy.  Never throws: every failure lands in the outcome.
 */
RunOutcome
simulateOne(const SimConfig &config, const util::RetryPolicy &policy)
{
    RunOutcome outcome;
    outcome.workload = config.workloadName;
    outcome.configTag = config.tag();

    const unsigned maxAttempts = std::max(policy.maxAttempts, 1u);
    const std::string salt = outcome.workload + "|" + outcome.configTag;
    while (true) {
        ++outcome.attempts;
        auto start = std::chrono::steady_clock::now();
        try {
            if (CPE_FAULT_POINT("sweep.run"))
                throw IoError("chaos: injected fault at sweep.run");
            outcome.result = simulate(config);
            outcome.hasResult = true;
            outcome.errorKind.clear();
            outcome.errorMessage.clear();
            outcome.errorDetails = Json();
            outcome.exception = nullptr;
        } catch (const ProgressError &error) {
            outcome.errorKind = error.kind();
            outcome.errorMessage = error.what();
            outcome.errorDetails = error.snapshot();
            outcome.exception = std::current_exception();
        } catch (const SimError &error) {
            outcome.errorKind = error.kind();
            outcome.errorMessage = error.what();
            outcome.exception = std::current_exception();
        } catch (const std::exception &error) {
            outcome.errorKind = "exception";
            outcome.errorMessage = error.what();
            outcome.exception = std::current_exception();
        } catch (...) {
            outcome.errorKind = "exception";
            outcome.errorMessage = "non-standard exception";
            outcome.exception = std::current_exception();
        }
        outcome.wallMs =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - start)
                .count();

        if (outcome.ok())
            return outcome;
        if (outcome.attempts >= maxAttempts ||
            !policy.retryable(outcome.errorKind)) {
            // Only transient kinds are worth another try; a simulation
            // is a pure function of its config, so config/workload/
            // progress failures would reproduce exactly.
            return outcome;
        }
        warn(Msg() << "sweep: retrying " << outcome.workload << " / "
                   << outcome.configTag << " after " << outcome.errorKind
                   << " failure: " << outcome.errorMessage);
        unsigned delay = policy.delayMs(outcome.attempts + 1, salt);
        if (delay)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(delay));
    }
}

/**
 * The per-run step: consult the installed result store and simulate
 * only on a miss.  A hit carries the stored result restamped with this
 * config's tag, and attempts = 0.  Traced runs bypass the store: their
 * trace events are a side effect a stored result cannot replay.
 */
RunOutcome
executeOne(const SimConfig &config, const util::RetryPolicy &policy)
{
    ResultStore *store = ResultStore::active();
    if (!store || config.obs.traceSink)
        return simulateOne(config, policy);

    RunOutcome outcome;
    bool simulated = false;
    try {
        SimResult result = store->fetchOrCompute(
            ResultStore::keyFor(config), [&]() {
                outcome = simulateOne(config, policy);
                simulated = true;
                if (!outcome.ok())
                    std::rethrow_exception(outcome.exception);
                return outcome.result;
            });
        if (simulated)
            return outcome;
        outcome.workload = config.workloadName;
        outcome.configTag = config.tag();
        outcome.result = std::move(result);
        outcome.result.configTag = outcome.configTag;
        outcome.hasResult = true;
        return outcome;
    } catch (...) {
        // Either this run's own failure, already structured, or the
        // failure of a flight it joined — which a pure function of the
        // config repeats, so run it here for a record of its own.
        return simulated ? outcome : simulateOne(config, policy);
    }
}

} // namespace

Json
RunOutcome::errorJson() const
{
    Json record = Json::object();
    record["workload"] = workload;
    record["config"] = configTag;
    record["kind"] = errorKind;
    record["message"] = errorMessage;
    record["attempts"] = attempts;
    record["wall_ms"] = wallMs;
    if (!errorDetails.isNull())
        record["snapshot"] = errorDetails;
    return record;
}

unsigned
SweepRunner::defaultJobs()
{
    unsigned override = jobsOverride.load(std::memory_order_relaxed);
    if (override)
        return override;
    if (const char *env = std::getenv("CPESIM_JOBS")) {
        char *end = nullptr;
        unsigned long value = std::strtoul(env, &end, 10);
        bool numeric = end != env && *end == '\0';
        if (numeric && value >= 1)
            return static_cast<unsigned>(value);
        warn(Msg() << "CPESIM_JOBS='" << env
                   << "' is not a positive integer; using one job per "
                      "hardware thread");
    }
    return util::ThreadPool::hardwareThreads();
}

void
SweepRunner::setDefaultJobs(unsigned jobs)
{
    jobsOverride.store(jobs, std::memory_order_relaxed);
}

unsigned
SweepRunner::defaultJobsOverride()
{
    return jobsOverride.load(std::memory_order_relaxed);
}

util::RetryPolicy
SweepRunner::defaultRetryPolicy()
{
    std::lock_guard<std::mutex> lock(defaultPolicyMutex);
    return defaultPolicy;
}

void
SweepRunner::setDefaultRetryPolicy(const util::RetryPolicy &policy)
{
    std::lock_guard<std::mutex> lock(defaultPolicyMutex);
    defaultPolicy = policy;
}

SweepRunner::SweepRunner(unsigned jobs)
    : jobs_(jobs ? jobs : defaultJobs()), policy_(defaultRetryPolicy())
{
}

RunOutcome
SweepRunner::runOne(const SimConfig &config) const
{
    return executeOne(config, policy_);
}

std::vector<RunOutcome>
SweepRunner::runOutcomes(const std::vector<SimConfig> &configs) const
{
    std::vector<RunOutcome> outcomes(configs.size());
    if (jobs_ <= 1 || configs.size() <= 1) {
        for (std::size_t i = 0; i < configs.size(); ++i)
            outcomes[i] = executeOne(configs[i], policy_);
        return outcomes;
    }

    // Force the workload registry (a lazily-built singleton) into
    // existence before any worker touches it.
    workload::WorkloadRegistry::instance();

    unsigned workers = static_cast<unsigned>(
        std::min<std::size_t>(jobs_, configs.size()));
    util::ThreadPool pool(workers);
    std::vector<std::future<RunOutcome>> futures;
    futures.reserve(configs.size());
    for (const auto &config : configs)
        futures.push_back(pool.submit([&config, this]() {
            return executeOne(config, policy_);
        }));

    // Collect in submission order; runOne never throws, so every
    // worker finishes and every slot is filled.
    for (std::size_t i = 0; i < futures.size(); ++i)
        outcomes[i] = futures[i].get();
    return outcomes;
}

std::vector<ScheduledRun>
SweepRunner::runSchedule(const std::vector<SimConfig> &configs) const
{
    std::vector<ScheduledRun> runs(configs.size());
    // A run executes on one thread from start to finish, so the change
    // in that thread's cache counters across it is exactly its work.
    auto runAt = [&](std::size_t i) {
        TraceCache::Stats before = TraceCache::threadStats();
        runs[i].outcome = executeOne(configs[i], policy_);
        runs[i].cacheWork = TraceCache::threadStats() - before;
    };
    if (jobs_ <= 1 || configs.size() <= 1) {
        for (std::size_t i = 0; i < configs.size(); ++i)
            runAt(i);
        return runs;
    }

    workload::WorkloadRegistry::instance();
    util::ThreadPool pool(static_cast<unsigned>(
        std::min<std::size_t>(jobs_, configs.size())));
    auto wave = [&pool](std::size_t count, const auto &task) {
        std::vector<std::future<void>> done;
        done.reserve(count);
        for (std::size_t i = 0; i < count; ++i)
            done.push_back(pool.submit([&task, i]() { task(i); }));
        for (auto &future : done)
            future.get();
    };

    // Wave 1: each stream a valid config replays, in order of first
    // use.  An invalid config never reaches its stream.
    constexpr std::size_t NoStream = ~std::size_t{0};
    std::vector<const SimConfig *> streams;   ///< first config of each
    std::vector<std::size_t> lengths;
    std::vector<std::size_t> streamOf(configs.size(), NoStream);
    std::map<std::pair<TraceCache *, std::string>, std::size_t> streamIds;
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const SimConfig &config = configs[i];
        if (!config.traceCache || !config.validate().empty())
            continue;
        auto [it, fresh] = streamIds.emplace(
            std::make_pair(config.traceCache, TraceCache::key(config)),
            streams.size());
        if (fresh)
            streams.push_back(&config);
        streamOf[i] = it->second;
    }
    lengths.assign(streams.size(), 0);
    wave(streams.size(), [&](std::size_t s) {
        try {
            lengths[s] = streams[s]->traceCache->prepare(*streams[s])->size();
        } catch (...) {
            // Not cached: the stream's first run captures it again and
            // meets the failure itself.
        }
    });

    // Waves 2 and 3.  Wave 3 waits for wave 2, and one task runs all
    // the repeats of a machine in input order, so each repeat finds
    // its machine's result stored (or a failure unstored, and runs
    // again) exactly as in the one-at-a-time order.
    const bool memo = ResultStore::active() != nullptr;
    std::vector<std::size_t> firsts;
    std::vector<std::vector<std::size_t>> repeats;
    std::map<std::string, std::size_t> machines;
    for (std::size_t i = 0; i < configs.size(); ++i) {
        if (!memo || configs[i].obs.traceSink) {
            firsts.push_back(i);
            continue;
        }
        auto [it, first] = machines.emplace(ResultStore::keyFor(configs[i]),
                                            repeats.size());
        if (first) {
            firsts.push_back(i);
            repeats.emplace_back();
        } else {
            repeats[it->second].push_back(i);
        }
    }
    auto length = [&](std::size_t i) {
        return streamOf[i] == NoStream ? 0 : lengths[streamOf[i]];
    };
    std::stable_sort(firsts.begin(), firsts.end(),
                     [&](std::size_t a, std::size_t b) {
                         return length(a) > length(b);
                     });
    wave(firsts.size(), [&](std::size_t k) { runAt(firsts[k]); });
    wave(repeats.size(), [&](std::size_t k) {
        for (std::size_t i : repeats[k])
            runAt(i);
    });

    // A stream's capture landed on whichever run claimed or made it.
    // The one-at-a-time order charges it to the stream's first run
    // that acquires it: move it there, and hand the holder that run's
    // replay in exchange.
    std::vector<std::size_t> first(streams.size(), NoStream);
    std::vector<std::size_t> holder(streams.size(), NoStream);
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const TraceCache::Stats &work = runs[i].cacheWork;
        std::size_t s = streamOf[i];
        if (s == NoStream || !(work.captures + work.replays))
            continue;
        if (first[s] == NoStream)
            first[s] = i;
        if (holder[s] == NoStream && work.captures)
            holder[s] = i;
    }
    for (std::size_t s = 0; s < streams.size(); ++s) {
        if (holder[s] == NoStream || holder[s] == first[s] || !lengths[s])
            continue;
        TraceCache::Stats &from = runs[holder[s]].cacheWork;
        TraceCache::Stats &to = runs[first[s]].cacheWork;
        TraceCache::Stats replay;
        replay.replays = 1;
        replay.instsSkipped = lengths[s];
        // The holder's production: its work beyond its replays.
        TraceCache::Stats made = from;
        made.replays = 0;
        made.instsSkipped -= from.replays * lengths[s];
        made.evictions = 0;
        from = from - made + replay;
        to = to - replay + made;
    }
    return runs;
}

std::vector<SimResult>
SweepRunner::run(const std::vector<SimConfig> &configs) const
{
    std::vector<RunOutcome> outcomes = runOutcomes(configs);
    std::vector<SimResult> results(outcomes.size());
    std::exception_ptr firstError;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        if (outcomes[i].ok())
            results[i] = std::move(outcomes[i].result);
        else if (!firstError)
            firstError = outcomes[i].exception;
    }
    if (firstError)
        std::rethrow_exception(firstError);
    return results;
}

ResultGrid
SweepRunner::runGrid(const std::vector<SimConfig> &configs,
                     const std::string &value_name) const
{
    ResultGrid grid(value_name);
    for (const auto &result : run(configs))
        grid.add(result);
    return grid;
}

} // namespace cpe::sim
