/**
 * @file
 * bench_serve — service-level throughput/latency harness for the
 * crispd core (SimService driven in-process; no socket, so the numbers
 * isolate the service machinery from kernel buffer behaviour).
 *
 *   bench_serve [--smoke] [--out=FILE] [--clients=N] [--jobs=N]
 *               [--workers=N]
 *
 * N client threads (default 8) each run a closed loop: submit one job,
 * wait for its terminal state, submit the next. Per-job latency is
 * submit-to-completion (including queueing), reported as p50/p99;
 * throughput is total terminal states per wall second. Three scenarios
 * cover the three cost regimes a real mix blends:
 *
 *  - cold: every job is a distinct program — full admission + decode +
 *    simulation; the result cache never hits.
 *  - shared_predecode: one program, but a distinct cycle budget per
 *    job, so the result cache misses while every run shares the one
 *    warmed predecode table (the PR 2 tables, multi-tenant).
 *  - hot_cache: identical requests — after the first, pure result-cache
 *    lookups; this bounds the service overhead per request.
 *
 * Output: one JSON object (schema "crisp-bench-serve/1") written to
 * --out (default BENCH_SERVE.json). Every run also asserts the ledger
 * invariant and exactly-one-completion before reporting. --smoke
 * shrinks the job counts and is wired into ctest.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <vector>

#include "asm/assembler.hh"
#include "cli.hh"
#include "isa/objfile.hh"
#include "service/service.hh"

namespace
{

using namespace crisp;
using namespace crisp::service;
using Clock = std::chrono::steady_clock;

/** Flag ranges: at most 256 client or worker threads, and at most
 *  100000 jobs per client. */
constexpr int kMaxThreads = 256;
constexpr int kMaxJobsPerClient = 100'000;

std::vector<std::uint8_t>
countedImage(int count)
{
    std::string src = R"(
        .entry s
        .local i 0
s:      enter 1
        mov i, 0
top:    add i, 1
        cmp.s< i, %N%
        iftjmpy top
        halt
    )";
    const std::string key = "%N%";
    src.replace(src.find(key), key.size(), std::to_string(count));
    return saveObject(assemble(src));
}

struct ScenarioResult
{
    std::string name;
    int jobs = 0;
    double seconds = 0;
    double jobsPerSec = 0;
    double p50Ms = 0;
    double p99Ms = 0;
    std::uint64_t done = 0;
    std::uint64_t cacheHits = 0;
    std::uint64_t predecodeShares = 0;
    std::uint64_t translationShares = 0;
};

double
percentile(std::vector<double>& sorted, double p)
{
    if (sorted.empty())
        return 0;
    const auto idx = static_cast<std::size_t>(
        p * static_cast<double>(sorted.size() - 1));
    return sorted[idx];
}

/**
 * One closed-loop scenario. @p image_for maps (client, iteration) to
 * the object image; @p cycles_for to the per-job cycle budget.
 */
template <typename ImageFn, typename CyclesFn>
ScenarioResult
runScenario(const std::string& name, int clients, int jobs_per_client,
            int workers, ImageFn image_for, CyclesFn cycles_for,
            EngineKind engine = EngineKind::kCycle)
{
    ServiceConfig cfg;
    cfg.workers = workers;
    cfg.queueCap = static_cast<std::size_t>(clients) * 2;
    SimService service(cfg);

    std::atomic<std::uint64_t> next_id{1};
    std::atomic<int> wrong{0};
    std::vector<std::vector<double>> lat(
        static_cast<std::size_t>(clients));
    const auto t0 = Clock::now();
    std::vector<std::thread> threads;
    for (int t = 0; t < clients; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < jobs_per_client; ++i) {
                JobRequest req;
                req.jobId = next_id.fetch_add(1);
                req.image = image_for(t, i);
                req.engine = engine;
                req.maxCycles = cycles_for(t, i);
                req.deadlineMs = 60'000;
                std::promise<JobState> done;
                auto fut = done.get_future();
                const auto start = Clock::now();
                const auto st = service.submit(
                    req, [&done](const JobResult& res) {
                        done.set_value(res.state);
                    });
                if (st != SubmitStatus::kAccepted) {
                    ++wrong;
                    continue;
                }
                const JobState state = fut.get();
                const auto end = Clock::now();
                if (state != JobState::kDone)
                    ++wrong;
                lat[static_cast<std::size_t>(t)].push_back(
                    std::chrono::duration<double, std::milli>(end -
                                                              start)
                        .count());
            }
        });
    }
    for (auto& th : threads)
        th.join();
    const double seconds =
        std::chrono::duration<double>(Clock::now() - t0).count();
    service.shutdown(true);
    const LedgerSnapshot ledger = service.ledger();

    if (wrong.load() != 0 || !ledger.consistent() ||
        ledger.queued != 0 || ledger.inFlight != 0) {
        std::fprintf(stderr,
                     "bench_serve: scenario %s violated the service "
                     "invariants (wrong=%d consistent=%d)\n",
                     name.c_str(), wrong.load(),
                     ledger.consistent() ? 1 : 0);
        std::exit(1);
    }

    std::vector<double> all;
    for (const auto& v : lat)
        all.insert(all.end(), v.begin(), v.end());
    std::sort(all.begin(), all.end());

    ScenarioResult r;
    r.name = name;
    r.jobs = clients * jobs_per_client;
    r.seconds = seconds;
    r.jobsPerSec = seconds > 0 ? r.jobs / seconds : 0;
    r.p50Ms = percentile(all, 0.50);
    r.p99Ms = percentile(all, 0.99);
    r.done = ledger.done;
    r.cacheHits = ledger.resultCacheHits;
    r.predecodeShares = ledger.predecodeShares;
    r.translationShares = ledger.translationShares;
    return r;
}

} // namespace

int
main(int argc, char** argv)
{
    bool smoke = false;
    std::string out_path = "BENCH_SERVE.json";
    int clients = 8;
    int jobs = 64;
    int workers = 4;

    // Every value is checked here, before any client or worker thread
    // starts: a bad one is a usage error, never an empty sweep.
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        bool ok = true;
        if (a == "--smoke") {
            smoke = true;
        } else if (const char* v = cli::flag(a, "--out=")) {
            out_path = v;
        } else if (const char* v2 = cli::flag(a, "--clients=")) {
            ok = cli::parseInt(v2, clients, 1, kMaxThreads);
        } else if (const char* v3 = cli::flag(a, "--jobs=")) {
            ok = cli::parseInt(v3, jobs, 1, kMaxJobsPerClient);
        } else if (const char* v4 = cli::flag(a, "--workers=")) {
            ok = cli::parseInt(v4, workers, 1, kMaxThreads);
        } else {
            ok = false;
        }
        if (!ok) {
            std::fprintf(stderr,
                         "usage: bench_serve [--smoke] [--out=FILE] "
                         "[--clients=N] [--jobs=N] [--workers=N]\n");
            return 2;
        }
    }
    if (smoke)
        jobs = std::min(jobs, 4);

    // The loop length keeps one simulation in the hundreds of
    // microseconds: long enough that the cold scenario measures the
    // simulator, short enough that the sweep is quick.
    constexpr int kLoop = 50'000;

    std::vector<ScenarioResult> results;
    results.push_back(runScenario(
        "cold", clients, jobs, workers,
        [&](int t, int i) { return countedImage(kLoop + t * jobs + i); },
        [](int, int) { return std::uint64_t{0}; }));
    const auto shared_image = countedImage(kLoop);
    results.push_back(runScenario(
        "shared_predecode", clients, jobs, workers,
        [&](int, int) { return shared_image; },
        [&](int t, int i) {
            // Distinct cycle budgets defeat the result cache without
            // changing the program, so every run simulates on the one
            // warmed predecode table.
            return std::uint64_t{10'000'000} +
                   static_cast<std::uint64_t>(t * jobs + i);
        }));
    results.push_back(runScenario(
        "hot_cache", clients, jobs, workers,
        [&](int, int) { return shared_image; },
        [](int, int) { return std::uint64_t{0}; }));
    results.push_back(runScenario(
        "warm_engine", clients, jobs, workers,
        [&](int, int) { return shared_image; },
        [&](int t, int i) {
            // Same defeat-the-result-cache trick as shared_predecode,
            // but on the fast engine: every job reuses the registry's
            // warm Translation (translationShares counts the reuses).
            return std::uint64_t{10'000'000} +
                   static_cast<std::uint64_t>(t * jobs + i);
        },
        EngineKind::kFast));

    std::ostringstream os;
    os << "{\"schema\":\"crisp-bench-serve/2\",\"mode\":\""
       << (smoke ? "smoke" : "full") << "\",\"clients\":" << clients
       << ",\"jobsPerClient\":" << jobs << ",\"workers\":" << workers
       << ",\"scenarios\":[";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const ScenarioResult& r = results[i];
        if (i)
            os << ",";
        os << "{\"name\":\"" << r.name << "\",\"jobs\":" << r.jobs
           << ",\"seconds\":" << r.seconds
           << ",\"jobsPerSec\":" << r.jobsPerSec
           << ",\"p50Ms\":" << r.p50Ms << ",\"p99Ms\":" << r.p99Ms
           << ",\"done\":" << r.done << ",\"cacheHits\":" << r.cacheHits
           << ",\"predecodeShares\":" << r.predecodeShares
           << ",\"translationShares\":" << r.translationShares << "}";
    }
    os << "]}";

    std::ofstream f(out_path);
    f << os.str() << "\n";
    if (!f) {
        std::fprintf(stderr, "bench_serve: cannot write %s\n",
                     out_path.c_str());
        return 1;
    }
    for (const ScenarioResult& r : results)
        std::fprintf(stderr,
                     "%-17s %6.0f jobs/s  p50 %7.3f ms  p99 %7.3f ms  "
                     "(done=%llu cacheHits=%llu shares=%llu "
                     "transShares=%llu)\n",
                     r.name.c_str(), r.jobsPerSec, r.p50Ms, r.p99Ms,
                     static_cast<unsigned long long>(r.done),
                     static_cast<unsigned long long>(r.cacheHits),
                     static_cast<unsigned long long>(r.predecodeShares),
                     static_cast<unsigned long long>(
                         r.translationShares));
    std::fprintf(stderr, "bench_serve %s: ok (%s)\n",
                 smoke ? "smoke" : "full", out_path.c_str());
    return 0;
}
