/**
 * @file
 * layerbench — time crispsim's user paths end to end (untraced run) or
 * layer by layer (traced run) on one seeded workload.
 *
 *   layerbench --workload NAME --seed N --seconds S --trace 0|1
 *              [--trace-out FILE]
 *   layerbench --selftest
 *
 * A run sets up three times (inputs, references, one untimed warm-up
 * of every path, the service started and warmed); setup_s is the wall
 * time from process start to the first timed sample, so all three
 * set-ups, less the calibration kernels' time. It then measures for S
 * seconds in rounds: each step takes
 * one sample of every path on one program, and serve slices are paced
 * evenly between the steps, so host drift over the window touches every
 * metric alike. A path's time is the sum over the workload's programs
 * of the per-program median, i.e. one pass over the workload.
 *
 * The last stdout line is the result object; the line before it,
 * prefixed "layerbench detail", carries the seed, sample counts, the
 * tail percentile and the exact per-layer counts.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include "bench.hh"
#include "calib.hh"
#include "serve.hh"

namespace layerbench
{

int runSelftest();

namespace
{

constexpr int kSetups = 3;

/**
 * The check path's warm-up covers this many programs. The other paths
 * warm up on every program (their pass gives the exact counts); the
 * battery's per-program state is built afresh in every sample, so
 * warming its code does not need all 512 generated programs.
 */
constexpr std::size_t kCheckWarmPrograms = 32;

/**
 * A cheap sample (a torture program's cycle path takes ~0.2 ms) is
 * repeated within its step until the step has spent this long on it, up
 * to kMaxReps, so one interrupt cannot decide a program's median.
 */
constexpr std::int64_t kMinStepNs = 2'000'000;
constexpr int kMaxReps = 5;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string traceOut;
    /** Self-test hook: corrupt one reference after set-up. */
    std::string corrupt;
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double
seconds(std::int64_t ns)
{
    return static_cast<double>(ns) / 1e9;
}

/**
 * The process's start on nowNs()'s clock, read at main's entry
 * (@p main_entry): /proc/self/stat's start time (clock ticks since
 * boot) against CLOCK_BOOTTIME, so set-up includes loading and static
 * initialisation. Where /proc lacks it, or the clocks disagree, main's
 * entry.
 */
std::int64_t
processStartNs(std::int64_t main_entry)
{
    std::FILE* f = std::fopen("/proc/self/stat", "r");
    if (f == nullptr)
        return main_entry;
    char buf[1024];
    const std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
    std::fclose(f);
    buf[n] = '\0';
    // Field 22 is the start time; the fields after the parenthesised
    // command name (field 2) hold no spaces.
    const char* p = std::strrchr(buf, ')');
    for (int field = 2; p != nullptr && field < 22; ++field)
        p = std::strchr(p + 1, ' ');
    timespec boot{};
    const long tick = sysconf(_SC_CLK_TCK);
    if (p == nullptr || tick <= 0 || clock_gettime(CLOCK_BOOTTIME, &boot))
        return main_entry;
    const std::int64_t start =
        std::strtoll(p + 1, nullptr, 10) * (1'000'000'000 / tick);
    const std::int64_t age =
        static_cast<std::int64_t>(boot.tv_sec) * 1'000'000'000 +
        boot.tv_nsec - start;
    // Loading takes milliseconds; anything else is a clock mismatch.
    if (age < 0 || age > 10'000'000'000)
        return main_entry;
    return nowNs() - age;
}

/** Everything one set-up builds; the last one serves the timed window. */
struct Setup
{
    /** Heap-held: the serve client keeps a reference across moves. */
    std::unique_ptr<Inputs> in;
    Counts counts;
    /** Programs on which the check path found a divergence. */
    std::set<std::size_t> divergent;
    std::unique_ptr<ServeClient> serve;
    std::vector<ServeRecord> warmJobs;
};

/** Operation accounting across set-up, warm-up and the window. */
struct Tally
{
    long attempted = 0;
    long failed = 0;
    std::vector<std::string> failures;

    void
    note(bool ok, const std::string& what)
    {
        if (ok)
            pass();
        else
            fail(what);
    }
    void pass() { ++attempted; }
    void
    fail(const std::string& what)
    {
        ++attempted;
        ++failed;
        if (failures.size() < 8)
            failures.push_back(what);
    }
};

int
serviceWorkers()
{
    // Main thread + workers + the service's watchdog stay within nproc.
    const int n = static_cast<int>(std::thread::hardware_concurrency());
    return std::clamp(n - 2, 1, 2);
}

const std::vector<Subject>&
subjectsOf(const Inputs& in, PathKind p)
{
    return p == PathKind::kOpt ? in.optPrograms : in.programs;
}

/** Set up once; @p checkpoint runs between the phases. */
Setup
setUp(const Args& a, Tally& tally, const std::function<void()>& checkpoint)
{
    Setup s;
    s.in = std::make_unique<Inputs>(buildInputs(a.workload, a.seed));
    computeReferences(*s.in, s.counts);
    checkpoint();
    Recorder off;
    for (int p = 0; p < kPathCount; ++p) {
        const PathKind pk = static_cast<PathKind>(p);
        if (pk == PathKind::kLint)
            continue; // computeReferences ran it on every program
        const std::vector<Subject>& subjects = subjectsOf(*s.in, pk);
        const std::size_t n = pk == PathKind::kCheck
                                  ? std::min(subjects.size(),
                                             kCheckWarmPrograms)
                                  : subjects.size();
        for (std::size_t j = 0; j < n; ++j) {
            std::string why;
            const bool ok =
                runPath(pk, subjects[j], *s.in, off, &s.counts, &why);
            tally.note(ok, std::string("warm-up ") + pathName(pk) + " " +
                               subjects[j].name + ": " + why);
            if (!ok && pk == PathKind::kCheck)
                s.divergent.insert(j);
        }
        checkpoint();
    }
    s.counts["table4_error_pct"] = table4ErrorPct();
    const int workers = serviceWorkers();
    // One job in flight per worker: no job queues behind another, so a
    // job's latency is its own and does not depend on the seeded order.
    s.serve = std::make_unique<ServeClient>(*s.in, a.seed, workers, workers);
    s.serve->warm(s.warmJobs);
    for (const ServeRecord& r : s.warmJobs)
        tally.note(r.ok, "warm-up serve job");
    return s;
}

/** Samples of one path: per subject, per mode (0 untraced, 1 traced). */
struct PathSamples
{
    std::vector<std::vector<double>> t[2];
};

/** Sum over subjects of the per-subject median. */
double
passTime(const std::vector<std::vector<double>>& per_subject)
{
    double total = 0;
    for (const std::vector<double>& v : per_subject)
        total += median(v);
    return total;
}

std::string
fmt(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

struct Metric
{
    std::string name;
    std::string unit;
    double value;
};

void
printResult(bool correct, const Tally& tally,
            const std::vector<Metric>& metrics)
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << tally.attempted
       << ", \"failed\": " << tally.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        os << (i ? ", " : "") << "\"" << metrics[i].name
           << "\": {\"value\": " << fmt(metrics[i].value)
           << ", \"unit\": \"" << metrics[i].unit << "\"}";
    }
    os << "}}";
    std::printf("%s\n", os.str().c_str());

    // Name the failures on stderr too, so a log that keeps only the
    // error stream still says which program failed and how.
    if (tally.failed == 0)
        return;
    std::fprintf(stderr, "layerbench: %ld of %ld operations failed\n",
                 tally.failed, tally.attempted);
    for (const std::string& f : tally.failures)
        std::fprintf(stderr, "layerbench:   %s\n", f.c_str());
    for (const std::string& f : tally.failures) {
        const std::size_t at = f.find("gen-");
        if (at == std::string::npos)
            continue;
        const std::size_t end = f.find_first_not_of("0123456789", at + 4);
        std::fprintf(stderr,
                     "layerbench: reproduce with crisptorture --seed0=%s "
                     "--seeds=1\n",
                     f.substr(at + 4, end - at - 4).c_str());
        break;
    }
}

/** Per (path, layer) self times: per subject, one value per request. */
using LayerTimes =
    std::map<std::pair<std::string, std::string>,
             std::vector<std::vector<double>>>;

LayerTimes
layerTimes(const Recorder& tr, std::size_t subjects)
{
    LayerTimes out;
    const std::vector<std::int64_t> self = tr.selfTimes();
    const auto& spans = tr.spans();
    const auto& reqs = tr.requests();
    // Sum each layer's self time within a request, then file the sum
    // under the request's (path, subject).
    std::map<std::string, double> in_request;
    std::uint32_t current = 0;
    const auto flush = [&]() {
        if (current == 0)
            return;
        const RequestRec& r = reqs[current - 1];
        for (const auto& [layer, v] : in_request) {
            auto& per = out[{r.path, layer}];
            if (per.size() < subjects)
                per.resize(subjects);
            per[static_cast<std::size_t>(r.subject)].push_back(v);
        }
        in_request.clear();
    };
    // A request's spans are recorded contiguously.
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].request != current) {
            flush();
            current = spans[i].request;
        }
        if (spans[i].parent >= 0)
            in_request[spans[i].name] += seconds(self[i]) * 1e3;
    }
    flush();
    return out;
}

/** Share of each path's request time that falls in named layer spans. */
std::map<std::string, std::pair<double, double>>
coverage(const Recorder& tr)
{
    std::map<std::string, std::pair<double, double>> cov; // covered, total
    const auto& spans = tr.spans();
    const auto& reqs = tr.requests();
    for (const SpanRec& s : spans) {
        const std::string& path = reqs[s.request - 1].path;
        if (path == "probe")
            continue;
        if (s.parent < 0) {
            cov[path].second += seconds(s.end - s.start);
        } else if (spans[static_cast<std::size_t>(s.parent)].parent < 0) {
            cov[path].first += seconds(s.end - s.start);
        }
    }
    return cov;
}

int
run(const Args& a, std::int64_t process_start, std::int64_t main_entry)
{
    Tally tally;
    std::vector<double> setup_times;
    // Calibrations between the set-up phases give setup_s a host index
    // of its own period; the kernels' time is not set-up time. The
    // first call only touches the kernels' memory.
    std::vector<CalibSample> setup_calib;
    std::int64_t setup_calib_ns = 0;
    const auto calibrateInSetup = [&]() {
        const std::int64_t t0 = nowNs();
        setup_calib.push_back(calibrate());
        setup_calib_ns += nowNs() - t0;
    };
    calibrateInSetup();
    setup_calib.clear();
    Setup st;
    Counts first_counts;
    bool exact_repeat = true;
    for (int i = 0; i < kSetups; ++i) {
        // Retire the previous set-up (its service threads too) first,
        // so no phase runs more threads than the last set-up starts.
        st = Setup{};
        const std::int64_t t0 = i == 0 ? process_start : nowNs();
        const std::int64_t calib0 = i == 0 ? 0 : setup_calib_ns;
        st = setUp(a, tally, calibrateInSetup);
        setup_times.push_back(
            seconds(nowNs() - t0 - (setup_calib_ns - calib0)));
        if (i == 0)
            first_counts = st.counts;
        else
            exact_repeat = exact_repeat && st.counts == first_counts;
    }
    Inputs& in = *st.in;
    const std::size_t n_prog = in.programs.size();
    if (a.corrupt == "golden") {
        Golden& g = in.programs[0].golden;
        if (g.globals.empty())
            g.accum ^= 1;
        else
            g.globals[0].second ^= 1;
    } else if (a.corrupt == "lockstep") {
        in.programs[0].refInstructions += 1;
    } else if (a.corrupt == "exit") {
        in.programs[0].exitValue ^= 1;
    }

    Recorder tr;
    PathSamples samples[kPathCount];
    for (int p = 0; p < kPathCount; ++p) {
        for (auto& mode : samples[p].t)
            mode.resize(subjectsOf(in, static_cast<PathKind>(p)).size());
    }
    std::vector<CalibSample> calib;
    double calib_ms = 0;
    std::vector<ServeRecord> serve_recs[2];
    /** Jobs per second of each untraced serve slice. */
    std::vector<double> slice_rates;
    const crisp::service::LedgerSnapshot ledger0 = st.serve->ledger();
    // The pass served servePasses times in whole slices; a traced run
    // serves as many traced jobs beside them.
    const std::size_t slice_jobs = static_cast<std::size_t>(in.serveSlice);
    const std::size_t pass_jobs = st.serve->passSize();
    const std::size_t serve_jobs =
        pass_jobs * static_cast<std::size_t>(in.servePasses);

    const auto sample = [&](PathKind pk, std::size_t j,
                            bool traced) -> std::int64_t {
        const Subject& sub = subjectsOf(in, pk)[j];
        tr.setEnabled(traced);
        std::string why;
        const std::int64_t t0 = nowNs();
        bool ok = false;
        {
            Request req(tr, pathName(pk), static_cast<int>(j));
            ok = runPath(pk, sub, in, tr, nullptr, &why);
        }
        const std::int64_t dt_ns = nowNs() - t0;
        const double dt = seconds(dt_ns);
        tr.setEnabled(false);
        if (ok) {
            tally.pass();
            samples[static_cast<int>(pk)].t[traced ? 1 : 0][j].push_back(dt);
        } else {
            tally.fail(std::string(pathName(pk)) + " " + sub.name + ": " +
                       why);
            if (pk == PathKind::kCheck)
                st.divergent.insert(j);
        }
        return dt_ns;
    };
    const auto step = [&](PathKind pk, std::size_t j, bool traced) {
        std::int64_t spent = 0;
        for (int r = 0; r < kMaxReps && spent < kMinStepNs; ++r)
            spent += sample(pk, j, traced);
    };
    const auto slice = [&](bool traced, int jobs) {
        tr.setEnabled(traced);
        const std::size_t before = serve_recs[traced].size();
        const double busy = st.serve->runSlice(jobs, tr, serve_recs[traced]);
        if (!traced)
            slice_rates.push_back(jobs / busy);
        tr.setEnabled(false);
        for (std::size_t i = before; i < serve_recs[traced].size(); ++i)
            tally.note(serve_recs[traced][i].ok, "serve job");
    };

    // The timed window. Round-robin: step k samples every path on
    // program k (the -O list is spread evenly over the steps when it is
    // shorter). Serve slices follow the steps at the pace that spreads
    // the workload's job count over the window: the job count fixes the
    // tail percentile, so it must not grow with the host's speed. The
    // traced run takes an untraced sample or slice beside each traced
    // one for trace.overhead_pct.
    const std::int64_t window_start = nowNs();
    const double setup_s =
        seconds(window_start - process_start - setup_calib_ns);
    const std::int64_t deadline =
        window_start + static_cast<std::int64_t>(a.seconds * 1e9);
    int rounds = 0;
    bool full_round = false;
    while (!full_round || nowNs() < deadline) {
        for (std::size_t k = 0; k < n_prog; ++k) {
            for (int p = 0; p < kPathCount; ++p) {
                const PathKind pk = static_cast<PathKind>(p);
                const std::size_t n = subjectsOf(in, pk).size();
                const std::size_t j = k * n / n_prog;
                if (k > 0 && j == (k - 1) * n / n_prog)
                    continue;
                // Alternate which goes first: the second of a pair
                // finds the caches warm.
                const bool traced_first = a.trace && k % 2 == 1;
                if (traced_first)
                    step(pk, j, true);
                step(pk, j, false);
                if (a.trace && !traced_first)
                    step(pk, j, true);
            }
            // Due by 90% of the window, so a run serves all its jobs.
            const double due =
                static_cast<double>(serve_jobs) *
                std::min(1.0, seconds(nowNs() - window_start) /
                                  (0.9 * a.seconds));
            while (static_cast<double>(serve_recs[0].size()) < due) {
                const int jobs = static_cast<int>(
                    std::min(slice_jobs, serve_jobs - serve_recs[0].size()));
                slice(false, jobs);
                if (a.trace)
                    slice(true, jobs);
            }
            // Calibrate beside the paths, within ~3% of the window.
            if (calib_ms < 0.03 * seconds(nowNs() - window_start) * 1e3) {
                const CalibSample cs = calibrate();
                calib.push_back(cs);
                calib_ms += cs.vmMs + cs.mapMs + cs.chaseMs;
            }
            if (a.trace) {
                tr.setEnabled(true);
                const std::size_t jo = k * in.optPrograms.size() / n_prog;
                const bool opt_turn =
                    k == 0 || jo != (k - 1) * in.optPrograms.size() / n_prog;
                {
                    Request req(tr, "probe", static_cast<int>(k));
                    runProbes(in.programs[k],
                              opt_turn ? &in.optPrograms[jo] : nullptr, tr);
                }
                tr.setEnabled(false);
            }
            if (full_round && nowNs() >= deadline)
                break;
        }
        full_round = true;
        ++rounds;
    }
    const double window_s = seconds(nowNs() - window_start);
    st.counts["verify.divergences"] =
        static_cast<double>(st.divergent.size());
    const crisp::service::LedgerSnapshot ledger1 = st.serve->ledger();
    st.serve->stop();

    // End-to-end metrics (untraced samples). A job's latency is the
    // median over its passes.
    const std::vector<ServeRecord>& jobs = serve_recs[0];
    std::vector<std::vector<double>> per_job(pass_jobs);
    for (const ServeRecord& r : jobs) {
        if (r.ok)
            per_job[r.job].push_back(r.latencyMs);
    }
    std::vector<double> lat;
    for (const std::vector<double>& v : per_job) {
        if (!v.empty())
            lat.push_back(median(v));
    }
    std::sort(lat.begin(), lat.end());
    // The highest percentile with at least ten jobs beyond it.
    const std::size_t tail_idx = lat.size() > 11 ? lat.size() - 11 : 0;
    const double tail_pct =
        lat.empty() ? 0 : 100.0 * static_cast<double>(tail_idx + 1) /
                              static_cast<double>(lat.size());
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);

    if (calib.empty())
        calib.push_back(calibrate());
    const double host = hostIndex(calib);
    const double setup_host = hostIndex(setup_calib);

    // Timed figures as measured, then at the reference host speed of
    // their period. The serve figures too: with each job's latency a
    // median over its passes, what is left of their drift is mostly
    // the host's speed (README.md, Steadiness).
    std::vector<Metric> raw;
    for (int p = 0; p < kPathCount; ++p) {
        raw.push_back({std::string(pathName(static_cast<PathKind>(p))) +
                           "_s",
                       "s", passTime(samples[p].t[0])});
    }
    // The median slice: one stalled slice cannot move it. Slices do
    // comparable work (see ServeClient).
    raw.push_back({"serve_jobs_per_s", "1/s", median(slice_rates)});
    raw.push_back({"serve_p50_ms", "ms", median(lat)});
    raw.push_back({"serve_tail_ms", "ms", lat.empty() ? 0 : lat[tail_idx]});
    std::vector<Metric> m;
    for (const Metric& r : raw)
        m.push_back({r.name, r.unit,
                     r.name == "serve_jobs_per_s" ? r.value * host
                                                  : r.value / host});
    raw.push_back({"setup_s", "s", setup_s});
    m.push_back({"setup_s", "s", setup_s / setup_host});
    m.push_back({"sim_cycles", "cycles", st.counts["sim_cycles"]});
    m.push_back({"opt_sim_cycles", "cycles", st.counts["opt_sim_cycles"]});
    m.push_back({"table4_error_pct", "%", st.counts["table4_error_pct"]});
    m.push_back({"peak_rss_mb", "MB",
                 static_cast<double>(ru.ru_maxrss) / 1024.0});

    std::ostringstream detail;
    detail << "{\"workload\": \"" << a.workload << "\", \"seed\": " << a.seed
           << ", \"seconds\": " << fmt(a.seconds)
           << ", \"window_s\": " << fmt(window_s) << ", \"rounds\": " << rounds
           << ", \"setup_s_until_main\": "
           << fmt(seconds(main_entry - process_start))
           << ", \"setup_s_each\": [";
    for (std::size_t i = 0; i < setup_times.size(); ++i)
        detail << (i ? ", " : "") << fmt(setup_times[i]);
    detail << "], \"samples\": {";
    for (int p = 0; p < kPathCount; ++p) {
        std::size_t n = 0;
        for (const auto& v : samples[p].t[0])
            n += v.size();
        detail << (p ? ", " : "") << "\"" << pathName(static_cast<PathKind>(p))
               << "\": " << n;
    }
    detail << "}, \"serve_jobs\": " << lat.size()
           << ", \"serve_passes\": " << in.servePasses
           << ", \"serve_tail_percentile\": " << fmt(tail_pct)
           << ", \"serve_tail_samples_beyond\": "
           << (lat.size() > 11 ? 10 : 0) << ", \"service_workers\": "
           << serviceWorkers();
    for (const auto& [name, kernel] :
         {std::pair{"vm", &CalibSample::vmMs},
          std::pair{"map", &CalibSample::mapMs},
          std::pair{"chase", &CalibSample::chaseMs}}) {
        std::vector<double> v;
        for (const CalibSample& c : calib)
            v.push_back(c.*kernel);
        detail << ", \"calib_" << name << "_ms\": " << fmt(median(v));
    }
    detail << ", \"calib_samples\": " << calib.size()
           << ", \"host_index\": " << fmt(host)
           << ", \"setup_host_index\": " << fmt(setup_host)
           << ", \"measured\": {";
    for (std::size_t i = 0; i < raw.size(); ++i)
        detail << (i ? ", " : "") << "\"" << raw[i].name << "\": "
               << fmt(raw[i].value);
    detail << "}, \"counts\": {";
    bool first = true;
    for (const auto& [k, v] : st.counts) {
        detail << (first ? "" : ", ") << "\"" << k << "\": " << fmt(v);
        first = false;
    }
    detail << "}, \"failures\": [";
    for (std::size_t i = 0; i < tally.failures.size(); ++i) {
        std::string f = tally.failures[i];
        std::replace(f.begin(), f.end(), '"', '\'');
        std::replace(f.begin(), f.end(), '\\', '/');
        std::replace(f.begin(), f.end(), '\n', ' ');
        detail << (i ? ", " : "") << "\"" << f << "\"";
    }
    detail << "]";

    bool correct = tally.failed == 0 && exact_repeat;
    if (!exact_repeat)
        detail << ", \"error\": \"exact counts differ between set-ups\"";

    if (!a.trace) {
        detail << "}";
        std::printf("layerbench detail %s\n", detail.str().c_str());
        printResult(correct, tally, m);
        return 0;
    }

    // Per-layer metrics (traced samples).
    const std::string problem = tr.validate();
    if (!problem.empty()) {
        correct = false;
        detail << ", \"trace_error\": \"" << problem << "\"";
    }
    const LayerTimes lt = layerTimes(tr, std::max(n_prog,
                                                  in.optPrograms.size()));
    const auto layer = [&](const char* path, const char* name) {
        const auto it = lt.find({path, name});
        return it == lt.end() ? 0.0 : passTime(it->second);
    };
    Counts& c = st.counts;
    std::vector<Metric> pl;
    const auto ms = [&](const char* metric, const char* path,
                        const char* span) {
        pl.push_back({metric, "ms", layer(path, span)});
    };
    const auto count = [&](const char* metric, const char* unit) {
        pl.push_back({metric, unit, c[metric]});
    };
    const auto pct = [](double part, double whole) {
        return whole > 0 ? 100.0 * part / whole : 0.0;
    };
    ms("cc.compile_ms", "opt", "cc.compile");
    count("cc.text_bytes", "bytes");
    static const char* kSteps[] = {"cfg",      "spread",    "absint",
                                   "sccp",     "liveness",  "reachdefs",
                                   "callgraph", "targets",  "cost",
                                   "checks"};
    for (const char* step : kSteps) {
        const std::string span = std::string("analysis.") + step;
        pl.push_back({span + "_ms", "ms", layer("probe", span.c_str())});
    }
    ms("analysis.report_ms", "lint", "analysis.report");
    ms("analysis.hint_ms", "fast", "analysis.hint");
    count("analysis.nodes", "count");
    count("analysis.absint_steps", "count");
    count("analysis.sccp_steps", "count");
    count("analysis.targets_steps", "count");
    count("analysis.unconverged", "count");
    ms("analysis.opt_ms", "opt", "analysis.opt");
    ms("analysis.tv_ms", "probe", "analysis.tv");
    count("analysis.opt_rounds", "count");
    count("analysis.opt_instr_removed", "count");
    count("analysis.tv_fallbacks", "count");
    ms("sim.predecode_ms", "probe", "sim.predecode");
    ms("sim.translate_ms", "probe", "sim.translate");
    ms("sim.fast_construct_ms", "fast", "sim.fast_construct");
    ms("sim.fast_run_ms", "fast", "sim.fast_run");
    ms("sim.cycle_construct_ms", "cycle", "sim.cycle_construct");
    ms("sim.cycle_run_ms", "cycle", "sim.cycle_run");
    const double fast_run_s = layer("fast", "sim.fast_run") / 1e3;
    const double cycle_run_s = layer("cycle", "sim.cycle_run") / 1e3;
    pl.push_back({"sim.fast_minstr_per_s", "Minstr/s",
                  fast_run_s > 0 ? c["fast.instructions"] / fast_run_s / 1e6
                                 : 0});
    pl.push_back({"sim.cycle_mcycles_per_s", "Mcycles/s",
                  cycle_run_s > 0 ? c["sim_cycles"] / cycle_run_s / 1e6 : 0});
    pl.push_back({"sim.ic_hit_pct", "%",
                  pct(c["fast.ic_hits"],
                      c["fast.ic_hits"] + c["fast.ic_misses"])});
    count("sim.instructions", "count");
    count("sim.issued", "count");
    count("sim.folded_branches", "count");
    count("sim.mispredicts", "count");
    count("sim.branch_delay_cycles", "cycles");
    pl.push_back({"sim.dic_miss_pct", "%",
                  pct(c["sim.dic_misses"],
                      c["sim.dic_hits"] + c["sim.dic_misses"])});
    count("sim.issue_stall_cycles", "cycles");
    ms("interp.run_ms", "probe", "interp.run");
    ms("verify.generate_ms", "probe", "verify.generate");
    ms("verify.lockstep_ms", "check", "verify.lockstep");
    ms("verify.enginediff_ms", "check", "verify.enginediff");
    ms("verify.oracle_ms", "check", "verify.oracle");
    count("verify.divergences", "count");

    const std::vector<ServeRecord>& tjobs = serve_recs[1];
    std::vector<double> proto, submit, job, tlat;
    double hits = 0, sims = 0, fast_sims = 0;
    for (const ServeRecord& r : tjobs) {
        proto.push_back(r.protocolMs);
        submit.push_back(r.submitMs);
        job.push_back(r.jobMs);
        tlat.push_back(r.latencyMs);
        hits += r.hit ? 1 : 0;
        sims += r.hit ? 0 : 1;
        fast_sims += !r.hit && r.fast ? 1 : 0;
    }
    const auto delta = [&](std::uint64_t crisp::service::LedgerSnapshot::*f) {
        return static_cast<double>(ledger1.*f - ledger0.*f);
    };
    const double all_jobs =
        static_cast<double>(serve_recs[0].size() + serve_recs[1].size());
    const double all_sims = all_jobs - delta(
        &crisp::service::LedgerSnapshot::resultCacheHits);
    double all_fast_sims = fast_sims;
    for (const ServeRecord& r : serve_recs[0])
        all_fast_sims += !r.hit && r.fast ? 1 : 0;
    pl.push_back({"service.protocol_ms", "ms", median(proto)});
    pl.push_back({"service.submit_ms", "ms", median(submit)});
    pl.push_back({"service.job_ms", "ms", median(job)});
    pl.push_back({"service.cache_hit_pct", "%",
                  pct(hits, static_cast<double>(tjobs.size()))});
    pl.push_back({"service.predecode_share_pct", "%",
                  pct(delta(&crisp::service::LedgerSnapshot::predecodeShares),
                      all_sims)});
    pl.push_back(
        {"service.translation_share_pct", "%",
         pct(delta(&crisp::service::LedgerSnapshot::translationShares),
             all_fast_sims)});
    pl.push_back({"service.shed", "count",
                  delta(&crisp::service::LedgerSnapshot::shed)});
    pl.push_back({"service.timed_out", "count",
                  delta(&crisp::service::LedgerSnapshot::timedOut)});
    pl.push_back({"service.failed", "count",
                  delta(&crisp::service::LedgerSnapshot::failed)});

    // Overhead: traced against untraced time, path by path.
    double traced_total = 0, untraced_total = 0;
    detail << ", \"trace_overhead_pct\": {";
    for (int p = 0; p < kPathCount; ++p) {
        const double u = passTime(samples[p].t[0]);
        const double t = passTime(samples[p].t[1]);
        untraced_total += u;
        traced_total += t;
        detail << (p ? ", " : "") << "\""
               << pathName(static_cast<PathKind>(p)) << "\": "
               << fmt(pct(t - u, u));
    }
    std::vector<double> ulat;
    for (const ServeRecord& r : serve_recs[0])
        ulat.push_back(r.latencyMs);
    detail << ", \"serve\": "
           << fmt(pct(median(tlat) - median(ulat), median(ulat))) << "}";
    pl.push_back({"trace.overhead_pct", "%",
                  pct(traced_total - untraced_total, untraced_total)});
    const auto cov = coverage(tr);
    double covered = 0, total = 0;
    detail << ", \"trace_coverage_pct\": {";
    first = true;
    for (const auto& [path, ct] : cov) {
        covered += ct.first;
        total += ct.second;
        detail << (first ? "" : ", ") << "\"" << path << "\": "
               << fmt(pct(ct.first, ct.second));
        first = false;
    }
    detail << "}, \"spans\": " << tr.spans().size() << "}";
    pl.push_back({"trace.coverage_pct", "%", pct(covered, total)});

    if (!a.traceOut.empty() && !tr.write(a.traceOut)) {
        std::fprintf(stderr, "layerbench: cannot write %s\n",
                     a.traceOut.c_str());
        return 1;
    }
    std::printf("layerbench detail %s\n", detail.str().c_str());
    printResult(correct, tally, pl);
    return 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: layerbench --workload corpus_long|corpus_short|"
                 "torture --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE]\n"
                 "       layerbench --selftest\n");
    return 2;
}

} // namespace

} // namespace layerbench

int
main(int argc, char** argv)
{
    using namespace layerbench;
    const std::int64_t main_entry = nowNs();
    const std::int64_t process_start = processStartNs(main_entry);
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--selftest")
            return runSelftest();
        if (i + 1 >= argc)
            return usage();
        const char* v = argv[++i];
        char* end = nullptr;
        if (arg == "--workload") {
            a.workload = v;
        } else if (arg == "--seed") {
            a.seed = std::strtoull(v, &end, 10);
        } else if (arg == "--seconds") {
            a.seconds = std::strtod(v, &end);
        } else if (arg == "--trace") {
            a.trace = std::strcmp(v, "1") == 0;
            if (!a.trace && std::strcmp(v, "0") != 0)
                return usage();
        } else if (arg == "--trace-out") {
            a.traceOut = v;
        } else if (arg == "--corrupt") {
            a.corrupt = v;
        } else {
            return usage();
        }
        if (end != nullptr && (*end != '\0' || end == v))
            return usage();
    }
    const auto& names = workloadNames();
    if (std::find(names.begin(), names.end(), a.workload) == names.end() ||
        !(a.seconds > 0))
        return usage();
    try {
        return run(a, process_start, main_entry);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "layerbench: %s\n", e.what());
        return 1;
    }
}
