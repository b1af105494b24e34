/**
 * @file
 * SimService implementation. See service.hh for the robustness
 * contract; the comments here explain only the locking and ordering
 * choices that keep the ledger invariant true at every instant.
 */

#include "service.hh"

#include <algorithm>
#include <sstream>

#include "isa/objfile.hh"
#include "sim/cpu.hh"
#include "sim/fastengine.hh"

namespace crisp::service
{

namespace
{

/** splitmix64 — the deterministic coin behind chaos faults + jitter. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

bool
isPow2(std::uint32_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

SimService::SimService(const ServiceConfig& cfg)
    : cfg_(cfg), registry_(cfg.programCacheCap),
      results_(cfg.resultCacheCap), queue_(cfg.queueCap)
{
    const int lanes = std::max(1, cfg_.workers);
    pool_ = std::make_unique<util::ThreadPool>(lanes);
    for (int i = 0; i < lanes; ++i)
        pool_->submit([this] { workerLane(); });
}

SimService::~SimService()
{
    shutdown(false);
}

SubmitStatus
SimService::submit(const JobRequest& req, Completion done,
                   std::string* why)
{
    auto reject = [&](const std::string& reason) {
        if (why != nullptr)
            *why = reason;
        std::lock_guard<std::mutex> lk(mu_);
        ++ledger_.submitted;
        ++ledger_.rejected;
        return SubmitStatus::kRejected;
    };

    if (shutdownRequested_.load(std::memory_order_relaxed))
        return reject("service is draining");

    // --- Admission validation: nothing below may cost worker time ----
    if (req.image.size() > cfg_.maxImageBytes)
        return reject("image of " + std::to_string(req.image.size()) +
                      " bytes exceeds the admission cap of " +
                      std::to_string(cfg_.maxImageBytes));
    if (req.foldPolicy > FoldPolicy::kAll)
        return reject("fold policy out of range");
    if (req.predictor > PredictorKind::kDynamic2)
        return reject("predictor out of range");
    if (req.engine > EngineKind::kInterp)
        return reject("engine out of range");
    if (req.engine == EngineKind::kInterp)
        return reject("engine=interp is not served; use engine=fast "
                      "for architectural-only runs");
    if (!isPow2(req.dicEntries) || req.dicEntries > 65536)
        return reject("dicEntries must be a power of two <= 65536");
    if (req.memLatency > 10'000)
        return reject("memLatency out of range");

    Program prog;
    try {
        // The hardened loader: every declared length validated before a
        // byte is trusted.
        prog = loadObject(req.image);
    } catch (const CrispError& e) {
        return reject(std::string("object rejected by loader: ") +
                      e.what());
    }
    if (prog.memBytes > cfg_.maxMemBytes)
        return reject("program declares " +
                      std::to_string(prog.memBytes) +
                      " memory bytes, above the service cap of " +
                      std::to_string(cfg_.maxMemBytes));

    // Soft knobs are clamped, not rejected: a too-generous budget is a
    // policy matter, not a malformed request.
    const std::uint32_t deadline_ms = std::min(
        req.deadlineMs == 0 ? cfg_.defaultDeadlineMs : req.deadlineMs,
        cfg_.maxDeadlineMs);
    const std::uint64_t max_cycles = std::min(
        req.maxCycles == 0 ? cfg_.defaultMaxCycles : req.maxCycles,
        cfg_.maxCyclesCap);

    Job job;
    job.jobId = req.jobId;
    job.key.hash = fnv1a(req.image);
    job.key.foldPolicy = req.foldPolicy;
    job.key.predictor = req.predictor;
    job.key.engine = req.engine;
    job.key.dicEntries = req.dicEntries;
    job.key.memLatency = req.memLatency;
    job.key.maxCycles = max_cycles;
    job.simCfg.foldPolicy = req.foldPolicy;
    job.simCfg.predictor = req.predictor;
    job.simCfg.dicEntries = static_cast<int>(req.dicEntries);
    job.simCfg.memLatency = static_cast<int>(req.memLatency);
    job.simCfg.maxCycles = max_cycles;
    job.maxRetries =
        std::min<std::uint8_t>(req.maxRetries, cfg_.retryCap);
    // Deadline from ADMISSION: queue wait counts. An overloaded daemon
    // times jobs out instead of serving them arbitrarily late.
    job.deadline = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(deadline_ms);
    job.done = std::move(done);

    // --- Accepted. Fast terminal states first. -----------------------
    // Quarantine: a hash that keeps blowing deadlines fast-fails here
    // so one poisoned input cannot monopolize the worker fleet.
    int strikes = 0;
    {
        std::lock_guard<std::mutex> lk(mu_);
        const auto it = deadlineStrikes_.find(job.key.hash);
        if (it != deadlineStrikes_.end() &&
            it->second >= cfg_.quarantineStrikes) {
            strikes = it->second;
            ++ledger_.submitted;
            ++ledger_.accepted;
            ++ledger_.quarantined;
            ++ledger_.failed;
        }
    }
    if (strikes > 0) {
        JobResult res;
        res.jobId = job.jobId;
        res.engine = req.engine;
        res.state = JobState::kFailed;
        res.detail = "program quarantined after " +
                     std::to_string(strikes) + " deadline strikes";
        job.done(res);
        return SubmitStatus::kAccepted;
    }

    // Result cache: deterministic simulation means the millionth
    // request for a hot workload is a map lookup.
    if (auto cached = results_.lookup(job.key)) {
        cached->jobId = job.jobId;
        cached->retries = 0;
        {
            std::lock_guard<std::mutex> lk(mu_);
            ++ledger_.submitted;
            ++ledger_.accepted;
            ++ledger_.done;
            ++ledger_.resultCacheHits;
        }
        job.done(*cached);
        return SubmitStatus::kAccepted;
    }

    job.program = registry_.intern(job.key.hash, std::move(prog));

    // Count the job as queued BEFORE pushing: a worker may pop it the
    // instant it lands, and its queued-- must never race ahead of our
    // queued++ (the ledger invariant holds at every instant).
    {
        std::lock_guard<std::mutex> lk(mu_);
        ++ledger_.submitted;
        ++ledger_.accepted;
        ++ledger_.queued;
    }
    Completion cb = job.done; // survives the move into the queue
    const std::uint64_t job_id = job.jobId;
    const auto push = queue_.tryPush(std::move(job));
    if (push == BoundedQueue<Job>::Push::kOk) {
        std::lock_guard<std::mutex> lk(mu_);
        updateHealthLocked();
        return SubmitStatus::kAccepted;
    }

    // Shed: the queue never blocks admission — a full daemon answers
    // "no" in microseconds instead of stacking latency on everyone.
    {
        std::lock_guard<std::mutex> lk(mu_);
        --ledger_.queued;
        ++ledger_.shed;
        noteShedLocked();
    }
    JobResult res;
    res.jobId = job_id;
    res.engine = req.engine;
    res.state = JobState::kShed;
    res.detail = push == BoundedQueue<Job>::Push::kFull
                     ? "queue full (load shed)"
                     : "daemon shutting down";
    cb(res);
    return SubmitStatus::kAccepted;
}

void
SimService::workerLane()
{
    while (auto job = queue_.pop()) {
        {
            std::lock_guard<std::mutex> lk(mu_);
            --ledger_.queued;
            ++ledger_.inFlight;
            updateHealthLocked();
        }
        JobResult res = runJob(*job);
        finish(*job, std::move(res));
    }
}

JobResult
SimService::runJob(Job& job)
{
    JobResult res;
    res.jobId = job.jobId;
    res.engine = job.key.engine;
    int attempt = 0;
    for (;;) {
        res.retries = static_cast<std::uint8_t>(
            std::min(attempt, 255));
        if (std::chrono::steady_clock::now() >= job.deadline) {
            res.state = JobState::kTimedOut;
            res.detail = attempt == 0
                             ? "deadline expired before the run started "
                               "(queue wait counts)"
                             : "deadline expired across retries";
            strike(job.key.hash);
            return res;
        }

        bool transient = false;
        std::string transient_why;
        if (chaosTransient(job.jobId, attempt)) {
            transient = true;
            transient_why = "injected transient fault";
        } else {
            try {
                const auto timer = watchdog_.armAt(job.deadline);
                // Architectural-only jobs run on the threaded-code
                // fast engine (cycles reported as 0); timed jobs on
                // the cycle pipeline. Both share the warm predecode
                // tables and honor the same cooperative cancel flag.
                // Fast jobs additionally reuse the registry's warm
                // Translation, so a hot program pays zero decode AND
                // zero translate cost per request.
                const bool fast = job.key.engine == EngineKind::kFast;
                PredecodeCache& tables = registry_.sharedTables(
                    job.program, job.simCfg.foldPolicy);
                const Translation* warm =
                    fast ? &registry_.sharedTranslation(
                               job.program, job.simCfg.foldPolicy)
                         : nullptr;
                {
                    std::lock_guard<std::mutex> lk(mu_);
                    ++ledger_.predecodeShares;
                    ledger_.translationShares += fast;
                }
                SimStats st;
                Word accum = 0;
                if (fast) {
                    FastEngine eng(job.program->prog, job.simCfg,
                                   &tables, warm);
                    eng.setCancelFlag(&timer->fired);
                    st = eng.run();
                    accum = eng.accum();
                } else {
                    CrispCpu cpu(job.program->prog, job.simCfg,
                                 &tables);
                    cpu.setCancelFlag(&timer->fired);
                    st = cpu.run();
                    accum = cpu.accum();
                }
                timer->disarm();
                if (st.cancelled) {
                    res.state = JobState::kTimedOut;
                    res.detail =
                        "wall-clock deadline fired mid-simulation";
                    strike(job.key.hash);
                    return res;
                }
                if (st.faulted) {
                    // Deterministic: retrying would fault identically.
                    res.state = JobState::kFailed;
                    res.detail = "machine fault: " + st.faultReason;
                    return res;
                }
                if (st.timedOut) {
                    // Also deterministic (simulated cycles or
                    // instructions, not wall clock).
                    res.state = JobState::kFailed;
                    res.detail =
                        job.key.engine == EngineKind::kFast
                            ? "instruction budget of " +
                                  std::to_string(
                                      job.simCfg.maxCycles) +
                                  " exhausted"
                            : "simulated-cycle budget of " +
                                  std::to_string(
                                      job.simCfg.maxCycles) +
                                  " exhausted";
                    return res;
                }
                res.state = JobState::kDone;
                res.exitValue = static_cast<std::uint32_t>(accum);
                res.cycles = st.cycles;
                res.instructions = st.apparent;
                res.detail.clear();
                results_.store(job.key, res);
                return res;
            } catch (const std::exception& e) {
                // Unexpected (the simulator's own invariants tripped,
                // allocation failure, ...): contained here — a poisoned
                // job must never take its worker down — and treated as
                // transient.
                transient = true;
                transient_why =
                    std::string("unexpected exception: ") + e.what();
            }
        }

        (void)transient;
        if (attempt >= static_cast<int>(job.maxRetries)) {
            res.state = JobState::kFailed;
            res.detail = transient_why + "; retries exhausted after " +
                         std::to_string(attempt + 1) + " attempts";
            return res;
        }
        {
            std::lock_guard<std::mutex> lk(mu_);
            ++ledger_.retriesScheduled;
        }
        ++attempt;
        if (!backoffSleep(job.jobId, attempt, job.deadline)) {
            res.state = JobState::kFailed;
            res.retries = static_cast<std::uint8_t>(attempt);
            res.detail =
                transient_why + "; shutdown interrupted the backoff";
            return res;
        }
    }
}

void
SimService::finish(const Job& job, JobResult res)
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        --ledger_.inFlight;
        switch (res.state) {
          case JobState::kDone:
            ++ledger_.done;
            break;
          case JobState::kFailed:
            ++ledger_.failed;
            break;
          case JobState::kShed:
            ++ledger_.shed;
            break;
          case JobState::kTimedOut:
            ++ledger_.timedOut;
            break;
        }
        updateHealthLocked();
        if (ledger_.queued == 0 && ledger_.inFlight == 0)
            idleCv_.notify_all();
    }
    if (job.done)
        job.done(res);
}

void
SimService::strike(std::uint64_t hash)
{
    std::lock_guard<std::mutex> lk(mu_);
    ++deadlineStrikes_[hash];
}

bool
SimService::chaosTransient(std::uint64_t job_id, int attempt) const
{
    if (cfg_.transientFaultPerMille == 0)
        return false;
    const std::uint64_t coin =
        mix64(job_id * 0x2545f4914f6cdd1dull +
              static_cast<std::uint64_t>(attempt));
    return coin % 1000 < cfg_.transientFaultPerMille;
}

bool
SimService::backoffSleep(std::uint64_t job_id, int attempt,
                         std::chrono::steady_clock::time_point deadline)
{
    // Exponential with deterministic jitter in [delay/2, delay]: the
    // classic thundering-herd spreader, reproducible for tests.
    const int shift = std::min(attempt - 1, 20);
    const std::uint64_t full = std::min<std::uint64_t>(
        cfg_.backoffCapMs,
        static_cast<std::uint64_t>(cfg_.backoffBaseMs) << shift);
    const std::uint64_t half = full / 2;
    const std::uint64_t jitter =
        full > half
            ? mix64(job_id ^ (static_cast<std::uint64_t>(attempt) << 32))
                  % (full - half + 1)
            : 0;
    auto wake = std::chrono::steady_clock::now() +
                std::chrono::milliseconds(half + jitter);
    if (wake > deadline)
        wake = deadline; // never sleep past the deadline
    std::unique_lock<std::mutex> lk(backoffMu_);
    backoffCv_.wait_until(lk, wake, [this] {
        return abortRequested_.load(std::memory_order_relaxed);
    });
    return !abortRequested_.load(std::memory_order_relaxed);
}

void
SimService::noteShedLocked()
{
    if (health_ == HealthState::kOk) {
        health_ = HealthState::kDegraded;
        ++ledger_.degradedTransitions;
    }
}

void
SimService::updateHealthLocked()
{
    if (health_ == HealthState::kDraining)
        return;
    const double cap = static_cast<double>(queue_.capacity());
    const double occ =
        cap > 0 ? static_cast<double>(ledger_.queued) / cap : 0.0;
    if (health_ == HealthState::kOk && occ >= cfg_.degradedHighWater) {
        health_ = HealthState::kDegraded;
        ++ledger_.degradedTransitions;
    } else if (health_ == HealthState::kDegraded &&
               occ <= cfg_.degradedLowWater) {
        health_ = HealthState::kOk;
        ++ledger_.recoveredTransitions;
    }
}

void
SimService::shutdown(bool drain)
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (shutdownStarted_)
            return;
        shutdownStarted_ = true;
        health_ = HealthState::kDraining;
    }
    shutdownRequested_.store(true, std::memory_order_relaxed);
    if (!drain) {
        abortRequested_.store(true, std::memory_order_relaxed);
        backoffCv_.notify_all();
    }
    auto orphans = queue_.close(drain ? BoundedQueue<Job>::Close::kDrain
                                      : BoundedQueue<Job>::Close::kAbort);
    // Every orphan still gets its exactly-one terminal state.
    if (!orphans.empty()) {
        std::lock_guard<std::mutex> lk(mu_);
        ledger_.queued -= orphans.size();
        ledger_.shed += orphans.size();
    }
    for (Job& j : orphans) {
        JobResult res;
        res.jobId = j.jobId;
        res.state = JobState::kShed;
        res.detail = "shed by aborted shutdown";
        if (j.done)
            j.done(res);
    }
    // Lanes exit once the closed queue runs dry; kDrain joins them.
    pool_->stop(util::ThreadPool::Stop::kDrain);
    std::lock_guard<std::mutex> lk(mu_);
    idleCv_.notify_all();
}

void
SimService::quiesce()
{
    std::unique_lock<std::mutex> lk(mu_);
    idleCv_.wait(lk, [this] {
        return ledger_.queued == 0 && ledger_.inFlight == 0;
    });
}

HealthState
SimService::health() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return health_;
}

LedgerSnapshot
SimService::ledger() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return ledger_;
}

} // namespace crisp::service
