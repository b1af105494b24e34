/**
 * @file
 * crisploadgen — load generator and service-level chaos harness for
 * crispd.
 *
 *   crisploadgen --spawn=CRISPD_BIN [--socket=PATH] [--chaos] [--smoke]
 *   crisploadgen --socket=PATH [--clients=N] [--jobs=N]
 *
 * With --spawn the harness forks its own crispd (with a small queue and
 * aggressive quarantine so the failure paths are actually reachable),
 * drives it, then shuts it down and checks the daemon's exit status —
 * one command runs the whole service-level test, which is how CI uses
 * it (`crisploadgen --spawn=$BIN --chaos --smoke`).
 *
 * The chaos sweep exercises every failure class in docs/SERVICE.md and
 * asserts the service-level invariants from the outside:
 *
 *   1. well-formed load: every accepted job gets exactly one result;
 *   2. result cache: a duplicate submission is a cache hit with
 *      identical cycle counts (determinism observed over the wire);
 *   3. admission: oversized and malformed images are rejected with
 *      kError, never simulated;
 *   2b. mixed engines: interleaved fast-engine and cycle-pipeline jobs
 *      over the same images — every result carries the engine it was
 *      requested with, fast results report zero cycles, both engines
 *      agree architecturally, and a cached result is never served
 *      across engine modes (the cache-keying/ledger trap);
 *   4. protocol: a garbage frame gets one kError and a dropped
 *      connection — and the daemon keeps serving others;
 *   5. a mid-frame disconnect leaves the daemon healthy;
 *   6. a non-terminating program times out at its deadline and its
 *      hash is quarantined after repeated strikes;
 *   7. burst overload sheds (kShed) instead of stalling, health
 *      degrades and then recovers (ledger transition counters);
 *   8. the final ledger is consistent: submitted == accepted+rejected,
 *      accepted == done+failed+shed+timedOut, nothing queued/in-flight.
 *
 * Exit status 0 only if every assertion and the daemon's own shutdown
 * ledger check pass.
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "asm/assembler.hh"
#include "cli.hh"
#include "isa/objfile.hh"
#include "service/protocol.hh"

namespace
{

using namespace crisp;
using namespace crisp::service;

int g_failures = 0;
std::mutex g_reportMu;

void
fail(const std::string& what)
{
    std::lock_guard<std::mutex> lk(g_reportMu);
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
}

void
expect(bool ok, const std::string& what)
{
    if (!ok)
        fail(what);
}

std::atomic<std::uint64_t> g_nextJobId{1};

// --- programs ---------------------------------------------------------

/** A counted loop; distinct counts give distinct program hashes. */
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

/** Never halts; only the wall-clock deadline can end it. */
std::vector<std::uint8_t>
infiniteImage()
{
    return saveObject(assemble(R"(
        .entry s
s:      jmp s
    )"));
}

// --- socket client ----------------------------------------------------

class Client
{
  public:
    /** Connect with retry (the daemon may still be binding). */
    explicit Client(const std::string& path)
    {
        for (int attempt = 0; attempt < 100; ++attempt) {
            fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
            if (fd_ < 0)
                break;
            sockaddr_un addr{};
            addr.sun_family = AF_UNIX;
            std::strncpy(addr.sun_path, path.c_str(),
                         sizeof addr.sun_path - 1);
            if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                          sizeof addr) == 0) {
                timeval tv{30, 0}; // a stuck read is a harness failure
                ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv,
                             sizeof tv);
                return;
            }
            ::close(fd_);
            fd_ = -1;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(50));
        }
    }

    ~Client()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    Client(const Client&) = delete;
    Client& operator=(const Client&) = delete;

    bool ok() const { return fd_ >= 0; }

    void
    sendRaw(const std::vector<std::uint8_t>& bytes)
    {
        std::size_t off = 0;
        while (off < bytes.size()) {
            const ssize_t n = ::send(fd_, bytes.data() + off,
                                     bytes.size() - off, MSG_NOSIGNAL);
            if (n <= 0)
                return;
            off += static_cast<std::size_t>(n);
        }
    }

    void
    sendFrame(FrameType type, const std::vector<std::uint8_t>& payload)
    {
        std::vector<std::uint8_t> out;
        appendFrame(out, type, payload);
        sendRaw(out);
    }

    std::uint64_t
    submit(JobRequest req)
    {
        if (req.jobId == 0)
            req.jobId = g_nextJobId.fetch_add(1);
        sendFrame(FrameType::kSubmit, req.encode());
        return req.jobId;
    }

    /** Next frame, or nullopt on EOF/timeout/parse failure. */
    std::optional<Frame>
    recvFrame()
    {
        for (;;) {
            try {
                if (auto f = parser_.next())
                    return f;
            } catch (const ProtocolError&) {
                return std::nullopt;
            }
            std::uint8_t buf[8192];
            const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
            if (n <= 0)
                return std::nullopt;
            parser_.feed(buf, static_cast<std::size_t>(n));
        }
    }

    /** Frames until @p count kResult frames arrive (kError counts when
     *  @p errors_count). */
    std::vector<Frame>
    collect(std::size_t count, bool errors_count = false)
    {
        std::vector<Frame> out;
        std::size_t terminal = 0;
        while (terminal < count) {
            auto f = recvFrame();
            if (!f)
                break;
            if (f->type == FrameType::kResult ||
                (errors_count && f->type == FrameType::kError))
                ++terminal;
            out.push_back(std::move(*f));
        }
        return out;
    }

    void
    halfClose()
    {
        ::shutdown(fd_, SHUT_WR);
    }

  private:
    int fd_ = -1;
    FrameParser parser_;
};

HealthReply
probeHealth(const std::string& socket)
{
    Client c(socket);
    expect(c.ok(), "health probe could not connect");
    c.sendFrame(FrameType::kHealth, {});
    const auto f = c.recvFrame();
    if (!f || f->type != FrameType::kHealthReply) {
        fail("health probe got no kHealthReply");
        return {};
    }
    return HealthReply::decode(f->payload);
}

// --- phases -----------------------------------------------------------

/** Phase 1: plain concurrent load; exactly one result per job. */
void
phaseLoad(const std::string& socket, int clients, int jobs_per_client)
{
    std::vector<std::thread> threads;
    for (int t = 0; t < clients; ++t) {
        threads.emplace_back([&, t] {
            Client c(socket);
            if (!c.ok()) {
                fail("load client could not connect");
                return;
            }
            // One outstanding job per client: concurrency across
            // clients without overrunning the (deliberately tiny)
            // queue — burst overload is phaseBurst's business.
            for (int i = 0; i < jobs_per_client; ++i) {
                JobRequest req;
                req.image =
                    countedImage(1000 + t * jobs_per_client + i);
                req.deadlineMs = 20'000;
                const std::uint64_t id = c.submit(std::move(req));
                const auto frames = c.collect(1);
                if (frames.empty() ||
                    frames.back().type != FrameType::kResult) {
                    fail("load job got no result");
                    continue;
                }
                const JobResult res =
                    JobResult::decode(frames.back().payload);
                expect(res.jobId == id, "result for the wrong job");
                expect(res.state == JobState::kDone,
                       "load job not done: " + res.detail);
                expect(res.cycles > 0, "done job reports zero cycles");
            }
        });
    }
    for (auto& t : threads)
        t.join();
}

/** Phase 2: duplicate submission is a cache hit, cycle-identical. */
void
phaseCache(const std::string& socket)
{
    Client c(socket);
    if (!c.ok()) {
        fail("cache client could not connect");
        return;
    }
    const auto image = countedImage(777'001);
    JobRequest req;
    req.image = image;
    req.deadlineMs = 20'000;
    c.submit(std::move(req));
    const auto frames1 = c.collect(1);
    JobRequest req2;
    req2.image = image;
    req2.deadlineMs = 20'000;
    c.submit(std::move(req2));
    const auto frames2 = c.collect(1);
    if (frames1.empty() || frames2.empty() ||
        frames1.back().type != FrameType::kResult ||
        frames2.back().type != FrameType::kResult) {
        fail("cache phase lost a result");
        return;
    }
    const JobResult r1 = JobResult::decode(frames1.back().payload);
    const JobResult r2 = JobResult::decode(frames2.back().payload);
    expect(r1.state == JobState::kDone, "cache warm run not done");
    expect(r2.state == JobState::kDone, "cache hit run not done");
    expect(!r1.cacheHit, "first run claims a cache hit");
    expect(r2.cacheHit, "duplicate run missed the result cache");
    expect(r1.cycles == r2.cycles && r1.exitValue == r2.exitValue,
           "cache hit disagrees with the original run");
}

/**
 * Phase 2b: mixed-engine traffic. The same program runs under both
 * engines, sequenced to catch cache-keying bugs: a warm cycle result
 * must never be replayed to a fast request (and vice versa), repeats
 * on the same engine must hit, and an interleaved concurrent batch
 * must hand every job a result tagged with its own engine.
 */
void
phaseMixedEngine(const std::string& socket)
{
    Client c(socket);
    if (!c.ok()) {
        fail("mixed-engine client could not connect");
        return;
    }
    const auto image = countedImage(901'001);
    auto one = [&](EngineKind engine) -> std::optional<JobResult> {
        JobRequest req;
        req.image = image;
        req.engine = engine;
        req.deadlineMs = 20'000;
        c.submit(std::move(req));
        const auto frames = c.collect(1);
        if (frames.empty() || frames.back().type != FrameType::kResult) {
            fail("mixed-engine phase lost a result");
            return std::nullopt;
        }
        return JobResult::decode(frames.back().payload);
    };

    const auto cyc = one(EngineKind::kCycle);
    const auto fast = one(EngineKind::kFast);
    const auto cyc2 = one(EngineKind::kCycle);
    const auto fast2 = one(EngineKind::kFast);
    if (!cyc || !fast || !cyc2 || !fast2)
        return;
    expect(cyc->state == JobState::kDone &&
               fast->state == JobState::kDone,
           "mixed-engine warm runs not done");
    expect(cyc->engine == EngineKind::kCycle &&
               fast->engine == EngineKind::kFast,
           "result engine does not match the request engine");
    expect(cyc->cycles > 0, "cycle job reports zero cycles");
    expect(fast->cycles == 0, "fast job reports nonzero cycles");
    expect(!fast->cacheHit,
           "fast request served the cached cycle result "
           "(engine missing from the cache key)");
    expect(fast->exitValue == cyc->exitValue &&
               fast->instructions == cyc->instructions,
           "engines disagree architecturally over the wire");
    expect(cyc2->cacheHit && cyc2->engine == EngineKind::kCycle &&
               cyc2->cycles == cyc->cycles,
           "cycle repeat missed its own cached result");
    expect(fast2->cacheHit && fast2->engine == EngineKind::kFast &&
               fast2->cycles == 0,
           "fast repeat missed its own cached result");

    // Interleaved batch with fresh images, one fast + one cycle job of
    // the SAME image in flight per round (the tiny spawn-mode queue
    // sheds bigger bursts — overload is phaseBurst's business): every
    // job gets exactly one result tagged with the engine it asked for.
    for (int round = 0; round < 6; ++round) {
        const auto img = countedImage(902'000 + round);
        std::map<std::uint64_t, EngineKind> want;
        for (const EngineKind engine :
             {EngineKind::kFast, EngineKind::kCycle}) {
            JobRequest req;
            req.image = img;
            req.engine = engine;
            req.deadlineMs = 20'000;
            want[c.submit(std::move(req))] = engine;
        }
        std::map<std::uint64_t, int> seen;
        for (const Frame& f : c.collect(want.size())) {
            if (f.type != FrameType::kResult)
                continue;
            const JobResult res = JobResult::decode(f.payload);
            ++seen[res.jobId];
            const auto it = want.find(res.jobId);
            if (it == want.end()) {
                fail("mixed-engine batch got a result for an unknown "
                     "job");
                continue;
            }
            expect(res.state == JobState::kDone,
                   "mixed-engine batch job not done: " + res.detail);
            expect(res.engine == it->second,
                   "batch result engine does not match its request");
            expect((res.engine == EngineKind::kFast) ==
                       (res.cycles == 0),
                   "batch result cycle count inconsistent with engine");
        }
        for (const auto& [id, engine] : want) {
            (void)engine;
            expect(seen[id] == 1,
                   "mixed-engine job " + std::to_string(id) + " got " +
                       std::to_string(seen[id]) + " results");
        }
    }
}

/**
 * Phase 2c: warm-replay hammering. N clients replay the SAME
 * program-hash (the loop counting to @p count) on the fast engine,
 * each job with a distinct cycle budget — a distinct PolicyKey — so
 * the result cache never answers and every accepted job really
 * simulates. The registry must serve all of them from one warm table
 * and one warm Translation: the predecodeShares and translationShares
 * ledger counters each grow by exactly the number of simulated runs,
 * and every run agrees architecturally with the first.
 */
void
phaseWarmReplay(const std::string& socket, int clients,
                int jobs_per_client, int count)
{
    const LedgerSnapshot before = probeHealth(socket).ledger;
    const auto image = countedImage(count);
    std::atomic<std::uint64_t> simulated{0};
    std::atomic<std::uint32_t> first_exit{0};
    std::atomic<std::uint64_t> first_instr{0};
    std::atomic<bool> have_first{false};

    std::vector<std::thread> threads;
    for (int t = 0; t < clients; ++t) {
        threads.emplace_back([&, t] {
            Client c(socket);
            if (!c.ok()) {
                fail("warm-replay client could not connect");
                return;
            }
            for (int j = 0; j < jobs_per_client; ++j) {
                JobRequest req;
                req.image = image;
                req.engine = EngineKind::kFast;
                req.deadlineMs = 20'000;
                req.maxCycles = 2'000'000 +
                                static_cast<std::uint64_t>(t) * 1'000 +
                                static_cast<std::uint64_t>(j);
                const std::uint64_t id = c.submit(std::move(req));
                const auto frames = c.collect(1);
                if (frames.empty() ||
                    frames.back().type != FrameType::kResult) {
                    fail("warm-replay job got no result");
                    continue;
                }
                const JobResult res =
                    JobResult::decode(frames.back().payload);
                expect(res.jobId == id,
                       "warm-replay result for the wrong job");
                expect(res.state == JobState::kDone,
                       "warm-replay job not done: " + res.detail);
                expect(res.engine == EngineKind::kFast,
                       "warm-replay result from the wrong engine");
                expect(res.cycles == 0,
                       "fast warm-replay job reports cycles");
                expect(!res.cacheHit,
                       "distinct budgets must defeat the result cache");
                if (res.state != JobState::kDone)
                    continue;
                ++simulated;
                if (!have_first.exchange(true)) {
                    first_exit.store(res.exitValue);
                    first_instr.store(res.instructions);
                } else {
                    expect(res.exitValue == first_exit.load() &&
                               res.instructions == first_instr.load(),
                           "warm replays disagree architecturally");
                }
            }
        });
    }
    for (auto& t : threads)
        t.join();

    const LedgerSnapshot after = probeHealth(socket).ledger;
    expect(after.predecodeShares - before.predecodeShares ==
               simulated.load(),
           "every simulated warm replay must run on the shared "
           "registry table");
    expect(after.translationShares - before.translationShares ==
               simulated.load(),
           "every simulated warm replay must run on the shared "
           "registry translation (got " +
               std::to_string(after.translationShares -
                              before.translationShares) +
               " shares for " + std::to_string(simulated.load()) +
               " runs)");
}

/** Phase 3: admission rejections (oversized + malformed images). */
void
phaseAdmission(const std::string& socket, std::size_t max_image_bytes)
{
    Client c(socket);
    if (!c.ok()) {
        fail("admission client could not connect");
        return;
    }
    JobRequest big;
    big.image.assign(max_image_bytes + 1, 0xab);
    const std::uint64_t big_id = c.submit(std::move(big));
    JobRequest junk;
    junk.image.assign(64, 0x5a); // wrong magic: loader must refuse
    const std::uint64_t junk_id = c.submit(std::move(junk));
    int rejected = 0;
    for (const Frame& f : c.collect(2, /*errors_count=*/true)) {
        if (f.type != FrameType::kError)
            continue;
        const ErrorReply err = ErrorReply::decode(f.payload);
        expect(err.jobId == big_id || err.jobId == junk_id,
               "kError for an unknown jobId");
        ++rejected;
    }
    expect(rejected == 2, "expected 2 admission rejections, got " +
                              std::to_string(rejected));
}

/** Phase 4+5: protocol chaos — garbage frames, mid-frame disconnect. */
void
phaseProtocolChaos(const std::string& socket)
{
    {
        Client c(socket);
        if (!c.ok()) {
            fail("protocol-chaos client could not connect");
            return;
        }
        c.sendRaw({0xde, 0xad, 0xbe, 0xef, 0x01, 0x00, 0x00, 0x00,
                   0x00});
        const auto f = c.recvFrame();
        expect(f && f->type == FrameType::kError,
               "garbage magic did not provoke kError");
        // The daemon must have dropped us: expect EOF, not more frames.
        expect(!c.recvFrame(),
               "connection survived a poisoned stream");
    }
    {
        // Declared length over the frame cap.
        Client c(socket);
        std::vector<std::uint8_t> hdr;
        appendFrame(hdr, FrameType::kSubmit, {});
        hdr[5] = 0xff; // length = 0xffffffff
        hdr[6] = 0xff;
        hdr[7] = 0xff;
        hdr[8] = 0xff;
        c.sendRaw(hdr);
        const auto f = c.recvFrame();
        expect(f && f->type == FrameType::kError,
               "oversized declared length did not provoke kError");
    }
    {
        // Half a frame, then vanish. The daemon must shrug.
        Client c(socket);
        std::vector<std::uint8_t> whole;
        appendFrame(whole, FrameType::kSubmit,
                    std::vector<std::uint8_t>(128, 0));
        whole.resize(whole.size() / 2);
        c.sendRaw(whole);
    }
    // And it must still answer: the next probe proves liveness.
    probeHealth(socket);
}

/** Phase 6: deadline timeout, then quarantine of the hash. */
void
phaseTimeoutQuarantine(const std::string& socket, int strikes)
{
    Client c(socket);
    if (!c.ok()) {
        fail("timeout client could not connect");
        return;
    }
    const auto image = infiniteImage();
    int timed_out = 0;
    int quarantined = 0;
    for (int i = 0; i < strikes + 2; ++i) {
        JobRequest req;
        req.image = image;
        req.deadlineMs = 200;
        c.submit(std::move(req));
        const auto frames = c.collect(1);
        if (frames.empty() ||
            frames.back().type != FrameType::kResult) {
            fail("timeout phase lost a result");
            return;
        }
        const JobResult res = JobResult::decode(frames.back().payload);
        if (res.state == JobState::kTimedOut)
            ++timed_out;
        else if (res.state == JobState::kFailed &&
                 res.detail.find("quarantined") != std::string::npos)
            ++quarantined;
        else
            fail("infinite program ended as " +
                 std::string(jobStateName(res.state)) + ": " +
                 res.detail);
    }
    expect(timed_out >= strikes,
           "expected >= " + std::to_string(strikes) +
               " deadline timeouts, got " + std::to_string(timed_out));
    expect(quarantined >= 1,
           "poisoned program was never quarantined");
}

/** Phase 7: burst overload — shedding, then health recovery. */
void
phaseBurst(const std::string& socket, int clients, int jobs_per_client)
{
    std::atomic<int> done{0};
    std::atomic<int> shed{0};
    std::atomic<int> timed_out{0};
    std::atomic<int> lost{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < clients; ++t) {
        threads.emplace_back([&, t] {
            Client c(socket);
            if (!c.ok()) {
                fail("burst client could not connect");
                return;
            }
            std::map<std::uint64_t, int> results;
            std::vector<std::uint64_t> ids;
            for (int i = 0; i < jobs_per_client; ++i) {
                JobRequest req;
                // Slow enough to pile up behind the tiny queue.
                req.image = countedImage(500'000 + t * jobs_per_client +
                                         i);
                req.deadlineMs = 30'000;
                ids.push_back(c.submit(std::move(req)));
            }
            for (const Frame& f :
                 c.collect(static_cast<std::size_t>(jobs_per_client))) {
                if (f.type != FrameType::kResult)
                    continue;
                const JobResult res = JobResult::decode(f.payload);
                ++results[res.jobId];
                switch (res.state) {
                  case JobState::kDone:
                    ++done;
                    break;
                  case JobState::kShed:
                    ++shed;
                    break;
                  case JobState::kTimedOut:
                    ++timed_out;
                    break;
                  default:
                    fail("burst job failed: " + res.detail);
                }
            }
            for (const std::uint64_t id : ids) {
                if (results[id] != 1) {
                    ++lost;
                    fail("burst job " + std::to_string(id) + " got " +
                         std::to_string(results[id]) + " results");
                }
            }
        });
    }
    // Sample health mid-burst (informational; the hard assertion is on
    // the ledger's transition counters below).
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const HealthReply mid = probeHealth(socket);
    for (auto& t : threads)
        t.join();
    std::fprintf(stderr,
                 "burst: done=%d shed=%d timed-out=%d lost=%d "
                 "mid-burst health=%s\n",
                 done.load(), shed.load(), timed_out.load(),
                 lost.load(),
                 std::string(healthStateName(mid.health)).c_str());
    expect(done.load() > 0, "burst completed no jobs at all");
    expect(shed.load() > 0,
           "burst overload shed nothing (queue never filled?)");
}

/** Phase 8: final ledger — consistency and health round trip. */
void
phaseFinalLedger(const std::string& socket, bool expect_degraded)
{
    // Wait for the daemon to go idle (bounded).
    HealthReply h;
    for (int i = 0; i < 100; ++i) {
        h = probeHealth(socket);
        if (h.ledger.queued == 0 && h.ledger.inFlight == 0)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    expect(h.ledger.queued == 0 && h.ledger.inFlight == 0,
           "daemon did not go idle after the sweep");
    expect(h.ledger.consistent(),
           "LEDGER INCONSISTENT: submitted=" +
               std::to_string(h.ledger.submitted) + " accepted=" +
               std::to_string(h.ledger.accepted) + " rejected=" +
               std::to_string(h.ledger.rejected) + " terminals=" +
               std::to_string(h.ledger.done + h.ledger.failed +
                              h.ledger.shed + h.ledger.timedOut));
    expect(h.health == HealthState::kOk,
           "daemon not OK after load subsided");
    if (expect_degraded) {
        expect(h.ledger.degradedTransitions >= 1,
               "service never entered DEGRADED under chaos");
        expect(h.ledger.recoveredTransitions >= 1,
               "service never recovered from DEGRADED");
    }
    std::fprintf(
        stderr,
        "final ledger: submitted=%llu accepted=%llu rejected=%llu "
        "done=%llu failed=%llu shed=%llu timed-out=%llu "
        "cache-hits=%llu quarantined=%llu degraded=%llu "
        "recovered=%llu\n",
        static_cast<unsigned long long>(h.ledger.submitted),
        static_cast<unsigned long long>(h.ledger.accepted),
        static_cast<unsigned long long>(h.ledger.rejected),
        static_cast<unsigned long long>(h.ledger.done),
        static_cast<unsigned long long>(h.ledger.failed),
        static_cast<unsigned long long>(h.ledger.shed),
        static_cast<unsigned long long>(h.ledger.timedOut),
        static_cast<unsigned long long>(h.ledger.resultCacheHits),
        static_cast<unsigned long long>(h.ledger.quarantined),
        static_cast<unsigned long long>(h.ledger.degradedTransitions),
        static_cast<unsigned long long>(
            h.ledger.recoveredTransitions));
}

int
usage()
{
    std::fprintf(
        stderr,
        "usage: crisploadgen (--spawn=CRISPD_BIN | --socket=PATH)\n"
        "                    [--chaos] [--smoke] [--clients=N] "
        "[--jobs=N]\n");
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    std::string socket_path;
    std::string spawn_bin;
    bool chaos = false;
    bool smoke = false;
    int clients = 8;
    int jobs = 16;

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto val = [&](const char* key) { return cli::flag(a, key); };
        if (const char* v = val("--socket=")) {
            socket_path = v;
        } else if (const char* v2 = val("--spawn=")) {
            spawn_bin = v2;
        } else if (a == "--chaos") {
            chaos = true;
        } else if (a == "--smoke") {
            smoke = true;
        } else if (const char* v3 = val("--clients=")) {
            if (!cli::parseInt(v3, clients, 1, 256))
                return usage();
        } else if (const char* v4 = val("--jobs=")) {
            if (!cli::parseInt(v4, jobs, 1, 1'000'000))
                return usage();
        } else {
            return usage();
        }
    }
    if (socket_path.empty() && spawn_bin.empty())
        return usage();
    if (chaos && spawn_bin.empty()) {
        std::fprintf(stderr,
                     "crisploadgen: --chaos needs --spawn (it relies "
                     "on a known daemon configuration)\n");
        return 2;
    }
    if (smoke) {
        clients = std::min(clients, 4);
        jobs = std::min(jobs, 6);
    }

    constexpr std::size_t kMaxImageBytes = 1u << 20;
    constexpr int kStrikes = 2;
    pid_t daemon_pid = -1;
    if (!spawn_bin.empty()) {
        if (socket_path.empty())
            socket_path = "/tmp/crisploadgen." +
                          std::to_string(::getpid()) + ".sock";
        daemon_pid = ::fork();
        if (daemon_pid == 0) {
            // Tiny queue + few workers: overload and shedding are
            // reachable with a modest burst.
            const std::string sock_arg = "--socket=" + socket_path;
            ::execl(spawn_bin.c_str(), spawn_bin.c_str(),
                    sock_arg.c_str(), "--workers=2", "--queue-cap=8",
                    "--quarantine-strikes=2", nullptr);
            std::perror("crisploadgen: exec crispd");
            ::_exit(127);
        }
        if (daemon_pid < 0) {
            std::perror("crisploadgen: fork");
            return 1;
        }
    }

    phaseLoad(socket_path, clients, jobs);
    phaseCache(socket_path);
    if (chaos) {
        phaseMixedEngine(socket_path);
        phaseWarmReplay(socket_path, clients, smoke ? 4 : 8, 77'000);
        // 64512 is 0xFC00, a bad opcode, as the low half of the
        // compare's wide immediate: a parcel that does not decode.
        phaseWarmReplay(socket_path, clients, smoke ? 4 : 8, 64'512);
        phaseAdmission(socket_path, kMaxImageBytes);
        phaseProtocolChaos(socket_path);
        phaseTimeoutQuarantine(socket_path, kStrikes);
        phaseBurst(socket_path, clients, smoke ? 8 : 16);
    }
    phaseFinalLedger(socket_path, /*expect_degraded=*/chaos);

    if (daemon_pid > 0) {
        {
            Client c(socket_path);
            ShutdownRequest sr;
            sr.drain = true;
            c.sendFrame(FrameType::kShutdown, sr.encode());
        }
        int status = 0;
        ::waitpid(daemon_pid, &status, 0);
        expect(WIFEXITED(status) && WEXITSTATUS(status) == 0,
               "crispd exited with status " + std::to_string(status) +
                   " (its own shutdown ledger check failed?)");
    }

    if (g_failures == 0) {
        std::fprintf(stderr, "crisploadgen: all assertions passed\n");
        return 0;
    }
    std::fprintf(stderr, "crisploadgen: %d assertion(s) failed\n",
                 g_failures);
    return 1;
}
