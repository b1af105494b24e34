/**
 * @file
 * The crispd service layer (src/service/): wire protocol, bounded
 * queue, caches, and the SimService robustness envelope — admission,
 * deadlines, retries, shedding, quarantine, and the exactly-one
 * terminal-state ledger invariant. Everything here drives the service
 * in-process; the socket daemon on top is exercised end to end by
 * `crisploadgen --spawn --chaos` (a ctest entry of its own).
 */

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "asm/assembler.hh"
#include "cc/compiler.hh"
#include "isa/objfile.hh"
#include "service/cache.hh"
#include "service/protocol.hh"
#include "service/queue.hh"
#include "service/service.hh"
#include "sim/cpu.hh"
#include "sim/fastengine.hh"
#include "verify/generator.hh"
#include "verify/lockstep.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace crisp;
using namespace crisp::service;

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

std::vector<std::uint8_t>
infiniteImage()
{
    return saveObject(assemble(R"(
        .entry s
s:      jmp s
    )"));
}

/** Submit and block for the terminal state. */
JobResult
submitWait(SimService& service, JobRequest req)
{
    std::promise<JobResult> p;
    auto fut = p.get_future();
    const auto st = service.submit(
        req, [&p](const JobResult& r) { p.set_value(r); });
    EXPECT_EQ(st, SubmitStatus::kAccepted);
    return fut.get();
}

// --- frame parser -----------------------------------------------------

TEST(FrameParser, DeliversFramesFedOneByteAtATime)
{
    std::vector<std::uint8_t> wire;
    appendFrame(wire, FrameType::kHealth, {});
    appendFrame(wire, FrameType::kSubmit, {1, 2, 3});
    FrameParser parser;
    std::vector<Frame> got;
    for (const std::uint8_t b : wire) {
        parser.feed(&b, 1);
        while (auto f = parser.next())
            got.push_back(std::move(*f));
    }
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0].type, FrameType::kHealth);
    EXPECT_TRUE(got[0].payload.empty());
    EXPECT_EQ(got[1].type, FrameType::kSubmit);
    EXPECT_EQ(got[1].payload, (std::vector<std::uint8_t>{1, 2, 3}));
    EXPECT_EQ(parser.buffered(), 0u);
}

TEST(FrameParser, BadMagicPoisonsTheStreamForever)
{
    FrameParser parser;
    const std::uint8_t junk[] = {0xde, 0xad, 0xbe, 0xef, 0x01,
                                 0x00, 0x00, 0x00, 0x00};
    parser.feed(junk, sizeof junk);
    EXPECT_THROW(parser.next(), ProtocolError);
    // Poisoned: even well-formed bytes are never trusted again.
    std::vector<std::uint8_t> good;
    appendFrame(good, FrameType::kHealth, {});
    EXPECT_THROW(parser.feed(good.data(), good.size()), ProtocolError);
    EXPECT_THROW(parser.next(), ProtocolError);
}

TEST(FrameParser, UnknownTypeRejected)
{
    std::vector<std::uint8_t> wire;
    appendFrame(wire, FrameType::kHealth, {});
    wire[4] = 99; // not a FrameType
    FrameParser parser;
    parser.feed(wire.data(), wire.size());
    EXPECT_THROW(parser.next(), ProtocolError);
}

TEST(FrameParser, DeclaredLengthOverCapRejectedBeforeBuffering)
{
    std::vector<std::uint8_t> wire;
    appendFrame(wire, FrameType::kSubmit, {});
    wire[5] = 0xff; // length := 0xffffffff, far over the cap
    wire[6] = 0xff;
    wire[7] = 0xff;
    wire[8] = 0xff;
    FrameParser parser;
    parser.feed(wire.data(), wire.size());
    // Rejected from the 9 header bytes alone — the parser must not
    // wait for 4 GiB that will never arrive.
    EXPECT_THROW(parser.next(), ProtocolError);
}

TEST(FrameParser, ConsumedPrefixIsCompacted)
{
    FrameParser parser;
    std::vector<std::uint8_t> wire;
    appendFrame(wire, FrameType::kSubmit,
                std::vector<std::uint8_t>(1024, 7));
    for (int i = 0; i < 100; ++i) {
        parser.feed(wire.data(), wire.size());
        ASSERT_TRUE(parser.next().has_value());
    }
    // A forever-streaming connection must not grow the buffer without
    // bound; after each consumed frame nothing is left.
    EXPECT_EQ(parser.buffered(), 0u);
}

// --- payload round trips ----------------------------------------------

TEST(Payloads, JobRequestRoundTrip)
{
    JobRequest req;
    req.jobId = 0x1122334455667788ull;
    req.deadlineMs = 1500;
    req.maxRetries = 3;
    req.foldPolicy = FoldPolicy::kAll;
    req.predictor = PredictorKind::kDynamic2;
    req.engine = EngineKind::kFast;
    req.dicEntries = 64;
    req.memLatency = 7;
    req.maxCycles = 0x100000001ull;
    req.image = {9, 8, 7, 6, 5};
    const JobRequest back = JobRequest::decode(req.encode());
    EXPECT_EQ(back.jobId, req.jobId);
    EXPECT_EQ(back.deadlineMs, req.deadlineMs);
    EXPECT_EQ(back.maxRetries, req.maxRetries);
    EXPECT_EQ(back.foldPolicy, req.foldPolicy);
    EXPECT_EQ(back.predictor, req.predictor);
    EXPECT_EQ(back.engine, req.engine);
    EXPECT_EQ(back.dicEntries, req.dicEntries);
    EXPECT_EQ(back.memLatency, req.memLatency);
    EXPECT_EQ(back.maxCycles, req.maxCycles);
    EXPECT_EQ(back.image, req.image);
}

TEST(Payloads, TruncationAndTrailingBytesRejected)
{
    JobRequest req;
    req.image = {1, 2, 3};
    auto bytes = req.encode();
    auto truncated = bytes;
    truncated.pop_back();
    EXPECT_THROW(JobRequest::decode(truncated), ProtocolError);
    auto trailing = bytes;
    trailing.push_back(0);
    EXPECT_THROW(JobRequest::decode(trailing), ProtocolError);
}

TEST(Payloads, EnumRangesValidatedOnDecode)
{
    JobRequest req;
    auto bytes = req.encode();
    bytes[13] = 17; // fold policy byte
    EXPECT_THROW(JobRequest::decode(bytes), ProtocolError);

    JobResult res;
    auto rbytes = res.encode();
    rbytes[8] = 9; // state byte
    EXPECT_THROW(JobResult::decode(rbytes), ProtocolError);
}

TEST(Payloads, JobResultRoundTrip)
{
    JobResult res;
    res.jobId = 42;
    res.state = JobState::kTimedOut;
    res.retries = 2;
    res.cacheHit = true;
    res.engine = EngineKind::kFast;
    res.exitValue = 5050;
    res.cycles = 123456;
    res.instructions = 654321;
    res.detail = "deadline expired";
    const JobResult back = JobResult::decode(res.encode());
    EXPECT_EQ(back.jobId, res.jobId);
    EXPECT_EQ(back.state, res.state);
    EXPECT_EQ(back.retries, res.retries);
    EXPECT_EQ(back.cacheHit, res.cacheHit);
    EXPECT_EQ(back.engine, res.engine);
    EXPECT_EQ(back.exitValue, res.exitValue);
    EXPECT_EQ(back.cycles, res.cycles);
    EXPECT_EQ(back.instructions, res.instructions);
    EXPECT_EQ(back.detail, res.detail);
}

TEST(Payloads, HealthErrorShutdownRoundTrips)
{
    HealthReply h;
    h.health = HealthState::kDegraded;
    h.ledger.submitted = 100;
    h.ledger.accepted = 90;
    h.ledger.rejected = 10;
    h.ledger.done = 80;
    h.ledger.shed = 5;
    h.ledger.timedOut = 5;
    const HealthReply hb = HealthReply::decode(h.encode());
    EXPECT_EQ(hb.health, h.health);
    EXPECT_EQ(hb.ledger.submitted, 100u);
    EXPECT_TRUE(hb.ledger.consistent());

    ErrorReply e;
    e.jobId = 7;
    e.text = "no";
    const ErrorReply eb = ErrorReply::decode(e.encode());
    EXPECT_EQ(eb.jobId, 7u);
    EXPECT_EQ(eb.text, "no");

    ShutdownRequest s;
    s.drain = false;
    EXPECT_FALSE(ShutdownRequest::decode(s.encode()).drain);
    auto bad = s.encode();
    bad[0] = 2;
    EXPECT_THROW(ShutdownRequest::decode(bad), ProtocolError);
}

// --- bounded queue ----------------------------------------------------

TEST(BoundedQueue, FifoAndFullShed)
{
    BoundedQueue<int> q(2);
    EXPECT_EQ(q.tryPush(1), BoundedQueue<int>::Push::kOk);
    EXPECT_EQ(q.tryPush(2), BoundedQueue<int>::Push::kOk);
    EXPECT_EQ(q.tryPush(3), BoundedQueue<int>::Push::kFull);
    EXPECT_EQ(q.pop().value(), 1);
    EXPECT_EQ(q.pop().value(), 2);
}

TEST(BoundedQueue, CloseDrainLeavesWorkForConsumers)
{
    BoundedQueue<int> q(4);
    q.tryPush(1);
    q.tryPush(2);
    const auto orphans = q.close(BoundedQueue<int>::Close::kDrain);
    EXPECT_TRUE(orphans.empty());
    EXPECT_EQ(q.pop().value(), 1);
    EXPECT_EQ(q.pop().value(), 2);
    EXPECT_FALSE(q.pop().has_value()); // closed + empty: consumers exit
    EXPECT_EQ(q.tryPush(9), BoundedQueue<int>::Push::kClosed);
}

TEST(BoundedQueue, CloseAbortHandsBackOrphans)
{
    BoundedQueue<int> q(4);
    q.tryPush(1);
    q.tryPush(2);
    const auto orphans = q.close(BoundedQueue<int>::Close::kAbort);
    ASSERT_EQ(orphans.size(), 2u);
    EXPECT_EQ(orphans[0], 1);
    EXPECT_EQ(orphans[1], 2);
    EXPECT_FALSE(q.pop().has_value());
}

TEST(BoundedQueue, PopBlocksUntilWorkArrives)
{
    BoundedQueue<int> q(4);
    std::thread producer([&q] {
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        q.tryPush(42);
    });
    EXPECT_EQ(q.pop().value(), 42); // blocks until the push
    producer.join();
}

// --- caches -----------------------------------------------------------

TEST(Caches, Fnv1aDistinguishesImages)
{
    EXPECT_EQ(fnv1a({}), 0xcbf29ce484222325ull);
    EXPECT_NE(fnv1a({1}), fnv1a({2}));
    EXPECT_NE(fnv1a({1, 2}), fnv1a({2, 1}));
}

TEST(Caches, RegistryInternsAndSharesWarmTables)
{
    ProgramRegistry reg(4);
    const auto image = countedImage(10);
    const std::uint64_t hash = fnv1a(image);
    const auto a = reg.intern(hash, loadObject(image));
    const auto b = reg.intern(hash, loadObject(image));
    EXPECT_EQ(a.get(), b.get()); // same entry, one predecode cache
    EXPECT_EQ(reg.size(), 1u);
    EXPECT_EQ(&reg.sharedTables(a, FoldPolicy::kCrisp),
              &reg.sharedTables(b, FoldPolicy::kCrisp));
    EXPECT_EQ(&reg.sharedTranslation(a, FoldPolicy::kCrisp),
              &reg.sharedTranslation(b, FoldPolicy::kCrisp));
}

/** Does some text parcel of @p prog fail to decode under @p policy? */
bool
hasUndecodableParcel(const Program& prog, PredecodeCache& tables,
                     FoldPolicy policy)
{
    for (Addr pc = prog.textBase; pc < prog.textEnd(); pc += kParcelBytes) {
        if (tables.at(pc, policy).error != nullptr)
            return true;
    }
    return false;
}

/**
 * Every program shares, undecodable parcels or not: the registry warms
 * one table and builds one translation per program × fold policy, and
 * that translation over the shared table equals a private one TOp for
 * TOp.
 */
TEST(Caches, RegistrySharesEveryProgram)
{
    std::vector<Program> progs;
    for (const Workload& w : allWorkloads())
        progs.push_back(cc::compile(w.source).program);
    for (std::uint64_t s = 1; s <= 200; ++s)
        progs.push_back(verify::generate(s).link());
    ProgramRegistry reg(progs.size());
    int undecodable = 0;
    for (std::size_t i = 0; i < progs.size(); ++i) {
        const auto entry = reg.intern(i, Program(progs[i]));
        for (FoldPolicy fp : {FoldPolicy::kNone, FoldPolicy::kCrisp,
                              FoldPolicy::kAll}) {
            const std::string where =
                "program " + std::to_string(i) + " fold " +
                std::to_string(static_cast<int>(fp));
            PredecodeCache& tables = reg.sharedTables(entry, fp);
            const Translation& shared = reg.sharedTranslation(entry, fp);
            EXPECT_EQ(&reg.sharedTables(entry, fp), &tables) << where;
            EXPECT_EQ(&reg.sharedTranslation(entry, fp), &shared)
                << where;
            undecodable += hasUndecodableParcel(entry->prog, tables, fp);

            const Translation priv(progs[i], fp);
            ASSERT_EQ(shared.size(), priv.size()) << where;
            for (std::size_t k = 0; k < priv.size(); ++k) {
                const TOp& a = shared.ops()[k];
                const TOp& b = priv.ops()[k];
                ASSERT_TRUE(a == b) << where << " op " << k;
                if (a.kind == TKind::kTrap) {
                    EXPECT_STREQ(shared.trapMessage(a.slot),
                                 priv.trapMessage(b.slot))
                        << where << " op " << k;
                }
            }
        }
    }
    // Most programs have a mid-instruction parcel that does not decode.
    EXPECT_GT(undecodable, 0);
}

TEST(Caches, RegistryEvictsLruButHoldersSurvive)
{
    ProgramRegistry reg(2);
    const auto img1 = countedImage(11);
    const auto held = reg.intern(fnv1a(img1), loadObject(img1));
    for (int i = 12; i < 16; ++i) {
        const auto img = countedImage(i);
        reg.intern(fnv1a(img), loadObject(img));
    }
    EXPECT_LE(reg.size(), 2u);
    // The evicted entry is still usable by its holder (shared_ptr).
    EXPECT_EQ(&reg.sharedTables(held, FoldPolicy::kCrisp).program(),
              &held->prog);
}

TEST(Caches, ResultCacheHitsAndEvicts)
{
    ResultCache cache(2);
    PolicyKey k1;
    k1.hash = 1;
    PolicyKey k2 = k1;
    k2.hash = 2;
    PolicyKey k3 = k1;
    k3.hash = 3;
    JobResult r;
    r.state = JobState::kDone;
    r.cycles = 99;
    cache.store(k1, r);
    cache.store(k2, r);
    const auto hit = cache.lookup(k1);
    ASSERT_TRUE(hit.has_value());
    EXPECT_TRUE(hit->cacheHit); // the lookup sets the flag
    EXPECT_EQ(hit->cycles, 99u);
    cache.store(k3, r); // k2 is now the LRU victim (k1 was touched)
    EXPECT_TRUE(cache.lookup(k1).has_value());
    EXPECT_FALSE(cache.lookup(k2).has_value());
    EXPECT_TRUE(cache.lookup(k3).has_value());
}

TEST(Caches, PolicyKeyDistinguishesEveryKnob)
{
    PolicyKey base;
    base.hash = 7;
    for (int field = 0; field < 6; ++field) {
        PolicyKey other = base;
        switch (field) {
          case 0:
            other.foldPolicy = FoldPolicy::kNone;
            break;
          case 1:
            other.predictor = PredictorKind::kDynamic1;
            break;
          case 2:
            other.dicEntries = 64;
            break;
          case 3:
            other.memLatency = 9;
            break;
          case 4:
            other.maxCycles = 1;
            break;
          case 5:
            other.engine = EngineKind::kFast;
            break;
        }
        EXPECT_TRUE(base < other || other < base)
            << "field " << field << " not part of the key";
    }
}

// --- cooperative cancellation (simulator + lockstep) ------------------

TEST(Cancellation, FlagEndsTheRunWithCancelledStats)
{
    const Program prog = assemble(R"(
        .entry s
s:      jmp s
    )");
    SimConfig cfg;
    cfg.maxCycles = 100'000'000;
    CrispCpu cpu(prog, cfg);
    std::atomic<bool> flag{true}; // pre-fired: cancels within the
                                  // first poll interval
    cpu.setCancelFlag(&flag);
    const SimStats& st = cpu.run();
    EXPECT_TRUE(st.cancelled);
    EXPECT_FALSE(st.halted);
    EXPECT_FALSE(st.timedOut);
    EXPECT_LE(st.cycles, 5000u); // one poll interval, not the budget
}

TEST(Cancellation, LockstepReportsTimeoutKind)
{
    // Halts on the reference interpreter (so lockstep reaches the
    // pipeline phase) but runs well past the first cancellation poll,
    // so the pre-fired flag ends the pipeline run mid-flight.
    const Program prog = loadObject(countedImage(10'000));
    std::atomic<bool> flag{true};
    verify::LockstepOptions opt;
    opt.cancel = &flag;
    const auto rep = verify::runLockstep(prog, opt);
    EXPECT_EQ(rep.kind, verify::Divergence::kTimeout);
    EXPECT_TRUE(rep.sim.cancelled);
}

// --- SimService end to end --------------------------------------------

TEST(SimService, RunsAJobToDone)
{
    SimService service;
    JobRequest req;
    req.jobId = 1;
    req.image = countedImage(100);
    const JobResult res = submitWait(service, req);
    EXPECT_EQ(res.state, JobState::kDone);
    EXPECT_GT(res.cycles, 0u);
    EXPECT_GT(res.instructions, 0u);
    EXPECT_FALSE(res.cacheHit);
    service.shutdown(true);
    const auto ledger = service.ledger();
    EXPECT_TRUE(ledger.consistent());
    EXPECT_EQ(ledger.done, 1u);
}

TEST(SimService, DuplicateSubmissionHitsTheResultCache)
{
    SimService service;
    JobRequest req;
    req.jobId = 1;
    req.image = countedImage(123);
    const JobResult first = submitWait(service, req);
    req.jobId = 2;
    const JobResult second = submitWait(service, req);
    EXPECT_EQ(first.state, JobState::kDone);
    EXPECT_EQ(second.state, JobState::kDone);
    EXPECT_FALSE(first.cacheHit);
    EXPECT_TRUE(second.cacheHit);
    EXPECT_EQ(second.jobId, 2u); // re-tagged for the new request
    EXPECT_EQ(second.cycles, first.cycles);
    EXPECT_EQ(second.exitValue, first.exitValue);
    EXPECT_EQ(service.ledger().resultCacheHits, 1u);
}

TEST(SimService, CachedResultsNeverCrossEngineModes)
{
    // Same image, same policy knobs, different engine: the cycle
    // result (with real cycle counts) must never be replayed to a
    // fast-engine request, and vice versa.
    SimService service;
    JobRequest req;
    req.jobId = 1;
    req.image = countedImage(200);
    const JobResult cycle = submitWait(service, req);
    ASSERT_EQ(cycle.state, JobState::kDone);
    EXPECT_EQ(cycle.engine, EngineKind::kCycle);
    EXPECT_GT(cycle.cycles, 0u);

    req.jobId = 2;
    req.engine = EngineKind::kFast;
    const JobResult fast = submitWait(service, req);
    ASSERT_EQ(fast.state, JobState::kDone);
    EXPECT_FALSE(fast.cacheHit) << "cycle result served across engines";
    EXPECT_EQ(fast.engine, EngineKind::kFast);
    EXPECT_EQ(fast.cycles, 0u);
    // Architectural agreement between the two engines' results.
    EXPECT_EQ(fast.exitValue, cycle.exitValue);
    EXPECT_EQ(fast.instructions, cycle.instructions);

    // A repeat on the SAME engine is the legitimate cache hit, and it
    // replays the fast payload, not the cycle one.
    req.jobId = 3;
    const JobResult fast2 = submitWait(service, req);
    EXPECT_TRUE(fast2.cacheHit);
    EXPECT_EQ(fast2.engine, EngineKind::kFast);
    EXPECT_EQ(fast2.cycles, 0u);
    EXPECT_EQ(service.ledger().resultCacheHits, 1u);
}

TEST(SimService, RejectsInterpEngineAtAdmission)
{
    SimService service;
    JobRequest req;
    req.jobId = 1;
    req.image = countedImage(10);
    req.engine = EngineKind::kInterp;
    std::string why;
    const auto st = service.submit(
        req, [](const JobResult&) { FAIL() << "rejected jobs must not "
                                              "reach a terminal state"; },
        &why);
    EXPECT_EQ(st, SubmitStatus::kRejected);
    EXPECT_NE(why.find("interp"), std::string::npos);
    EXPECT_EQ(service.ledger().rejected, 1u);
}

TEST(SimService, RejectsGarbageAtAdmission)
{
    SimService service;
    JobRequest junk;
    junk.image.assign(64, 0x5a);
    std::string why;
    std::atomic<int> completions{0};
    const auto st = service.submit(
        junk, [&completions](const JobResult&) { ++completions; },
        &why);
    EXPECT_EQ(st, SubmitStatus::kRejected);
    EXPECT_NE(why.find("loader"), std::string::npos) << why;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(completions.load(), 0); // rejected: never completed
    const auto ledger = service.ledger();
    EXPECT_EQ(ledger.rejected, 1u);
    EXPECT_EQ(ledger.accepted, 0u);
    EXPECT_TRUE(ledger.consistent());
}

TEST(SimService, RejectsBadPolicyKnobs)
{
    SimService service;
    JobRequest req;
    req.image = countedImage(10);
    req.dicEntries = 33; // not a power of two
    std::string why;
    EXPECT_EQ(service.submit(req, [](const JobResult&) {}, &why),
              SubmitStatus::kRejected);
    EXPECT_NE(why.find("power of two"), std::string::npos) << why;
}

TEST(SimService, DeadlineTimesOutANonTerminatingProgram)
{
    ServiceConfig cfg;
    cfg.workers = 1;
    SimService service(cfg);
    JobRequest req;
    req.jobId = 9;
    req.image = infiniteImage();
    req.deadlineMs = 150;
    req.maxCycles = 1'000'000'000ull; // the wall clock must win
    const auto t0 = std::chrono::steady_clock::now();
    const JobResult res = submitWait(service, req);
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    EXPECT_EQ(res.state, JobState::kTimedOut);
    EXPECT_LT(elapsed, std::chrono::seconds(10));
    const auto ledger = service.ledger();
    EXPECT_EQ(ledger.timedOut, 1u);
    EXPECT_TRUE(ledger.consistent());
}

TEST(SimService, QuarantinesARepeatOffender)
{
    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.quarantineStrikes = 1;
    SimService service(cfg);
    JobRequest req;
    req.image = infiniteImage();
    req.deadlineMs = 100;
    req.jobId = 1;
    EXPECT_EQ(submitWait(service, req).state, JobState::kTimedOut);
    req.jobId = 2;
    const JobResult second = submitWait(service, req);
    EXPECT_EQ(second.state, JobState::kFailed);
    EXPECT_NE(second.detail.find("quarantined"), std::string::npos)
        << second.detail;
    const auto ledger = service.ledger();
    EXPECT_EQ(ledger.quarantined, 1u);
    EXPECT_TRUE(ledger.consistent());
}

TEST(SimService, ShedsWhenTheQueueIsFullAndRecovers)
{
    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.queueCap = 1;
    SimService service(cfg);
    // A long job occupies the worker; a second fills the queue; the
    // third must shed immediately.
    JobRequest slow;
    slow.image = countedImage(3'000'000);
    slow.deadlineMs = 60'000;
    std::promise<JobResult> p1;
    auto f1 = p1.get_future();
    slow.jobId = 1;
    ASSERT_EQ(service.submit(slow,
                             [&p1](const JobResult& r) {
                                 p1.set_value(r);
                             }),
              SubmitStatus::kAccepted);
    JobRequest queued;
    queued.image = countedImage(3'000'001);
    queued.deadlineMs = 60'000;
    queued.jobId = 2;
    std::promise<JobResult> p2;
    auto f2 = p2.get_future();
    // The worker may briefly leave the queue empty while it picks up
    // job 1; retry until job 2 is actually parked in the queue.
    JobResult r2{};
    bool queued_ok = false;
    for (int i = 0; i < 100 && !queued_ok; ++i) {
        if (service.ledger().inFlight > 0)
            queued_ok = true;
        else
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5));
    }
    ASSERT_EQ(service.submit(queued,
                             [&p2](const JobResult& r) {
                                 p2.set_value(r);
                             }),
              SubmitStatus::kAccepted);
    JobRequest third;
    third.image = countedImage(3'000'002);
    third.deadlineMs = 60'000;
    third.jobId = 3;
    const JobResult shed = submitWait(service, third);
    EXPECT_EQ(shed.state, JobState::kShed);
    EXPECT_EQ(service.health(), HealthState::kDegraded);
    (void)f1.get();
    r2 = f2.get();
    EXPECT_EQ(r2.state, JobState::kDone);
    service.quiesce();
    EXPECT_EQ(service.health(), HealthState::kOk); // recovered
    const auto ledger = service.ledger();
    EXPECT_EQ(ledger.shed, 1u);
    EXPECT_GE(ledger.degradedTransitions, 1u);
    EXPECT_GE(ledger.recoveredTransitions, 1u);
    EXPECT_TRUE(ledger.consistent());
}

TEST(SimService, TransientFaultsRetryWithBackoffThenExhaust)
{
    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.transientFaultPerMille = 1000; // every attempt fails
    cfg.retryCap = 2;
    cfg.backoffBaseMs = 1;
    cfg.backoffCapMs = 4;
    SimService service(cfg);
    JobRequest req;
    req.jobId = 5;
    req.image = countedImage(100);
    req.maxRetries = 2;
    const JobResult res = submitWait(service, req);
    EXPECT_EQ(res.state, JobState::kFailed);
    EXPECT_EQ(res.retries, 2u);
    EXPECT_NE(res.detail.find("retries exhausted"), std::string::npos)
        << res.detail;
    EXPECT_EQ(service.ledger().retriesScheduled, 2u);
    EXPECT_TRUE(service.ledger().consistent());
}

TEST(SimService, AbortShutdownShedsQueuedJobsWithTerminalStates)
{
    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.queueCap = 16;
    SimService service(cfg);
    std::mutex mu;
    std::map<std::uint64_t, int> seen;
    std::condition_variable cv;
    int total = 0;
    const auto completion = [&](const JobResult& r) {
        std::lock_guard<std::mutex> lk(mu);
        ++seen[r.jobId];
        ++total;
        cv.notify_all();
    };
    for (std::uint64_t id = 1; id <= 8; ++id) {
        JobRequest req;
        req.jobId = id;
        req.image = countedImage(2'000'000 +
                                 static_cast<int>(id));
        req.deadlineMs = 60'000;
        ASSERT_EQ(service.submit(req, completion),
                  SubmitStatus::kAccepted);
    }
    service.shutdown(false); // abort: queued jobs shed, running finishes
    {
        std::unique_lock<std::mutex> lk(mu);
        ASSERT_TRUE(cv.wait_for(lk, std::chrono::seconds(30),
                                [&] { return total == 8; }));
        for (std::uint64_t id = 1; id <= 8; ++id)
            EXPECT_EQ(seen[id], 1) << "job " << id;
    }
    const auto ledger = service.ledger();
    EXPECT_TRUE(ledger.consistent());
    EXPECT_EQ(ledger.queued, 0u);
    EXPECT_EQ(ledger.inFlight, 0u);
    EXPECT_GT(ledger.shed, 0u);
    // Post-shutdown submissions are refused, not lost.
    JobRequest late;
    late.image = countedImage(10);
    std::string why;
    EXPECT_EQ(service.submit(late, completion, &why),
              SubmitStatus::kRejected);
}

/**
 * Two workers serve programs with an undecodable mid-instruction parcel
 * (0xFC00, a bad opcode, as the low half of a wide immediate) on both
 * engines under every fold policy, with the result cache off. A fast
 * and a cycle job for the same program and policy are queued back to
 * back, so the two workers reach its fresh table together. Each job
 * must run on the shared table, each fast job on the shared
 * translation, and each must return what a private run returns. The
 * tsan build runs this test too.
 */
TEST(SimService, TwoWorkersShareTheTablesOfAnUndecodableParcel)
{
    std::vector<std::vector<std::uint8_t>> images;
    std::vector<Program> progs;
    for (int count = 300; count < 304; ++count) {
        std::string src = R"(
            .entry s
            .local i 0
            .local k 0
s:          enter 2
            mov k, 64512
            mov i, 0
top:        add i, 1
            cmp.s< i, %N%
            iftjmpy top
            mov Accum, i
            halt
        )";
        src.replace(src.find("%N%"), 3, std::to_string(count));
        images.push_back(saveObject(assemble(src)));
        progs.push_back(loadObject(images.back()));
        PredecodeCache probe(progs.back());
        ASSERT_TRUE(hasUndecodableParcel(progs.back(), probe,
                                         FoldPolicy::kCrisp));
    }

    ServiceConfig cfg;
    cfg.workers = 2;
    cfg.resultCacheCap = 0;
    SimService service(cfg);
    std::mutex mu;
    std::vector<std::pair<JobRequest, JobResult>> done;
    std::vector<std::future<void>> waits;
    std::vector<std::size_t> image_of;
    for (std::size_t img = 0; img < images.size(); ++img) {
        for (FoldPolicy fp : {FoldPolicy::kNone, FoldPolicy::kCrisp,
                              FoldPolicy::kAll}) {
            for (EngineKind engine : {EngineKind::kFast, EngineKind::kCycle}) {
                JobRequest req;
                req.jobId = image_of.size() + 1;
                req.image = images[img];
                req.foldPolicy = fp;
                req.engine = engine;
                req.deadlineMs = 60'000;
                image_of.push_back(img);
                auto p = std::make_shared<std::promise<void>>();
                waits.push_back(p->get_future());
                ASSERT_EQ(service.submit(req,
                                         [&, req, p](const JobResult& r) {
                                             std::lock_guard<std::mutex>
                                                 lk(mu);
                                             done.emplace_back(req, r);
                                             p->set_value();
                                         }),
                          SubmitStatus::kAccepted);
            }
        }
    }
    for (auto& w : waits)
        w.get();
    service.shutdown(true);

    const std::uint64_t jobs = image_of.size();
    const LedgerSnapshot ledger = service.ledger();
    EXPECT_EQ(ledger.done, jobs);
    EXPECT_EQ(ledger.predecodeShares, jobs);
    EXPECT_EQ(ledger.translationShares, jobs / 2);
    ASSERT_EQ(done.size(), jobs);
    for (const auto& [req, res] : done) {
        const Program& prog = progs[image_of[req.jobId - 1]];
        SimConfig sim;
        sim.foldPolicy = req.foldPolicy;
        SimStats st;
        Word accum = 0;
        if (req.engine == EngineKind::kFast) {
            FastEngine eng(prog, sim);
            st = eng.run();
            accum = eng.accum();
        } else {
            CrispCpu cpu(prog, sim);
            st = cpu.run();
            accum = cpu.accum();
        }
        const std::string where = "job " + std::to_string(req.jobId);
        ASSERT_EQ(res.state, JobState::kDone) << where << ": " << res.detail;
        EXPECT_EQ(res.exitValue, static_cast<std::uint32_t>(accum))
            << where;
        EXPECT_EQ(res.cycles, st.cycles) << where;
        EXPECT_EQ(res.instructions, st.apparent) << where;
    }
}

TEST(SimService, LedgerExactlyOnceUnderConcurrentLoad)
{
    ServiceConfig cfg;
    cfg.workers = 4;
    cfg.queueCap = 256;
    SimService service(cfg);
    std::mutex mu;
    std::map<std::uint64_t, int> seen;
    std::atomic<std::uint64_t> next{1};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < 25; ++i) {
                JobRequest req;
                req.jobId = next.fetch_add(1);
                req.image = countedImage(
                    50 + static_cast<int>(req.jobId));
                req.deadlineMs = 60'000;
                std::promise<void> p;
                auto fut = p.get_future();
                const auto id = req.jobId;
                ASSERT_EQ(service.submit(req,
                                         [&, id](const JobResult& r) {
                                             std::lock_guard<std::mutex>
                                                 lk(mu);
                                             ++seen[r.jobId];
                                             EXPECT_EQ(r.jobId, id);
                                             p.set_value();
                                         }),
                          SubmitStatus::kAccepted);
                fut.get();
            }
        });
    }
    for (auto& t : threads)
        t.join();
    service.shutdown(true);
    const auto ledger = service.ledger();
    EXPECT_TRUE(ledger.consistent());
    EXPECT_EQ(ledger.accepted, 100u);
    EXPECT_EQ(ledger.done + ledger.failed + ledger.shed +
                  ledger.timedOut,
              100u);
    std::lock_guard<std::mutex> lk(mu);
    EXPECT_EQ(seen.size(), 100u);
    for (const auto& [id, n] : seen)
        EXPECT_EQ(n, 1) << "job " << id;
}

} // namespace
