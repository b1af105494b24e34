#include "serve.hh"

#include <algorithm>
#include <stdexcept>

#include "service/protocol.hh"

namespace layerbench
{

using namespace crisp;
using namespace crisp::service;

namespace
{

/** Fold policy x predictor x engine: the 18 job shapes of the mix. */
constexpr int kCombos = 3 * 3 * 2;

std::uint64_t
nextRandom(std::uint64_t& s)
{
    s += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = s;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Seeded Fisher-Yates. */
template <class It>
void
shuffle(It first, It last, std::uint64_t& rng)
{
    for (auto i = last - first; i > 1; --i)
        std::swap(first[i - 1], first[static_cast<std::ptrdiff_t>(
                                    nextRandom(rng) %
                                    static_cast<std::uint64_t>(i))]);
}

ServiceConfig
serviceConfig(int workers)
{
    ServiceConfig c;
    c.workers = workers;
    c.resultCacheCap = 0;
    return c;
}

double
ms(std::int64_t ns)
{
    return static_cast<double>(ns) / 1e6;
}

} // namespace

ServeClient::ServeClient(const Inputs& in, std::uint64_t seed, int workers,
                         int inflight)
    : in_(in), rng_(seed ^ 0x5e57e5e57e5e57e5ull), inflight_(inflight),
      svc_(serviceConfig(workers))
{
    // No job of a pass repeats another. The job order derives from the
    // seed alone, and every slice does comparable work: the seed never
    // decides how many slow jobs a slice, or the run, gets.
    const int programs = static_cast<int>(in_.programs.size());
    if (in_.programs.front().generated()) {
        // Many distinct programs, each once, in seeded order, under the
        // job shapes in turn: each slice of 2 x 18 jobs holds every
        // shape twice.
        std::vector<int> order(static_cast<std::size_t>(programs));
        for (int s = 0; s < programs; ++s)
            order[static_cast<std::size_t>(s)] = s;
        shuffle(order.begin(), order.end(), rng_);
        for (int i = 0; i < programs; ++i)
            mix_.push_back({order[static_cast<std::size_t>(i)], i % kCombos});
        for (std::size_t b = 0; b < mix_.size(); b += 2 * kCombos)
            shuffle(mix_.begin() + static_cast<std::ptrdiff_t>(b),
                    mix_.begin() + static_cast<std::ptrdiff_t>(std::min(
                                       mix_.size(), b + 2 * kCombos)),
                    rng_);
    } else {
        // Corpus programs: every program under every job shape. Jobs
        // differ in size by up to 50x, so each slice of 2 x programs
        // jobs holds every program once on each engine. Slice r takes
        // the r-th of the 9 (fold, predictor) shapes in each program's
        // and engine's seeded order, and is shuffled itself.
        constexpr int kShapes = kCombos / 2;
        std::vector<int> order(static_cast<std::size_t>(programs) *
                               kCombos);
        for (int k = 0; k < programs * 2; ++k) {
            const auto first = order.begin() + k * kShapes;
            for (int r = 0; r < kShapes; ++r)
                first[r] = 2 * r + k % 2; // combo: engine in the low bit
            shuffle(first, first + kShapes, rng_);
        }
        for (int r = 0; r < kShapes; ++r) {
            const std::size_t begin = mix_.size();
            for (int k = 0; k < programs * 2; ++k)
                mix_.push_back({k / 2, order[static_cast<std::size_t>(
                                           k * kShapes + r)]});
            shuffle(mix_.begin() + static_cast<std::ptrdiff_t>(begin),
                    mix_.end(), rng_);
        }
    }
    for (std::size_t i = 0; i < mix_.size(); ++i)
        mix_[i].index = i;
    pass_ = in_.serveJobs > 0
                ? std::min(mix_.size(),
                           static_cast<std::size_t>(in_.serveJobs))
                : mix_.size();
}


ServeClient::~ServeClient()
{
    svc_.shutdown(true);
}

void
ServeClient::send(const Job& job,
                  std::unordered_map<std::uint64_t, Pending>& pending)
{
    static const FoldPolicy kFolds[] = {FoldPolicy::kNone,
                                        FoldPolicy::kCrisp, FoldPolicy::kAll};
    static const PredictorKind kPreds[] = {PredictorKind::kStaticBit,
                                           PredictorKind::kDynamic1,
                                           PredictorKind::kDynamic2};
    Pending p;
    p.subject = job.subject;
    p.combo = job.combo;
    p.index = job.index;
    const bool fast = p.combo % 2 == 1;
    p.t0 = nowNs();

    JobRequest req;
    req.jobId = nextId_++;
    req.foldPolicy = kFolds[p.combo / 6];
    req.predictor = kPreds[(p.combo / 2) % 3];
    req.engine = fast ? EngineKind::kFast : EngineKind::kCycle;
    req.maxCycles = in_.programs[static_cast<std::size_t>(p.subject)].budget;
    req.image = in_.programs[static_cast<std::size_t>(p.subject)].image;
    std::vector<std::uint8_t> wire;
    appendFrame(wire, FrameType::kSubmit, req.encode());
    FrameParser parser;
    parser.feed(wire.data(), wire.size());
    const std::optional<Frame> frame = parser.next();
    if (!frame || frame->type != FrameType::kSubmit)
        throw std::runtime_error("serve: request frame did not parse");
    const JobRequest decoded = JobRequest::decode(frame->payload);
    p.t1 = nowNs();

    std::string why;
    const SubmitStatus st = svc_.submit(
        decoded,
        [this](const JobResult& r) {
            const std::int64_t done = nowNs();
            Reply reply;
            appendFrame(reply.frame, FrameType::kResult, r.encode());
            reply.completed = done;
            {
                std::lock_guard<std::mutex> lk(mu_);
                replies_.push_back(std::move(reply));
            }
            cv_.notify_one();
        },
        &why);
    p.t2 = nowNs();
    if (st == SubmitStatus::kRejected)
        throw std::runtime_error("serve: job rejected: " + why);
    pending[decoded.jobId] = p;
}

double
ServeClient::loop(const std::vector<Job>& jobs, Recorder& tr,
                  std::vector<ServeRecord>& out)
{
    std::unordered_map<std::uint64_t, Pending> pending;
    FrameParser replies;
    std::size_t next = 0;
    std::size_t done = 0;
    int open = 0;
    const std::int64_t start = nowNs();
    while (done < jobs.size()) {
        while (open < inflight_ && next < jobs.size()) {
            send(jobs[next++], pending);
            ++open;
        }
        std::deque<Reply> batch;
        {
            std::unique_lock<std::mutex> lk(mu_);
            cv_.wait(lk, [this] { return !replies_.empty(); });
            batch.swap(replies_);
        }
        for (Reply& r : batch) {
            replies.feed(r.frame.data(), r.frame.size());
            const std::optional<Frame> f = replies.next();
            if (!f || f->type != FrameType::kResult)
                throw std::runtime_error("serve: reply frame did not parse");
            const JobResult res = JobResult::decode(f->payload);
            const std::int64_t t3 = nowNs();
            const Pending& p = pending.at(res.jobId);
            const Subject& s =
                in_.programs[static_cast<std::size_t>(p.subject)];
            const std::int64_t tj = std::max(p.t2, r.completed);
            ServeRecord rec;
            rec.job = p.index;
            rec.latencyMs = ms(t3 - p.t0);
            rec.protocolMs = ms(p.t1 - p.t0) + ms(t3 - tj);
            rec.submitMs = ms(p.t2 - p.t1);
            rec.jobMs = ms(tj - p.t1);
            rec.hit = res.cacheHit;
            rec.fast = p.combo % 2 == 1;
            rec.ok = res.state == JobState::kDone &&
                     static_cast<Word>(res.exitValue) == s.exitValue &&
                     (rec.fast || res.cycles > 0);
            out.push_back(rec);
            if (tr.enabled()) {
                const std::int32_t root =
                    tr.addRequest("serve", p.subject, p.t0, t3);
                tr.add("service.protocol", p.t0, p.t1, root);
                const std::int32_t job =
                    tr.add("service.job", p.t1, tj, root);
                tr.add("service.submit", p.t1, p.t2, job);
                tr.add("service.protocol", tj, t3, root);
            }
            --open;
            ++done;
        }
    }
    return static_cast<double>(nowNs() - start) / 1e9;
}

void
ServeClient::warm(std::vector<ServeRecord>& out)
{
    Recorder off;
    std::vector<Job> jobs;
    if (in_.programs.front().generated()) {
        // From the end of the mix, outside the pass: the pass's
        // programs must not find the registry warm.
        for (int i = 1; i <= in_.serveSlice; ++i)
            jobs.push_back(mix_[mix_.size() - static_cast<std::size_t>(i)]);
    } else {
        // Every program under every fold policy on both engines: the
        // registry's predecode tables and translations, keyed by
        // program and policy, are warm.
        for (int s = 0; s < static_cast<int>(in_.programs.size()); ++s) {
            for (int c = 0; c < kCombos; c += 6) {
                jobs.push_back({s, c});
                jobs.push_back({s, c + 1});
            }
        }
    }
    loop(jobs, off, out);
}

double
ServeClient::runSlice(int jobs, Recorder& tr, std::vector<ServeRecord>& out)
{
    std::vector<Job> slice;
    for (int i = 0; i < jobs; ++i) {
        slice.push_back(mix_[cursor_]);
        cursor_ = (cursor_ + 1) % pass_;
    }
    return loop(slice, tr, out);
}

} // namespace layerbench
