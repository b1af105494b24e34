/**
 * @file
 * Closed-loop crispd client against an in-process SimService.
 *
 * crispd's callers wait for each reply, so the load is a closed loop:
 * one generator thread (the caller's) keeps a fixed number of jobs in
 * flight. Every request goes through the wire path crispd runs — frame
 * encode, FrameParser, JobRequest::decode — and every result through
 * JobResult encode and decode. Exit values are checked against the
 * reference interpreter.
 *
 * The service runs with its result cache off (capacity 0): no hit
 * share has been measured for crispd's clients, so none is assumed,
 * and every job, repeats included, is simulated. A run serves the same
 * pass of jobs several times, so each job's latency is a median.
 */

#ifndef LAYERBENCH_SERVE_HH
#define LAYERBENCH_SERVE_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "bench.hh"
#include "service/service.hh"

namespace layerbench
{

/** One finished job as the caller saw it. */
struct ServeRecord
{
    std::size_t job = 0; //!< position in the pass
    double latencyMs = 0;
    double protocolMs = 0; //!< request codec + reply codec and delivery
    double submitMs = 0;   //!< SimService::submit
    double jobMs = 0;      //!< admission to completion
    bool hit = false;
    bool fast = false;
    bool ok = false;
};

class ServeClient
{
  public:
    /**
     * Start a service with @p workers worker lanes and keep @p inflight
     * jobs in flight. The job order derives from @p seed alone.
     */
    ServeClient(const Inputs& in, std::uint64_t seed, int workers,
                int inflight);
    ~ServeClient();

    ServeClient(const ServeClient&) = delete;
    ServeClient& operator=(const ServeClient&) = delete;

    /**
     * Warm the service outside any timed region: every corpus program
     * under every fold policy on both engines, or one slice of
     * generated programs from outside the pass, whose registry churn
     * is the workload.
     */
    void warm(std::vector<ServeRecord>& out);

    /**
     * Run the next @p jobs jobs of the pass, from its head again after
     * its end. @return busy seconds.
     */
    double runSlice(int jobs, Recorder& tr, std::vector<ServeRecord>& out);

    crisp::service::LedgerSnapshot ledger() const { return svc_.ledger(); }

    /** Jobs in one pass: the workload's serve job count, or the mix. */
    std::size_t passSize() const { return pass_; }

    /** Shut the service down, draining (idempotent). */
    void stop() { svc_.shutdown(true); }

  private:
    struct Job
    {
        int subject = 0;
        int combo = 0;
        std::size_t index = 0; //!< position in the mix
    };
    struct Reply
    {
        std::vector<std::uint8_t> frame;
        std::int64_t completed = 0;
    };
    struct Pending
    {
        int subject = -1;
        int combo = 0;
        std::size_t index = 0;
        std::int64_t t0 = 0, t1 = 0, t2 = 0;
    };

    void send(const Job& job,
              std::unordered_map<std::uint64_t, Pending>& pending);
    double loop(const std::vector<Job>& jobs, Recorder& tr,
                std::vector<ServeRecord>& out);

    const Inputs& in_;
    std::uint64_t rng_;
    int inflight_;
    std::vector<Job> mix_;
    std::size_t pass_ = 0;
    std::size_t cursor_ = 0;
    std::uint64_t nextId_ = 1;

    std::mutex mu_; //!< guards replies_
    std::condition_variable cv_;
    std::deque<Reply> replies_;

    crisp::service::SimService svc_;
};

} // namespace layerbench

#endif // LAYERBENCH_SERVE_HH
