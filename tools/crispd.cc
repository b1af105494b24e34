/**
 * @file
 * crispd — the CRISP batch-simulation daemon.
 *
 *   crispd --socket=PATH
 *          [--workers=N] [--queue-cap=N] [--deadline-ms=N]
 *          [--max-image-bytes=N] [--quarantine-strikes=N]
 *          [--chaos-per-mille=N] [--retry-cap=N]
 *
 * Listens on a local (AF_UNIX) stream socket for the frame protocol in
 * src/service/protocol.hh and feeds jobs to a SimService. One thread
 * per connection parses frames; completions arrive on service worker
 * threads and are written back under a per-connection mutex, so results
 * stream out as jobs finish, in completion order, tagged by jobId.
 *
 * Failure policy at this layer (everything else lives in SimService):
 *  - any malformed frame → one kError frame, then the connection is
 *    dropped (the parser is poisoned; nothing after a bad byte is
 *    trusted);
 *  - a client that disconnects with jobs in flight loses its replies
 *    but nothing else — completions hold the connection alive and
 *    their writes fail silently;
 *  - SIGINT/SIGTERM and the kShutdown frame both drain gracefully
 *    (kShutdown can also abort); either way every accepted job reaches
 *    its terminal state before the process exits, and the final ledger
 *    is printed and must be consistent.
 */

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "cli.hh"
#include "service/service.hh"

namespace
{

using namespace crisp;
using namespace crisp::service;

std::atomic<bool> g_stop{false};
std::atomic<bool> g_drain{true};

void
onSignal(int)
{
    g_stop.store(true, std::memory_order_relaxed);
}

/** One client connection; shared with in-flight completions. */
struct Conn
{
    explicit Conn(int fd) : fd(fd) {}
    ~Conn()
    {
        if (fd >= 0)
            ::close(fd);
    }
    Conn(const Conn&) = delete;
    Conn& operator=(const Conn&) = delete;

    /** Serialized frame write; silently drops on a dead peer. */
    void
    sendFrame(FrameType type, const std::vector<std::uint8_t>& payload)
    {
        std::vector<std::uint8_t> out;
        appendFrame(out, type, payload);
        std::lock_guard<std::mutex> lk(writeMu);
        std::size_t off = 0;
        while (off < out.size()) {
            const ssize_t n =
                ::send(fd, out.data() + off, out.size() - off,
                       MSG_NOSIGNAL);
            if (n <= 0)
                return; // peer gone; completions just stop streaming
            off += static_cast<std::size_t>(n);
        }
    }

    int fd;
    std::mutex writeMu;
};

void
serveConnection(const std::shared_ptr<Conn>& conn, SimService& service)
{
    FrameParser parser;
    std::uint8_t buf[16384];
    try {
        for (;;) {
            const ssize_t n = ::recv(conn->fd, buf, sizeof buf, 0);
            if (n <= 0)
                return; // EOF or error: client is gone
            parser.feed(buf, static_cast<std::size_t>(n));
            while (auto frame = parser.next()) {
                switch (frame->type) {
                  case FrameType::kSubmit: {
                    const JobRequest req =
                        JobRequest::decode(frame->payload);
                    std::string why;
                    const auto cb = [conn](const JobResult& res) {
                        conn->sendFrame(FrameType::kResult,
                                        res.encode());
                    };
                    if (service.submit(req, cb, &why) ==
                        SubmitStatus::kRejected) {
                        ErrorReply err;
                        err.jobId = req.jobId;
                        err.text = why;
                        conn->sendFrame(FrameType::kError,
                                        err.encode());
                    }
                    break;
                  }
                  case FrameType::kHealth: {
                    HealthReply reply;
                    reply.health = service.health();
                    reply.ledger = service.ledger();
                    conn->sendFrame(FrameType::kHealthReply,
                                    reply.encode());
                    break;
                  }
                  case FrameType::kShutdown: {
                    const ShutdownRequest sr =
                        ShutdownRequest::decode(frame->payload);
                    g_drain.store(sr.drain, std::memory_order_relaxed);
                    g_stop.store(true, std::memory_order_relaxed);
                    return;
                  }
                  default: {
                    ErrorReply err;
                    err.text = "unexpected client frame type";
                    conn->sendFrame(FrameType::kError, err.encode());
                    return;
                  }
                }
            }
        }
    } catch (const ProtocolError& e) {
        // First line of defence: answer once, then drop. A malformed
        // stream never reaches the job queue.
        ErrorReply err;
        err.text = e.what();
        conn->sendFrame(FrameType::kError, err.encode());
    }
}

int
usage()
{
    std::fprintf(
        stderr,
        "usage: crispd --socket=PATH [options]\n"
        "  --workers=N             worker threads (default 4)\n"
        "  --queue-cap=N           job queue bound (default 64)\n"
        "  --deadline-ms=N         default per-job deadline\n"
        "  --max-image-bytes=N     admission cap on object images\n"
        "  --quarantine-strikes=N  deadline strikes before quarantine\n"
        "  --retry-cap=N           service-wide retry cap\n"
        "  --chaos-per-mille=N     injected transient-fault rate\n");
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    std::string socket_path;
    ServiceConfig cfg;

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto val = [&](const char* key) { return cli::flag(a, key); };
        if (const char* v = val("--socket=")) {
            socket_path = v;
        } else if (const char* v2 = val("--workers=")) {
            if (!cli::parseInt(v2, cfg.workers, 1, 256))
                return usage();
        } else if (const char* v3 = val("--queue-cap=")) {
            if (!cli::parseInt(v3, cfg.queueCap, 1, 1'000'000))
                return usage();
        } else if (const char* v4 = val("--deadline-ms=")) {
            if (!cli::parseInt(v4, cfg.defaultDeadlineMs, 1,
                               cfg.maxDeadlineMs))
                return usage();
        } else if (const char* v5 = val("--max-image-bytes=")) {
            if (!cli::parseInt(v5, cfg.maxImageBytes, 1, cfg.maxMemBytes))
                return usage();
        } else if (const char* v6 = val("--quarantine-strikes=")) {
            if (!cli::parseInt(v6, cfg.quarantineStrikes, 1, 1000))
                return usage();
        } else if (const char* v7 = val("--retry-cap=")) {
            if (!cli::parseInt(v7, cfg.retryCap, 0, 255))
                return usage();
        } else if (const char* v8 = val("--chaos-per-mille=")) {
            if (!cli::parseInt(v8, cfg.transientFaultPerMille, 0, 1000))
                return usage();
        } else {
            return usage();
        }
    }
    if (socket_path.empty())
        return usage();

    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socket_path.size() >= sizeof addr.sun_path) {
        std::fprintf(stderr, "crispd: socket path too long\n");
        return 1;
    }
    std::strncpy(addr.sun_path, socket_path.c_str(),
                 sizeof addr.sun_path - 1);

    const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listener < 0) {
        std::perror("crispd: socket");
        return 1;
    }
    ::unlink(socket_path.c_str()); // stale socket from a crashed run
    if (::bind(listener, reinterpret_cast<sockaddr*>(&addr),
               sizeof addr) != 0 ||
        ::listen(listener, 64) != 0) {
        std::perror("crispd: bind/listen");
        ::close(listener);
        return 1;
    }

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    std::signal(SIGPIPE, SIG_IGN);

    SimService service(cfg);
    std::fprintf(stderr, "crispd: listening on %s (%d workers)\n",
                 socket_path.c_str(), cfg.workers);

    std::vector<std::thread> conns;
    std::vector<std::weak_ptr<Conn>> conn_handles;
    while (!g_stop.load(std::memory_order_relaxed)) {
        pollfd pfd{listener, POLLIN, 0};
        const int pr = ::poll(&pfd, 1, 200);
        if (pr <= 0)
            continue; // timeout or EINTR: re-check the stop flag
        const int fd = ::accept(listener, nullptr, nullptr);
        if (fd < 0)
            continue;
        auto conn = std::make_shared<Conn>(fd);
        conn_handles.push_back(conn);
        conns.emplace_back(
            [conn, &service] { serveConnection(conn, service); });
    }

    ::close(listener);
    ::unlink(socket_path.c_str());
    // Drain/abort the service FIRST: that terminal-states every job and
    // flushes its completion (which may write to still-open
    // connections), then readers are unblocked and joined.
    service.shutdown(g_drain.load(std::memory_order_relaxed));
    for (const std::weak_ptr<Conn>& w : conn_handles) {
        if (const auto c = w.lock())
            ::shutdown(c->fd, SHUT_RD); // unblock a reader in recv()
    }
    for (std::thread& t : conns) {
        if (t.joinable())
            t.join();
    }

    const LedgerSnapshot ledger = service.ledger();
    std::fprintf(
        stderr,
        "crispd: ledger submitted=%llu accepted=%llu rejected=%llu "
        "done=%llu failed=%llu shed=%llu timed-out=%llu "
        "cache-hits=%llu retries=%llu quarantined=%llu consistent=%s\n",
        static_cast<unsigned long long>(ledger.submitted),
        static_cast<unsigned long long>(ledger.accepted),
        static_cast<unsigned long long>(ledger.rejected),
        static_cast<unsigned long long>(ledger.done),
        static_cast<unsigned long long>(ledger.failed),
        static_cast<unsigned long long>(ledger.shed),
        static_cast<unsigned long long>(ledger.timedOut),
        static_cast<unsigned long long>(ledger.resultCacheHits),
        static_cast<unsigned long long>(ledger.retriesScheduled),
        static_cast<unsigned long long>(ledger.quarantined),
        ledger.consistent() ? "yes" : "NO");
    if (!ledger.consistent() || ledger.queued != 0 ||
        ledger.inFlight != 0) {
        std::fprintf(stderr,
                     "crispd: LEDGER INCONSISTENT AT SHUTDOWN\n");
        return 1;
    }
    return 0;
}
