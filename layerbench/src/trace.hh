/**
 * @file
 * In-memory span recorder for the traced run.
 *
 * A request is one workload/path/program/sample. Its root span covers
 * the whole request; every span opened while it is current is a
 * descendant. Spans are recorded by the benchmark around its calls into
 * crispsim's public functions (there are no spans inside the program),
 * kept in memory, and written once when the run ends.
 *
 * Single-threaded by design: only the benchmark's main thread records.
 * The serve path records its per-job spans after the reply arrives,
 * from timestamps the worker callback hands back.
 */

#ifndef LAYERBENCH_TRACE_HH
#define LAYERBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace layerbench
{

inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct SpanRec
{
    const char* name = "";
    std::int64_t start = 0;
    std::int64_t end = 0;
    /** Index of the parent span; -1 for a request root. */
    std::int32_t parent = -1;
    std::uint32_t request = 0;
};

struct RequestRec
{
    std::string path;
    int subject = 0;
    std::int32_t root = -1;
};

class Recorder
{
  public:
    bool enabled() const { return on_; }
    void setEnabled(bool on) { on_ = on; }

    /** Start a request (a new id) with its root span named @p path. */
    void beginRequest(const std::string& path, int subject);
    void endRequest();

    /** Open a child of the innermost open span. @return its index. */
    std::int32_t open(const char* name);
    void close(std::int32_t idx);

    /**
     * Record a finished request or span from timestamps taken
     * elsewhere (the serve path's overlapping jobs). @return its index.
     */
    std::int32_t addRequest(const std::string& path, int subject,
                            std::int64_t start, std::int64_t end);
    std::int32_t add(const char* name, std::int64_t start, std::int64_t end,
                     std::int32_t parent);

    std::int32_t current() const
    {
        return stack_.empty() ? -1 : stack_.back();
    }

    const std::vector<SpanRec>& spans() const { return spans_; }
    const std::vector<RequestRec>& requests() const { return requests_; }

    /** Self time of every span: its duration minus its children's. */
    std::vector<std::int64_t> selfTimes() const;

    /**
     * Structural check: every child lies inside its parent and in the
     * parent's request, every request has exactly one root, and no
     * self time is negative. @return the first problem, empty if none.
     */
    std::string validate() const;

    /** Write every request and span as JSON lines. */
    bool write(const std::string& path) const;

  private:
    bool on_ = false;
    std::vector<SpanRec> spans_;
    std::vector<RequestRec> requests_;
    std::vector<std::int32_t> stack_;
};

/** Scoped span; free when the recorder is disabled. */
class Span
{
  public:
    Span(Recorder& r, const char* name)
        : r_(r.enabled() ? &r : nullptr), idx_(r_ ? r_->open(name) : -1)
    {}
    ~Span()
    {
        if (r_ != nullptr)
            r_->close(idx_);
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

  private:
    Recorder* r_;
    std::int32_t idx_;
};

/** Scoped request; free when the recorder is disabled. */
class Request
{
  public:
    Request(Recorder& r, const std::string& path, int subject)
        : r_(r.enabled() ? &r : nullptr)
    {
        if (r_ != nullptr)
            r_->beginRequest(path, subject);
    }
    ~Request()
    {
        if (r_ != nullptr)
            r_->endRequest();
    }
    Request(const Request&) = delete;
    Request& operator=(const Request&) = delete;

  private:
    Recorder* r_;
};

} // namespace layerbench

#endif // LAYERBENCH_TRACE_HH
