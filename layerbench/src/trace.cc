#include "trace.hh"

#include <cstdio>
#include <fstream>

namespace layerbench
{

void
Recorder::beginRequest(const std::string& path, int subject)
{
    const std::int32_t root = static_cast<std::int32_t>(spans_.size());
    requests_.push_back({path, subject, root});
    SpanRec s;
    s.name = "request";
    s.start = nowNs();
    s.request = static_cast<std::uint32_t>(requests_.size());
    spans_.push_back(s);
    stack_.assign(1, root);
}

void
Recorder::endRequest()
{
    spans_[static_cast<std::size_t>(requests_.back().root)].end = nowNs();
    stack_.clear();
}

std::int32_t
Recorder::open(const char* name)
{
    SpanRec s;
    s.name = name;
    s.parent = current();
    s.request = static_cast<std::uint32_t>(requests_.size());
    const std::int32_t idx = static_cast<std::int32_t>(spans_.size());
    stack_.push_back(idx);
    s.start = nowNs();
    spans_.push_back(s);
    return idx;
}

void
Recorder::close(std::int32_t idx)
{
    spans_[static_cast<std::size_t>(idx)].end = nowNs();
    if (!stack_.empty() && stack_.back() == idx)
        stack_.pop_back();
}

std::int32_t
Recorder::addRequest(const std::string& path, int subject,
                     std::int64_t start, std::int64_t end)
{
    const std::int32_t root = static_cast<std::int32_t>(spans_.size());
    requests_.push_back({path, subject, root});
    SpanRec s;
    s.name = "request";
    s.start = start;
    s.end = end;
    s.request = static_cast<std::uint32_t>(requests_.size());
    spans_.push_back(s);
    return root;
}

std::int32_t
Recorder::add(const char* name, std::int64_t start, std::int64_t end,
              std::int32_t parent)
{
    SpanRec s;
    s.name = name;
    s.start = start;
    s.end = end;
    s.parent = parent;
    s.request = spans_[static_cast<std::size_t>(parent)].request;
    spans_.push_back(s);
    return static_cast<std::int32_t>(spans_.size() - 1);
}

std::vector<std::int64_t>
Recorder::selfTimes() const
{
    std::vector<std::int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].end - spans_[i].start;
    for (const SpanRec& s : spans_) {
        if (s.parent >= 0)
            self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
    }
    return self;
}

std::string
Recorder::validate() const
{
    char buf[160];
    std::vector<int> roots(requests_.size() + 1, 0);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRec& s = spans_[i];
        if (s.request == 0 || s.request > requests_.size()) {
            std::snprintf(buf, sizeof(buf), "span %zu has no request", i);
            return buf;
        }
        if (s.end < s.start) {
            std::snprintf(buf, sizeof(buf), "span %zu (%s) ends before "
                          "it starts", i, s.name);
            return buf;
        }
        if (s.parent < 0) {
            ++roots[s.request];
            continue;
        }
        const SpanRec& p = spans_[static_cast<std::size_t>(s.parent)];
        if (static_cast<std::size_t>(s.parent) >= i ||
            p.request != s.request || s.start < p.start ||
            s.end > p.end) {
            std::snprintf(buf, sizeof(buf), "span %zu (%s) is not inside "
                          "its parent (%s)", i, s.name, p.name);
            return buf;
        }
    }
    for (std::size_t r = 1; r < roots.size(); ++r) {
        if (roots[r] != 1) {
            std::snprintf(buf, sizeof(buf), "request %zu has %d roots", r,
                          roots[r]);
            return buf;
        }
    }
    const std::vector<std::int64_t> self = selfTimes();
    for (std::size_t i = 0; i < self.size(); ++i) {
        if (self[i] < 0) {
            std::snprintf(buf, sizeof(buf), "span %zu (%s) has negative "
                          "self time", i, spans_[i].name);
            return buf;
        }
    }
    return {};
}

bool
Recorder::write(const std::string& path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    for (std::size_t r = 0; r < requests_.size(); ++r) {
        out << "{\"request\":" << r + 1 << ",\"path\":\""
            << requests_[r].path << "\",\"subject\":"
            << requests_[r].subject << "}\n";
    }
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRec& s = spans_[i];
        out << "{\"span\":" << i << ",\"request\":" << s.request
            << ",\"parent\":" << s.parent << ",\"name\":\"" << s.name
            << "\",\"start_ns\":" << s.start << ",\"end_ns\":" << s.end
            << "}\n";
    }
    return static_cast<bool>(out);
}

} // namespace layerbench
