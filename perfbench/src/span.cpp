#include "span.hpp"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <thread>

#include "stats.hpp"

namespace perfbench
{

namespace
{

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Innermost-last stack of the calling thread's open span indices. */
thread_local std::vector<std::int32_t> tlsOpen;

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out.push_back(c);
    }
    return out;
}

} // namespace

SpanLog &
SpanLog::global()
{
    static SpanLog log;
    return log;
}

std::int32_t
SpanLog::open(std::string name)
{
    SpanRecord r;
    r.name = std::move(name);
    r.parent = tlsOpen.empty() ? -1 : tlsOpen.back();
    const std::uint64_t tid =
        std::hash<std::thread::id>{}(std::this_thread::get_id());
    std::int32_t index = -1;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto [it, fresh] =
            threadIds_.emplace(tid, std::uint32_t(threadIds_.size()));
        (void)fresh;
        r.thread = it->second;
        r.startNs = nowNs();
        r.endNs = -1;
        index = std::int32_t(spans_.size());
        spans_.push_back(std::move(r));
    }
    tlsOpen.push_back(index);
    return index;
}

void
SpanLog::close(std::int32_t index)
{
    const std::int64_t end = nowNs();
    if (!tlsOpen.empty() && tlsOpen.back() == index)
        tlsOpen.pop_back();
    std::lock_guard<std::mutex> lock(mutex_);
    if (index >= 0 && std::size_t(index) < spans_.size())
        spans_[std::size_t(index)].endNs = end;
}

std::vector<SpanRecord>
SpanLog::records() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<SpanRecord> out;
    out.reserve(spans_.size());
    for (const SpanRecord &r : spans_)
        if (r.endNs >= 0)
            out.push_back(r);
    // Parents index spans_; keep them valid by remapping to out.
    if (out.size() != spans_.size()) {
        std::vector<std::int32_t> remap(spans_.size(), -1);
        std::int32_t next = 0;
        for (std::size_t i = 0; i < spans_.size(); ++i)
            if (spans_[i].endNs >= 0)
                remap[i] = next++;
        for (SpanRecord &r : out)
            r.parent = r.parent >= 0 ? remap[std::size_t(r.parent)] : -1;
    }
    return out;
}

void
SpanLog::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.clear();
}

bool
SpanLog::writeChromeTrace(const std::string &path) const
{
    const std::vector<SpanRecord> spans = records();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        return false;
    const std::int64_t t0 = spans.empty() ? 0 : spans.front().startNs;
    // Spans opened under one root share its index as their request id;
    // parents precede children, so one forward pass resolves roots.
    std::vector<std::size_t> root(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        root[i] = spans[i].parent >= 0 ? root[std::size_t(spans[i].parent)]
                                       : i;
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord &r = spans[i];
        char times[96];
        std::snprintf(times, sizeof(times), "%.3f,\"dur\":%.3f",
                      double(r.startNs - t0) / 1e3,
                      double(r.durationNs()) / 1e3);
        out << (i ? ",\n" : "\n") << "{\"name\":\"" << jsonEscape(r.name)
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << r.thread
            << ",\"ts\":" << times << ",\"args\":{\"span\":" << i
            << ",\"parent\":" << r.parent << ",\"request\":" << root[i]
            << "}}";
    }
    out << "\n]}\n";
    return bool(out);
}

Span::Span(const char *name)
{
    if (SpanLog::global().enabled())
        index_ = SpanLog::global().open(name);
}

Span::Span(std::string name)
{
    if (SpanLog::global().enabled())
        index_ = SpanLog::global().open(std::move(name));
}

Span::~Span()
{
    if (index_ >= 0)
        SpanLog::global().close(index_);
}

std::vector<std::int64_t>
selfTimesNs(const std::vector<SpanRecord> &spans)
{
    std::vector<std::int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        self[i] = spans[i].durationNs();
    for (const SpanRecord &r : spans)
        if (r.parent >= 0 && std::size_t(r.parent) < spans.size())
            self[std::size_t(r.parent)] -= r.durationNs();
    return self;
}

std::map<std::string, SpanStats>
aggregateSpans(const std::vector<SpanRecord> &spans)
{
    const std::vector<std::int64_t> self = selfTimesNs(spans);
    std::map<std::string, SpanStats> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        SpanStats &s = out[spans[i].name];
        ++s.count;
        s.totalS += double(spans[i].durationNs()) / 1e9;
        s.selfS += double(self[i]) / 1e9;
        s.durationsS.push_back(double(spans[i].durationNs()) / 1e9);
    }
    return out;
}

double
spanTotalS(const std::string &name)
{
    const auto agg = aggregateSpans(SpanLog::global().records());
    const auto it = agg.find(name);
    return it == agg.end() ? 0 : it->second.totalS;
}

double
spanMedianS(const std::string &name)
{
    const auto agg = aggregateSpans(SpanLog::global().records());
    const auto it = agg.find(name);
    return it == agg.end() ? 0 : median(it->second.durationsS);
}

} // namespace perfbench
