/**
 * @file
 * In-memory span tracer for the traced benchmark run. A Span wraps one
 * of the benchmark's own calls into a layer's public functions (or a
 * loop of them); spans nest per thread, are held in memory while the
 * run is measured, and are written out once at the end as a Chrome
 * trace-event file. Disabled, a Span costs one relaxed load.
 *
 * Self time of a span is its duration minus the durations of its
 * direct children (spans opened on the same thread while it was the
 * innermost open span).
 */

#ifndef PERFBENCH_SPAN_HPP
#define PERFBENCH_SPAN_HPP

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

struct SpanRecord
{
    std::string name;
    std::uint32_t thread = 0;
    std::int32_t parent = -1; ///< index of the enclosing span, or -1
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;

    std::int64_t durationNs() const { return endNs - startNs; }
};

class SpanLog
{
  public:
    static SpanLog &global();

    void setEnabled(bool on) { enabled_.store(on); }
    bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

    /** Open a span on the calling thread; returns its index. */
    std::int32_t open(std::string name);

    /** Close span @p index (must be the thread's innermost). */
    void close(std::int32_t index);

    /** Closed spans so far, in open order. */
    std::vector<SpanRecord> records() const;

    void clear();

    /** Write every span as Chrome trace-event JSON; false on I/O error. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    std::atomic<bool> enabled_{false};
    mutable std::mutex mutex_;
    std::vector<SpanRecord> spans_;
    std::map<std::uint64_t, std::uint32_t> threadIds_;
};

/** RAII span on SpanLog::global(); inert while tracing is off. */
class Span
{
  public:
    explicit Span(const char *name);
    explicit Span(std::string name);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    std::int32_t index_ = -1;
};

/** Per-record self time: duration minus direct children's durations. */
std::vector<std::int64_t> selfTimesNs(const std::vector<SpanRecord> &spans);

/** Per-name aggregate of closed spans. */
struct SpanStats
{
    std::size_t count = 0;
    double totalS = 0;
    double selfS = 0;
    std::vector<double> durationsS; ///< in open order
};

std::map<std::string, SpanStats>
aggregateSpans(const std::vector<SpanRecord> &spans);

/** Summed duration of the global log's spans named @p name; 0 if none. */
double spanTotalS(const std::string &name);

/** Median duration of the global log's spans named @p name; 0 if none. */
double spanMedianS(const std::string &name);

} // namespace perfbench

#endif // PERFBENCH_SPAN_HPP
