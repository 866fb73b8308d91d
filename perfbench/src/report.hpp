/**
 * @file
 * What one benchmark run prints. Detail records go to stdout as
 * `perfbench <key> <json>` lines while the run goes on; the last line
 * is the result object the benchmark contract asks for:
 *
 *   {"correct": B, "attempted": N, "failed": N, "metrics": {...}}
 *
 * Every operation a workload attempts is counted; any mismatch against
 * a correctness gate or an expected count is a failed operation and
 * makes the run incorrect.
 */

#ifndef PERFBENCH_REPORT_HPP
#define PERFBENCH_REPORT_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench
{

/** Number formatting with every digit (non-finite maps to DBL_MAX). */
std::string jsonNumber(double v);

/** Quote and escape @p s as a JSON string. */
std::string jsonString(const std::string &s);

/** A flat JSON object built field by field, in insertion order. */
class JsonObject
{
  public:
    JsonObject &num(const std::string &key, double v);
    JsonObject &str(const std::string &key, const std::string &v);
    JsonObject &raw(const std::string &key, const std::string &json);
    std::string text() const { return "{" + body_ + "}"; }

  private:
    void key(const std::string &k);
    std::string body_;
};

/** JSON of a timing summary: median, tail percentile and count. */
std::string summaryJson(const Summary &s);

class Report
{
  public:
    /** Record a contract metric (end-to-end or per-layer). */
    void metric(const std::string &name, double value,
                const std::string &unit);

    /** Print one detail line now. */
    void detail(const std::string &key, const std::string &json) const;

    void attempt(std::uint64_t n = 1) { attempted_ += n; }

    /** Count @p n failed operations and say why on stderr. */
    void fail(const std::string &why, std::uint64_t n = 1);

    /**
     * Check a count that must repeat exactly; a difference from
     * @p expected is a determinism failure (one failed operation).
     */
    void expectCount(const std::string &name, std::uint64_t got,
                     std::uint64_t expected);

    bool correct() const { return failed_ == 0 && attempted_ > 0; }
    std::uint64_t failed() const { return failed_; }

    /** The contract's final result object (one line). */
    std::string resultLine() const;

  private:
    struct Value
    {
        double value;
        std::string unit;
    };
    std::map<std::string, Value> metrics_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_REPORT_HPP
