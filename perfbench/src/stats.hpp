/**
 * @file
 * The benchmark's own statistics: medians, nearest-rank percentiles and
 * the tail rule every latency figure follows — report the highest
 * whole percentile that still has at least kTailBeyond samples beyond
 * it, so a "p99" is never one unlucky sample. The tail metric is the
 * mean of the samples from that percentile up: a single order
 * statistic jumps whole clusters when two neighbouring ranks swap
 * (golden's p94 sits where the MQ/MV runs give way to MM), the mean of
 * the slowest eleven or more barely moves.
 */

#ifndef PERFBENCH_STATS_HPP
#define PERFBENCH_STATS_HPP

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench
{

/** Samples that must lie beyond a reported tail percentile. */
inline constexpr std::size_t kTailBeyond = 10;

/** Median (mean of the middle pair for even sizes); 0 when empty. */
double median(std::vector<double> v);

/**
 * Nearest-rank percentile: the value at 1-based rank ceil(p/100 * n)
 * of the sorted samples. 0 when empty.
 */
double percentile(std::vector<double> v, double p);

/** Samples strictly beyond the nearest-rank @p p-th percentile of n. */
std::size_t samplesBeyond(std::size_t n, double p);

/**
 * Highest whole percentile in [50, 99] with at least kTailBeyond
 * samples beyond it among @p n samples; empty when even p50 has too
 * few (fewer than 2 * kTailBeyond samples).
 */
std::optional<unsigned> tailPercentile(std::size_t n);

/**
 * Mean of the samples at and beyond the nearest-rank @p p-th
 * percentile; 0 when empty.
 */
double tailMean(std::vector<double> v, double p);

/** A timing as reported: median, tail percentile and sample count. */
struct Summary
{
    double median = 0;
    double tail = 0;       ///< value at tailLevel (median when none)
    double tailMean = 0;   ///< mean from tailLevel up (median when none)
    unsigned tailLevel = 0; ///< 0 when too few samples for a tail
    std::size_t n = 0;
};

/**
 * Summarise @p samples. The tail level comes from @p levelBase samples
 * (the per-pass count, so pooling passes never moves the level);
 * 0 means use samples.size().
 */
Summary summarize(const std::vector<double> &samples,
                  std::size_t levelBase = 0);

} // namespace perfbench

#endif // PERFBENCH_STATS_HPP
