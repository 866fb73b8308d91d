#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench
{

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t mid = v.size() / 2;
    return v.size() % 2 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

namespace
{

/** 1-based nearest rank of the p-th percentile among n samples. */
std::size_t
nearestRank(std::size_t n, double p)
{
    // The epsilon keeps exact products (p=99, n=1000 -> 990) from
    // rounding up through floating-point noise.
    const double exact = p / 100.0 * double(n);
    const auto rank = std::size_t(std::ceil(exact - 1e-9));
    return std::clamp<std::size_t>(rank, 1, n);
}

} // namespace

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    return v[nearestRank(v.size(), p) - 1];
}

double
tailMean(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t from = nearestRank(v.size(), p) - 1;
    double sum = 0;
    for (std::size_t i = from; i < v.size(); ++i)
        sum += v[i];
    return sum / double(v.size() - from);
}

std::size_t
samplesBeyond(std::size_t n, double p)
{
    return n == 0 ? 0 : n - nearestRank(n, p);
}

std::optional<unsigned>
tailPercentile(std::size_t n)
{
    for (unsigned p = 99; p >= 50; --p)
        if (samplesBeyond(n, p) >= kTailBeyond)
            return p;
    return std::nullopt;
}

Summary
summarize(const std::vector<double> &samples, std::size_t levelBase)
{
    Summary s;
    s.n = samples.size();
    s.median = median(samples);
    s.tail = s.median;
    s.tailMean = s.median;
    const auto level =
        tailPercentile(levelBase ? levelBase : samples.size());
    if (level && !samples.empty()) {
        s.tailLevel = *level;
        s.tail = percentile(samples, *level);
        s.tailMean = tailMean(samples, *level);
    }
    return s;
}

} // namespace perfbench
