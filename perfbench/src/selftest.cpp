/**
 * @file
 * Self-tests of the benchmark's own arithmetic: the nearest-rank
 * percentile, the "at least ten samples beyond" tail rule, the tail
 * mean, and span
 * self-time bookkeeping. run.py runs this before every benchmark run;
 * it also registers as a ctest in the perfbench build.
 */

#include <cmath>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "span.hpp"
#include "stats.hpp"

namespace
{

using namespace perfbench;

int failures = 0;

void
check(bool ok, const std::string &what)
{
    if (!ok) {
        std::cerr << "perfbench selftest FAILED: " << what << "\n";
        ++failures;
    }
}

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-12;
}

std::vector<double>
ramp(std::size_t n)
{
    std::vector<double> v;
    for (std::size_t i = n; i >= 1; --i)
        v.push_back(double(i)); // descending: the stats must sort
    return v;
}

void
testMedianAndPercentile()
{
    check(near(median({}), 0), "median of nothing is 0");
    check(near(median({3, 1, 2}), 2), "odd median");
    check(near(median({4, 1, 3, 2}), 2.5), "even median");
    check(near(percentile(ramp(100), 50), 50), "p50 of 1..100");
    check(near(percentile(ramp(100), 99), 99), "p99 of 1..100");
    check(near(percentile(ramp(1000), 99), 990), "p99 of 1..1000");
    check(near(percentile(ramp(1), 99), 1), "p99 of one sample");
    check(near(percentile(ramp(10), 95), 10), "p95 rounds the rank up");
}

void
testTailRule()
{
    // Exactly ten samples beyond p99 at n = 1000.
    check(samplesBeyond(1000, 99) == 10, "1000 samples: 10 beyond p99");
    check(tailPercentile(1000) == 99u, "1000 samples report p99");
    check(tailPercentile(999) == 98u, "999 samples fall back to p98");
    // 196 golden simulations: p95 leaves 9 beyond, p94 leaves 11.
    check(samplesBeyond(196, 95) == 9, "196 samples: 9 beyond p95");
    check(tailPercentile(196) == 94u, "196 samples report p94");
    check(tailPercentile(1536) == 99u, "sweep points report p99");
    check(tailPercentile(20) == 50u, "20 samples report p50");
    check(!tailPercentile(19).has_value(), "19 samples have no tail");
    for (std::size_t n = 20; n <= 5000; ++n) {
        const auto p = tailPercentile(n);
        check(p && samplesBeyond(n, *p) >= kTailBeyond,
              "tail of n=" + std::to_string(n) + " keeps 10 beyond");
        check(*p == 99 || samplesBeyond(n, *p + 1) < kTailBeyond,
              "tail of n=" + std::to_string(n) + " is the highest");
    }
    const Summary s = summarize(ramp(2000), 1000);
    check(s.tailLevel == 99 && near(s.tail, 1980) && s.n == 2000,
          "pooled summary keeps the per-pass level");
    check(near(s.tailMean, (1980 + 2000) / 2.0),
          "pooled tail mean covers 1980..2000");
    const Summary few = summarize({5, 7});
    check(few.tailLevel == 0 && near(few.tail, 6) && near(few.tailMean, 6),
          "no tail below 20");
}

void
testTailMean()
{
    check(near(tailMean({}, 99), 0), "tail mean of nothing is 0");
    // 1000 samples: p99 is rank 990, so ranks 990..1000 (11 values).
    check(near(tailMean(ramp(1000), 99), 995), "tail mean of 1..1000");
    // 196 golden simulations: p94 is rank 185, 12 values 185..196.
    check(near(tailMean(ramp(196), 94), (185 + 196) / 2.0),
          "tail mean of 1..196 from p94");
    // Two clusters meeting at the tail rank: swapping the samples at
    // ranks 185 and 186 moves p94 by the gap, the mean by 1/12 of it.
    std::vector<double> a = ramp(196), b = ramp(196);
    for (double &x : a)
        x = x >= 185 ? 800 : 500;
    for (double &x : b)
        x = x >= 186 ? 800 : 500;
    check(near(percentile(a, 94) - percentile(b, 94), 300),
          "p94 jumps the cluster gap");
    check(near(tailMean(a, 94) - tailMean(b, 94), 300.0 / 12),
          "tail mean moves by a twelfth of it");
}

void
testSelfTime()
{
    // parent [0,100) with children [10,30) and [40,90); grandchild
    // [50,60) inside the second child.
    std::vector<SpanRecord> spans(4);
    spans[0] = {"parent", 0, -1, 0, 100};
    spans[1] = {"child", 0, 0, 10, 30};
    spans[2] = {"child", 0, 0, 40, 90};
    spans[3] = {"grandchild", 0, 2, 50, 60};
    const std::vector<std::int64_t> self = selfTimesNs(spans);
    check(self[0] == 30, "parent self = 100 - 20 - 50");
    check(self[1] == 20, "leaf self = duration");
    check(self[2] == 40, "child self = 50 - 10");
    check(self[3] == 10, "grandchild self = duration");
    std::int64_t sum = 0;
    for (const std::int64_t s : self)
        sum += s;
    check(sum == spans[0].durationNs(), "self times sum to the root");

    const auto agg = aggregateSpans(spans);
    check(agg.at("child").count == 2, "aggregate counts per name");
    check(near(agg.at("child").totalS, 70e-9), "aggregate total");
    check(near(agg.at("child").selfS, 60e-9), "aggregate self");
}

void
testLiveSpans()
{
    SpanLog &log = SpanLog::global();
    log.clear();
    {
        Span off("ignored");
    }
    check(log.records().empty(), "disabled spans record nothing");
    log.setEnabled(true);
    {
        Span outer("outer");
        {
            Span inner("inner");
        }
        std::thread([] { Span other("other-thread"); }).join();
    }
    log.setEnabled(false);
    const std::vector<SpanRecord> r = log.records();
    check(r.size() == 3, "three spans recorded");
    if (r.size() == 3) {
        check(r[0].name == "outer" && r[0].parent == -1, "outer is a root");
        check(r[1].name == "inner" && r[1].parent == 0,
              "inner nests in outer");
        check(r[2].name == "other-thread" && r[2].parent == -1 &&
                  r[2].thread != r[0].thread,
              "another thread's span is its own root");
        check(selfTimesNs(r)[0] ==
                  r[0].durationNs() - r[1].durationNs(),
              "cross-thread spans are not children");
    }
    log.clear();
}

} // namespace

int
main()
{
    testMedianAndPercentile();
    testTailRule();
    testTailMean();
    testSelfTime();
    testLiveSpans();
    if (failures) {
        std::cerr << failures << " perfbench selftest check(s) failed\n";
        return 1;
    }
    std::cerr << "perfbench selftest: ok\n";
    return 0;
}
