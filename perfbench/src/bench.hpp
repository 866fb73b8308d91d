/**
 * @file
 * The benchmark's workloads and what they share. Each workload drives
 * one user path through the simulator's public API:
 *
 *   golden  every default experiment through one fresh engine
 *           (`gscalar bench`), byte-compared to the golden reference
 *   sweep   a ~1.5k-point campaign through runSweepCampaign in three
 *           phases: cold, --resume replay, and disk-cache-warm
 *   serve   closed-loop clients against an in-process gscalard
 *
 * A pass is one timed unit of a workload; its set-up (engine start,
 * manifest parse, daemon bind) stays outside the timed region and is
 * measured separately.
 */

#ifndef PERFBENCH_BENCH_HPP
#define PERFBENCH_BENCH_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "report.hpp"

namespace gs
{
class ExperimentEngine;
}

namespace perfbench
{

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0);

/** Process user + system CPU seconds so far. */
double cpuSeconds();

/** Peak resident set of this process, in MiB. */
double peakRssMb();

/** FNV-1a 64 of @p s, as 16 hex digits. */
std::string fnvHex(const std::string &s);

/** Read a whole file; false when it cannot be read. */
bool readFile(const std::string &path, std::string &out);

struct Context
{
    std::string benchDir; ///< the benchmark's own directory
    std::string workDir;  ///< scratch for this run (relative, fresh)
    std::uint64_t seed = 1;
    double seconds = 10;
    unsigned jobs = 1;
    Report *report = nullptr;
    /** perfbench/expected_counts.txt: key=value per line. */
    std::map<std::string, std::string> expected;

    /** A new, empty directory under workDir named after @p stem. */
    std::string freshDir(const std::string &stem);

    /** expected[key] as an integer; a missing key fails the run. */
    std::uint64_t expectedCount(const std::string &key);

  private:
    unsigned dirs_ = 0;
};

/** One timed pass of a workload: the samples its metrics come from. */
struct Pass
{
    double wallS = 0; ///< the whole timed pass
    double cpuS = 0;  ///< process CPU during the timed pass
    /** Results delivered in the pass's main phase, and its wall. */
    double points = 0;
    double rateWallS = 0;
    /** Per-result latencies (seconds) and the per-pass count the tail
     *  percentile is based on. */
    std::vector<double> latenciesS;
    std::size_t latencyBase = 0;
    /** Simulation work and the host seconds spent simulating it. */
    double warpInsts = 0;
    double simWallS = 0;
};

class Workload
{
  public:
    virtual ~Workload() = default;
    virtual const char *name() const = 0;

    /** One-off preparation: inputs, references (never timed). */
    virtual void prepare(Context &) {}

    /** Perform the workload's set-up once and tear it down; returns
     *  the set-up seconds. */
    virtual double setupOnce(Context &ctx) = 0;

    /** One timed pass, checked against the correctness gates. */
    virtual Pass pass(Context &ctx) = 0;

    /** Per-layer metrics of the last (traced) pass. */
    virtual void layerMetrics(Context &ctx) = 0;

    /** Figures of every pass so far under the names of the path they
     *  measure (suite_wall_s, submit_p99_ms, ...), as a JSON object. */
    virtual std::string pathFigures() = 0;
};

std::unique_ptr<Workload> makeGolden();
std::unique_ptr<Workload> makeSweep();
std::unique_ptr<Workload> makeServe();

/** The golden workload's engine from its last pass (kept alive so the
 *  sim replay can check itself against the suite's memo). */
gs::ExperimentEngine *goldenEngine(Workload &golden);

/** Stand-alone layer probes: sim replay, workloads, compress, isa,
 *  scalar and power. @p golden may be null. */
void probeLayers(Context &ctx, gs::ExperimentEngine *golden);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HPP
