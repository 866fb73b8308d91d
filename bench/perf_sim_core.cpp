/**
 * @file
 * Simulator-core performance baseline. Unlike the figure/table drivers
 * this is deliberately NOT in the experiment registry: its numbers are
 * host-dependent wall-clock measurements, so it must never join the
 * golden byte-compare. It emits one gscalar.bench.v1 document with
 * three metric groups:
 *
 *   sim-cycles/s   a representative kernel mix simulated at
 *                  --sim-threads 1/2/4 (parallel rows also prove the
 *                  counters stay byte-identical to serial)
 *   runs/s         distinct-seed runs pushed through the experiment
 *                  engine's worker pool (the cross-run GS_JOBS axis)
 *   codec GB/s     classify + compress throughput of the byte-mask
 *                  codec at every supported GS_SIMD level
 *
 * The committed baseline lives at BENCH_sim_core.json (repo root);
 * refresh it with:
 *
 *   perf_sim_core --json > BENCH_sim_core.json
 *
 * Values are machine-dependent — CI validates the schema, never the
 * numbers.
 */

#include <chrono>
#include <cstring>
#include <iostream>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "compress/byte_mask_codec.hpp"
#include "compress/simd.hpp"
#include "harness/engine.hpp"
#include "harness/runner.hpp"
#include "obs/result.hpp"
#include "sim/parallel.hpp"

namespace
{

using namespace gs;
using Clock = std::chrono::steady_clock;

/** Representative kernel mix: compute-, divergence- and memory-heavy. */
const std::vector<std::string> kMix = {"BP", "HS", "MQ", "PF"};

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** The micro experiment's value families: scalar, 3-byte, 2-byte,
 *  random. */
std::vector<Word>
pattern(unsigned family, unsigned lanes)
{
    Rng rng(family + 1);
    std::vector<Word> v(lanes);
    for (unsigned i = 0; i < lanes; ++i) {
        switch (family) {
          case 0: v[i] = 0xC04039C0; break;
          case 1: v[i] = 0xC04039C0 + i * 8; break;
          case 2: v[i] = 0xC0400000 + i * 1024; break;
          default: v[i] = rng.next32(); break;
        }
    }
    return v;
}

/** One kernel-mix pass at a given intra-run thread count. */
void
simMixRow(Table &t, unsigned threads, std::uint64_t &checksum)
{
    setSimThreads(threads);
    std::uint64_t cycles = 0;
    std::uint64_t sum = 0;
    const auto t0 = Clock::now();
    for (const std::string &w : kMix) {
        ArchConfig cfg;
        const RunResult r = runWorkload(w, cfg);
        cycles += r.ev.cycles;
        sum += r.ev.cycles * 31 + r.ev.warpInsts * 7 +
               r.ev.threadInsts;
    }
    const double secs = secondsSince(t0);
    if (checksum == 0)
        checksum = sum;
    else if (checksum != sum)
        GS_FATAL("kernel mix diverged at --sim-threads ", threads,
                 " (parallel ticking is supposed to be byte-identical)");
    std::ostringstream label;
    label << "sim-mix threads=" << threads;
    t.row({label.str(), "sim-cycles/s",
           Table::num(double(cycles) / secs, 0),
           Table::num(secs, 3)});
}

/** Distinct-seed fan-out through the engine's worker pool. */
void
engineRow(Table &t)
{
    setSimThreads(1);
    ExperimentEngine engine(0); // 0 = defaultJobs (GS_JOBS / --jobs)
    const unsigned kRuns = 8;
    std::vector<std::shared_future<RunResult>> futures;
    const auto t0 = Clock::now();
    for (unsigned i = 0; i < kRuns; ++i) {
        ArchConfig cfg;
        cfg.seed = 1000 + i; // distinct keys: no memoized shortcuts
        futures.push_back(engine.submit("BP", cfg));
    }
    for (auto &f : futures)
        f.get();
    const double secs = secondsSince(t0);
    std::ostringstream label;
    label << "engine jobs=" << engine.jobs();
    t.row({label.str(), "runs/s", Table::num(kRuns / secs, 2),
           Table::num(secs, 3)});
}

/** Classify + compress throughput for one SIMD level. */
void
codecRows(Table &t, SimdLevel level)
{
    setSimdLevel(level);
    constexpr unsigned kLanes = 32;
    constexpr unsigned kFamilies = 4;
    constexpr std::size_t kIters = 1'500'000;
    const LaneMask full = laneMaskLow(kLanes);

    std::vector<std::vector<Word>> inputs;
    for (unsigned f = 0; f < kFamilies; ++f)
        inputs.push_back(pattern(f, kLanes));
    const double bytesPerIter =
        double(kFamilies) * kLanes * sizeof(Word);

    // Classify (analyzeByteMask is the simulator's hot codec path).
    unsigned sink = 0;
    auto t0 = Clock::now();
    for (std::size_t i = 0; i < kIters; ++i)
        for (const auto &v : inputs)
            sink += analyzeByteMask(v, full).commonMsbs;
    double secs = secondsSince(t0);
    std::ostringstream l1;
    l1 << "codec classify simd=" << simdLevelName(level);
    t.row({l1.str(), "GB/s",
           Table::num(bytesPerIter * double(kIters) / secs / 1e9, 3),
           Table::num(secs, 3)});

    // Compress (the software packer of Table 3 / the micro experiment).
    std::size_t bytes = 0;
    t0 = Clock::now();
    for (std::size_t i = 0; i < kIters / 4; ++i)
        for (const auto &v : inputs)
            bytes += byteMaskCompress(v).size();
    secs = secondsSince(t0);
    std::ostringstream l2;
    l2 << "codec compress simd=" << simdLevelName(level);
    t.row({l2.str(), "GB/s",
           Table::num(bytesPerIter * double(kIters / 4) / secs / 1e9,
                      3),
           Table::num(secs, 3)});
    if (sink == 0 && bytes == 0)
        std::cerr << ""; // keep the measured loops observable
    clearSimdLevelOverride();
}

} // namespace

int
main(int argc, char **argv)
{
    initHarness(argc, argv);
    ResultFormat format = ResultFormat::Text;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--json") {
            format = ResultFormat::Json;
        } else if (a.rfind("--format=", 0) == 0) {
            const auto f = parseResultFormat(a.substr(9));
            if (!f)
                GS_FATAL("unknown --format '", a.substr(9), "'");
            format = *f;
        } else if (a == "--jobs" || a == "-j" || a == "--fault" ||
                   a == "--sim-threads") {
            ++i; // value consumed by initHarness
        } else if (a == "--cache" || a.rfind("--fault=", 0) == 0) {
            // consumed by initHarness
        } else {
            GS_FATAL("unknown option '", a,
                     "' (perf_sim_core [--json|--format=F])");
        }
    }

    Table t("Simulator-core performance baseline (host-dependent)");
    t.row({"case", "metric", "value", "secs"});

    std::uint64_t checksum = 0;
    for (const unsigned threads : {1u, 2u, 4u})
        simMixRow(t, threads, checksum);
    engineRow(t);
    for (const SimdLevel level :
         {SimdLevel::Off, SimdLevel::Swar, SimdLevel::Avx2}) {
        if (!simdLevelSupported(level))
            continue; // e.g. avx2 on a non-AVX2 host
        codecRows(t, level);
    }

    const SuiteResult result = makeSuiteResult(
        "perf_sim_core", "perf", t);
    makeResultSink(format, std::cout)->emit(result);
    return 0;
}
