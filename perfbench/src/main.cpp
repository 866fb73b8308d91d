/**
 * @file
 * perfbench: the repository benchmark. perfbench/run.py builds this
 * binary and runs it from the root of a checkout:
 *
 *   perfbench --workload golden|sweep|serve --seed N --seconds S
 *             --trace 0|1 [--commit ID]
 *
 * Untraced (--trace 0): run timed passes until S seconds have gone (at
 * least one), with rounds of set-ups between them (setup_s is their
 * median), and report the end-to-end metrics. Traced (--trace 1):
 * one untraced pass of the workload, then traced passes of every
 * workload plus the layer probes, with spans held in memory and
 * written to .bench_work/trace-<workload>-s<seed>.json at the end; it
 * reports the per-layer metrics and the tracing overhead.
 */

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include <sys/resource.h>
#include <unistd.h>

#include "bench.hpp"
#include "common/log.hpp"
#include "compress/simd.hpp"
#include "gen/generator.hpp"
#include "harness/engine.hpp"
#include "sim/parallel.hpp"
#include "span.hpp"

namespace fs = std::filesystem;

namespace perfbench
{

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
cpuSeconds()
{
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    auto s = [](const timeval &t) {
        return double(t.tv_sec) + double(t.tv_usec) / 1e6;
    };
    return s(u.ru_utime) + s(u.ru_stime);
}

double
peakRssMb()
{
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    return double(u.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

std::string
fnvHex(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

std::string
Context::freshDir(const std::string &stem)
{
    const std::string dir =
        workDir + "/" + stem + "-" + std::to_string(dirs_++);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

std::uint64_t
Context::expectedCount(const std::string &key)
{
    const auto it = expected.find(key);
    if (it == expected.end() || it->second.empty()) {
        report->fail("no expected value for " + key);
        return ~0ull;
    }
    return std::stoull(it->second);
}

} // namespace perfbench

namespace
{

using namespace perfbench;

/**
 * Set-ups per round behind setup_s. A round runs before every pass and
 * after the last one, so the set-up samples span the whole run rather
 * than one moment of it.
 */
constexpr unsigned kSetupRound = 25;

/** Environment the benchmark clears: no knob may leak into a run. */
const char *const kPinnedEnv[] = {
    "GS_CACHE_DIR", "GS_SWEEP_DIR",   "GS_FAULT", "GS_TRACE",
    "GS_SIM_THREADS", "GS_SIMD",      "GS_JOBS",  "GS_CODEC",
    "GS_VERBOSE",   "GS_CACHE_MAX_MB",
};

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string commit = "unknown";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload golden|sweep|serve "
                 "--seed N --seconds S --trace 0|1 [--commit ID]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc)
            usage(k + " needs a value");
        const std::string v = argv[++i];
        try {
            if (k == "--workload")
                a.workload = v;
            else if (k == "--seed")
                a.seed = std::stoull(v);
            else if (k == "--seconds")
                a.seconds = std::stod(v);
            else if (k == "--trace" && (v == "0" || v == "1"))
                a.trace = v == "1";
            else if (k == "--commit")
                a.commit = v;
            else
                usage("bad option " + k + " " + v);
        } catch (const std::exception &) {
            usage("bad value for " + k + ": " + v);
        }
    }
    if (a.workload != "golden" && a.workload != "sweep" &&
        a.workload != "serve")
        usage("unknown workload '" + a.workload + "'");
    if (!(a.seconds > 0))
        usage("--seconds must be positive");
    return a;
}

/** Refuse builds whose timings would mislead. */
void
refuseUnfitBuild()
{
    const std::string type = PERFBENCH_BUILD_TYPE;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    std::cerr << "perfbench: refusing a sanitizer build\n";
    std::exit(2);
#endif
#ifndef NDEBUG
    std::cerr << "perfbench: refusing a build with assertions ("
              << type << "); use RelWithDebInfo or Release\n";
    std::exit(2);
#endif
    if (type == "Debug") {
        std::cerr << "perfbench: refusing a Debug build\n";
        std::exit(2);
    }
}

std::map<std::string, std::string>
loadExpected(const std::string &path, Report &rep)
{
    std::map<std::string, std::string> out;
    std::string text;
    if (!readFile(path, text)) {
        rep.fail("cannot read " + path);
        return out;
    }
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);) {
        const auto eq = line.find('=');
        if (line.empty() || line[0] == '#' || eq == std::string::npos)
            continue;
        out[line.substr(0, eq)] = line.substr(eq + 1);
    }
    return out;
}

std::unique_ptr<Workload>
makeByName(const std::string &name)
{
    if (name == "golden")
        return makeGolden();
    if (name == "sweep")
        return makeSweep();
    return makeServe();
}

/** End-to-end metrics from the set-up samples and timed passes. */
void
reportEndToEnd(Report &rep, const std::vector<double> &setups,
               const std::vector<Pass> &passes)
{
    // Latency: each pass's median, tail percentile and tail mean (the
    // metric), then the median of those across passes, so one
    // disturbed pass cannot move the figure.
    std::vector<double> walls, rates, cpus, wips, p50s, tails, tailMeans;
    unsigned tailLevel = 0;
    std::size_t latSamples = 0;
    for (const Pass &p : passes) {
        walls.push_back(p.wallS);
        rates.push_back(p.points / p.rateWallS);
        cpus.push_back(p.cpuS);
        wips.push_back(p.simWallS > 0 ? p.warpInsts / p.simWallS : 0);
        std::vector<double> ms;
        for (const double s : p.latenciesS)
            ms.push_back(s * 1e3);
        const Summary lat = summarize(ms, p.latencyBase);
        p50s.push_back(lat.median);
        tails.push_back(lat.tail);
        tailMeans.push_back(lat.tailMean);
        tailLevel = lat.tailLevel;
        latSamples += lat.n;
    }
    const Summary setup = summarize(setups);
    const Summary wall = summarize(walls);
    const Summary rate = summarize(rates);
    const Summary cpu = summarize(cpus);
    const Summary wip = summarize(wips);
    const double p50 = median(p50s);
    const double tail = median(tails);
    const double tailUpMean = median(tailMeans);

    rep.metric("setup_s", setup.median, "s");
    rep.metric("wall_s", wall.median, "s");
    rep.metric("points_per_s", rate.median, "1/s");
    rep.metric("latency_tail_ms", tailUpMean, "ms");
    rep.metric("sim_warp_insts_per_s", wip.median, "1/s");
    rep.metric("cpu_s", cpu.median, "s");
    rep.metric("peak_rss_mb", peakRssMb(), "MiB");
    rep.detail("timings", JsonObject()
                              .raw("setup_s", summaryJson(setup))
                              .raw("wall_s", summaryJson(wall))
                              .raw("points_per_s", summaryJson(rate))
                              .raw("latency_ms",
                                   JsonObject()
                                       .num("median", p50)
                                       .num("p" + std::to_string(tailLevel),
                                            tail)
                                       .num("p" + std::to_string(tailLevel) +
                                                "_up_mean",
                                            tailUpMean)
                                       .num("n", double(latSamples))
                                       .text())
                              .raw("sim_warp_insts_per_s", summaryJson(wip))
                              .raw("cpu_s", summaryJson(cpu))
                              .num("passes", double(passes.size()))
                              .text());
}

void
runUntraced(Context &ctx, Workload &w)
{
    w.prepare(ctx);
    std::vector<double> setups;
    auto setupRound = [&] {
        for (unsigned i = 0; i < kSetupRound; ++i)
            setups.push_back(w.setupOnce(ctx));
    };
    std::vector<Pass> passes;
    const auto t0 = Clock::now();
    do {
        setupRound();
        passes.push_back(w.pass(ctx));
    } while (secondsSince(t0) < ctx.seconds);
    setupRound();
    reportEndToEnd(*ctx.report, setups, passes);
    ctx.report->detail("paths", w.pathFigures());
}

void
runTraced(Context &ctx, const std::string &name, const std::string &tracePath)
{
    Report &rep = *ctx.report;
    std::vector<std::unique_ptr<Workload>> all;
    for (const char *n : {"golden", "sweep", "serve"})
        all.push_back(makeByName(n));
    Workload *self = nullptr;
    for (auto &w : all) {
        w->prepare(ctx);
        if (name == w->name())
            self = w.get();
    }

    const Pass untraced = self->pass(ctx);
    SpanLog::global().setEnabled(true);
    const Pass traced = self->pass(ctx);
    for (auto &w : all)
        if (w.get() != self)
            w->pass(ctx);
    probeLayers(ctx, goldenEngine(*all.front()));
    for (auto &w : all)
        w->layerMetrics(ctx);
    SpanLog::global().setEnabled(false);

    const double overhead = traced.wallS - untraced.wallS;
    rep.metric("trace.overhead_s", overhead, "s");
    rep.metric("trace.overhead_share", overhead / untraced.wallS, "share");
    rep.detail("trace", JsonObject()
                            .str("workload", name)
                            .num("untraced_wall_s", untraced.wallS)
                            .num("traced_wall_s", traced.wallS)
                            .num("spans", double(
                                SpanLog::global().records().size()))
                            .str("file", tracePath)
                            .text());
    JsonObject bySpan;
    for (const auto &[span, st] : aggregateSpans(SpanLog::global().records()))
        bySpan.raw(span, JsonObject()
                             .num("count", double(st.count))
                             .num("total_s", st.totalS)
                             .num("self_s", st.selfS)
                             .text());
    rep.detail("spans", bySpan.text());
    if (!SpanLog::global().writeChromeTrace(tracePath))
        rep.fail("cannot write " + tracePath);
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    refuseUnfitBuild();
    for (const char *name : kPinnedEnv)
        ::unsetenv(name);
    gs::setQuiet(true);

    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    const unsigned jobs = std::min(nproc, 4u);
    gs::setDefaultJobs(jobs);
    gs::setSimThreads(1);
    gs::registerGenWorkloads();

    Report report;
    Context ctx;
    ctx.benchDir = "perfbench";
    ctx.workDir = ".bench_work/" + args.workload + "-s" +
                  std::to_string(args.seed) + "-" +
                  std::to_string(::getpid());
    ctx.seed = args.seed;
    ctx.seconds = args.seconds;
    ctx.jobs = jobs;
    ctx.report = &report;
    ctx.expected =
        loadExpected(ctx.benchDir + "/expected_counts.txt", report);
    fs::remove_all(ctx.workDir);
    fs::create_directories(ctx.workDir);

    JsonObject env;
    for (const char *name : kPinnedEnv)
        env.str(name, "");
    report.detail(
        "host",
        JsonObject()
            .str("workload", args.workload)
            .num("seed", double(args.seed))
            .num("seconds", args.seconds)
            .num("trace", args.trace)
            .num("nproc", nproc)
            .num("jobs", jobs)
            .num("sim_threads", 1)
            .str("simd", gs::simdLevelName(gs::activeSimdLevel()))
            .str("compiler", PERFBENCH_COMPILER)
            .str("build_type", PERFBENCH_BUILD_TYPE)
            .str("commit", args.commit)
            .raw("env", env.text())
            .text());

    if (args.trace) {
        runTraced(ctx, args.workload,
                  ".bench_work/trace-" + args.workload + "-s" +
                      std::to_string(args.seed) + ".json");
    } else {
        auto w = makeByName(args.workload);
        runUntraced(ctx, *w);
    }

    gs::defaultEngine().setDiskCache(nullptr);
    std::error_code ec;
    fs::remove_all(ctx.workDir, ec);
    std::cout << report.resultLine() << std::endl;
    return 0;
}
