/**
 * @file
 * Stand-alone layer probes of the traced run.
 *
 *   sim / workloads / power  the Table 2 runs golden makes at
 *       experimentConfig() (the four Fig. 11 modes; Fig. 12 reads the
 *       W-C and compress-only schemes from Baseline's shadow counters)
 *       replayed through makeWorkload -> Gpu -> setup -> launch ->
 *       computePower, one span per call; each replay must equal the
 *       golden engine's memoised result for the same key
 *   gen      kernel generation for the sweep manifest's workloads
 *   compress analyzeWrite / analyzeByteMask / analyzeBdi /
 *            analyzeAffine per 32-lane vector over four value families
 *   isa      traits(Opcode);  scalar  classifyScalar
 */

#include <array>
#include <future>
#include <mutex>
#include <span>

#include "bench.hpp"
#include "common/rng.hpp"
#include "compress/affine.hpp"
#include "compress/bdi_codec.hpp"
#include "compress/byte_mask_codec.hpp"
#include "compress/reg_meta.hpp"
#include "harness/engine.hpp"
#include "harness/experiments.hpp"
#include "isa/opcode.hpp"
#include "obs/result.hpp"
#include "power/energy_model.hpp"
#include "scalar/eligibility.hpp"
#include "sim/gpu.hpp"
#include "span.hpp"
#include "sweep/manifest.hpp"
#include "workloads/workload.hpp"

namespace perfbench
{

namespace
{

constexpr gs::ArchMode kModes[] = {
    gs::ArchMode::Baseline,
    gs::ArchMode::AluScalar,
    gs::ArchMode::GScalarNoDiv,
    gs::ArchMode::GScalarFull,
};

constexpr unsigned kLanes = 32;
/** Vectors per compress/isa/scalar probe, per value family. */
constexpr std::size_t kVectorIters = 100000;
constexpr std::size_t kPowerIters = 20000;

/** The micro_codec value families: scalar, 3-byte, 2-byte, random. */
std::vector<gs::Word>
family(unsigned f)
{
    gs::Rng rng(f + 1);
    std::vector<gs::Word> v(kLanes);
    for (unsigned i = 0; i < kLanes; ++i) {
        switch (f) {
          case 0: v[i] = 0xC04039C0; break;
          case 1: v[i] = 0xC04039C0 + i * 8; break;
          case 2: v[i] = 0xC0400000 + i * 1024; break;
          default: v[i] = rng.next32(); break;
        }
    }
    return v;
}

/** One replayed simulation, mirroring runWorkload span by span. */
gs::RunResult
replay(const std::string &abbr, const gs::ArchConfig &cfg)
{
    Span run("sim.run/" + abbr);
    gs::Workload w;
    {
        Span s("workloads.make");
        w = gs::makeWorkload(abbr);
    }
    std::unique_ptr<gs::Gpu> gpu;
    {
        Span s("sim.gpu_init");
        gpu = std::make_unique<gs::Gpu>(cfg);
    }
    if (w.setup) {
        Span s("workloads.setup");
        w.setup(gpu->memory(), cfg.seed);
    }
    gs::RunResult r;
    r.workload = w.name;
    r.mode = cfg.mode;
    bool first = true;
    for (const gs::WorkloadLaunch &launch : w.launches) {
        gs::EventCounts ev;
        {
            Span s("sim.launch/" + abbr);
            ev = gpu->launch(launch.kernel, launch.dims);
        }
        if (first) {
            r.ev = ev;
            first = false;
        } else {
            const auto prevCycles = r.ev.cycles;
            r.ev += ev;
            r.ev.cycles = prevCycles + ev.cycles;
        }
    }
    {
        Span s("power.compute");
        r.power = gs::computePower(r.ev, cfg);
    }
    return r;
}

void
simReplay(Context &ctx, gs::ExperimentEngine *golden, gs::EventCounts &anyEv)
{
    Report &rep = *ctx.report;
    std::vector<std::pair<std::string, gs::ArchConfig>> keys;
    for (const std::string &abbr : gs::workloadNames())
        for (const gs::ArchMode m : kModes) {
            gs::ArchConfig cfg = gs::experimentConfig();
            cfg.mode = m;
            keys.emplace_back(abbr, cfg);
        }
    std::vector<std::promise<gs::RunResult>> done(keys.size());
    {
        gs::WorkerPool pool(ctx.jobs);
        for (std::size_t i = 0; i < keys.size(); ++i)
            pool.submit([&keys, &done, i] {
                done[i].set_value(replay(keys[i].first, keys[i].second));
            });
        double warpInsts = 0;
        std::vector<gs::RunResult> results;
        for (auto &d : done)
            results.push_back(d.get_future().get());
        const gs::CacheStats before =
            golden ? golden->cacheStats() : gs::CacheStats{};
        for (std::size_t i = 0; i < keys.size(); ++i) {
            warpInsts += double(results[i].ev.warpInsts);
            rep.attempt();
            if (golden &&
                gs::runCsvRow(golden->run(keys[i].first, keys[i].second)) !=
                    gs::runCsvRow(results[i]))
                rep.fail("sim: replay of " + keys[i].first + " in mode " +
                         std::string(gs::archModeName(keys[i].second.mode)) +
                         " differs from the golden engine");
        }
        anyEv = results.front().ev;
        double launchS = 0;
        for (const std::string &abbr : gs::workloadNames()) {
            const double s = spanTotalS("sim.launch/" + abbr);
            launchS += s;
            rep.metric("sim.launch_s." + abbr, s, "s");
        }
        rep.metric("sim.host_ns_per_warp_inst", launchS / warpInsts * 1e9,
                   "ns");
        if (golden) {
            // Every replayed key must have been in golden's memo.
            const gs::CacheStats after = golden->cacheStats();
            rep.expectCount("sim.replay.golden_memo_hits",
                            after.hits - before.hits, keys.size());
        }
    }
    rep.metric("sim.gpu_init_ms", spanMedianS("sim.gpu_init") * 1e3, "ms");
    rep.metric("workloads.setup_ms", spanMedianS("workloads.setup") * 1e3,
               "ms");
}

/** Kernel generation for the sweep manifest's workloads. */
void
genProbe(Context &ctx)
{
    std::string err;
    const auto manifest = gs::SweepManifest::load(
        ctx.benchDir + "/sweep_manifest.json", &err);
    if (!manifest) {
        ctx.report->fail("gen: sweep manifest: " + err);
        return;
    }
    for (const gs::SweepManifest::Axis &axis : manifest->axes())
        if (axis.knob == "workload")
            for (const std::string &name : axis.values) {
                Span s("workloads.make");
                gs::makeWorkload(name);
            }
}

/** ns per call of @p fn over every value family, in one span. */
template <typename Fn>
double
perVectorNs(const char *span, Fn &&fn)
{
    std::vector<std::vector<gs::Word>> families;
    for (unsigned f = 0; f < 4; ++f)
        families.push_back(family(f));
    {
        Span s(span);
        for (std::size_t i = 0; i < kVectorIters; ++i)
            for (const auto &v : families)
                fn(std::span<const gs::Word>(v));
    }
    return spanTotalS(span) / double(kVectorIters * families.size()) * 1e9;
}

void
microProbes(Context &ctx, const gs::EventCounts &ev)
{
    Report &rep = *ctx.report;
    const gs::LaneMask full = gs::LaneMask((1ull << kLanes) - 1);
    volatile std::uint64_t sink = 0;

    rep.metric("compress.analyze_write_ns",
               perVectorNs("compress.analyze_write",
                           [&](std::span<const gs::Word> v) {
                               sink = sink + gs::analyzeWrite(v, full, full, 16)
                                                 .fullEnc;
                           }),
               "ns");
    rep.metric("compress.byte_mask_ns",
               perVectorNs("compress.byte_mask",
                           [&](std::span<const gs::Word> v) {
                               sink = sink +
                                      gs::analyzeByteMask(v, full).commonMsbs;
                           }),
               "ns");
    rep.metric("compress.bdi_ns",
               perVectorNs("compress.bdi",
                           [&](std::span<const gs::Word> v) {
                               sink = sink +
                                      gs::analyzeBdi(v, full).storedBytes;
                           }),
               "ns");
    rep.metric("compress.affine_ns",
               perVectorNs("compress.affine",
                           [&](std::span<const gs::Word> v) {
                               sink = sink + gs::analyzeAffine(v, full).stride;
                           }),
               "ns");

    // isa: every opcode's traits, once per iteration.
    const unsigned nOps = unsigned(gs::Opcode::NumOpcodes);
    {
        Span s("isa.traits");
        for (std::size_t i = 0; i < kVectorIters; ++i)
            for (unsigned op = 0; op < nOps; ++op)
                sink = sink + gs::traits(gs::Opcode(op)).numSrcs;
    }
    rep.metric("isa.traits_ns",
               spanTotalS("isa.traits") / double(kVectorIters * nOps) * 1e9,
               "ns");

    // scalar: classify a real kernel's instructions against source
    // registers holding each value family in turn.
    const gs::Workload w = gs::makeWorkload("BP");
    const std::vector<gs::Instruction> &code = w.launches.front().kernel.code;
    std::array<std::array<gs::RegMeta, 3>, 4> srcs;
    for (unsigned f = 0; f < 4; ++f)
        srcs[f].fill(gs::analyzeWrite(family(f), full, full, 16));
    gs::EligibilityContext ectx;
    ectx.active = full;
    ectx.fullMask = full;
    std::size_t classified = 0;
    {
        Span s("scalar.classify");
        for (std::size_t i = 0; i < kVectorIters / 10; ++i)
            for (const gs::Instruction &inst : code) {
                const auto &set = srcs[(i + classified) % 4];
                sink = sink + unsigned(gs::classifyScalar(
                                           inst,
                                           std::span<const gs::RegMeta>(
                                               set.data(), inst.numSrcRegs()),
                                           ectx)
                                           .tier);
                ++classified;
            }
    }
    rep.metric("scalar.classify_ns",
               spanTotalS("scalar.classify") / double(classified) * 1e9,
               "ns");

    const gs::ArchConfig cfg = gs::experimentConfig();
    {
        Span s("power.compute_loop");
        for (std::size_t i = 0; i < kPowerIters; ++i)
            sink = sink + std::uint64_t(gs::computePower(ev, cfg).ipcPerWatt());
    }
    rep.metric("power.compute_us",
               spanTotalS("power.compute_loop") / double(kPowerIters) * 1e6,
               "us");
}

} // namespace

void
probeLayers(Context &ctx, gs::ExperimentEngine *golden)
{
    gs::EventCounts ev;
    simReplay(ctx, golden, ev);
    genProbe(ctx);
    ctx.report->metric("workloads.make_ms",
                       spanMedianS("workloads.make") * 1e3, "ms");
    microProbes(ctx, ev);
}

} // namespace perfbench
