/**
 * @file
 * golden: the paper-reproduction path (`gscalar bench`). Every default
 * experiment is built in registry order through one fresh engine with
 * no disk cache; the text sink's bytes must equal
 * docs/bench_reference_output.txt and the engine's work counts must
 * equal the pinned ones.
 */

#include <cstring>
#include <set>
#include <sstream>
#include <tuple>

#include "bench.hpp"
#include "harness/engine.hpp"
#include "harness/experiments.hpp"
#include "obs/result.hpp"
#include "span.hpp"

namespace perfbench
{

namespace
{

const char *const kReference = "docs/bench_reference_output.txt";

class Golden : public Workload
{
  public:
    const char *name() const override { return "golden"; }

    void
    prepare(Context &ctx) override
    {
        if (!readFile(kReference, reference_))
            ctx.report->fail(std::string("golden: cannot read ") +
                             kReference);
    }

    double
    setupOnce(Context &ctx) override
    {
        const auto t0 = Clock::now();
        auto engine = std::make_unique<gs::ExperimentEngine>(ctx.jobs);
        const double s = secondsSince(t0);
        engine.reset();
        return s;
    }

    Pass
    pass(Context &ctx) override
    {
        Report &rep = *ctx.report;
        engine_.reset();
        engine_ = std::make_unique<gs::ExperimentEngine>(ctx.jobs);
        const gs::ArchConfig cfg = gs::experimentConfig();

        std::vector<std::pair<const gs::Experiment *, std::string>> out;
        std::vector<gs::RunResult> runs;
        const double cpu0 = cpuSeconds();
        const auto t0 = Clock::now();
        {
            Span pass("golden.pass");
            for (const gs::Experiment &e : gs::experiments()) {
                if (!e.inDefaultRun)
                    continue;
                gs::SuiteResult r;
                {
                    Span s(std::string("harness.experiment/") + e.name);
                    r = e.build(*engine_, cfg);
                }
                std::ostringstream text;
                gs::TextSink(text).emit(r);
                out.emplace_back(&e, text.str());
                runs.insert(runs.end(), r.runs.begin(), r.runs.end());
            }
        }
        Pass p;
        p.wallS = secondsSince(t0);
        p.cpuS = cpuSeconds() - cpu0;
        walls_.push_back(p.wallS);

        // Byte gate, one operation per experiment so a diff names it.
        std::size_t offset = 0;
        for (const auto &[e, text] : out) {
            rep.attempt();
            if (reference_.compare(offset, text.size(), text) != 0)
                rep.fail(std::string("golden: experiment ") + e->name +
                         " differs from " + kReference);
            offset += text.size();
        }
        if (offset != reference_.size())
            rep.fail("golden: output is " + std::to_string(offset) +
                     " bytes, reference " +
                     std::to_string(reference_.size()));

        const gs::EngineSnapshot snap = engine_->snapshot();
        lastSnap_ = snap;
        rep.expectCount("golden.simulations", snap.cache.misses,
                        ctx.expectedCount("golden.simulations"));
        rep.expectCount("golden.memo_hits", snap.cache.hits,
                        ctx.expectedCount("golden.memo_hits"));
        rep.expectCount("golden.sim_cycles", snap.simCycles,
                        ctx.expectedCount("golden.sim_cycles"));
        rep.expectCount("golden.warp_insts", snap.warpInsts,
                        ctx.expectedCount("golden.warp_insts"));
        rep.detail("counts", JsonObject()
                                 .str("workload", "golden")
                                 .num("simulations", double(snap.cache.misses))
                                 .num("memo_hits", double(snap.cache.hits))
                                 .num("sim_cycles", double(snap.simCycles))
                                 .num("warp_insts", double(snap.warpInsts))
                                 .text());

        // Per-simulation host time: a memo hit hands back a copy of its
        // leader's result, so (workload, mode, wallSeconds) names one
        // simulation.
        std::set<std::tuple<std::string, int, std::uint64_t>> seen;
        for (const gs::RunResult &r : runs) {
            std::uint64_t bits = 0;
            std::memcpy(&bits, &r.wallSeconds, sizeof(bits));
            if (r.ok() && seen.emplace(r.workload, int(r.mode), bits).second)
                p.latenciesS.push_back(r.wallSeconds);
        }
        p.latencyBase = p.latenciesS.size();
        p.points = double(snap.cache.misses + snap.cache.hits);
        p.rateWallS = p.wallS;
        p.warpInsts = double(snap.warpInsts);
        p.simWallS = snap.wallSumSeconds;
        return p;
    }

    void
    layerMetrics(Context &ctx) override
    {
        Report &rep = *ctx.report;
        for (const gs::Experiment &e : gs::experiments())
            if (e.inDefaultRun)
                rep.metric(std::string("harness.experiment_s.") + e.name,
                           spanTotalS(std::string("harness.experiment/") +
                                      e.name),
                           "s");
        const gs::EngineSnapshot &snap = lastSnap_;
        rep.metric("harness.engine.busy_share",
                   snap.wallSumSeconds / (walls_.back() * snap.jobs), "share");
        rep.metric("harness.engine.simulations", double(snap.cache.misses),
                   "count");
        rep.metric("harness.engine.memo_hits", double(snap.cache.hits),
                   "count");
        rep.metric("harness.engine.peak_queue", double(snap.peakQueueDepth),
                   "count");
    }

    std::string
    pathFigures() override
    {
        return JsonObject()
            .raw("suite_wall_s", summaryJson(summarize(walls_)))
            .text();
    }

    gs::ExperimentEngine *engine() { return engine_.get(); }

  private:
    std::string reference_;
    std::unique_ptr<gs::ExperimentEngine> engine_;
    std::vector<double> walls_;
    gs::EngineSnapshot lastSnap_; ///< at the end of the last pass
};

} // namespace

std::unique_ptr<Workload>
makeGolden()
{
    return std::make_unique<Golden>();
}

gs::ExperimentEngine *
goldenEngine(Workload &golden)
{
    auto *g = dynamic_cast<Golden *>(&golden);
    return g ? g->engine() : nullptr;
}

} // namespace perfbench
