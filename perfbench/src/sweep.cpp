/**
 * @file
 * sweep: one campaign from perfbench/sweep_manifest.json (64 generated
 * kernels x 6 modes x 4 codecs) through runSweepCampaign, in three
 * phases per pass, each in a new sweep directory:
 *
 *   cold    empty disk cache: simulate, journal, store
 *   resume  --resume on the cold campaign: journal replay only
 *   cached  new sweep directory, in-memory memo cleared: disk loads only
 *
 * The three aggregates must be byte-identical to each other and to the
 * digest pinned in perfbench/expected_counts.txt.
 */

#include <optional>
#include <sstream>

#include "bench.hpp"
#include "harness/engine.hpp"
#include "obs/result.hpp"
#include "span.hpp"
#include "store/run_cache.hpp"
#include "sweep/campaign.hpp"
#include "sweep/journal.hpp"
#include "sweep/manifest.hpp"

namespace perfbench
{

namespace
{

/** Records timed per store/load probe. */
constexpr std::size_t kStoreProbes = 32;
/** Journal appends timed. */
constexpr std::size_t kJournalProbes = 256;
/** Parse + expand repetitions for sweep.expand_ms. */
constexpr unsigned kExpandProbes = 5;

std::string
aggregateText(const gs::SweepOutcome &o)
{
    std::ostringstream text;
    gs::TextSink(text).emit(o.aggregate);
    return text.str();
}

class Sweep : public Workload
{
  public:
    const char *name() const override { return "sweep"; }

    void
    prepare(Context &ctx) override
    {
        const std::string path = ctx.benchDir + "/sweep_manifest.json";
        if (!readFile(path, text_)) {
            ctx.report->fail("sweep: cannot read " + path);
            return;
        }
        std::string err;
        manifest_ = gs::SweepManifest::parse(text_, &err);
        if (!manifest_) {
            ctx.report->fail("sweep: " + path + ": " + err);
            return;
        }
        auto points = manifest_->expand(&err);
        if (!points)
            ctx.report->fail("sweep: manifest does not expand: " + err);
        else
            points_ = std::move(*points);
    }

    double
    setupOnce(Context &) override
    {
        const auto t0 = Clock::now();
        std::string err;
        auto m = gs::SweepManifest::parse(text_, &err);
        if (m)
            m->expand(&err);
        return secondsSince(t0);
    }

    Pass
    pass(Context &ctx) override
    {
        Report &rep = *ctx.report;
        Pass p;
        if (!manifest_ || points_.empty()) {
            rep.attempt();
            rep.fail("sweep: no manifest");
            return p;
        }
        const std::string base = ctx.freshDir("sweep");
        cacheDir_ = base + "/cache";
        gs::ExperimentEngine &engine = gs::defaultEngine();
        engine.clearCache();
        engine.setDiskCache(std::make_unique<gs::DiskRunCache>(cacheDir_));

        gs::SweepOptions opts;
        opts.sweepDir = base + "/cold";
        opts.progressEvery = points_.size(); // final summary line only
        const gs::EngineSnapshot s0 = engine.snapshot();
        const double cpu0 = cpuSeconds();

        auto t0 = Clock::now();
        gs::SweepOutcome cold;
        {
            Span s("sweep.phase/cold");
            cold = gs::runSweepCampaign(*manifest_, opts);
        }
        const double coldS = secondsSince(t0);
        const gs::EngineSnapshot s1 = engine.snapshot();

        opts.resume = true;
        t0 = Clock::now();
        gs::SweepOutcome resumed;
        {
            Span s("sweep.phase/resume");
            resumed = gs::runSweepCampaign(*manifest_, opts);
        }
        const double resumeS = secondsSince(t0);

        engine.clearCache(); // memo hits would hide the disk loads
        opts.resume = false;
        opts.sweepDir = base + "/cached";
        t0 = Clock::now();
        gs::SweepOutcome cached;
        {
            Span s("sweep.phase/cached");
            cached = gs::runSweepCampaign(*manifest_, opts);
        }
        const double cachedS = secondsSince(t0);
        p.cpuS = cpuSeconds() - cpu0;
        p.wallS = coldS + resumeS + cachedS;
        const gs::EngineSnapshot s2 = engine.snapshot();

        // ---- gates --------------------------------------------------------
        const std::uint64_t n = points_.size();
        rep.attempt(3 * n);
        for (const gs::SweepOutcome *o : {&cold, &resumed, &cached})
            if (o->failed)
                rep.fail("sweep: points failed in " + o->campaignDir,
                         o->failed);
        const std::string coldText = aggregateText(cold);
        if (aggregateText(resumed) != coldText)
            rep.fail("sweep: resume aggregate differs from cold", n);
        if (aggregateText(cached) != coldText)
            rep.fail("sweep: cached aggregate differs from cold", n);
        const std::string digest = fnvHex(coldText);
        if (digest != ctx.expected["sweep.digest"])
            rep.fail("sweep: aggregate digest " + digest + ", expected " +
                         ctx.expected["sweep.digest"],
                     n);

        const std::uint64_t diskHits = s2.cache.diskHits - s1.cache.diskHits;
        const std::uint64_t diskStores =
            s1.cache.diskStores - s0.cache.diskStores;
        rep.expectCount("sweep.points", n, ctx.expectedCount("sweep.points"));
        rep.expectCount("sweep.cold.computed", cold.computed, n);
        rep.expectCount("sweep.cold.disk_stores", diskStores, n);
        rep.expectCount("sweep.resume.replayed", resumed.replayed, n);
        rep.expectCount("sweep.resume.computed", resumed.computed, 0);
        rep.expectCount("sweep.cached.disk_hits", diskHits, n);
        rep.expectCount("sweep.cached.simulations",
                        s2.cache.misses - s1.cache.misses - diskHits, 0);
        rep.detail("counts",
                   JsonObject()
                       .str("workload", "sweep")
                       .num("points", double(n))
                       .num("cold_computed", double(cold.computed))
                       .num("cold_disk_stores", double(diskStores))
                       .num("resume_replayed", double(resumed.replayed))
                       .num("cached_disk_hits", double(diskHits))
                       .str("digest", digest)
                       .text());

        coldS_.push_back(coldS);
        resumeS_.push_back(resumeS);
        cachedS_.push_back(cachedS);
        lastCold_ = std::move(cold);
        lastResumeReplayed_ = resumed.replayed;

        for (const gs::RunResult &r : lastCold_.aggregate.runs)
            p.latenciesS.push_back(r.wallSeconds);
        p.latencyBase = p.latenciesS.size();
        p.points = double(n);
        p.rateWallS = coldS;
        p.warpInsts = double(s1.warpInsts - s0.warpInsts);
        p.simWallS = s1.wallSumSeconds - s0.wallSumSeconds;
        return p;
    }

    void
    layerMetrics(Context &ctx) override
    {
        Report &rep = *ctx.report;
        const double n = double(points_.size());
        for (unsigned i = 0; i < kExpandProbes; ++i) {
            Span s("sweep.expand");
            setupOnce(ctx);
        }
        rep.metric("sweep.expand_ms", spanMedianS("sweep.expand") * 1e3,
                   "ms");
        rep.metric("sweep.points_computed", double(lastCold_.computed),
                   "count");
        rep.metric("sweep.points_replayed", double(lastResumeReplayed_),
                   "count");
        rep.metric("sweep.resume_points_per_s",
                   n / spanTotalS("sweep.phase/resume"), "1/s");
        rep.metric("store.cached_points_per_s",
                   n / spanTotalS("sweep.phase/cached"), "1/s");

        const std::vector<gs::RunResult> &runs = lastCold_.aggregate.runs;
        if (runs.size() < kJournalProbes || points_.size() < runs.size()) {
            rep.fail("sweep: too few cold results for the store probes");
            return;
        }

        // store: new keys (a seed no point uses) into an empty cache and
        // into the cold phase's full one; then loads of cold records.
        // Records are keyed by the workload's canonical name, which the
        // result carries (a manifest may abbreviate gen: specs).
        gs::DiskRunCache empty(ctx.freshDir("store-empty"));
        gs::DiskRunCache full(cacheDir_);
        for (std::size_t i = 0; i < kStoreProbes; ++i) {
            gs::ArchConfig cfg = points_[i].cfg;
            cfg.seed = 0x5eed0000 + i;
            {
                Span s("store.store/empty");
                empty.store(runs[i].workload, cfg, runs[i]);
            }
            {
                Span s("store.store/full");
                full.store(runs[i].workload, cfg, runs[i]);
            }
        }
        for (std::size_t i = 0; i < kStoreProbes; ++i) {
            const gs::SweepPoint &pt = points_[i * 37 % points_.size()];
            std::optional<gs::RunResult> got;
            {
                Span s("store.load");
                got = full.load(runs[pt.index].workload, pt.cfg);
            }
            rep.attempt();
            if (!got || gs::runCsvRow(*got) !=
                            gs::runCsvRow(runs[pt.index]))
                rep.fail("store: cold record of point " +
                         std::to_string(pt.index) + " did not load back");
        }
        rep.metric("store.store_ms.empty",
                   spanMedianS("store.store/empty") * 1e3, "ms");
        rep.metric("store.store_ms.full",
                   spanMedianS("store.store/full") * 1e3, "ms");
        rep.metric("store.load_ms", spanMedianS("store.load") * 1e3, "ms");

        // journal: appends into a new campaign, loads of the cold one.
        {
            gs::SweepJournal journal(ctx.freshDir("journal"));
            for (std::size_t i = 0; i < kJournalProbes; ++i) {
                Span s("sweep.journal_append");
                journal.append(points_[i], runs[i]);
            }
        }
        for (unsigned i = 0; i < 3; ++i) {
            gs::SweepJournal journal(lastCold_.campaignDir);
            std::size_t loaded = 0;
            {
                Span s("sweep.journal_load");
                loaded = journal.load(points_).size();
            }
            rep.attempt();
            if (loaded != points_.size())
                rep.fail("sweep: journal replayed " +
                         std::to_string(loaded) + " of " +
                         std::to_string(points_.size()));
        }
        rep.metric("sweep.journal_append_us",
                   spanMedianS("sweep.journal_append") * 1e6, "us");
        rep.metric("sweep.journal_load_ms",
                   spanMedianS("sweep.journal_load") * 1e3, "ms");
    }

    std::string
    pathFigures() override
    {
        const double n = double(points_.size());
        auto rates = [n](const std::vector<double> &walls) {
            std::vector<double> r;
            for (const double w : walls)
                r.push_back(n / w);
            return summaryJson(summarize(r));
        };
        return JsonObject()
            .raw("points_per_s", rates(coldS_))
            .raw("resume_points_per_s", rates(resumeS_))
            .raw("cached_points_per_s", rates(cachedS_))
            .text();
    }

  private:
    std::string text_;
    std::optional<gs::SweepManifest> manifest_;
    std::vector<gs::SweepPoint> points_;
    std::string cacheDir_;
    gs::SweepOutcome lastCold_;
    std::uint64_t lastResumeReplayed_ = 0;
    std::vector<double> coldS_, resumeS_, cachedS_;
};

} // namespace

std::unique_ptr<Workload>
makeSweep()
{
    return std::make_unique<Sweep>();
}

} // namespace perfbench
