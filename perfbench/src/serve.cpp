/**
 * @file
 * serve: an in-process gscalard on a private unix socket and four
 * closed-loop clients, one connection each, working through a seeded
 * schedule of 1000 `ST` submits. A tenth of the submits are fresh keys
 * (ST at distinct input seeds); the rest repeat an earlier key. Whether
 * a submit is fresh is decided when it is sent: the first client to
 * send a key owns its fresh submit.
 *
 * Gates: every response's counters must equal an in-process
 * runWorkload of its key, computed once per run outside the timed
 * region, and the engine must simulate each unique key exactly once.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <future>
#include <limits>
#include <optional>
#include <thread>

#include "bench.hpp"
#include "common/rng.hpp"
#include "harness/engine.hpp"
#include "obs/result.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "span.hpp"

namespace perfbench
{

namespace
{

const char *const kWorkloadName = "ST";
constexpr unsigned kClients = 4;
constexpr unsigned kSubmits = 1000;
constexpr unsigned kUnique = kSubmits / 10;
/** Idle round trips timed per probe, and protocol codec iterations. */
constexpr unsigned kRttProbes = 200;
constexpr unsigned kCodecIters = 2000;

gs::ArchConfig
keyConfig(std::uint64_t seed)
{
    gs::ArchConfig cfg;
    cfg.seed = seed;
    return cfg;
}

gs::ClientOptions
clientOptions()
{
    gs::ClientOptions o;
    o.attempts = 1; // a refused submit is a failure, never a retry
    return o;
}

/** An engine, a started daemon and one connected client per slot. */
struct Daemon
{
    gs::ExperimentEngine engine;
    gs::GscalarServer server;
    std::vector<std::unique_ptr<gs::GscalarClient>> clients;

    Daemon(unsigned jobs, const std::string &socket, unsigned nClients,
           Report &rep)
        : engine(jobs), server(engine, options(socket))
    {
        std::string err;
        if (!server.start(&err)) {
            rep.fail("serve: daemon did not start: " + err);
            return;
        }
        for (unsigned c = 0; c < nClients; ++c) {
            clients.push_back(
                std::make_unique<gs::GscalarClient>(socket, clientOptions()));
            if (!clients.back()->connect(&err))
                rep.fail("serve: client did not connect: " + err);
        }
    }

    ~Daemon()
    {
        clients.clear();
        server.stop();
    }

    static gs::GscalarServer::Options
    options(const std::string &socket)
    {
        gs::GscalarServer::Options o;
        o.socketPath = socket;
        return o;
    }
};

/** One submit as its client saw it. */
struct Sent
{
    bool fresh = false;
    bool ok = false;
    double latencyS = 0;
    double simS = 0; ///< the response's wallSeconds
    std::string counters;
};

class Serve : public Workload
{
  public:
    const char *name() const override { return "serve"; }

    void
    prepare(Context &ctx) override
    {
        // Keys: kUnique distinct ST input seeds drawn from the run seed;
        // every key appears once fresh plus round-robin repeats, then
        // the order is shuffled.
        gs::Rng rng(ctx.seed * 0x9e3779b97f4a7c15ull + 1);
        const std::uint64_t base = 100000 + (ctx.seed % 100000) * kUnique;
        for (unsigned i = 0; i < kUnique; ++i)
            keys_.push_back(base + i);
        for (unsigned i = 0; i < kSubmits; ++i)
            schedule_.push_back(i % kUnique);
        for (unsigned i = kSubmits - 1; i > 0; --i)
            std::swap(schedule_[i], schedule_[rng.next32() % (i + 1)]);

        // Reference counters, outside any timed region.
        gs::WorkerPool pool(ctx.jobs);
        std::vector<std::promise<std::string>> done(kUnique);
        for (unsigned k = 0; k < kUnique; ++k)
            pool.submit([this, k, &done] {
                done[k].set_value(gs::runCsvRow(
                    gs::runWorkload(kWorkloadName, keyConfig(keys_[k]))));
            });
        for (unsigned k = 0; k < kUnique; ++k)
            reference_.push_back(done[k].get_future().get());
    }

    double
    setupOnce(Context &ctx) override
    {
        const std::string socket = ctx.freshDir("setup") + "/d.sock";
        const auto t0 = Clock::now();
        std::optional<Daemon> d;
        d.emplace(ctx.jobs, socket, kClients, *ctx.report);
        const double s = secondsSince(t0);
        d.reset();
        return s;
    }

    Pass
    pass(Context &ctx) override
    {
        Report &rep = *ctx.report;
        const std::string socket = ctx.freshDir("serve") + "/d.sock";
        std::optional<Daemon> d;
        d.emplace(ctx.jobs, socket, kClients, rep);
        Pass p;
        if (d->clients.size() != kClients) {
            rep.attempt(kSubmits);
            rep.fail("serve: no daemon to submit to", kSubmits);
            return p;
        }

        std::vector<Sent> sent(kSubmits);
        std::vector<std::atomic<bool>> keySent(kUnique);
        std::atomic<unsigned> cursor{0};
        const double cpu0 = cpuSeconds();
        const auto t0 = Clock::now();
        {
            Span span("serve.pass");
            std::vector<std::thread> fleet;
            for (unsigned c = 0; c < kClients; ++c)
                fleet.emplace_back([&, c] {
                    gs::GscalarClient &client = *d->clients[c];
                    for (unsigned i = cursor.fetch_add(1); i < kSubmits;
                         i = cursor.fetch_add(1)) {
                        const unsigned k = schedule_[i];
                        Sent &s = sent[i];
                        s.fresh = !keySent[k].exchange(true);
                        const auto st = Clock::now();
                        std::string err;
                        const std::optional<gs::RunResult> r = client.run(
                            kWorkloadName, keyConfig(keys_[k]), &err);
                        s.latencyS = secondsSince(st);
                        s.ok = r && r->ok();
                        if (s.ok) {
                            s.simS = r->wallSeconds;
                            s.counters = gs::runCsvRow(*r);
                        }
                    }
                });
            for (std::thread &t : fleet)
                t.join();
        }
        p.wallS = secondsSince(t0);
        p.cpuS = cpuSeconds() - cpu0;
        const gs::DaemonStats stats = d->server.stats();
        const gs::EngineSnapshot snap = d->engine.snapshot();
        d.reset();

        // ---- gates --------------------------------------------------------
        rep.attempt(kSubmits);
        std::vector<double> freshMs, repeatMs, waitMs;
        for (unsigned i = 0; i < kSubmits; ++i) {
            const Sent &s = sent[i];
            const unsigned k = schedule_[i];
            if (!s.ok) {
                rep.fail("serve: submit " + std::to_string(i) +
                         " was not answered");
                // A failed submit misses every latency limit.
                p.latenciesS.push_back(
                    std::numeric_limits<double>::infinity());
                continue;
            }
            if (s.counters != reference_[k])
                rep.fail("serve: submit " + std::to_string(i) + " (key " +
                         std::to_string(keys_[k]) +
                         ") differs from the in-process run");
            p.latenciesS.push_back(s.latencyS);
            (s.fresh ? freshMs : repeatMs).push_back(s.latencyS * 1e3);
            if (s.fresh)
                waitMs.push_back((s.latencyS - s.simS) * 1e3);
        }
        rep.expectCount("serve.computations", snap.cache.misses, kUnique);
        rep.detail("counts", JsonObject()
                                 .str("workload", "serve")
                                 .num("submits", kSubmits)
                                 .num("unique_keys", kUnique)
                                 .num("computations",
                                      double(snap.cache.misses))
                                 .num("coalesce_followers",
                                      double(stats.coalesceFollowers))
                                 .text());

        latenciesS_.insert(latenciesS_.end(), p.latenciesS.begin(),
                           p.latenciesS.end());
        walls_.push_back(p.wallS);
        lastFreshMs_ = std::move(freshMs);
        lastRepeatMs_ = std::move(repeatMs);
        lastWaitMs_ = std::move(waitMs);
        lastFollowers_ = stats.coalesceFollowers;
        lastBatches_ = stats.batches;

        p.latencyBase = kSubmits;
        p.points = kSubmits;
        p.rateWallS = p.wallS;
        p.warpInsts = double(snap.warpInsts);
        p.simWallS = snap.wallSumSeconds;
        return p;
    }

    void
    layerMetrics(Context &ctx) override
    {
        Report &rep = *ctx.report;
        rep.metric("serve.fresh_p50_ms", median(lastFreshMs_), "ms");
        rep.metric("serve.repeat_p50_ms", median(lastRepeatMs_), "ms");
        rep.metric("serve.fresh_wait_ms", median(lastWaitMs_), "ms");
        rep.metric("serve.coalesce_followers", double(lastFollowers_),
                   "count");
        rep.metric("serve.batches", double(lastBatches_), "count");

        // Idle round trips against a fresh daemon.
        std::optional<gs::RunResult> memo;
        {
            Daemon d(ctx.jobs, ctx.freshDir("serve-idle") + "/d.sock", 1,
                     rep);
            rep.attempt(2 * kRttProbes + 1);
            if (d.clients.empty()) {
                rep.fail("serve: no daemon for the idle probes");
                return;
            }
            gs::GscalarClient &client = *d.clients.front();
            std::string err;
            for (unsigned i = 0; i < kRttProbes; ++i) {
                Span s("serve.ping");
                if (!client.ping(&err))
                    rep.fail("serve: idle ping failed: " + err);
            }
            memo = client.run(kWorkloadName, keyConfig(keys_[0]), &err);
            if (!memo || gs::runCsvRow(*memo) != reference_[0])
                rep.fail("serve: idle run of key 0 is wrong: " + err);
            for (unsigned i = 0; i < kRttProbes; ++i) {
                std::optional<gs::RunResult> r;
                {
                    Span s("serve.memo_rtt");
                    r = client.run(kWorkloadName, keyConfig(keys_[0]), &err);
                }
                if (!r || gs::runCsvRow(*r) != reference_[0])
                    rep.fail("serve: memoised run of key 0 is wrong: " + err);
            }
        }
        rep.metric("serve.ping_us", spanMedianS("serve.ping") * 1e6, "us");
        rep.metric("serve.memo_rtt_us", spanMedianS("serve.memo_rtt") * 1e6,
                   "us");

        // Protocol codec on a real response.
        gs::RunResponse resp;
        resp.status = gs::ResponseStatus::Ok;
        if (memo)
            resp.result = *memo;
        std::vector<std::uint8_t> bytes;
        std::size_t sink = 0;
        {
            Span s("serve.protocol.encode");
            for (unsigned i = 0; i < kCodecIters; ++i) {
                bytes = gs::serializeResponse(resp);
                sink += bytes.size();
            }
        }
        {
            Span s("serve.protocol.decode");
            for (unsigned i = 0; i < kCodecIters; ++i)
                sink += gs::deserializeResponse(bytes.data(), bytes.size())
                            ->result.ev.cycles;
        }
        const auto back = gs::deserializeResponse(bytes.data(), bytes.size());
        rep.attempt();
        if (!back || !memo || gs::runCsvRow(back->result) != reference_[0] ||
            sink == 0)
            rep.fail("serve: response does not survive encode/decode");
        rep.metric("serve.protocol.encode_us",
                   spanTotalS("serve.protocol.encode") / kCodecIters * 1e6,
                   "us");
        rep.metric("serve.protocol.decode_us",
                   spanTotalS("serve.protocol.decode") / kCodecIters * 1e6,
                   "us");
    }

    std::string
    pathFigures() override
    {
        std::vector<double> rates;
        for (const double w : walls_)
            rates.push_back(kSubmits / w);
        std::vector<double> ms;
        for (const double s : latenciesS_)
            ms.push_back(s * 1e3);
        const Summary lat = summarize(ms, kSubmits);
        return JsonObject()
            .raw("submits_per_s", summaryJson(summarize(rates)))
            .num("submit_p50_ms", lat.median)
            .num("submit_p99_ms", lat.tail)
            .num("latency_samples", double(lat.n))
            .text();
    }

  private:
    std::vector<std::uint64_t> keys_;
    std::vector<unsigned> schedule_; ///< key index per submit
    std::vector<std::string> reference_;
    std::vector<double> latenciesS_, walls_;
    std::vector<double> lastFreshMs_, lastRepeatMs_, lastWaitMs_;
    std::uint64_t lastFollowers_ = 0, lastBatches_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeServe()
{
    return std::make_unique<Serve>();
}

} // namespace perfbench
