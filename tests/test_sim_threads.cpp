/**
 * @file
 * Determinism contract of intra-run SM threading (sim/parallel.hpp)
 * and the codec's cpu-dispatch seam (compress/simd.hpp): every thread
 * count and every SIMD level must produce byte-identical results —
 * csvRow covers every event counter and power component, so equality
 * there is bit-level determinism of the whole simulation.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "compress/byte_mask_codec.hpp"
#include "compress/simd.hpp"
#include "fault/fault.hpp"
#include "gen/diff.hpp"
#include "harness/report.hpp"
#include "harness/runner.hpp"
#include "isa/kernel_builder.hpp"
#include "sim/gpu.hpp"
#include "sim/parallel.hpp"
#include "workloads/workload.hpp"

namespace gs
{
namespace
{

/** Restore the --sim-threads default (env consult) on scope exit. */
struct SimThreadsAtExit
{
    ~SimThreadsAtExit() { setSimThreads(0); }
};

/** Restore the auto-detected SIMD level on scope exit. */
struct SimdLevelAtExit
{
    ~SimdLevelAtExit() { clearSimdLevelOverride(); }
};

/** Disarm the global fault injector on scope exit. */
struct DisarmAtExit
{
    ~DisarmAtExit() { faultInjector().disarm(); }
};

/** out[gtid] = gtid + 7: every thread stores a distinct word, so the
 *  memory image is a full fingerprint of the execution. */
Kernel
gridKernel()
{
    KernelBuilder kb("simthreads-grid");
    const Reg tid = kb.reg();
    const Reg ctaid = kb.reg();
    const Reg ntid = kb.reg();
    const Reg gtid = kb.reg();
    kb.s2r(tid, SReg::Tid);
    kb.s2r(ctaid, SReg::CtaId);
    kb.s2r(ntid, SReg::NTid);
    kb.imad(gtid, ctaid, ntid, tid);
    const Reg v = kb.reg();
    kb.iaddi(v, gtid, 7);
    const Reg addr = kb.reg();
    kb.shli(addr, gtid, 2);
    kb.iaddi(addr, addr, 0x100000);
    kb.stg(addr, v);
    return kb.build();
}

// ---------------------------------------------------------------- parsing

TEST(SimThreads, ParseAcceptsStrictPositiveIntegers)
{
    EXPECT_EQ(parseSimThreadsValue("1"), 1u);
    EXPECT_EQ(parseSimThreadsValue("4"), 4u);
    EXPECT_EQ(parseSimThreadsValue("4096"), 4096u);
}

TEST(SimThreads, ParseRejectsEverythingElse)
{
    for (const char *bad : {"", "0", "4097", "99999", "abc", "2x",
                            " 2", "2 ", "+2", "-2", "0x2", "2.0"})
        EXPECT_FALSE(parseSimThreadsValue(bad).has_value())
            << "'" << bad << "' should be rejected";
}

TEST(SimdDispatch, ParseAcceptsKnownLevels)
{
    EXPECT_EQ(parseSimdLevel("off"), SimdLevel::Off);
    EXPECT_EQ(parseSimdLevel("swar"), SimdLevel::Swar);
    EXPECT_EQ(parseSimdLevel("avx2"), SimdLevel::Avx2);
}

TEST(SimdDispatch, ParseRejectsUnknownNames)
{
    for (const char *bad : {"", "OFF", "sse", "avx512", "auto", " off"})
        EXPECT_FALSE(parseSimdLevel(bad).has_value())
            << "'" << bad << "' should be rejected";
}

TEST(SimdDispatch, NamesRoundTrip)
{
    for (const SimdLevel l :
         {SimdLevel::Off, SimdLevel::Swar, SimdLevel::Avx2})
        EXPECT_EQ(parseSimdLevel(simdLevelName(l)), l);
}

TEST(SimdDispatch, BaselineLevelsAlwaysSupported)
{
    EXPECT_TRUE(simdLevelSupported(SimdLevel::Off));
    EXPECT_TRUE(simdLevelSupported(SimdLevel::Swar));
}

// ------------------------------------------------------- codec equivalence

std::vector<SimdLevel>
supportedLevels()
{
    std::vector<SimdLevel> out;
    for (const SimdLevel l :
         {SimdLevel::Off, SimdLevel::Swar, SimdLevel::Avx2})
        if (simdLevelSupported(l))
            out.push_back(l);
    return out;
}

TEST(SimdDispatch, AllLevelsAgreeOnAnalyze)
{
    SimdLevelAtExit restore;
    Rng rng(7);
    for (unsigned trial = 0; trial < 400; ++trial) {
        const unsigned lanes = 1 + rng.next32() % 64;
        std::vector<Word> values(lanes);
        const unsigned family = rng.next32() % 4;
        for (unsigned i = 0; i < lanes; ++i) {
            switch (family) {
              case 0: values[i] = 0xC04039C0; break;
              case 1: values[i] = 0xC04039C0 + i * 8; break;
              case 2: values[i] = 0xC0400000 + i * 1024; break;
              default: values[i] = rng.next32(); break;
            }
        }
        LaneMask active = rng.next64() & laneMaskLow(lanes);
        if (active == 0)
            active = 1;

        setSimdLevel(SimdLevel::Off);
        const ByteMaskEncoding ref = analyzeByteMask(values, active);
        for (const SimdLevel l : supportedLevels()) {
            setSimdLevel(l);
            const ByteMaskEncoding got = analyzeByteMask(values, active);
            EXPECT_EQ(ref.commonMsbs, got.commonMsbs)
                << "trial " << trial << " level " << simdLevelName(l);
            EXPECT_EQ(ref.base, got.base)
                << "trial " << trial << " level " << simdLevelName(l);
        }
    }
}

TEST(SimdDispatch, AllLevelsAgreeOnCompressedBytes)
{
    SimdLevelAtExit restore;
    Rng rng(11);
    for (unsigned trial = 0; trial < 200; ++trial) {
        const unsigned lanes = 1 + rng.next32() % 64;
        std::vector<Word> values(lanes);
        const unsigned family = rng.next32() % 4;
        for (unsigned i = 0; i < lanes; ++i) {
            switch (family) {
              case 0: values[i] = 0xDEADBEEF; break;
              case 1: values[i] = 0xDEADBE00 + i; break;
              case 2: values[i] = 0xDEAD0000 + i * 257; break;
              default: values[i] = rng.next32(); break;
            }
        }

        setSimdLevel(SimdLevel::Off);
        const std::vector<std::uint8_t> ref = byteMaskCompress(values);
        const unsigned msbs =
            analyzeByteMask(values, laneMaskLow(lanes)).commonMsbs;
        EXPECT_EQ(byteMaskDecompress(ref, msbs, lanes), values);
        for (const SimdLevel l : supportedLevels()) {
            setSimdLevel(l);
            EXPECT_EQ(ref, byteMaskCompress(values))
                << "trial " << trial << " level " << simdLevelName(l);
        }
    }
}

// ----------------------------------------------------- sim-core determinism

TEST(SimThreads, ParallelGpuMatchesSerialMemoryAndCounters)
{
    setQuiet(true);
    SimThreadsAtExit restore;
    ArchConfig cfg;
    cfg.numSms = 4;

    setSimThreads(1);
    Gpu serial(cfg);
    const EventCounts ref = serial.launch(gridKernel(), {20, 96});

    for (const unsigned threads : {2u, 4u}) {
        setSimThreads(threads);
        Gpu par(cfg);
        const EventCounts got = par.launch(gridKernel(), {20, 96});
        EXPECT_EQ(ref.cycles, got.cycles) << "threads " << threads;
        EXPECT_EQ(ref.warpInsts, got.warpInsts) << "threads " << threads;
        EXPECT_EQ(ref.threadInsts, got.threadInsts)
            << "threads " << threads;
        for (unsigned g = 0; g < 20 * 96; ++g)
            ASSERT_EQ(serial.memory().readWord(0x100000 + 4 * g),
                      par.memory().readWord(0x100000 + 4 * g))
                << "threads " << threads << " gtid " << g;
    }
}

TEST(SimThreads, FullSuiteByteIdenticalAcrossThreadCounts)
{
    setQuiet(true);
    SimThreadsAtExit restore;

    // Serial reference for every Table 2 workload.
    setSimThreads(1);
    std::vector<std::string> serial;
    for (const std::string &w : workloadNames()) {
        ArchConfig cfg;
        serial.push_back(csvRow(runWorkload(w, cfg)));
    }

    for (const unsigned threads : {2u, 4u}) {
        setSimThreads(threads);
        const auto &names = workloadNames();
        for (std::size_t i = 0; i < names.size(); ++i) {
            ArchConfig cfg;
            EXPECT_EQ(serial[i], csvRow(runWorkload(names[i], cfg)))
                << names[i] << " diverged at --sim-threads " << threads;
        }
    }
}

TEST(SimThreads, SimdLevelsByteIdenticalEndToEnd)
{
    setQuiet(true);
    SimThreadsAtExit restoreThreads;
    SimdLevelAtExit restoreSimd;

    setSimThreads(1);
    setSimdLevel(SimdLevel::Off);
    ArchConfig cfg;
    const std::string ref = csvRow(runWorkload("BP", cfg));

    // Every SIMD level, serial.
    for (const SimdLevel l : supportedLevels()) {
        setSimdLevel(l);
        EXPECT_EQ(ref, csvRow(runWorkload("BP", cfg)))
            << "GS_SIMD=" << simdLevelName(l);
    }

    // Cross matrix: non-default SIMD level x parallel ticking.
    setSimThreads(4);
    for (const SimdLevel l : supportedLevels()) {
        setSimdLevel(l);
        EXPECT_EQ(ref, csvRow(runWorkload("BP", cfg)))
            << "GS_SIMD=" << simdLevelName(l) << " --sim-threads 4";
    }
}

// ------------------------------------------------------------- watchdog

TEST(SimThreads, WatchdogReportsExactlyMaxCycles)
{
    setQuiet(true);
    SimThreadsAtExit restore;
    ArchConfig cfg;
    cfg.numSms = 4;
    cfg.maxCycles = 50; // far too few for the grid: watchdog fires

    const auto launchRow = [&](unsigned threads) {
        setSimThreads(threads);
        Gpu gpu(cfg);
        RunResult r;
        r.ev = gpu.launch(gridKernel(), {20, 96});
        EXPECT_EQ(r.ev.cycles, 50u) << "threads " << threads;
        return csvRow(r);
    };
    EXPECT_EQ(launchRow(1), launchRow(4));
}

// ------------------------------------------------- quiet-cycle skipping
//
// The serial loop skips the cycles in which an SM could only repeat a
// quiet tick; parallel ticking still runs every SM-cycle, so it is an
// independent oracle for the bulk-credited counters.

/** An MV @ gscalar watchdog budget whose last cycle every SM skips. */
constexpr std::uint64_t kMvQuietClamp = 87500;

/** Simulated cycles and executed SM-ticks over a workload's launches. */
struct TickedRun
{
    std::uint64_t cycles = 0;
    std::uint64_t smTicks = 0;
};

/** Run every launch of @p abbr on one Gpu, counting SM-ticks. */
TickedRun
runCountingTicks(const std::string &abbr, const ArchConfig &cfg)
{
    const Workload w = makeWorkload(abbr);
    Gpu gpu(cfg);
    if (w.setup)
        w.setup(gpu.memory(), cfg.seed);
    TickedRun out;
    for (const WorkloadLaunch &launch : w.launches) {
        out.cycles += gpu.launch(launch.kernel, launch.dims).cycles;
        out.smTicks += gpu.lastLaunchSmTicks();
    }
    return out;
}

TEST(SimThreads, QuietSkipMatchesThreadedInEveryMode)
{
    setQuiet(true);
    SimThreadsAtExit restore;
    // MV and LC skip the most SM-cycles of the suite.
    for (const char *w : {"MV", "LC"}) {
        for (const ArchMode m : DiffOptions{}.modes) {
            ArchConfig cfg;
            cfg.mode = m;
            setSimThreads(1);
            const std::string serial = csvRow(runWorkload(w, cfg));
            setSimThreads(2);
            EXPECT_EQ(serial, csvRow(runWorkload(w, cfg)))
                << w << " @ " << archModeName(m);
        }
    }
}

TEST(SimThreads, WatchdogInsideQuietStretchCreditsExactly)
{
    setQuiet(true);
    SimThreadsAtExit restore;
    ArchConfig cfg;
    cfg.mode = ArchMode::GScalarFull;
    cfg.maxCycles = kMvQuietClamp;

    // Every SM sleeps through the last simulated cycle: one cycle less
    // of budget saves no tick, so the clamp lands in a quiet stretch.
    setSimThreads(1);
    ArchConfig shorter = cfg;
    shorter.maxCycles = kMvQuietClamp - 1;
    EXPECT_EQ(runCountingTicks("MV", shorter).smTicks,
              runCountingTicks("MV", cfg).smTicks);

    const RunResult serial = runWorkload("MV", cfg);
    EXPECT_EQ(serial.ev.cycles, kMvQuietClamp);
    setSimThreads(2);
    EXPECT_EQ(csvRow(serial), csvRow(runWorkload("MV", cfg)));
}

TEST(SimThreads, QuietSkipBoundsMvSmTicks)
{
    setQuiet(true);
    SimThreadsAtExit restore;
    setSimThreads(1);
    ArchConfig cfg;
    cfg.mode = ArchMode::GScalarFull;
    const TickedRun r = runCountingTicks("MV", cfg);
    const std::uint64_t all = std::uint64_t(cfg.numSms) * r.cycles;
    // Skipping ticks 11.2% of MV's SM-cycles; ticking all is 100%.
    EXPECT_LE(r.smTicks * 100, all * 12)
        << r.smTicks << " of " << all << " SM-cycles ticked";

    setSimThreads(2);
    EXPECT_EQ(runCountingTicks("MV", cfg).smTicks, all);
}

// ------------------------------------------------------------- chaos

TEST(SimThreads, StragglerThreadKeepsOutputByteIdentical)
{
    setQuiet(true);
    SimThreadsAtExit restoreThreads;
    DisarmAtExit disarm;
    ArchConfig cfg;
    cfg.numSms = 4;

    setSimThreads(1);
    Gpu serial(cfg);
    const EventCounts ref = serial.launch(gridKernel(), {16, 64});

    // A sim:slow fault parks one thread 2ms inside the cycle barrier;
    // the schedule must absorb the straggler without reordering.
    std::string err;
    ASSERT_TRUE(faultInjector().configure("sim:slow:0.05:42", &err))
        << err;
    setSimThreads(4);
    Gpu par(cfg);
    const EventCounts got = par.launch(gridKernel(), {16, 64});
    EXPECT_EQ(ref.cycles, got.cycles);
    EXPECT_EQ(ref.warpInsts, got.warpInsts);
    EXPECT_EQ(ref.threadInsts, got.threadInsts);
    for (unsigned g = 0; g < 16 * 64; ++g)
        ASSERT_EQ(serial.memory().readWord(0x100000 + 4 * g),
                  par.memory().readWord(0x100000 + 4 * g))
            << "gtid " << g;
    EXPECT_GT(faultInjector().injectedAt("sim"), 0u)
        << "straggler fault never fired; chaos proof is vacuous";
}

} // namespace
} // namespace gs
