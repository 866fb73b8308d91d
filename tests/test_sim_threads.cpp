/**
 * @file
 * Determinism of the simulator's tick loop (SimThreads, DenseTickOracle)
 * and of the codec's cpu-dispatch seam (SimdDispatch). Gpu::launch
 * skips quiet SM-cycles; the dense-tick oracle (dense_tick.hpp) ticks
 * every SM every cycle, and both must produce byte-identical results.
 * csvRow covers every event counter and power component, so equality
 * there is bit-level determinism of the whole simulation.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "compress/byte_mask_codec.hpp"
#include "compress/simd.hpp"
#include "dense_tick.hpp"
#include "gen/diff.hpp"
#include "harness/report.hpp"
#include "harness/runner.hpp"
#include "isa/kernel_builder.hpp"
#include "sim/gpu.hpp"
#include "workloads/workload.hpp"

namespace gs
{
namespace
{

/** Restore the auto-detected SIMD level on scope exit. */
struct SimdLevelAtExit
{
    ~SimdLevelAtExit() { clearSimdLevelOverride(); }
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

TEST(SimThreads, DenseTickMatchesMemoryAndCounters)
{
    setQuiet(true);
    ArchConfig cfg;
    cfg.numSms = 4;

    Gpu gpu(cfg);
    const EventCounts ref = gpu.launch(gridKernel(), {20, 96});

    GlobalMemory dense;
    const EventCounts got =
        denseLaunch(cfg, dense, gridKernel(), {20, 96}).ev;
    EXPECT_EQ(ref.cycles, got.cycles);
    EXPECT_EQ(ref.warpInsts, got.warpInsts);
    EXPECT_EQ(ref.threadInsts, got.threadInsts);
    for (unsigned g = 0; g < 20 * 96; ++g)
        ASSERT_EQ(gpu.memory().readWord(0x100000 + 4 * g),
                  dense.readWord(0x100000 + 4 * g))
            << "gtid " << g;
}

TEST(SimThreads, SimdLevelsByteIdenticalEndToEnd)
{
    setQuiet(true);
    SimdLevelAtExit restoreSimd;

    setSimdLevel(SimdLevel::Off);
    ArchConfig cfg;
    const std::string ref = csvRow(runWorkload("BP", cfg));

    for (const SimdLevel l : supportedLevels()) {
        setSimdLevel(l);
        EXPECT_EQ(ref, csvRow(runWorkload("BP", cfg)))
            << "GS_SIMD=" << simdLevelName(l);
    }
}

// ------------------------------------------------------------- watchdog

TEST(SimThreads, WatchdogReportsExactlyMaxCycles)
{
    setQuiet(true);
    ArchConfig cfg;
    cfg.numSms = 4;
    cfg.maxCycles = 50; // far too few for the grid: watchdog fires

    Gpu gpu(cfg);
    RunResult skip;
    skip.ev = gpu.launch(gridKernel(), {20, 96});
    EXPECT_EQ(skip.ev.cycles, 50u);

    GlobalMemory mem;
    RunResult dense;
    dense.ev = denseLaunch(cfg, mem, gridKernel(), {20, 96}).ev;
    EXPECT_EQ(dense.ev.cycles, 50u);
    EXPECT_EQ(csvRow(skip), csvRow(dense));
}

// ------------------------------------------------- quiet-cycle skipping
//
// Gpu::launch skips the cycles in which an SM could only repeat a
// quiet tick; the dense-tick oracle runs every SM-cycle, so it checks
// the bulk-credited counters independently.

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

TEST(SimThreads, WatchdogInsideQuietStretchCreditsExactly)
{
    setQuiet(true);
    ArchConfig cfg;
    cfg.mode = ArchMode::GScalarFull;
    cfg.maxCycles = kMvQuietClamp;

    // Every SM sleeps through the last simulated cycle: one cycle less
    // of budget saves no tick, so the clamp lands in a quiet stretch.
    ArchConfig shorter = cfg;
    shorter.maxCycles = kMvQuietClamp - 1;
    EXPECT_EQ(runCountingTicks("MV", shorter).smTicks,
              runCountingTicks("MV", cfg).smTicks);

    const RunResult skip = runWorkload("MV", cfg);
    EXPECT_EQ(skip.ev.cycles, kMvQuietClamp);
    EXPECT_EQ(csvRow(skip), csvRow(denseRunWorkload("MV", cfg).result));
}

TEST(SimThreads, QuietSkipBoundsMvSmTicks)
{
    setQuiet(true);
    ArchConfig cfg;
    cfg.mode = ArchMode::GScalarFull;
    const TickedRun r = runCountingTicks("MV", cfg);
    const std::uint64_t all = std::uint64_t(cfg.numSms) * r.cycles;
    // Skipping ticks 11.2% of MV's SM-cycles; ticking all is 100%.
    EXPECT_LE(r.smTicks * 100, all * 12)
        << r.smTicks << " of " << all << " SM-cycles ticked";
    EXPECT_EQ(denseRunWorkload("MV", cfg).smTicks, all);
}

// ------------------------------------------------- dense-tick oracle

/** One (Table 2 workload, architecture mode) pair. */
using WorkloadMode = std::tuple<std::string, ArchMode>;

class DenseTickOracle : public ::testing::TestWithParam<WorkloadMode>
{
};

TEST_P(DenseTickOracle, CsvRowMatchesSkipLoop)
{
    setQuiet(true);
    const auto &[workload, mode] = GetParam();
    ArchConfig cfg;
    cfg.mode = mode;
    EXPECT_EQ(csvRow(runWorkload(workload, cfg)),
              csvRow(denseRunWorkload(workload, cfg).result));
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloadsAllModes, DenseTickOracle,
    ::testing::Combine(::testing::ValuesIn(workloadNames()),
                       ::testing::ValuesIn(DiffOptions{}.modes)),
    [](const ::testing::TestParamInfo<WorkloadMode> &info) {
        const ArchMode mode = std::get<1>(info.param);
        std::string name = std::get<0>(info.param) + "_" +
                           std::string(archModeName(mode));
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

} // namespace
} // namespace gs
