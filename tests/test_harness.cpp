#include <gtest/gtest.h>

#include <sstream>

#include "common/log.hpp"
#include "harness/experiments.hpp"
#include "harness/runner.hpp"

namespace gs
{
namespace
{

TEST(Harness, ExperimentConfigIsTable1)
{
    const ArchConfig cfg = experimentConfig();
    EXPECT_EQ(cfg.numSms, 15u);
    EXPECT_EQ(cfg.warpSize, 32u);
    EXPECT_EQ(cfg.numBanks, 16u);
    EXPECT_EQ(cfg.numCollectors, 16u);
    EXPECT_EQ(cfg.numSchedulers, 2u);
    EXPECT_EQ(cfg.simtWidth, 16u);
    EXPECT_EQ(cfg.maxThreadsPerSm, 1536u);
    EXPECT_EQ(cfg.maxCtasPerSm, 8u);
    EXPECT_EQ(cfg.l1Bytes, 16u * 1024);
    EXPECT_EQ(cfg.l2Bytes, 768u * 1024);
    EXPECT_EQ(cfg.memChannels, 6u);
    EXPECT_DOUBLE_EQ(cfg.coreClockGhz, 1.4);
    EXPECT_EQ(cfg.mode, ArchMode::Baseline);
}

TEST(Harness, RunWorkloadProducesPower)
{
    setQuiet(true);
    ArchConfig cfg;
    cfg.mode = ArchMode::GScalarFull;
    const RunResult r = runWorkload("MQ", cfg);
    EXPECT_EQ(r.workload, "MQ");
    EXPECT_EQ(r.mode, ArchMode::GScalarFull);
    EXPECT_GT(r.ev.cycles, 0u);
    EXPECT_GT(r.power.totalW, 10.0);
    EXPECT_LT(r.power.totalW, 250.0);
    EXPECT_GT(r.power.ipcPerWatt(), 0.0);
}

TEST(Harness, RunWorkloadDeterministic)
{
    setQuiet(true);
    const ArchConfig cfg = experimentConfig();
    const RunResult a = runWorkload("HS", cfg);
    const RunResult b = runWorkload("HS", cfg);
    EXPECT_EQ(a.ev.cycles, b.ev.cycles);
    EXPECT_DOUBLE_EQ(a.power.totalW, b.power.totalW);
}

TEST(Harness, SeedChangesData)
{
    setQuiet(true);
    ArchConfig cfg = experimentConfig();
    const RunResult a = runWorkload("HW", cfg);
    cfg.seed = 99;
    const RunResult b = runWorkload("HW", cfg);
    // Same instruction stream, different data: the value-dependent
    // compression accounting must move with the seed.
    EXPECT_EQ(a.ev.warpInsts, b.ev.warpInsts);
    EXPECT_NE(a.ev.compBytesCompressed, b.ev.compBytesCompressed);
}

TEST(Harness, Table3Experiment)
{
    const Experiment *exp = findExperiment("table3");
    ASSERT_NE(exp, nullptr);
    std::ostringstream out;
    TextSink sink(out);
    exp->run(defaultEngine(), experimentConfig(), sink);
    const std::string s = out.str();
    EXPECT_NE(s.find("Table 3"), std::string::npos);
    EXPECT_NE(s.find("compressor"), std::string::npos);
}

} // namespace
} // namespace gs
