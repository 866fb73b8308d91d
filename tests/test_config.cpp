#include <gtest/gtest.h>

#include "common/config.hpp"
#include "common/fnv.hpp"
#include "harness/experiments.hpp"

namespace gs
{
namespace
{

TEST(Config, FingerprintIsPinnedFnv1a)
{
    // Standard FNV-1a 64 test vectors for the shared hash.
    EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ull);
    EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cull);
    // Fingerprints key the run cache, the disk store and daemon
    // coalescing: a change here orphans every stored result.
    EXPECT_EQ(ArchConfig{}.fingerprint(), 0x266d609013c3471dull);
    EXPECT_EQ(experimentConfig().fingerprint(), 0x266d609013c3471dull);
}

TEST(Config, DefaultsValidate)
{
    ArchConfig cfg;
    cfg.validate(); // must not exit
}

TEST(Config, DerivedHelpers)
{
    ArchConfig cfg;
    EXPECT_EQ(cfg.warpsPerCta(256), 8u);
    EXPECT_EQ(cfg.warpsPerCta(40), 2u);
    EXPECT_EQ(cfg.groupsPerWarp(), 2u);
    EXPECT_EQ(cfg.dispatchCycles(16), 2u);
    EXPECT_EQ(cfg.dispatchCycles(4), 8u);

    cfg.warpSize = 64;
    EXPECT_EQ(cfg.groupsPerWarp(), 4u);
    EXPECT_EQ(cfg.dispatchCycles(16), 4u);
}

TEST(Config, ExtraCyclesFollowMode)
{
    ArchConfig cfg;
    EXPECT_EQ(cfg.extraCycles(), 0u);
    cfg.mode = ArchMode::GScalarFull;
    EXPECT_EQ(cfg.extraCycles(), 3u);
    cfg.mode = ArchMode::WarpedCompression;
    EXPECT_EQ(cfg.extraCycles(), 3u);
    cfg.mode = ArchMode::AluScalar;
    EXPECT_EQ(cfg.extraCycles(), 0u);
}

TEST(Config, ModePredicates)
{
    EXPECT_TRUE(usesByteMaskCompression(ArchMode::GScalarCompressOnly));
    EXPECT_FALSE(usesByteMaskCompression(ArchMode::WarpedCompression));
    EXPECT_TRUE(usesBdiCompression(ArchMode::WarpedCompression));
    EXPECT_TRUE(usesSingleBankScalarRf(ArchMode::AluScalar));
    EXPECT_FALSE(usesSingleBankScalarRf(ArchMode::GScalarFull));
    EXPECT_EQ(archModeName(ArchMode::GScalarFull), "gscalar");
}

TEST(Config, DescribeRendersTable1)
{
    const std::string s = ArchConfig{}.describe();
    EXPECT_NE(s.find("# of SMs"), std::string::npos);
    EXPECT_NE(s.find("15"), std::string::npos);
    EXPECT_NE(s.find("1.4GHz"), std::string::npos);
    EXPECT_NE(s.find("768KB"), std::string::npos);
}

TEST(ConfigDeath, RejectsBadWarpSize)
{
    ArchConfig cfg;
    cfg.warpSize = 48;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "power of two");
    cfg.warpSize = 128;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "out of range");
}

TEST(ConfigDeath, RejectsBadGranularity)
{
    ArchConfig cfg;
    cfg.checkGranularity = 12;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "granularity");
}

TEST(ConfigDeath, RejectsBadCacheGeometry)
{
    ArchConfig cfg;
    cfg.l1Bytes = 1000;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1), "L1");
}

} // namespace
} // namespace gs
