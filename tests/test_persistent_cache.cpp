/**
 * @file
 * End-to-end persistent-cache test: two separate CLI processes pointed
 * at the same GS_CACHE_DIR must produce byte-identical stdout, with the
 * second answered from disk (its stderr reports a disk-cache hit). This
 * is the cross-process guarantee the disk cache exists for, so it is
 * exercised through the real binary, not in-process shims.
 *
 * The CLI path is injected by CMake as GS_CLI_PATH.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace fs = std::filesystem;

namespace
{

struct TempDir
{
    std::string path;

    TempDir()
    {
        std::string tmpl =
            (fs::temp_directory_path() / "gscli-XXXXXX").string();
        char *p = ::mkdtemp(tmpl.data());
        EXPECT_NE(p, nullptr);
        path = tmpl;
    }

    ~TempDir()
    {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
};

std::string
slurp(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    std::ostringstream os;
    os << f.rdbuf();
    return os.str();
}

/** Run `GS_CACHE_DIR=<cacheDir> gscalar <args>`, capturing stdout and
 *  stderr into files; returns the exit status. */
int
runCli(const std::string &cacheDir, const std::string &args,
       const std::string &outFile, const std::string &errFile)
{
    const std::string cmd = "GS_CACHE_DIR='" + cacheDir + "' '" +
                            GS_CLI_PATH "' " + args + " > '" + outFile +
                            "' 2> '" + errFile + "'";
    return std::system(cmd.c_str());
}

} // namespace

TEST(PersistentCache, SecondProcessHitsDiskWithIdenticalStdout)
{
    TempDir tmp;
    const std::string cache = tmp.path + "/cache";
    const std::string out1 = tmp.path + "/out1";
    const std::string out2 = tmp.path + "/out2";
    const std::string err1 = tmp.path + "/err1";
    const std::string err2 = tmp.path + "/err2";

    // BT is the quickest benchmark; --power widens the checked surface.
    const std::string args = "run BT --mode gscalar --power";
    ASSERT_EQ(runCli(cache, args, out1, err1), 0) << slurp(err1);
    ASSERT_EQ(runCli(cache, args, out2, err2), 0) << slurp(err2);

    const std::string o1 = slurp(out1), o2 = slurp(out2);
    ASSERT_FALSE(o1.empty());
    EXPECT_EQ(o1, o2) << "stdout differed between cold and cached run";

    // First process simulated and stored; second answered from disk.
    EXPECT_NE(slurp(err1).find("disk cache: 0 hits, 1 stores"),
              std::string::npos)
        << slurp(err1);
    EXPECT_NE(slurp(err2).find("disk cache: 1 hits, 0 stores"),
              std::string::npos)
        << slurp(err2);
}

TEST(PersistentCache, MalformedJobsValuesAreRejected)
{
    TempDir tmp;
    const std::string out = tmp.path + "/out";
    const std::string err = tmp.path + "/err";

    // Bad --jobs and bad GS_JOBS must abort with a clear message, not
    // silently fall back to a default pool size.
    // parseFlags aborts before any simulation starts.
    EXPECT_NE(runCli("", "run BT --jobs nope", out, err), 0);
    EXPECT_NE(runCli("", "run BT -j 0", out, err), 0);
    for (const char *bad : {"0", "-3", "1x", "", "99999"}) {
        const std::string cmd = std::string("GS_JOBS='") + bad +
                                "' '" GS_CLI_PATH "' list > '" + out +
                                "' 2> '" + err + "'";
        EXPECT_NE(std::system(cmd.c_str()), 0)
            << "GS_JOBS='" << bad << "' accepted";
        EXPECT_NE(slurp(err).find("GS_JOBS"), std::string::npos);
    }
    // A well-formed value still works.
    const std::string ok = std::string("GS_JOBS=2 '") + GS_CLI_PATH +
                           "' list > '" + out + "' 2> '" + err + "'";
    EXPECT_EQ(std::system(ok.c_str()), 0);
}

TEST(PersistentCache, VersionAndHelpExitZero)
{
    TempDir tmp;
    const std::string out = tmp.path + "/out";
    const std::string err = tmp.path + "/err";
    ASSERT_EQ(runCli("", "--version", out, err), 0);
    EXPECT_NE(slurp(out).find("gscalar "), std::string::npos);
    ASSERT_EQ(runCli("", "--help", out, err), 0);
    const std::string help = slurp(out);
    EXPECT_NE(help.find("usage:"), std::string::npos);
    // Every registered command appears in the global usage listing —
    // registering a command without surfacing it is a help-rot bug.
    for (const char *cmd :
         {"run", "suite", "bench", "disasm", "trace", "experiment",
          "serve", "submit", "fuzz", "sweep", "config", "list"}) {
        EXPECT_NE(help.find(std::string("\n  ") + cmd),
                  std::string::npos)
            << "command '" << cmd << "' missing from --help";
        // ...and each one answers a per-command --help.
        ASSERT_EQ(runCli("", std::string(cmd) + " --help", out, err), 0)
            << cmd;
        EXPECT_NE(slurp(out).find(std::string("usage: gscalar ") + cmd),
                  std::string::npos)
            << cmd;
        // A launch ticks on one thread: no help offers --sim-threads.
        EXPECT_EQ(slurp(out).find("--sim-threads"), std::string::npos)
            << cmd;
    }
    EXPECT_EQ(help.find("--sim-threads"), std::string::npos);
    // ...and the stale flag is an error, not silently swallowed by a
    // left-over passthrough list.
    EXPECT_NE(runCli("", "run BT --sim-threads 2", out, err), 0);
    EXPECT_NE(runCli("", "bench --sim-threads 2", out, err), 0);
    EXPECT_NE(runCli("", "nonsense --help", out, err), 0);
    // The sweep help documents its crash-recovery contract.
    ASSERT_EQ(runCli("", "sweep --help", out, err), 0);
    EXPECT_NE(slurp(out).find("--resume"), std::string::npos);
    // No subcommand at all stays a usage error.
    EXPECT_NE(runCli("", "", out, err), 0);
}
