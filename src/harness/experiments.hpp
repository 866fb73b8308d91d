/**
 * @file
 * One experiment per paper table/figure, behind a single registry.
 * Each experiment runs the needed simulations through an
 * ExperimentEngine and produces a SuiteResult — the ASCII table with
 * the paper's reference numbers beside the measured ones, plus the
 * structured rows and per-run counters behind it — which a ResultSink
 * renders as text, JSON or CSV. The registry is what `gscalar bench`
 * (--list/--only/--format) and `gscalar experiment` enumerate.
 */

#ifndef GSCALAR_HARNESS_EXPERIMENTS_HPP
#define GSCALAR_HARNESS_EXPERIMENTS_HPP

#include <string>
#include <vector>

#include "common/config.hpp"
#include "engine.hpp"
#include "obs/result.hpp"

namespace gs
{

/** Baseline GTX 480 configuration used by all experiments (Table 1). */
ArchConfig experimentConfig();

/** One registered experiment (a paper figure, table or ablation). */
struct Experiment
{
    const char *name;        ///< CLI name, e.g. "fig8"
    const char *tag;         ///< paper artefact, e.g. "Fig. 8"
    const char *description; ///< one line for --list

    /** Simulate (through @p eng) and assemble the structured result. */
    SuiteResult (*build)(ExperimentEngine &eng, const ArchConfig &base);

    /**
     * Part of the default `gscalar bench` run (and `gscalar
     * experiment all`)? Opt-out entries — the codec micro-benchmark
     * and the codec shootout — still appear in --list and run under
     * --only/by name, but stay out of the golden reference output.
     */
    bool inDefaultRun = true;

    /** Build and hand the result to @p sink. */
    void
    run(ExperimentEngine &eng, const ArchConfig &base,
        ResultSink &sink) const
    {
        sink.emit(build(eng, base));
    }
};

/**
 * Every experiment, in golden reference output order.
 * `gscalar bench` with no --only runs exactly this sequence, so its
 * text output reproduces docs/bench_reference_output.txt byte for
 * byte.
 */
const std::vector<Experiment> &experiments();

/** Registry entry by CLI name, or nullptr. */
const Experiment *findExperiment(const std::string &name);

// ---- codec experiments (src/harness/codec_experiments.cpp) ---------------

/**
 * Software encode/decode micro-benchmark: every registered codec over
 * four canonical register-value patterns (scalar, 3-byte, 2-byte,
 * random). Blob size, compression ratio and round-trip verdict are
 * deterministic; the GB/s timing columns are wall-clock and therefore
 * excluded from the default bench run (inDefaultRun = false).
 */
SuiteResult buildMicroCodec(ExperimentEngine &eng, const ArchConfig &base);

/**
 * Codec shootout: runs the full Table 2 suite once per registered
 * codec (mode GScalarFull) plus a Baseline reference, and ranks the
 * codecs on geomean compression ratio, RF+codec energy and IPC.
 * Deterministic at any --jobs/--sim-threads level.
 */
SuiteResult buildCodecShootout(ExperimentEngine &eng,
                               const ArchConfig &base);

} // namespace gs

#endif // GSCALAR_HARNESS_EXPERIMENTS_HPP
