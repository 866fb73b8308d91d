/**
 * @file
 * Test-only oracle for quiet-cycle skipping. Gpu::launch ticks an SM
 * only at the cycles its last tick asked for and credits the skipped
 * ones in bulk (Sm::catchUp); the helpers here run the same launch
 * with every SM ticked on every cycle, so nothing is skipped and
 * nothing is credited. Equal counters from both loops check the skip
 * logic against an implementation that has none.
 *
 * Built from public simulator types only (Sm, MemorySystem,
 * CtaDispatcher, analyzeKernel, computePower).
 */

#ifndef GSCALAR_TESTS_DENSE_TICK_HPP
#define GSCALAR_TESTS_DENSE_TICK_HPP

#include <cstdint>
#include <string>

#include "common/config.hpp"
#include "common/events.hpp"
#include "harness/runner.hpp"
#include "isa/kernel.hpp"
#include "sim/gmem.hpp"

namespace gs
{

/** Counters of one densely ticked launch. */
struct DenseLaunch
{
    EventCounts ev;
    std::uint64_t smTicks = 0; ///< Sm::tick calls: numSms x cycles
};

/** Gpu::launch of @p kernel on @p gmem, ticking every SM every cycle. */
DenseLaunch denseLaunch(const ArchConfig &cfg, GlobalMemory &gmem,
                        const Kernel &kernel, LaunchDims dims);

/** A densely ticked run of a whole workload. */
struct DenseRun
{
    RunResult result;          ///< as runWorkload() reports it
    std::uint64_t smTicks = 0; ///< summed over the launches
};

/** runWorkload(@p abbr, @p cfg) with every launch ticked densely. */
DenseRun denseRunWorkload(const std::string &abbr, const ArchConfig &cfg);

} // namespace gs

#endif // GSCALAR_TESTS_DENSE_TICK_HPP
