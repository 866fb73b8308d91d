/**
 * @file
 * Top-level GPU: owns the functional global memory, the shared memory
 * hierarchy and the SM array; launches grids and runs them to
 * completion.
 */

#ifndef GSCALAR_SIM_GPU_HPP
#define GSCALAR_SIM_GPU_HPP

#include <memory>

#include "common/config.hpp"
#include "common/events.hpp"
#include "gmem.hpp"
#include "isa/kernel.hpp"
#include "memory/memory_system.hpp"
#include "trace.hpp"

namespace gs
{

/**
 * A simulated GPU. Typical use:
 * @code
 *   Gpu gpu(cfg);
 *   gpu.memory().fillWords(0x1000, input);
 *   EventCounts ev = gpu.launch(kernel, {64, 256});
 * @endcode
 */
class Gpu
{
  public:
    explicit Gpu(const ArchConfig &cfg);

    /** Functional device memory (initialise inputs, read outputs). */
    GlobalMemory &memory() { return gmem_; }
    const GlobalMemory &memory() const { return gmem_; }

    /**
     * Launch @p kernel with @p dims, simulate to completion, and return
     * the merged event counters of the run. Caches and channel state
     * reset at each launch (kernel boundary).
     */
    EventCounts launch(const Kernel &kernel, LaunchDims dims);

    const ArchConfig &config() const { return cfg_; }

    /** Attach an execution tracer (nullptr to detach). Not owned. */
    void setTracer(Tracer *t) { tracer_ = t; }

    /**
     * Sm::tick calls the last launch executed: a deterministic work
     * counter. The loop skips quiet SM-cycles, so it runs well under
     * numSms x cycles, the count of ticking every SM every cycle.
     */
    std::uint64_t lastLaunchSmTicks() const { return smTicks_; }

  private:
    ArchConfig cfg_;
    GlobalMemory gmem_;
    Tracer *tracer_ = nullptr;
    std::uint64_t smTicks_ = 0;
};

} // namespace gs

#endif // GSCALAR_SIM_GPU_HPP
