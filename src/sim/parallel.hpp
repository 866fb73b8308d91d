/**
 * @file
 * Compatibility shim. Gpu::launch ticks all SMs of a launch on one
 * thread. This header only keeps the setSimThreads(1) call in
 * perfbench/src/main.cpp compiling; it goes when that call does.
 */

#ifndef GSCALAR_SIM_PARALLEL_HPP
#define GSCALAR_SIM_PARALLEL_HPP

#include "common/log.hpp"

namespace gs
{

/** No-op: one SM thread is the only setting there is. */
inline void
setSimThreads(unsigned threads)
{
    GS_ASSERT(threads == 1, "a launch ticks its SMs on one thread");
}

} // namespace gs

#endif // GSCALAR_SIM_PARALLEL_HPP
