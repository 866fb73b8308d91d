#include "gpu.hpp"

#include <algorithm>
#include <vector>

#include "common/log.hpp"
#include "sm.hpp"

namespace gs
{

Gpu::Gpu(const ArchConfig &cfg) : cfg_(cfg)
{
    cfg_.validate();
}

EventCounts
Gpu::launch(const Kernel &kernel, LaunchDims dims)
{
    kernel.validate();
    if (dims.ctas == 0 || dims.threadsPerCta == 0)
        GS_FATAL("empty launch for kernel '", kernel.name, "'");
    if (dims.threadsPerCta > cfg_.maxThreadsPerSm)
        GS_FATAL("CTA of ", dims.threadsPerCta,
                 " threads exceeds the SM limit");

    MemorySystem memsys(cfg_);
    CtaDispatcher dispatcher(dims.ctas);
    const KernelAnalysis analysis = analyzeKernel(kernel);

    std::vector<std::unique_ptr<Sm>> sms;
    sms.reserve(cfg_.numSms);
    for (unsigned s = 0; s < cfg_.numSms; ++s)
        sms.push_back(std::make_unique<Sm>(cfg_, s, kernel, analysis,
                                           dims, gmem_, memsys,
                                           dispatcher, tracer_));

    // Each SM ticks only at the cycles its last tick asked for; a quiet
    // SM sleeps to its next timed event. Due SMs still tick in SM
    // order, so every shared access keeps the serial order.
    std::vector<Cycle> wake(sms.size(), 0);
    smTicks_ = 0;
    Cycle now = 0;
    bool all_idle = false;
    while (now < cfg_.maxCycles) {
        Cycle next = Sm::kNever;
        all_idle = true;
        for (std::size_t s = 0; s < sms.size(); ++s) {
            if (wake[s] == now) {
                wake[s] = sms[s]->tick(now);
                ++smTicks_;
            }
            all_idle = all_idle && sms[s]->idle();
            next = std::min(next, wake[s]);
        }
        if (all_idle)
            break;
        now = next;
    }
    const bool watchdog = !all_idle;
    // On a watchdog stop the loop has already run past the last
    // simulated cycle; report only cycles actually simulated.
    const Cycle cycles = watchdog ? cfg_.maxCycles : now + 1;
    for (auto &sm : sms)
        sm->catchUp(cycles);
    if (watchdog)
        GS_WARN("kernel '", kernel.name, "' hit the ", cfg_.maxCycles,
                "-cycle watchdog; results are partial");

    EventCounts total;
    for (auto &sm : sms)
        total += sm->events();
    total.cycles = cycles;
    return total;
}

} // namespace gs
