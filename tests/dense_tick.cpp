#include "dense_tick.hpp"

#include <memory>
#include <vector>

#include "isa/analysis.hpp"
#include "power/energy_model.hpp"
#include "sim/sm.hpp"
#include "workloads/workload.hpp"

namespace gs
{

DenseLaunch
denseLaunch(const ArchConfig &cfg, GlobalMemory &gmem, const Kernel &kernel,
            LaunchDims dims)
{
    MemorySystem memsys(cfg);
    CtaDispatcher dispatcher(dims.ctas);
    const KernelAnalysis analysis = analyzeKernel(kernel);

    std::vector<std::unique_ptr<Sm>> sms;
    for (unsigned s = 0; s < cfg.numSms; ++s)
        sms.push_back(std::make_unique<Sm>(cfg, s, kernel, analysis, dims,
                                           gmem, memsys, dispatcher));

    DenseLaunch out;
    Cycle now = 0;
    bool all_idle = false;
    for (; now < cfg.maxCycles; ++now) {
        all_idle = true;
        for (auto &sm : sms) {
            sm->tick(now); // the wake-up it asks for is ignored
            ++out.smTicks;
            all_idle = all_idle && sm->idle();
        }
        if (all_idle)
            break;
    }
    const Cycle cycles = all_idle ? now + 1 : cfg.maxCycles;
    for (auto &sm : sms) {
        sm->catchUp(cycles); // a no-op: no SM skipped a cycle
        out.ev += sm->events();
    }
    out.ev.cycles = cycles;
    return out;
}

DenseRun
denseRunWorkload(const std::string &abbr, const ArchConfig &cfg)
{
    const Workload w = makeWorkload(abbr);
    GlobalMemory gmem;
    if (w.setup)
        w.setup(gmem, cfg.seed);

    DenseRun out;
    RunResult &r = out.result;
    r.workload = w.name;
    r.mode = cfg.mode;
    for (const WorkloadLaunch &launch : w.launches) {
        const DenseLaunch l = denseLaunch(cfg, gmem, launch.kernel,
                                          launch.dims);
        // Sequential kernels: cycles accumulate, as in runWorkload().
        const Cycle prev_cycles = r.ev.cycles;
        r.ev += l.ev;
        r.ev.cycles = prev_cycles + l.ev.cycles;
        out.smTicks += l.smTicks;
    }
    r.power = computePower(r.ev, cfg, EnergyParams{});
    return out;
}

} // namespace gs
