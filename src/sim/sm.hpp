/**
 * @file
 * One streaming multiprocessor: warp contexts, dual warp schedulers,
 * scoreboards, operand collectors with register-bank arbitration, the
 * ALU/SFU/MEM execution pipelines, an L1 cache, and the compression +
 * scalar-execution machinery of G-Scalar.
 *
 * Functional state (register values, predicates, memory, compression
 * metadata) advances in program order at issue; the event-driven parts
 * (operand collection, pipeline occupancy, write-back) model timing.
 */

#ifndef GSCALAR_SIM_SM_HPP
#define GSCALAR_SIM_SM_HPP

#include <optional>
#include <vector>

#include "common/config.hpp"
#include "common/events.hpp"
#include "compress/array_model.hpp"
#include "compress/codec.hpp"
#include "functional.hpp"
#include "isa/analysis.hpp"
#include "isa/kernel.hpp"
#include "memory/cache.hpp"
#include "memory/memory_system.hpp"
#include "scalar/eligibility.hpp"
#include "scoreboard.hpp"
#include "trace.hpp"
#include "warp_state.hpp"

namespace gs
{

/** Hands out CTA ids of the running grid to SMs. */
class CtaDispatcher
{
  public:
    explicit CtaDispatcher(unsigned total) : total_(total) {}

    std::optional<unsigned>
    fetch()
    {
        if (next_ >= total_)
            return std::nullopt;
        return next_++;
    }

    bool exhausted() const { return next_ >= total_; }

  private:
    unsigned next_ = 0;
    unsigned total_;
};

/** One streaming multiprocessor. */
class Sm
{
  public:
    Sm(const ArchConfig &cfg, unsigned sm_id, const Kernel &kernel,
       const KernelAnalysis &analysis, LaunchDims dims,
       GlobalMemory &gmem, MemorySystem &memsys,
       CtaDispatcher &dispatcher, Tracer *tracer = nullptr);

    /** tick()'s answer when no timed event is pending. */
    static constexpr Cycle kNever = ~Cycle{0};

    /**
     * Advance one core cycle (after crediting the quiet cycles skipped
     * since the last tick) and return the next cycle this SM must tick
     * at. A tick that changed state asks for @p now + 1. A quiet tick
     * would repeat exactly until the next timed event, so it asks for
     * that event's cycle, or kNever when none is pending.
     */
    Cycle tick(Cycle now);

    /**
     * Credit the cycles this SM slept through so that its counters
     * cover exactly @p end simulated cycles: each skipped cycle adds
     * the last (quiet) tick's stall deltas and advances the dispatch
     * cursor, as ticking it would have.
     */
    void catchUp(Cycle end);

    /** No resident CTAs, none fetchable, and no in-flight work. */
    bool idle() const;

    EventCounts &events() { return ev_; }
    const EventCounts &events() const { return ev_; }

    /** Warps currently resident (tests). */
    unsigned residentWarps() const;

  private:
    // ---- structures -------------------------------------------------------
    struct CtaSlot
    {
        bool active = false;
        unsigned ctaId = 0;
        unsigned warpBase = 0;  ///< first warp context index
        unsigned numWarps = 0;
        unsigned barrierArrived = 0;
        std::vector<Word> shared;
    };

    /** An instruction in flight between issue and write-back. */
    struct InFlight
    {
        bool used = false;
        unsigned warp = 0;
        Instruction inst;
        LaneMask mask = 0;
        bool isSmov = false;

        /** When the last scheduled bank read completes (+pipe depth). */
        Cycle collectDone = 0;

        // execution
        bool dispatched = false;
        Cycle wbAt = 0;
        bool execScalar = false;
        unsigned scalarGroupMask = 0;

        // memory operation payload (coalesced line addresses)
        std::vector<Addr> memLines;
        bool isStore = false;
        bool isShared = false;
        /** Worst-bank serialisation degree of a shared access. */
        unsigned sharedConflictDegree = 1;
    };

    struct Pipe
    {
        Cycle freeAt = 0;
    };

    /** The only counters a quiet tick moves (besides `cycles`). */
    struct StallCounts
    {
        EventCounts::u64 schedIdle = 0;
        EventCounts::u64 scoreboard = 0;
        EventCounts::u64 ocFull = 0;
        EventCounts::u64 pipeBusy = 0;
    };
    StallCounts stallCounts() const;

    /** Earliest wbAt, collectDone or pipe freeAt after @p now. */
    Cycle nextTimedEvent(Cycle now) const;

    // ---- phases of tick() --------------------------------------------------
    void tryLaunchCtas(Cycle now);
    void scheduleIssue(Cycle now);
    void dispatchReady(Cycle now);
    void writeback(Cycle now);
    void retireCtas(Cycle now);

    // ---- issue helpers -------------------------------------------------------
    /** Attempt to issue from @p warp; true on success. */
    bool issueWarp(unsigned warp, Cycle now);
    void executeControl(unsigned warp, const Instruction &inst, Cycle now);
    bool needsSpecialMove(const WarpState &w, const Instruction &inst,
                          LaneMask mask, int pc) const;
    void accountRegRead(const RegMeta &meta, bool reader_divergent,
                        bool scalar_from_bvr);
    void accountRegWrite(const RegMeta &before, const RegMeta &after,
                         bool scalar_to_bvr);
    int bankOf(unsigned warp, RegIdx reg) const;
    unsigned occupancyCycles(const InFlight &f) const;
    Cycle memoryCompletion(InFlight &f, Cycle start);

    // ---- members ----------------------------------------------------------------
    const ArchConfig &cfg_;
    unsigned smId_;
    const Kernel &kernel_;
    const KernelAnalysis &analysis_;
    LaunchDims dims_;
    Tracer *tracer_ = nullptr;
    GlobalMemory &gmem_;
    MemorySystem &memsys_;
    CtaDispatcher &dispatcher_;

    RfGeometry geo_;
    unsigned warpsPerCta_;
    unsigned ctaCapacity_;
    unsigned maxWarps_;

    /** The RF compression scheme the byte-mask modes run through. */
    const compress::Codec *codec_;
    compress::CodecCaps codecCaps_; ///< caps(), cached off the hot path

    // rf:stuck-array permanent faults (fault/fault.hpp). The stuck set
    // is fixed at construction; a codec advertising absorbsStuckFaults
    // redirects affected registers into the spare capacity compression
    // frees, counted once per (warp slot, register) in the health
    // counters — EventCounts never see the fault, so absorbed runs
    // stay byte-identical.
    std::vector<unsigned> stuckArraysPerBank_;
    unsigned stuckArraysTotal_ = 0;
    std::vector<bool> rfRedirected_; ///< (warp, reg) already counted

    std::vector<CtaSlot> slots_;
    std::vector<WarpState> warps_;
    std::vector<Scoreboard> boards_;
    std::vector<unsigned> warpInFlight_; ///< packets not yet written back

    std::vector<InFlight> oc_;      ///< operand collectors
    std::vector<InFlight> wbQueue_; ///< dispatched, awaiting write-back
    unsigned ocRotate_ = 0;         ///< dispatch round-robin cursor

    std::vector<Cycle> bankFreeAt_;       ///< one read port per bank
    std::vector<Cycle> scalarBankFreeAt_; ///< prior-work scalar RF ports

    Pipe alu0_, alu1_, sfu_, mem_;
    Cache l1_;
    Cycle l1PortFreeAt_ = 0;
    std::vector<Cycle> l1Mshr_; ///< outstanding-miss completion times

    std::vector<unsigned> greedyWarp_; ///< per-scheduler GTO favourite
    std::vector<unsigned> rrCursor_;   ///< per-scheduler LRR cursor

    /** Set by any phase that changes state: a write-back pop, a
     *  dispatch, an issue, a CTA retire or a CTA launch. */
    bool progress_ = false;
    StallCounts quietDelta_; ///< per-cycle stalls of the last quiet tick

    EventCounts ev_;
};

} // namespace gs

#endif // GSCALAR_SIM_SM_HPP
