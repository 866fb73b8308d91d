#include "config.hpp"

#include "bit_utils.hpp"
#include "fnv.hpp"
#include "log.hpp"
#include "table.hpp"

namespace gs
{

std::string
ArchConfig::check() const
{
    using detail::formatMsg;

    if (warpSize == 0 || warpSize > kMaxWarpSize)
        return formatMsg("warp size ", warpSize, " out of range [1, ",
                         kMaxWarpSize, "]");
    if (!isPow2(warpSize))
        return formatMsg("warp size must be a power of two, got ",
                         warpSize);
    if (simtWidth == 0 || simtWidth > warpSize)
        return formatMsg("SIMT width ", simtWidth,
                         " must be in [1, warp size]");
    if (checkGranularity == 0 || warpSize % checkGranularity != 0)
        return formatMsg("check granularity ", checkGranularity,
                         " must divide warp size ", warpSize);
    if (numBanks == 0 || numCollectors == 0 || numSchedulers == 0)
        return formatMsg("banks, collectors and schedulers must be "
                         "nonzero");
    if (numVregsPerSm % numBanks != 0)
        return formatMsg("vector registers (", numVregsPerSm,
                         ") must divide evenly over ", numBanks,
                         " banks");
    if (!isPow2(lineBytes) || lineBytes < kBytesPerWord)
        return formatMsg("cache line size must be a power-of-two >= 4");
    if (l1Assoc == 0 || l1Bytes % (lineBytes * l1Assoc) != 0)
        return formatMsg("L1 geometry does not divide into sets");
    if (l2Assoc == 0 || l2Bytes % (lineBytes * l2Assoc) != 0)
        return formatMsg("L2 geometry does not divide into sets");
    if (scalarRfBanks == 0)
        return formatMsg("scalar RF needs at least one bank");
    if (sharedBanks == 0 || sharedBanks > kMaxWarpSize)
        return formatMsg("shared memory banks must be in [1, ",
                         kMaxWarpSize, "]");
    if (maxThreadsPerSm % warpSize != 0)
        return formatMsg("threads per SM must be a whole number of "
                         "warps");
    if (numSms == 0 || numAluPipes == 0 || sfuWidth == 0)
        return formatMsg("SMs, ALU pipes and SFU width must be nonzero");
    if (maxCycles == 0)
        return formatMsg("maxCycles watchdog must be nonzero");
    if (!(dramRequestsPerCycle > 0) || !(coreClockGhz > 0))
        return formatMsg("DRAM requests/cycle and core clock must be "
                         "positive");
    if (static_cast<std::uint32_t>(codec) >= kNumCodecs)
        return formatMsg("codec id ",
                         static_cast<std::uint32_t>(codec),
                         " is not a registered codec");
    return {};
}

void
ArchConfig::validate() const
{
    const std::string err = check();
    if (!err.empty())
        GS_FATAL(err);
}

namespace
{

/** FNV-1a over the raw bytes of a trivially-copyable value. */
template <typename T>
void
mixField(std::uint64_t &h, const T &v)
{
    h = fnv1a(&v, sizeof(T), h);
}

} // namespace

std::uint64_t
ArchConfig::fingerprint() const
{
    std::uint64_t h = kFnv1aBasis;

    mixField(h, static_cast<std::uint32_t>(mode));
    mixField(h, numSms);
    mixField(h, warpSize);
    mixField(h, simtWidth);
    mixField(h, sfuWidth);
    mixField(h, numAluPipes);
    mixField(h, maxThreadsPerSm);
    mixField(h, maxCtasPerSm);
    mixField(h, numVregsPerSm);
    mixField(h, numBanks);
    mixField(h, arraysPerBank);
    mixField(h, numCollectors);
    mixField(h, numSchedulers);
    mixField(h, static_cast<std::uint32_t>(schedPolicy));
    mixField(h, checkGranularity);
    mixField(h, halfRegisterCompression);
    mixField(h, scalarRfBanks);
    mixField(h, insertSpecialMoves);
    mixField(h, compilerAssistedSmov);
    mixField(h, scalarShortensOccupancy);
    mixField(h, aluLatency);
    mixField(h, mulLatency);
    mixField(h, divLatency);
    mixField(h, sfuLatency);
    mixField(h, lineBytes);
    mixField(h, l1Bytes);
    mixField(h, l1Assoc);
    mixField(h, l1Latency);
    mixField(h, l1MshrEntries);
    mixField(h, l2Bytes);
    mixField(h, l2Assoc);
    mixField(h, l2Latency);
    mixField(h, dramLatency);
    mixField(h, memChannels);
    mixField(h, dramRequestsPerCycle);
    mixField(h, sharedLatency);
    mixField(h, sharedBanks);
    mixField(h, coreClockGhz);
    mixField(h, maxCycles);
    mixField(h, seed);
    mixField(h, static_cast<std::uint32_t>(codec));
    return h;
}

std::string
ArchConfig::describe() const
{
    Table t("Simulator configuration (Table 1)");
    t.row({"parameter", "value"});
    t.row({"# of SMs", std::to_string(numSms)});
    t.row({"Registers per SM",
           std::to_string(numVregsPerSm * warpSize * kBytesPerWord / 1024) +
               "KB"});
    t.row({"SM frequency", Table::num(coreClockGhz, 1) + "GHz"});
    t.row({"Register file banks", std::to_string(numBanks)});
    t.row({"Operand collectors per SM", std::to_string(numCollectors)});
    t.row({"Warp size", std::to_string(warpSize)});
    t.row({"Schedulers per SM", std::to_string(numSchedulers)});
    t.row({"SIMT EXE width", std::to_string(simtWidth)});
    t.row({"L1$ per SM", std::to_string(l1Bytes / 1024) + "KB"});
    t.row({"Threads per SM", std::to_string(maxThreadsPerSm)});
    t.row({"Memory channels", std::to_string(memChannels)});
    t.row({"CTAs per SM", std::to_string(maxCtasPerSm)});
    t.row({"L2$ size", std::to_string(l2Bytes / 1024) + "KB"});
    t.row({"Mode", std::string(archModeName(mode))});
    return t.str();
}

} // namespace gs
