#include "fault.hpp"

#include <cstdlib>
#include <memory>
#include <sstream>

#include "common/fnv.hpp"
#include "common/log.hpp"
#include "health.hpp"

namespace gs
{

namespace
{

struct KindName
{
    FaultKind kind;
    const char *name;
};

constexpr KindName kKindNames[] = {
    {FaultKind::ShortWrite, "short-write"},
    {FaultKind::RenameFail, "rename-fail"},
    {FaultKind::BitFlip, "bit-flip"},
    {FaultKind::ConnReset, "conn-reset"},
    {FaultKind::ShortRead, "short-read"},
    {FaultKind::Eintr, "eintr"},
    {FaultKind::Stall, "stall"},
    {FaultKind::Throw, "throw"},
    {FaultKind::Slow, "slow"},
    {FaultKind::Miscompare, "miscompare"},
    {FaultKind::CoalesceLeaderCrash, "coalesce-leader-crash"},
    {FaultKind::EpollSpurious, "epoll-spurious"},
    {FaultKind::StuckArray, "stuck-array"},
    {FaultKind::JournalTornWrite, "journal-torn-write"},
    {FaultKind::JournalBitFlip, "journal-bit-flip"},
    {FaultKind::PointCrash, "point-crash"},
    {FaultKind::DaemonLost, "daemon-lost"},
};

constexpr std::string_view kSites[] = {"store", "serve", "engine",
                                       "sim", "gen", "rf", "sweep"};

/** SplitMix64: decorrelates (seed, occurrence) into uniform bits. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

thread_local int t_suppress_depth = 0;

} // namespace

const char *
faultKindName(FaultKind k)
{
    for (const KindName &kn : kKindNames)
        if (kn.kind == k)
            return kn.name;
    return "unknown";
}

std::optional<FaultKind>
parseFaultKind(std::string_view name)
{
    for (const KindName &kn : kKindNames)
        if (name == kn.name)
            return kn.kind;
    return std::nullopt;
}

bool
FaultInjector::configure(const std::string &specList, std::string *error)
{
    auto fail = [&](const std::string &why) {
        if (error)
            *error = why;
        return false;
    };

    std::vector<std::unique_ptr<Armed>> parsed;
    std::istringstream in(specList);
    std::string one;
    while (std::getline(in, one, ',')) {
        if (one.empty())
            continue;

        // site:kind:rate[:seed]
        std::vector<std::string> parts;
        std::istringstream spec(one);
        std::string tok;
        while (std::getline(spec, tok, ':'))
            parts.push_back(tok);
        if (parts.size() < 3 || parts.size() > 4)
            return fail("fault spec '" + one +
                        "' wants site:kind:rate[:seed]");

        FaultSpec s;
        s.site = parts[0];
        bool knownSite = false;
        for (const std::string_view site : kSites)
            knownSite = knownSite || site == s.site;
        if (!knownSite)
            return fail("unknown fault site '" + s.site +
                        "' (want store, serve, engine, sim, gen, rf "
                        "or sweep)");

        const std::optional<FaultKind> kind = parseFaultKind(parts[1]);
        if (!kind)
            return fail("unknown fault kind '" + parts[1] + "'");
        s.kind = *kind;

        char *end = nullptr;
        s.rate = std::strtod(parts[2].c_str(), &end);
        if (parts[2].empty() || !end || *end != '\0' || s.rate < 0 ||
            s.rate > 1)
            return fail("fault rate '" + parts[2] +
                        "' wants a number in [0, 1]");

        if (parts.size() == 4) {
            // strtoull wraps negatives silently; insist on digits only.
            const bool digits =
                !parts[3].empty() &&
                parts[3].find_first_not_of("0123456789") ==
                    std::string::npos;
            const unsigned long long v =
                digits ? std::strtoull(parts[3].c_str(), &end, 10) : 0;
            if (!digits || !end || *end != '\0')
                return fail("fault seed '" + parts[3] +
                            "' wants a non-negative integer");
            s.seed = v;
        }

        auto armed = std::make_unique<Armed>();
        armed->spec = std::move(s);
        armed->siteHash = fnv1a(armed->spec.site) ^
                          mix64(std::uint64_t(armed->spec.kind) + 1);
        parsed.push_back(std::move(armed));
    }

    std::lock_guard<std::mutex> lock(mutex_);
    specs_ = std::move(parsed);
    armed_.store(!specs_.empty(), std::memory_order_relaxed);
    return true;
}

void
FaultInjector::disarm()
{
    std::lock_guard<std::mutex> lock(mutex_);
    specs_.clear();
    armed_.store(false, std::memory_order_relaxed);
}

bool
FaultInjector::shouldInject(std::string_view site, FaultKind kind)
{
    if (!armed() || suppressed())
        return false;

    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &a : specs_) {
        if (a->spec.kind != kind || a->spec.site != site)
            continue;
        const std::uint64_t n =
            a->occurrences.fetch_add(1, std::memory_order_relaxed);
        // Pure function of (seed, site, kind, occurrence): the n-th
        // consultation fires identically in every process and thread
        // interleaving.
        const std::uint64_t h = mix64(a->spec.seed ^ a->siteHash ^
                                      mix64(n));
        const double u = double(h >> 11) * 0x1.0p-53;
        if (u < a->spec.rate) {
            a->fired.fetch_add(1, std::memory_order_relaxed);
            healthCounters().faultsInjected.fetch_add(
                1, std::memory_order_relaxed);
            return true;
        }
        return false; // first matching spec decides
    }
    return false;
}

std::uint64_t
FaultInjector::injected() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t n = 0;
    for (const auto &a : specs_)
        n += a->fired.load(std::memory_order_relaxed);
    return n;
}

std::uint64_t
FaultInjector::injectedAt(std::string_view site) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t n = 0;
    for (const auto &a : specs_)
        if (a->spec.site == site)
            n += a->fired.load(std::memory_order_relaxed);
    return n;
}

std::vector<FaultSpec>
FaultInjector::specs() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<FaultSpec> out;
    for (const auto &a : specs_)
        out.push_back(a->spec);
    return out;
}

std::optional<FaultSpec>
FaultInjector::armedSpec(std::string_view site, FaultKind kind) const
{
    if (!armed())
        return std::nullopt;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &a : specs_)
        if (a->spec.kind == kind && a->spec.site == site)
            return a->spec;
    return std::nullopt;
}

FaultInjector::Suppress::Suppress()
{
    ++t_suppress_depth;
}

FaultInjector::Suppress::~Suppress()
{
    --t_suppress_depth;
}

bool
FaultInjector::suppressed()
{
    return t_suppress_depth > 0;
}

bool
stuckArrayFault(unsigned sm, unsigned bank, unsigned array)
{
    FaultInjector &inj = faultInjector();
    if (!inj.armed() || FaultInjector::suppressed())
        return false;
    const std::optional<FaultSpec> spec =
        inj.armedSpec("rf", FaultKind::StuckArray);
    if (!spec)
        return false;
    // Pure function of (seed, coordinates): the stuck set of a chip is
    // a manufacturing outcome, fixed before the first cycle.
    const std::uint64_t coord = (std::uint64_t(sm) << 32) ^
                                (std::uint64_t(bank) << 16) ^ array;
    const std::uint64_t h =
        mix64(spec->seed ^ fnv1a("rf") ^ mix64(coord));
    return double(h >> 11) * 0x1.0p-53 < spec->rate;
}

FaultInjector &
faultInjector()
{
    static FaultInjector &injector = []() -> FaultInjector & {
        static FaultInjector inj;
        if (const char *env = std::getenv("GS_FAULT"); env && *env) {
            std::string err;
            if (!inj.configure(env, &err))
                GS_FATAL("GS_FAULT='", env, "': ", err);
        }
        return inj;
    }();
    return injector;
}

} // namespace gs
