/**
 * @file
 * 64-bit FNV-1a: the one hash behind store/wire checksums, sweep
 * content addresses, ArchConfig::fingerprint() and fault-site seeds.
 */

#ifndef GSCALAR_COMMON_FNV_HPP
#define GSCALAR_COMMON_FNV_HPP

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace gs
{

/** FNV-1a 64-bit offset basis (the hash of zero bytes). */
inline constexpr std::uint64_t kFnv1aBasis = 0xcbf29ce484222325ull;

/** FNV-1a 64-bit over @p n bytes, continuing from running hash @p h. */
inline std::uint64_t
fnv1a(const void *data, std::size_t n, std::uint64_t h = kFnv1aBasis)
{
    const unsigned char *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

inline std::uint64_t
fnv1a(std::string_view s)
{
    return fnv1a(s.data(), s.size());
}

} // namespace gs

#endif // GSCALAR_COMMON_FNV_HPP
