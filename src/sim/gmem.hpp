/**
 * @file
 * Functional (value-holding) device global memory. Timing is modelled
 * separately by MemorySystem; this class only stores bytes. Paged so
 * sparse address spaces stay cheap.
 */

#ifndef GSCALAR_SIM_GMEM_HPP
#define GSCALAR_SIM_GMEM_HPP

#include <array>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"

namespace gs
{

/** Byte-addressable functional memory with 4 KB pages. */
class GlobalMemory
{
  public:
    /** Read a 4-byte word at @p addr (must be 4-byte aligned). */
    Word readWord(Addr addr) const;

    /** Write a 4-byte word at @p addr (must be 4-byte aligned). */
    void writeWord(Addr addr, Word value);

    /** Bulk-initialise words starting at @p addr. */
    void fillWords(Addr addr, const std::vector<Word> &values);

    /** Read @p count consecutive words starting at @p addr. */
    std::vector<Word> readWords(Addr addr, std::size_t count) const;

    /** Pages currently allocated (tests). */
    std::size_t pageCount() const { return pages_.size(); }

  private:
    static constexpr Addr kPageBytes = 4096;
    using Page = std::array<std::uint8_t, kPageBytes>;

    Page &page(Addr addr);
    const Page *pageIfPresent(Addr addr) const;

    std::unordered_map<Addr, std::unique_ptr<Page>> pages_;
};

} // namespace gs

#endif // GSCALAR_SIM_GMEM_HPP
