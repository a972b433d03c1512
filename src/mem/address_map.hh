/**
 * @file
 * Physical-address to memory-stack mapping.
 *
 * Default policy is page-granularity interleaving across the eight
 * in-package stacks (the paper: "the memory interfaces are
 * address-interleaved"). Regions may additionally be registered with an
 * owner stack and a locality fraction, modeling NUMA-aware placement by
 * the OS/runtime (Section II-B3's software-managed mode): that fraction
 * of the region's pages map to the owner stack, the rest interleave.
 */

#ifndef ENA_MEM_ADDRESS_MAP_HH
#define ENA_MEM_ADDRESS_MAP_HH

#include <cstdint>
#include <vector>

namespace ena {

class AddressMap
{
  public:
    AddressMap(int num_stacks, std::uint64_t page_bytes = 4096);

    /**
     * Register a placement region.
     * @param owner stack preferred for this region's pages
     * @param local_frac fraction of pages placed on the owner stack
     */
    void addRegion(std::uint64_t base, std::uint64_t size, int owner,
                   double local_frac);

    /** Home stack of an address, in [0, numStacks()). */
    int stackFor(std::uint64_t addr) const;

    int numStacks() const { return numStacks_; }

  private:
    struct Region
    {
        std::uint64_t base;
        std::uint64_t size;
        int owner;
        double localFrac;
    };

    static std::uint64_t hashPage(std::uint64_t page);

    int numStacks_;
    std::uint64_t pageBytes_;
    std::vector<Region> regions_;
};

} // namespace ena

#endif // ENA_MEM_ADDRESS_MAP_HH
