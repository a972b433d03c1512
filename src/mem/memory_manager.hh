/**
 * @file
 * Multi-level memory management (paper Section II-B3).
 *
 * The ENA exposes (at least) two memory levels: in-package 3D DRAM and
 * the external-memory network. This functional model implements the
 * paper's three modes:
 *
 *  - SoftwareManaged: the OS monitors page hotness and migrates hot
 *    pages into in-package DRAM at epoch boundaries (the primary mode).
 *  - HwCache: in-package DRAM acts as a page-granularity hardware cache
 *    of the external space (sacrifices addressable capacity).
 *  - StaticInterleave: pages statically spread by capacity ratio
 *    (no migration; the lower-bound baseline).
 *
 * The model answers, per access, which level services it; the achieved
 * in-package hit fraction feeds the Fig. 8 sensitivity analysis.
 */

#ifndef ENA_MEM_MEMORY_MANAGER_HH
#define ENA_MEM_MEMORY_MANAGER_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace ena {

enum class MemLevel : std::uint8_t
{
    InPackage,
    External,
};

enum class MemMode
{
    SoftwareManaged,
    HwCache,
    StaticInterleave,
};

struct MemoryManagerParams
{
    MemMode mode = MemMode::SoftwareManaged;
    std::uint64_t pageBytes = 4096;
    std::uint64_t inPackageBytes = 256ull << 30;
    std::uint64_t externalBytes = 768ull << 30;
    /** SoftwareManaged: accesses between migration epochs. */
    std::uint64_t epochAccesses = 1u << 16;
    /** SoftwareManaged: max fraction of in-package pages replaced per
     *  epoch (migration bandwidth budget). */
    double migrateFraction = 0.02;
};

class MemoryManager
{
  public:
    explicit MemoryManager(const MemoryManagerParams &params);

    /** Which level services this access (updates placement state). */
    MemLevel access(std::uint64_t addr, bool is_write);

    /** Fraction of accesses serviced in-package so far. */
    double inPackageHitRate() const;

    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t inPackageAccesses() const { return inPkgAccesses_; }
    std::uint64_t migrations() const { return migrations_; }

    /** Addressable capacity (HwCache mode loses the cache's worth). */
    std::uint64_t addressableBytes() const;

    const MemoryManagerParams &params() const { return params_; }

  private:
    struct PageInfo
    {
        MemLevel level = MemLevel::External;
        std::uint64_t epochCount = 0;
    };

    std::uint64_t pageOf(std::uint64_t addr) const;
    MemLevel accessSoftware(std::uint64_t page);
    MemLevel accessHwCache(std::uint64_t page);
    MemLevel accessStatic(std::uint64_t page) const;
    void runEpochMigration();

    MemoryManagerParams params_;
    std::uint64_t inPkgPageCapacity_;

    // SoftwareManaged state.
    std::unordered_map<std::uint64_t, PageInfo> pages_;
    std::uint64_t inPkgPagesUsed_ = 0;
    std::uint64_t epochCounter_ = 0;

    // HwCache state: direct-mapped page tags.
    std::vector<std::uint64_t> cacheTags_;

    std::uint64_t accesses_ = 0;
    std::uint64_t inPkgAccesses_ = 0;
    std::uint64_t migrations_ = 0;
};

} // namespace ena

#endif // ENA_MEM_MEMORY_MANAGER_HH
