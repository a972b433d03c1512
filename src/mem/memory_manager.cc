#include "mem/memory_manager.hh"

#include <algorithm>

#include "util/logging.hh"

namespace ena {

MemoryManager::MemoryManager(const MemoryManagerParams &params)
    : params_(params),
      inPkgPageCapacity_(params.inPackageBytes / params.pageBytes)
{
    ENA_ASSERT(params_.pageBytes > 0, "zero page size");
    ENA_ASSERT(inPkgPageCapacity_ > 0, "in-package capacity too small");
    if (params_.mode == MemMode::HwCache)
        cacheTags_.assign(inPkgPageCapacity_, ~std::uint64_t(0));
}

std::uint64_t
MemoryManager::pageOf(std::uint64_t addr) const
{
    return addr / params_.pageBytes;
}

std::uint64_t
MemoryManager::addressableBytes() const
{
    if (params_.mode == MemMode::HwCache)
        return params_.externalBytes;
    return params_.inPackageBytes + params_.externalBytes;
}

MemLevel
MemoryManager::access(std::uint64_t addr, bool is_write)
{
    (void)is_write;   // placement is write-agnostic in all three modes
    ++accesses_;
    std::uint64_t page = pageOf(addr);
    MemLevel level;
    switch (params_.mode) {
      case MemMode::SoftwareManaged:
        level = accessSoftware(page);
        break;
      case MemMode::HwCache:
        level = accessHwCache(page);
        break;
      case MemMode::StaticInterleave:
        level = accessStatic(page);
        break;
      default:
        ENA_PANIC("unknown memory mode");
    }
    if (level == MemLevel::InPackage)
        ++inPkgAccesses_;
    return level;
}

MemLevel
MemoryManager::accessSoftware(std::uint64_t page)
{
    auto [it, is_new] = pages_.try_emplace(page);
    PageInfo &info = it->second;
    // First touch: allocate in-package while capacity remains.
    if (is_new && inPkgPagesUsed_ < inPkgPageCapacity_) {
        info.level = MemLevel::InPackage;
        ++inPkgPagesUsed_;
    }
    ++info.epochCount;
    MemLevel level = info.level;

    if (++epochCounter_ >= params_.epochAccesses) {
        runEpochMigration();
        epochCounter_ = 0;
    }
    return level;
}

void
MemoryManager::runEpochMigration()
{
    // Gather candidates: hot external pages and cold in-package pages.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> hot_ext;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> cold_in;
    for (auto &[page, info] : pages_) {
        if (info.level == MemLevel::External && info.epochCount > 0)
            hot_ext.emplace_back(info.epochCount, page);
        else if (info.level == MemLevel::InPackage)
            cold_in.emplace_back(info.epochCount, page);
    }
    std::sort(hot_ext.rbegin(), hot_ext.rend());   // hottest first
    std::sort(cold_in.begin(), cold_in.end());     // coldest first

    std::uint64_t budget = static_cast<std::uint64_t>(
        params_.migrateFraction * static_cast<double>(
                                      inPkgPageCapacity_));
    budget = std::max<std::uint64_t>(budget, 1);

    size_t swaps = 0;
    for (size_t i = 0; i < hot_ext.size() && swaps < budget; ++i) {
        std::uint64_t ext_page = hot_ext[i].second;
        std::uint64_t ext_count = hot_ext[i].first;
        if (inPkgPagesUsed_ < inPkgPageCapacity_) {
            pages_[ext_page].level = MemLevel::InPackage;
            ++inPkgPagesUsed_;
            ++migrations_;
            ++swaps;
            continue;
        }
        if (swaps >= cold_in.size())
            break;
        // Swap only when the external page is hotter than the coldest
        // remaining in-package page.
        if (ext_count <= cold_in[swaps].first)
            break;
        pages_[cold_in[swaps].second].level = MemLevel::External;
        pages_[ext_page].level = MemLevel::InPackage;
        migrations_ += 2;
        ++swaps;
    }

    for (auto &[page, info] : pages_)
        info.epochCount = 0;
}

MemLevel
MemoryManager::accessHwCache(std::uint64_t page)
{
    std::uint64_t set = page % inPkgPageCapacity_;
    if (cacheTags_[set] == page)
        return MemLevel::InPackage;
    // Miss: fill (the external access happens now; subsequent accesses
    // to this page hit in-package).
    cacheTags_[set] = page;
    ++migrations_;
    return MemLevel::External;
}

MemLevel
MemoryManager::accessStatic(std::uint64_t page) const
{
    // Hash pages across the combined capacity by ratio.
    std::uint64_t z = page + 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    double u = static_cast<double>(z >> 11) * 0x1.0p-53;
    double in_frac =
        static_cast<double>(params_.inPackageBytes) /
        static_cast<double>(params_.inPackageBytes +
                            params_.externalBytes);
    return u < in_frac ? MemLevel::InPackage : MemLevel::External;
}

double
MemoryManager::inPackageHitRate() const
{
    return accesses_ ? static_cast<double>(inPkgAccesses_) /
                           static_cast<double>(accesses_)
                     : 0.0;
}

} // namespace ena
