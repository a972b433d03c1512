/**
 * @file
 * External-memory network timing model (Section II-B2).
 *
 * The EHP exposes several external-memory interfaces; each interface
 * drives a chain of memory modules (DRAM or NVM) connected by
 * point-to-point SerDes links (Hybrid-Memory-Cube style). Latency grows
 * with chain depth; interface bandwidth is shared by the modules behind
 * it. Addresses interleave across interfaces in 1 MiB stripes, then
 * across the modules of a chain by capacity. The config sets the
 * modules and the interface bandwidth; the SerDes hop and the DRAM and
 * NVM latencies are fixed.
 */

#ifndef ENA_MEM_EXT_MEMORY_HH
#define ENA_MEM_EXT_MEMORY_HH

#include <functional>
#include <vector>

#include "common/node_config.hh"
#include "sim/sim_object.hh"

namespace ena {

/** Device technology of one module. */
enum class ExtMemTech
{
    Dram,
    Nvm,
};

class ExternalMemoryNetwork : public SimObject
{
  public:
    using Callback = std::function<void()>;

    /**
     * Build chains from an ExtMemConfig: DRAM modules first (closest to
     * the package), NVM modules appended at the chain tails, spread
     * round-robin across interfaces. Each interface carries
     * cfg.interfaceGbs.
     */
    ExternalMemoryNetwork(Simulation &sim, const std::string &name,
                          const ExtMemConfig &cfg);

    /** Issue one access; @p done runs at completion. */
    void access(std::uint64_t addr, std::uint32_t bytes, bool is_write,
                Callback done);

    /** Chain position (0-based) of the module an address maps to. */
    int chainDepthOf(std::uint64_t addr) const;

    /** Technology of the module an address maps to. */
    ExtMemTech techOf(std::uint64_t addr) const;

    int numInterfaces() const { return static_cast<int>(chains_.size()); }
    int totalModules() const;

    std::uint64_t bytesServed() const { return bytes_; }
    std::uint64_t nvmAccesses() const { return nvmAccesses_; }

  private:
    struct Module
    {
        ExtMemTech tech;
        double capacityGb;
    };

    struct Chain
    {
        std::vector<Module> modules;
        Tick busyUntil = 0;        ///< interface-link horizon
        double capacityGb = 0.0;
    };

    /** Locate (chain, module) for an address. */
    void locate(std::uint64_t addr, int &chain, int &module) const;

    double interfaceGbs_;   ///< per-interface bandwidth
    std::vector<Chain> chains_;

    std::uint64_t bytes_ = 0;
    std::uint64_t nvmAccesses_ = 0;
};

} // namespace ena

#endif // ENA_MEM_EXT_MEMORY_HH
