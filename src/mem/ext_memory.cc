#include "mem/ext_memory.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"
#include "util/units.hh"

namespace ena {

namespace {

constexpr double serdesHopNs = 8.0;   ///< per link traversal (one way)
constexpr double dramAccessNs = 60.0;
constexpr double nvmReadNs = 150.0;
constexpr double nvmWriteNs = 500.0;
constexpr std::uint64_t interleaveBytes = 1ull << 20;   ///< 1 MiB stripes

} // anonymous namespace

ExternalMemoryNetwork::ExternalMemoryNetwork(Simulation &sim,
                                             const std::string &name,
                                             const ExtMemConfig &cfg)
    : SimObject(sim, name), interfaceGbs_(cfg.interfaceGbs)
{
    ENA_ASSERT(cfg.interfaces > 0, "need at least one interface");
    chains_.resize(cfg.interfaces);

    // DRAM modules round-robin first (latency-critical, near the
    // package), then NVM modules at the chain tails.
    int dram = cfg.dramModules();
    int nvm = cfg.nvmModules();
    size_t rr = 0;
    for (int i = 0; i < dram; ++i, ++rr) {
        chains_[rr % chains_.size()].modules.push_back(
            {ExtMemTech::Dram, cfg.dramModuleGb});
    }
    for (int i = 0; i < nvm; ++i, ++rr) {
        chains_[rr % chains_.size()].modules.push_back(
            {ExtMemTech::Nvm, cfg.nvmModuleGb});
    }
    for (Chain &c : chains_) {
        for (const Module &m : c.modules)
            c.capacityGb += m.capacityGb;
        if (c.modules.empty())
            ENA_FATAL("external-memory interface with no modules; "
                      "reduce cfg.interfaces or add capacity");
    }
}

int
ExternalMemoryNetwork::totalModules() const
{
    int n = 0;
    for (const Chain &c : chains_)
        n += static_cast<int>(c.modules.size());
    return n;
}

void
ExternalMemoryNetwork::locate(std::uint64_t addr, int &chain,
                              int &module) const
{
    std::uint64_t stripe = addr / interleaveBytes;
    chain = static_cast<int>(stripe % chains_.size());
    const Chain &c = chains_[chain];

    // Within a chain, interleave stripes across modules weighted by
    // capacity: module j owns capacity_j/total of the stripes.
    std::uint64_t intra = stripe / chains_.size();
    double total = c.capacityGb;
    double u = static_cast<double>(intra % 1024) / 1024.0 * total;
    double acc = 0.0;
    for (size_t j = 0; j < c.modules.size(); ++j) {
        acc += c.modules[j].capacityGb;
        if (u < acc) {
            module = static_cast<int>(j);
            return;
        }
    }
    module = static_cast<int>(c.modules.size() - 1);
}

int
ExternalMemoryNetwork::chainDepthOf(std::uint64_t addr) const
{
    int chain = 0;
    int module = 0;
    locate(addr, chain, module);
    return module;
}

ExtMemTech
ExternalMemoryNetwork::techOf(std::uint64_t addr) const
{
    int chain = 0;
    int module = 0;
    locate(addr, chain, module);
    return chains_[chain].modules[module].tech;
}

void
ExternalMemoryNetwork::access(std::uint64_t addr, std::uint32_t bytes,
                              bool is_write, Callback done)
{
    ENA_ASSERT(done, "external access needs a completion callback");
    int ci = 0;
    int mi = 0;
    locate(addr, ci, mi);
    Chain &chain = chains_[ci];
    const Module &mod = chain.modules[mi];

    // Serialization on the interface's first SerDes link.
    double ser_ns = static_cast<double>(bytes) /
                    (interfaceGbs_ * units::giga) / units::nano;
    Tick ser = std::max<Tick>(
        1, static_cast<Tick>(std::ceil(ser_ns * tickPerNs)));
    Tick start = std::max(curTick(), chain.busyUntil);
    chain.busyUntil = start + ser;

    // Hop to the module and back, plus device access.
    double hops_ns = 2.0 * (mi + 1) * serdesHopNs;
    double dev_ns;
    if (mod.tech == ExtMemTech::Dram) {
        dev_ns = dramAccessNs;
    } else {
        dev_ns = is_write ? nvmWriteNs : nvmReadNs;
        ++nvmAccesses_;
    }
    Tick finish =
        start + ser +
        static_cast<Tick>((hops_ns + dev_ns) * tickPerNs);

    bytes_ += bytes;
    eventq().scheduleLambda(finish, std::move(done));
}

} // namespace ena
