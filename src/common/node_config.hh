/**
 * @file
 * Hardware configuration of one Exascale Node Architecture (ENA) node.
 *
 * The design space explored by the paper varies three knobs — total GPU
 * CU count, GPU frequency, and in-package memory bandwidth — on top of a
 * fixed EHP organization (8 GPU chiplets, 8 CPU chiplets, one 3D DRAM
 * stack per GPU chiplet) and a configurable external-memory network.
 */

#ifndef ENA_COMMON_NODE_CONFIG_HH
#define ENA_COMMON_NODE_CONFIG_HH

#include <algorithm>
#include <charconv>
#include <cmath>
#include <string>

#include "util/logging.hh"
#include "util/status.hh"
#include "util/string_utils.hh"

namespace ena {

/** Which power-saving techniques are enabled (paper Section V-E). */
struct PowerOptConfig
{
    bool ntc = false;          ///< near-threshold computing on the CUs
    bool asyncCu = false;      ///< asynchronous ALUs/crossbars in CUs
    bool asyncRouter = false;  ///< asynchronous interconnect routers
    bool lpLinks = false;      ///< low-power on-chip link mode
    bool compression = false;  ///< LLC<->memory DRAM-traffic compression

    /** All techniques enabled (the paper's "All" bar). */
    static PowerOptConfig
    all()
    {
        return {true, true, true, true, true};
    }

    /** No techniques enabled (baseline; DVFS is always included). */
    static PowerOptConfig none() { return {}; }

    bool
    any() const
    {
        return ntc || asyncCu || asyncRouter || lpLinks || compression;
    }
};

/**
 * Stable bitmask of the five toggles, one bit each (ntc is bit 0), so
 * one int tells every combination apart.
 */
inline int
powerOptBits(const PowerOptConfig &o)
{
    return (o.ntc << 0) | (o.asyncCu << 1) | (o.asyncRouter << 2) |
           (o.lpLinks << 3) | (o.compression << 4);
}

/** External-memory network configuration (Section II-B2). */
struct ExtMemConfig
{
    double dramGb = 768.0;         ///< external DRAM capacity
    double nvmGb = 0.0;            ///< external NVM capacity
    double dramModuleGb = 64.0;    ///< capacity per DRAM module
    double nvmModuleGb = 256.0;    ///< capacity per NVM module (4x DRAM)
    int interfaces = 8;            ///< EHP external-memory interfaces
    double interfaceGbs = 100.0;   ///< peak bandwidth per interface

    /** DRAM-only baseline: 768 GB external DRAM (1 TB node total). */
    static ExtMemConfig dramOnly() { return {}; }

    /**
     * Hybrid configuration from Section V-C: half the external DRAM
     * replaced by NVM at the same total capacity.
     */
    static ExtMemConfig
    hybrid()
    {
        ExtMemConfig c;
        c.dramGb = 384.0;
        c.nvmGb = 384.0;
        return c;
    }

    double totalGb() const { return dramGb + nvmGb; }
    double aggregateGbs() const { return interfaces * interfaceGbs; }

    int
    dramModules() const
    {
        return static_cast<int>((dramGb + dramModuleGb - 1) / dramModuleGb);
    }

    int
    nvmModules() const
    {
        return nvmGb <= 0.0
                   ? 0
                   : static_cast<int>((nvmGb + nvmModuleGb - 1) /
                                      nvmModuleGb);
    }

    /** Point-to-point SerDes link count (one per chained module). */
    int totalModules() const { return dramModules() + nvmModules(); }
};

/** One ENA node's hardware configuration. */
struct NodeConfig
{
    // --- the three DSE knobs ---
    int cus = 320;              ///< total GPU compute units
    double freqGhz = 1.0;       ///< GPU frequency
    double bwTbs = 3.0;         ///< aggregate in-package DRAM bandwidth

    // --- fixed EHP organization ---
    int gpuChiplets = 8;
    int cpuChiplets = 8;
    int coresPerCpuChiplet = 4;
    double inPackageGb = 256.0; ///< 8 stacks x 32 GB

    ExtMemConfig ext;
    PowerOptConfig opts;

    /** CUs per GPU chiplet (need not be the nominal 32 during sweeps). */
    double
    cusPerChiplet() const
    {
        return static_cast<double>(cus) / gpuChiplets;
    }

    int cpuCores() const { return cpuChiplets * coresPerCpuChiplet; }

    /** The paper's ops-per-byte x-axis: CU-GHz per GB/s. */
    double
    opsPerByte() const
    {
        return cus * freqGhz / (bwTbs * 1000.0);
    }

    /** Sanity-check ranges; the error names the offending knob. */
    Status
    tryValidate() const
    {
        if (cus <= 0 || cus > 4096)
            return Status::outOfRange("NodeConfig: bad CU count ", cus);
        if (freqGhz <= 0.0 || freqGhz > 10.0) {
            return Status::outOfRange("NodeConfig: bad GPU frequency ",
                                      freqGhz, " GHz");
        }
        if (bwTbs <= 0.0 || bwTbs > 100.0) {
            return Status::outOfRange("NodeConfig: bad bandwidth ",
                                      bwTbs, " TB/s");
        }
        if (gpuChiplets <= 0 || cpuChiplets < 0)
            return Status::outOfRange("NodeConfig: bad chiplet counts");
        // Bounded so that cpuCores() fits in an int.
        if (cpuChiplets > 4096 || coresPerCpuChiplet < 1 ||
            coresPerCpuChiplet > 4096)
            return Status::outOfRange("NodeConfig: bad CPU size");
        // Sizes up to 1 PB, a thousand times the paper's node, written
        // so that NaN fails. Modules of 1 GB or more keep module counts
        // small ints.
        auto sizeOk = [](double gb, double min) {
            return gb >= min && gb <= 1e6;
        };
        if (!(inPackageGb > 0.0 && inPackageGb <= 1e6)) {
            return Status::outOfRange("NodeConfig: bad in-package capacity ",
                                      inPackageGb, " GB");
        }
        if (!sizeOk(ext.dramGb, 0.0) || !sizeOk(ext.nvmGb, 0.0))
            return Status::outOfRange("NodeConfig: bad external capacities");
        if (!sizeOk(ext.dramModuleGb, 1.0) || !sizeOk(ext.nvmModuleGb, 1.0))
            return Status::outOfRange("NodeConfig: bad module sizes");
        if (ext.interfaces < 1 ||
            !(ext.interfaceGbs > 0.0 && std::isfinite(ext.interfaceGbs)))
            return Status::outOfRange("NodeConfig: bad external interfaces");
        return Status();
    }

    /** Legacy flavor: fatal() on nonsense. */
    void validate() const { checkOrFatal(tryValidate()); }

    /** Short "320cu@1.00GHz/3.0TBps" label for tables. */
    std::string
    label() const
    {
        // to_chars at a fixed precision writes the bytes printf's %.2f
        // and %.1f write (C locale), without parsing a format. An int
        // takes at most 11 bytes and a double here at most 313 (DBL_MAX
        // has 309 integer digits), so every label fits.
        char buf[700];
        char *const end = buf + sizeof buf;
        char *p = std::to_chars(buf, end, cus).ptr;
        p = std::copy_n("cu@", 3, p);
        p = std::to_chars(p, end, freqGhz, std::chars_format::fixed, 2)
                .ptr;
        p = std::copy_n("GHz/", 4, p);
        p = std::to_chars(p, end, bwTbs, std::chars_format::fixed, 1).ptr;
        p = std::copy_n("TBps", 4, p);
        return std::string(buf, p);
    }

    /** Paper Section V baseline: best-mean config 320 / 1 GHz / 3 TB/s. */
    static NodeConfig bestMean() { return {}; }
};

} // namespace ena

#endif // ENA_COMMON_NODE_CONFIG_HH
