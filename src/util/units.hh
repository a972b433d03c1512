/**
 * @file
 * Unit constants and conversion helpers.
 *
 * Internal conventions used throughout ena-sim:
 *   - time:        seconds (double) for analytic models, Tick (ps) for the
 *                  event-driven simulator
 *   - frequency:   GHz in configuration structs, Hz in raw math
 *   - bandwidth:   GB/s (1e9 bytes/s) in configuration structs
 *   - power:       watts
 *   - energy:      joules (picojoules for per-event accounting)
 *   - capacity:    bytes (with GiB helpers)
 *   - temperature: degrees Celsius
 */

#ifndef ENA_UTIL_UNITS_HH
#define ENA_UTIL_UNITS_HH

#include <cstdint>

namespace ena {
namespace units {

constexpr double kilo = 1e3;
constexpr double mega = 1e6;
constexpr double giga = 1e9;
constexpr double tera = 1e12;
constexpr double peta = 1e15;
constexpr double exa = 1e18;

constexpr double milli = 1e-3;
constexpr double micro = 1e-6;
constexpr double nano = 1e-9;
constexpr double pico = 1e-12;

/** Bytes in one binary gibibyte / mebibyte / kibibyte. */
constexpr std::uint64_t kib = 1024ull;
constexpr std::uint64_t mib = 1024ull * kib;
constexpr std::uint64_t gib = 1024ull * mib;

/** Convert GHz to Hz. */
constexpr double ghzToHz(double ghz) { return ghz * giga; }

/** Convert picojoules to joules. */
constexpr double pjToJ(double pj) { return pj * pico; }

/** Joules per second at a given event rate with per-event pJ cost. */
constexpr double
powerFromEventRate(double events_per_sec, double pj_per_event)
{
    return events_per_sec * pjToJ(pj_per_event);
}

} // namespace units

/** Simulator time base: one Tick is one picosecond. */
using Tick = std::uint64_t;

constexpr Tick tickPerNs = 1000;
constexpr Tick tickPerUs = 1000 * tickPerNs;
constexpr Tick tickPerMs = 1000 * tickPerUs;
constexpr Tick tickPerSec = 1000 * tickPerMs;

/** Ticks for one clock period at frequency @p ghz. */
constexpr Tick
clockPeriod(double ghz)
{
    return static_cast<Tick>(1000.0 / ghz);
}

/** Convert a tick count to seconds. */
constexpr double
ticksToSeconds(Tick t)
{
    return static_cast<double>(t) * units::pico;
}

} // namespace ena

#endif // ENA_UTIL_UNITS_HH
