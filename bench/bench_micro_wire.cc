/**
 * @file
 * google-benchmark microbenchmarks of the server's JSON wire codec on
 * its largest everyday message: one 400-point sweep response, built
 * once by EvalService::handleLine outside the timed loops. Parse times
 * wire::tryParseJson on its text (what a client does with every
 * response); dump times JsonValue::dump() on the parsed tree, which
 * writes through the same JsonWriter the server encodes with.
 */

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string>

#include "server/eval_service.hh"
#include "server/wire.hh"

using namespace ena;

namespace {

/** A 400-point LULESH bandwidth sweep response, without its newline. */
const std::string &
sweepResponse()
{
    static const std::string line = [] {
        EvalService svc;
        return svc.handleLine(
            "{\"op\":\"sweep\",\"id\":1,\"app\":\"lulesh\",\"axis\":\"bw\","
            "\"from\":1,\"to\":4.99,\"step\":0.01}");
    }();
    return line;
}

void
BM_WireParseSweep(benchmark::State &state)
{
    const std::string &line = sweepResponse();
    for (auto _ : state) {
        Expected<wire::JsonValue> v = wire::tryParseJson(line);
        if (!v.ok())
            std::abort();
        benchmark::DoNotOptimize(v);
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(line.size()));
}
BENCHMARK(BM_WireParseSweep);

void
BM_WireDumpSweep(benchmark::State &state)
{
    const Expected<wire::JsonValue> tree = wire::tryParseJson(sweepResponse());
    if (!tree.ok())
        std::abort();
    for (auto _ : state) {
        std::string text = tree->dump();
        benchmark::DoNotOptimize(text);
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(sweepResponse().size()));
}
BENCHMARK(BM_WireDumpSweep);

} // anonymous namespace

BENCHMARK_MAIN();
