/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot paths: event
 * queue throughput and rescheduling, cache accesses, HBM timing, NoC
 * traversal, the analytic node evaluation, and the thermal solver.
 */

#include <deque>

#include <benchmark/benchmark.h>

#include "core/ena.hh"
#include "core/thermal_study.hh"
#include "mem/cache.hh"
#include "mem/hbm_stack.hh"
#include "noc/detailed_network.hh"
#include "noc/interposer_network.hh"
#include "noc/topology.hh"
#include "sim/simulation.hh"
#include "util/rng.hh"
#include "workloads/trace_gen.hh"

using namespace ena;

namespace {

void
BM_EventQueue(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue q;
        std::uint64_t fired = 0;
        for (int i = 0; i < 1024; ++i) {
            q.scheduleLambda(static_cast<Tick>(i * 7 % 1000),
                             [&fired] { ++fired; });
        }
        q.run();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EventQueue);

void
BM_EventReschedule(benchmark::State &state)
{
    // Caller-owned events, each moved earlier before it fires, as
    // ComputeUnit::wake() moves its issue event when a response comes
    // back first. Each move leaves a stale entry for the run to skip.
    std::uint64_t fired = 0;
    std::deque<Event> events;
    for (int i = 0; i < 1024; ++i)
        events.emplace_back([&fired] { ++fired; });
    for (auto _ : state) {
        EventQueue q;
        for (Event &ev : events)
            q.schedule(&ev, 1000);
        for (Event &ev : events) {
            q.deschedule(&ev);
            q.schedule(&ev, 1);
        }
        q.run();
    }
    benchmark::DoNotOptimize(fired);
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EventReschedule);

void
BM_CacheAccess(benchmark::State &state)
{
    Cache cache({2ull << 20, 64, 16});
    Rng rng(42);
    for (auto _ : state) {
        CacheOutcome out =
            cache.access(rng.below(64ull << 20) & ~63ull, false);
        benchmark::DoNotOptimize(out);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

void
BM_HbmAccess(benchmark::State &state)
{
    Simulation sim;
    auto *stack = sim.create<HbmStack>("hbm", 750.0 / 8);
    sim.initAll();
    Rng rng(7);
    std::uint64_t done = 0;
    for (auto _ : state) {
        stack->access(rng.below(1ull << 30) & ~63ull, 64, false,
                      [&done] { ++done; });
        sim.eventq().run();
    }
    benchmark::DoNotOptimize(done);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HbmAccess);

void
BM_NocTraversal(benchmark::State &state)
{
    struct Sink : NetworkEndpoint
    {
        std::uint64_t count = 0;
        void receivePacket(const Packet &) override { ++count; }
    };

    Simulation sim;
    Topology topo = Topology::ehp();
    auto *net = sim.create<InterposerNetwork>("noc", topo,
                                              InterposerParams{});
    std::vector<Sink> sinks(topo.nodes().size());
    for (NodeId i = 0; i < sinks.size(); ++i)
        net->attach(i, &sinks[i]);
    sim.initAll();

    Rng rng(3);
    Packet pkt;
    pkt.bytes = 64;
    for (auto _ : state) {
        pkt.src = static_cast<NodeId>(rng.below(sinks.size()));
        pkt.dst = static_cast<NodeId>(rng.below(sinks.size()));
        net->send(pkt);
        sim.eventq().run();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NocTraversal);

void
BM_NodeEvaluation(benchmark::State &state)
{
    NodeEvaluator eval;
    NodeConfig cfg = NodeConfig::bestMean();
    for (auto _ : state) {
        for (App app : allApps()) {
            EvalResult r = eval.evaluate(cfg, app);
            benchmark::DoNotOptimize(r);
        }
    }
    state.SetItemsProcessed(state.iterations() * allApps().size());
}
BENCHMARK(BM_NodeEvaluation);

void
BM_TraceGeneration(benchmark::State &state)
{
    StreamLayout layout;
    layout.privateBase = 1ull << 30;
    layout.privateSize = 1ull << 20;
    layout.sharedBase = 0;
    layout.sharedSize = 64ull << 20;
    TraceGenerator gen(profileFor(App::CoMD), layout, 11);
    for (auto _ : state) {
        TraceOp op = gen.next();
        benchmark::DoNotOptimize(op);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceGeneration);

void
BM_ThermalSolve(benchmark::State &state)
{
    NodeEvaluator eval;
    PackageThermalParams tp;
    tp.gridN = static_cast<size_t>(state.range(0));
    EhpPackageModel model(tp);
    EvalResult r = eval.evaluate(NodeConfig::bestMean(), App::CoMDLJ);
    for (auto _ : state) {
        auto solved = model.solve(NodeConfig::bestMean(), r.power);
        benchmark::DoNotOptimize(solved);
    }
}
BENCHMARK(BM_ThermalSolve)->Arg(16)->Arg(32);

void
BM_DetailedNocTraversal(benchmark::State &state)
{
    struct Sink : NetworkEndpoint
    {
        std::uint64_t count = 0;
        void receivePacket(const Packet &) override { ++count; }
    };

    Simulation sim;
    Topology topo = Topology::ehp();
    auto *net = sim.create<DetailedNetwork>("dnoc", topo,
                                            DetailedParams{});
    std::vector<Sink> sinks(topo.nodes().size());
    for (NodeId i = 0; i < sinks.size(); ++i)
        net->attach(i, &sinks[i]);
    sim.initAll();

    Rng rng(5);
    Packet pkt;
    pkt.bytes = 64;
    for (auto _ : state) {
        pkt.src = static_cast<NodeId>(rng.below(sinks.size()));
        pkt.dst = static_cast<NodeId>(rng.below(sinks.size()));
        net->send(pkt);
        sim.eventq().run();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DetailedNocTraversal);

} // anonymous namespace

BENCHMARK_MAIN();
