#include "taskgraph/aql_replay.hh"

#include <algorithm>
#include <functional>

#include "hsa/signal.hh"
#include "util/logging.hh"

namespace ena {

AqlReplayResult
replayOnAqlQueues(Simulation &sim, const TaskDag &dag,
                  const std::vector<AqlQueue *> &queues,
                  const std::vector<Tick> &ticks,
                  const std::vector<int> &agents)
{
    const std::size_t n = dag.size();
    ENA_ASSERT(n > 0, "empty task graph");
    ENA_ASSERT(ticks.size() == n && agents.size() == n,
               "replay needs one duration and one agent per task, got ",
               ticks.size(), " and ", agents.size(), " for ", n, " tasks");
    for (int a : agents) {
        ENA_ASSERT(a >= 0 && a < static_cast<int>(queues.size()),
                   "bad agent index ", a);
    }

    AqlReplayResult out;
    out.finishedAt.assign(n, 0);
    std::vector<HsaSignal> done(n, HsaSignal(1));
    std::vector<std::size_t> pending(n);
    for (const DagTask &t : dag.tasks())
        pending[t.id] = t.deps.size();

    std::function<void(TaskId)> dispatch = [&](TaskId id) {
        done[id].waitZero([&, id] {
            out.finishedAt[id] = sim.now();
            for (const DagEdge &s : dag.succs(id)) {
                if (--pending[s.task] == 0)
                    dispatch(s.task);
            }
        });
        AqlPacket pkt;
        pkt.id = id;
        pkt.kernelTicks = ticks[id];
        pkt.completion = &done[id];
        queues[static_cast<std::size_t>(agents[id])]->submit(pkt);
    };

    sim.initAll();
    for (const DagTask &t : dag.tasks()) {
        if (t.deps.empty())
            dispatch(t.id);
    }
    sim.run();
    out.makespan =
        *std::max_element(out.finishedAt.begin(), out.finishedAt.end());
    return out;
}

Tick
criticalPathTicks(const TaskDag &dag, const std::vector<Tick> &ticks)
{
    ENA_ASSERT(ticks.size() == dag.size(), "need one duration per task, got ",
               ticks.size(), " for ", dag.size());
    std::vector<Tick> longest(dag.size(), 0);
    Tick best = 0;
    for (const DagTask &t : dag.tasks()) {
        Tick start = 0;
        for (const DagEdge &d : t.deps)
            start = std::max(start, longest[d.task]);
        longest[t.id] = start + ticks[t.id];
        best = std::max(best, longest[t.id]);
    }
    return best;
}

} // namespace ena
