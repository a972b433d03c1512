#include "server/eval_service.hh"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "cluster/cluster_config_io.hh"
#include "cluster/resilient_cluster.hh"
#include "cluster/resilient_cluster_io.hh"
#include "taskgraph/scheduler.hh"
#include "taskgraph/task_dag_io.hh"
#include "common/node_config_io.hh"
#include "core/dse.hh"
#include "telemetry/metrics.hh"
#include "telemetry/telemetry.hh"
#include "util/config.hh"
#include "util/thread_pool.hh"

namespace ena {

namespace {

using wire::JsonValue;
using wire::JsonWriter;

/** The stats.per_op key (and span name) shared by all unknown ops. */
constexpr const char *kUnknownOp = "unknown";

/** Parse the "config" parameter (config-text) into a Config. */
Expected<Config>
configFromRequest(const JsonValue &req)
{
    ENA_ASSIGN_OR_RETURN(std::string text,
                         wire::tryGetString(req, "config", ""));
    return Config::tryFromString(text, "request");
}

Expected<App>
appFromRequest(const JsonValue &req)
{
    ENA_ASSIGN_OR_RETURN(std::string name,
                         wire::tryGetString(req, "app"));
    return tryAppFromName(name);
}

/**
 * The per-point members every evaluation op shares; the caller opens
 * and closes the object (a sweep point appends its "value").
 */
void
writeEvalResultMembers(JsonWriter &out, const NodeConfig &cfg,
                       const EvalResult &r)
{
    out.key("app").string(appName(r.app))
        .key("label").string(cfg.label())
        .key("cus").number(cfg.cus)
        .key("freq_ghz").number(cfg.freqGhz)
        .key("bw_tbs").number(cfg.bwTbs)
        .key("ops_per_byte").number(r.perf.opsPerByte)
        .key("flops").number(r.perf.flops)
        .key("teraflops").number(r.teraflops())
        .key("cu_utilization").number(r.perf.activity.cuUtilization)
        .key("traffic_gbs").number(r.perf.trafficGbs)
        .key("memory_bound").boolean(r.perf.memoryBound)
        .key("budget_w").number(r.power.budgetPower())
        .key("package_w").number(r.power.packagePower())
        .key("total_w").number(r.power.total())
        .key("gflops_per_w").number(r.perf.flops / 1e9 / r.power.total());
}

void
writeNodeConfig(JsonWriter &out, const NodeConfig &cfg)
{
    out.beginObject()
        .key("cus").number(cfg.cus)
        .key("freq_ghz").number(cfg.freqGhz)
        .key("bw_tbs").number(cfg.bwTbs)
        .key("label").string(cfg.label())
        .endObject();
}

void
writeClusterResult(JsonWriter &out, const ClusterResult &r)
{
    out.beginObject()
        .key("app").string(appName(r.app))
        .key("node_teraflops").number(r.node.teraflops())
        .key("node_total_w").number(r.node.power.total())
        .key("comm_efficiency").number(r.commEfficiency)
        .key("analytic_exaflops").number(r.analyticExaflops)
        .key("system_exaflops").number(r.systemExaflops)
        .key("analytic_mw").number(r.analyticMw)
        .key("network_mw").number(r.networkMw)
        .key("system_mw").number(r.systemMw)
        .endObject();
}

Expected<CommSpec>
commSpecFromRequest(const JsonValue &req)
{
    CommSpec spec;
    ENA_ASSIGN_OR_RETURN(
        std::string pattern,
        wire::tryGetString(req, "pattern",
                           commPatternName(spec.pattern)));
    ENA_ASSIGN_OR_RETURN(spec.pattern, tryCommPatternFromName(pattern));
    ENA_ASSIGN_OR_RETURN(
        spec.intensity,
        wire::tryGetNumber(req, "intensity", spec.intensity));
    ENA_ASSIGN_OR_RETURN(std::string scaling,
                         wire::tryGetString(req, "scaling", "weak"));
    if (scaling == "weak") {
        spec.scaling = ScalingMode::Weak;
    } else if (scaling == "strong") {
        spec.scaling = ScalingMode::Strong;
    } else {
        return Status::invalidArgument("bad scaling '", scaling,
                                       "' (want weak | strong)");
    }
    ENA_ASSIGN_OR_RETURN(spec.syncsPerSecond,
                         wire::tryGetNumber(req, "syncs_per_second",
                                            spec.syncsPerSecond));
    return spec;
}

} // anonymous namespace

std::string
EvalService::handle(const wire::JsonValue &request)
{
    requests_.fetch_add(1, std::memory_order_relaxed);

    std::string line;
    JsonWriter out(&line);
    // Echo the request id (any JSON value; null when absent) so
    // clients can match responses to requests.
    out.beginObject().key("id");
    if (const JsonValue *id = request.find("id"))
        out.value(*id);
    else
        out.null();
    const std::size_t envelope = line.size();

    Expected<std::string> op = wire::tryGetString(request, "op");
    Status status = op.status();
    if (op.ok()) {
        out.key("ok").boolean(true).key("result");
        status = dispatch(*op, request, out);
    }
    if (!status.ok()) {
        line.resize(envelope);   // drop what the op wrote before failing
        writeError(out, status);
    }
    out.endObject();
    return line;
}

std::string
EvalService::handleLine(const std::string &line)
{
    Expected<JsonValue> request = wire::tryParseJson(line);
    if (!request.ok())
        return errorResponse(request.status());
    return handle(*request);
}

std::string
EvalService::errorResponse(const Status &why)
{
    requests_.fetch_add(1, std::memory_order_relaxed);
    std::string line;
    JsonWriter out(&line);
    out.beginObject().key("id").null();
    writeError(out, why);
    out.endObject();
    return line;
}

void
EvalService::writeError(wire::JsonWriter &out, const Status &why)
{
    errors_.fetch_add(1, std::memory_order_relaxed);
    out.key("ok").boolean(false)
        .key("error").beginObject()
        .key("code").string(errorCodeName(why.code()))
        .key("message").string(why.message())
        .endObject();
}

const EvalService::Op EvalService::kOps[] = {
    {"cluster_eval", &EvalService::opClusterEval},
    {"eval_node", &EvalService::opEvalNode},
    {"ping", &EvalService::opPing},
    {"resilient_eval", &EvalService::opResilientEval},
    {"shutdown", &EvalService::opShutdown},
    {"stats", &EvalService::opStats},
    {"sweep", &EvalService::opSweep},
    {"table2", &EvalService::opTable2},
    {"taskgraph_eval", &EvalService::opTaskGraphEval},
};

Status
EvalService::dispatch(const std::string &op, const wire::JsonValue &req,
                      wire::JsonWriter &out)
{
    static_assert(std::size(kOps) == kNumOps, "kNumOps counts kOps");
    std::size_t slot = 0;
    while (slot < kNumOps && op != kOps[slot].name)
        ++slot;
    const char *name = slot < kNumOps ? kOps[slot].name : kUnknownOp;

    telemetry::ScopedSpan span("server", name);
    auto start = std::chrono::steady_clock::now();

    // Status is the only error channel across this boundary: an
    // unexpected exception maps to Internal.
    Status status;
    try {
        if (slot == kNumOps) {
            status = Status::notFound("unknown op '", op, "'");
        } else {
            const Handler handler = kOps[slot].handler;
            status = (this->*handler)(req, out);
        }
    } catch (const std::exception &e) {
        status = Status::internal("unhandled exception in op '", op,
                                  "': ", e.what());
    }

    double us = std::chrono::duration<double, std::micro>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    OpStats &stats = perOp_[slot];
    telemetry::Histogram *latency =
        stats.latency.load(std::memory_order_acquire);
    if (!latency) {
        // Find-or-create takes the registry lock: once per op.
        latency =
            &telemetry::histogram(std::string("server.latency_us.") + name);
        stats.latency.store(latency, std::memory_order_release);
    }
    latency->sample(us);
    stats.requests.fetch_add(1, std::memory_order_relaxed);
    return status;
}

Status
EvalService::opPing(const wire::JsonValue &, wire::JsonWriter &out)
{
    out.beginObject()
        .key("server").string("ena-server")
        .key("protocol").number(1)
        .endObject();
    return Status();
}

Status
EvalService::opStats(const wire::JsonValue &, wire::JsonWriter &out)
{
    ThreadPool &pool = ThreadPool::global();

    out.beginObject()
        .key("requests").number(static_cast<double>(requests_.load()))
        .key("errors").number(static_cast<double>(errors_.load()))
        .key("queue_depth")
        .number(static_cast<double>(queueDepthProbe_ ? queueDepthProbe_()
                                                     : 0));

    out.key("per_op").beginObject();
    for (std::size_t i = 0; i < perOp_.size(); ++i) {
        const std::uint64_t n =
            perOp_[i].requests.load(std::memory_order_relaxed);
        if (n > 0) {
            out.key(i < kNumOps ? kOps[i].name : kUnknownOp)
                .number(static_cast<double>(n));
        }
    }
    out.endObject();

    out.key("pool").beginObject()
        .key("threads").number(pool.threads())
        .key("tasks_executed")
        .number(static_cast<double>(pool.tasksExecuted()))
        .endObject();
    out.endObject();
    return Status();
}

Status
EvalService::opShutdown(const wire::JsonValue &, wire::JsonWriter &out)
{
    stop_.store(true);
    out.beginObject().key("stopping").boolean(true).endObject();
    return Status();
}

Status
EvalService::opEvalNode(const wire::JsonValue &req, wire::JsonWriter &out)
{
    ENA_ASSIGN_OR_RETURN(App app, appFromRequest(req));
    ENA_ASSIGN_OR_RETURN(Config cfg, configFromRequest(req));
    ENA_ASSIGN_OR_RETURN(NodeConfig node, tryNodeConfigFromConfig(cfg));

    const EvalResult r = eval_.evaluate(node, app);
    out.beginObject();
    writeEvalResultMembers(out, node, r);
    out.endObject();
    return Status();
}

Status
EvalService::opSweep(const wire::JsonValue &req, wire::JsonWriter &out)
{
    ENA_ASSIGN_OR_RETURN(App app, appFromRequest(req));
    ENA_ASSIGN_OR_RETURN(std::string axis,
                         wire::tryGetString(req, "axis"));
    ENA_ASSIGN_OR_RETURN(double from, wire::tryGetNumber(req, "from"));
    ENA_ASSIGN_OR_RETURN(double to, wire::tryGetNumber(req, "to"));
    ENA_ASSIGN_OR_RETURN(double step, wire::tryGetNumber(req, "step"));
    // sweep_tool's enumeration, so a server-side sweep reproduces the
    // local CLI point-for-point.
    ENA_ASSIGN_OR_RETURN(std::vector<double> values,
                         trySweepValues(from, to, step));

    ENA_ASSIGN_OR_RETURN(Config cfgText, configFromRequest(req));
    ENA_ASSIGN_OR_RETURN(NodeConfig base,
                         tryNodeConfigFromConfig(cfgText));
    ENA_ASSIGN_OR_RETURN(std::vector<NodeConfig> configs,
                         trySweepConfigs(base, axis, values));

    // Evaluate the points in chunks on the shared pool; each chunk
    // writes only its own slots, so the bytes match any thread count.
    const std::size_t n = values.size();
    const std::size_t chunk =
        sweepChunkSize(n, ThreadPool::global().threads());
    const std::size_t chunks = (n + chunk - 1) / chunk;
    std::vector<EvalResult> results(n);
    parallel_for(chunks, [&](std::size_t c) {
        const std::size_t lo = c * chunk;
        const std::size_t hi = std::min(n, lo + chunk);
        for (std::size_t i = lo; i < hi; ++i)
            results[i] = eval_.evaluate(configs[i], app);
    });

    out.beginObject()
        .key("app").string(appName(app))
        .key("axis").string(axis)
        .key("points").beginArray();
    for (std::size_t i = 0; i < n; ++i) {
        out.beginObject();
        writeEvalResultMembers(out, configs[i], results[i]);
        out.key("value").number(values[i]).endObject();
    }
    out.endArray().endObject();
    return Status();
}

Status
EvalService::opTable2(const wire::JsonValue &req, wire::JsonWriter &out)
{
    ENA_ASSIGN_OR_RETURN(double budget,
                         wire::tryGetNumber(req, "budget_w", 160.0));
    if (!(budget > 0.0) || !std::isfinite(budget))
        return Status::outOfRange("bad budget_w ", budget);

    DesignSpaceExplorer dse(eval_, DseGrid::paperGrid(), budget);

    // findBestMean/tableII fatal() on an infeasible budget; probe with
    // the quarantining sweep first so a tiny budget surfaces as a
    // structured error instead of taking the server down.
    std::vector<DsePoint> pts = dse.sweep(PowerOptConfig{});
    const DsePoint *best = nullptr;
    for (const DsePoint &p : pts) {
        if (!p.ok || !p.feasible)
            continue;
        if (!best || p.geomeanFlops > best->geomeanFlops)
            best = &p;
    }
    if (!best) {
        return Status::failedPrecondition(
            "no feasible configuration under ", budget, " W budget");
    }

    NodeConfig bestMean = best->cfg;
    std::vector<TableIIRow> rows = dse.tableII(bestMean);

    out.beginObject().key("budget_w").number(budget).key("best_mean");
    writeNodeConfig(out, bestMean);
    out.key("rows").beginArray();
    for (const TableIIRow &row : rows) {
        out.beginObject().key("app").string(appName(row.app));
        out.key("best_config");
        writeNodeConfig(out, row.bestConfig);
        out.key("benefit_no_opt_pct").number(row.benefitNoOptPct);
        out.key("best_config_opt");
        writeNodeConfig(out, row.bestConfigOpt);
        out.key("benefit_with_opt_pct").number(row.benefitWithOptPct);
        out.endObject();
    }
    out.endArray().endObject();
    return Status();
}

Status
EvalService::opClusterEval(const wire::JsonValue &req,
                           wire::JsonWriter &out)
{
    ENA_ASSIGN_OR_RETURN(App app, appFromRequest(req));
    ENA_ASSIGN_OR_RETURN(Config cfgText, configFromRequest(req));
    ENA_ASSIGN_OR_RETURN(NodeConfig node,
                         tryNodeConfigFromConfig(cfgText));
    ENA_ASSIGN_OR_RETURN(ClusterConfig cluster,
                         tryClusterConfigFromConfig(cfgText));
    ENA_ASSIGN_OR_RETURN(CommSpec spec, commSpecFromRequest(req));

    ClusterEvaluator ce(eval_, cluster);
    writeClusterResult(out, ce.evaluate(node, app, spec));
    return Status();
}

Status
EvalService::opResilientEval(const wire::JsonValue &req,
                             wire::JsonWriter &out)
{
    ENA_ASSIGN_OR_RETURN(App app, appFromRequest(req));
    ENA_ASSIGN_OR_RETURN(Config cfgText, configFromRequest(req));
    ENA_ASSIGN_OR_RETURN(NodeConfig node,
                         tryNodeConfigFromConfig(cfgText));
    ENA_ASSIGN_OR_RETURN(ClusterConfig cluster,
                         tryClusterConfigFromConfig(cfgText));
    ENA_ASSIGN_OR_RETURN(ResilienceSpec spec,
                         tryResilienceSpecFromConfig(cfgText));
    ENA_ASSIGN_OR_RETURN(CommSpec comm, commSpecFromRequest(req));

    ClusterEvaluator ce(eval_, cluster);
    ResilientClusterEvaluator rce(ce, spec);
    ResilientResult r = rce.evaluate(node, app, comm);

    out.beginObject().key("cluster");
    writeClusterResult(out, r.cluster);
    out.key("node_fit").number(r.nodeFit)
        .key("system_mttf_hours").number(r.systemMttfHours)
        .key("interruption_mttf_hours").number(r.interruptionMttfHours)
        .key("ckpt_efficiency").number(r.ckptEfficiency)
        .key("rmt_slowdown").number(r.rmtSlowdown)
        .key("effective_exaflops").number(r.effectiveExaflops)
        .key("system_mw").number(r.systemMw)
        .key("effective_exaflops_per_mw")
        .number(r.effectiveExaflopsPerMw())
        .endObject();
    return Status();
}

Status
EvalService::opTaskGraphEval(const wire::JsonValue &req,
                             wire::JsonWriter &out)
{
    ENA_ASSIGN_OR_RETURN(Config cfgText, configFromRequest(req));
    ENA_ASSIGN_OR_RETURN(NodeConfig node,
                         tryNodeConfigFromConfig(cfgText));
    ENA_ASSIGN_OR_RETURN(ClusterConfig cluster,
                         tryClusterConfigFromConfig(cfgText));
    ENA_ASSIGN_OR_RETURN(TaskGraphSpec spec,
                         tryTaskGraphSpecFromConfig(cfgText));
    ENA_ASSIGN_OR_RETURN(
        std::string sched,
        wire::tryGetString(req, "scheduler",
                           dagSchedulerName(DagScheduler::CriticalPath)));
    ENA_ASSIGN_OR_RETURN(DagScheduler policy,
                         tryDagSchedulerFromName(sched));
    ENA_TRY(node.tryValidate());
    ENA_TRY(cluster.tryValidate());

    TaskDag dag = spec.build();
    ENA_TRY(dag.tryValidate());
    InterNodeNetwork net(cluster);
    DagCostModel cost = DagCostModel::build(dag, eval_, node, net);
    Schedule s = scheduleDag(dag, cost, policy, cluster.nodes);

    out.beginObject()
        .key("dag").string(dag.label())
        .key("shape").string(dagShapeName(spec.shape))
        .key("app").string(appName(spec.app))
        .key("tasks").number(static_cast<double>(dag.size()))
        .key("edges").number(static_cast<double>(dag.numEdges()))
        .key("scheduler").string(dagSchedulerName(policy))
        .key("nodes").number(cluster.nodes)
        .key("makespan_seconds").number(s.makespanSeconds)
        .key("critical_path_seconds")
        .number(criticalPathSeconds(dag, cost))
        .key("total_task_seconds").number(s.totalCompSeconds)
        .key("comm_seconds").number(s.totalCommSeconds)
        .key("edges_costed").number(static_cast<double>(s.edgesCosted))
        .key("speedup").number(s.speedup())
        .key("efficiency").number(s.efficiency())
        .key("utilization").number(s.utilization())
        .endObject();
    return Status();
}

} // namespace ena
