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

telemetry::Counter &
requestsCounter()
{
    static telemetry::Counter &c = telemetry::counter(
        "server.requests", "requests handled by the evaluation server");
    return c;
}

telemetry::Counter &
errorsCounter()
{
    static telemetry::Counter &c = telemetry::counter(
        "server.errors", "requests answered with an error response");
    return c;
}

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

/** The per-point payload every evaluation op shares. */
JsonValue
evalResultJson(const NodeConfig &cfg, const EvalResult &r)
{
    JsonValue o = JsonValue::object();
    o.set("app", appName(r.app));
    o.set("label", cfg.label());
    o.set("cus", cfg.cus);
    o.set("freq_ghz", cfg.freqGhz);
    o.set("bw_tbs", cfg.bwTbs);
    o.set("ops_per_byte", r.perf.opsPerByte);
    o.set("flops", r.perf.flops);
    o.set("teraflops", r.teraflops());
    o.set("cu_utilization", r.perf.activity.cuUtilization);
    o.set("traffic_gbs", r.perf.trafficGbs);
    o.set("memory_bound", r.perf.memoryBound);
    o.set("budget_w", r.power.budgetPower());
    o.set("package_w", r.power.packagePower());
    o.set("total_w", r.power.total());
    o.set("gflops_per_w", r.perf.flops / 1e9 / r.power.total());
    return o;
}

JsonValue
nodeConfigJson(const NodeConfig &cfg)
{
    JsonValue o = JsonValue::object();
    o.set("cus", cfg.cus);
    o.set("freq_ghz", cfg.freqGhz);
    o.set("bw_tbs", cfg.bwTbs);
    o.set("label", cfg.label());
    return o;
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

wire::JsonValue
EvalService::handle(const wire::JsonValue &request)
{
    requests_.fetch_add(1, std::memory_order_relaxed);
    requestsCounter().add();

    JsonValue response = JsonValue::object();
    // Echo the request id (any JSON value; null when absent) so
    // clients can match responses to requests.
    if (const JsonValue *id = request.find("id"))
        response.set("id", *id);
    else
        response.set("id", JsonValue());

    Expected<std::string> op = wire::tryGetString(request, "op");
    Expected<JsonValue> result =
        op.ok() ? dispatch(*op, request) : Expected<JsonValue>(op.status());

    if (result.ok()) {
        response.set("ok", true);
        response.set("result", std::move(*result));
    } else {
        errors_.fetch_add(1, std::memory_order_relaxed);
        errorsCounter().add();
        JsonValue err = JsonValue::object();
        err.set("code", errorCodeName(result.status().code()));
        err.set("message", result.status().message());
        response.set("ok", false);
        response.set("error", std::move(err));
    }
    return response;
}

std::string
EvalService::handleLine(const std::string &line)
{
    Expected<JsonValue> request = wire::tryParseJson(line);
    if (!request.ok()) {
        JsonValue response = JsonValue::object();
        JsonValue err = JsonValue::object();
        err.set("code", errorCodeName(request.status().code()));
        err.set("message", request.status().message());
        response.set("id", JsonValue());
        response.set("ok", false);
        response.set("error", std::move(err));
        requests_.fetch_add(1, std::memory_order_relaxed);
        requestsCounter().add();
        errors_.fetch_add(1, std::memory_order_relaxed);
        errorsCounter().add();
        return response.dump();
    }
    return handle(*request).dump();
}

Expected<wire::JsonValue>
EvalService::dispatch(const std::string &op, const wire::JsonValue &req)
{
    telemetry::ScopedSpan span("server", op);
    auto start = std::chrono::steady_clock::now();

    Expected<JsonValue> result = [&]() -> Expected<JsonValue> {
        // Status is the only error channel across this boundary: the
        // evaluation layers throw StatusError from pool tasks (after
        // retries), and anything else unexpected maps to Internal.
        try {
            if (op == "ping")
                return opPing();
            if (op == "stats")
                return opStats();
            if (op == "shutdown")
                return opShutdown();
            if (op == "eval_node")
                return opEvalNode(req);
            if (op == "sweep")
                return opSweep(req);
            if (op == "table2")
                return opTable2(req);
            if (op == "cluster_eval")
                return opClusterEval(req);
            if (op == "resilient_eval")
                return opResilientEval(req);
            if (op == "taskgraph_eval")
                return opTaskGraphEval(req);
            return Status::notFound("unknown op '", op, "'");
        } catch (const StatusError &e) {
            return e.status();
        } catch (const std::exception &e) {
            return Status::internal("unhandled exception in op '", op,
                                    "': ", e.what());
        }
    }();

    double us = std::chrono::duration<double, std::micro>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    telemetry::histogram("server.latency_us." + op,
                         "request latency (us) of op " + op)
        .sample(us);
    {
        std::lock_guard<std::mutex> lock(perOpMu_);
        ++perOp_[op];
    }
    return result;
}

Expected<wire::JsonValue>
EvalService::opPing() const
{
    JsonValue r = JsonValue::object();
    r.set("server", "ena-server");
    r.set("protocol", 1);
    return r;
}

Expected<wire::JsonValue>
EvalService::opStats()
{
    ThreadPool &pool = ThreadPool::global();

    JsonValue r = JsonValue::object();
    r.set("requests", static_cast<double>(requests_.load()));
    r.set("errors", static_cast<double>(errors_.load()));
    r.set("queue_depth",
          static_cast<double>(queueDepthProbe_ ? queueDepthProbe_()
                                               : 0));

    JsonValue perOp = JsonValue::object();
    {
        std::lock_guard<std::mutex> lock(perOpMu_);
        for (const auto &kv : perOp_)
            perOp.set(kv.first, static_cast<double>(kv.second));
    }
    r.set("per_op", std::move(perOp));

    JsonValue p = JsonValue::object();
    p.set("threads", pool.threads());
    p.set("tasks_executed", static_cast<double>(pool.tasksExecuted()));
    r.set("pool", std::move(p));
    return r;
}

Expected<wire::JsonValue>
EvalService::opShutdown()
{
    stop_.store(true);
    JsonValue r = JsonValue::object();
    r.set("stopping", true);
    return r;
}

Expected<wire::JsonValue>
EvalService::opEvalNode(const wire::JsonValue &req)
{
    ENA_ASSIGN_OR_RETURN(App app, appFromRequest(req));
    ENA_ASSIGN_OR_RETURN(Config cfg, configFromRequest(req));
    ENA_ASSIGN_OR_RETURN(NodeConfig node, tryNodeConfigFromConfig(cfg));

    return evalResultJson(node, eval_.evaluate(node, app));
}

Expected<wire::JsonValue>
EvalService::opSweep(const wire::JsonValue &req)
{
    ENA_ASSIGN_OR_RETURN(App app, appFromRequest(req));
    ENA_ASSIGN_OR_RETURN(std::string axis,
                         wire::tryGetString(req, "axis"));
    ENA_ASSIGN_OR_RETURN(double from, wire::tryGetNumber(req, "from"));
    ENA_ASSIGN_OR_RETURN(double to, wire::tryGetNumber(req, "to"));
    ENA_ASSIGN_OR_RETURN(double step, wire::tryGetNumber(req, "step"));
    if (axis != "cus" && axis != "freq" && axis != "bw") {
        return Status::invalidArgument("bad axis '", axis,
                                       "' (want cus | freq | bw)");
    }
    if (!(step > 0.0) || !std::isfinite(from) || !std::isfinite(to) ||
        to < from)
        return Status::outOfRange("bad sweep range [", from, ", ", to,
                                  "] step ", step);

    ENA_ASSIGN_OR_RETURN(Config cfgText, configFromRequest(req));
    ENA_ASSIGN_OR_RETURN(NodeConfig base,
                         tryNodeConfigFromConfig(cfgText));

    // Exactly sweep_tool's axis enumeration, so a server-side sweep
    // reproduces the local CLI point-for-point.
    std::vector<double> values;
    for (double v = from; v <= to + 1e-9; v += step)
        values.push_back(v);
    if (values.size() > 1000000)
        return Status::outOfRange("sweep too large (", values.size(),
                                  " points)");

    std::vector<NodeConfig> configs(values.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
        NodeConfig cfg = base;
        if (axis == "cus")
            cfg.cus = static_cast<int>(values[i]);
        else if (axis == "freq")
            cfg.freqGhz = values[i];
        else
            cfg.bwTbs = values[i];
        ENA_TRY(cfg.tryValidate().withContext("sweep point ", i,
                                              " (value ", values[i],
                                              ")"));
        configs[i] = cfg;
    }

    // Evaluate the points in chunks on the shared pool. Chunk tasks
    // are where ENA_FAULT_INJECT strikes; the pool's retry policy
    // absorbs transient faults without perturbing results.
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

    JsonValue points = JsonValue::array();
    for (std::size_t i = 0; i < n; ++i) {
        JsonValue p = evalResultJson(configs[i], results[i]);
        p.set("value", values[i]);
        points.push(std::move(p));
    }
    JsonValue r = JsonValue::object();
    r.set("app", appName(app));
    r.set("axis", axis);
    r.set("points", std::move(points));
    return r;
}

Expected<wire::JsonValue>
EvalService::opTable2(const wire::JsonValue &req)
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

    JsonValue arr = JsonValue::array();
    for (const TableIIRow &row : rows) {
        JsonValue o = JsonValue::object();
        o.set("app", appName(row.app));
        o.set("best_config", nodeConfigJson(row.bestConfig));
        o.set("benefit_no_opt_pct", row.benefitNoOptPct);
        o.set("best_config_opt", nodeConfigJson(row.bestConfigOpt));
        o.set("benefit_with_opt_pct", row.benefitWithOptPct);
        arr.push(std::move(o));
    }
    JsonValue r = JsonValue::object();
    r.set("budget_w", budget);
    r.set("best_mean", nodeConfigJson(bestMean));
    r.set("rows", std::move(arr));
    return r;
}

namespace {

JsonValue
clusterResultJson(const ClusterResult &r)
{
    JsonValue o = JsonValue::object();
    o.set("app", appName(r.app));
    o.set("node_teraflops", r.node.teraflops());
    o.set("node_total_w", r.node.power.total());
    o.set("comm_efficiency", r.commEfficiency);
    o.set("analytic_exaflops", r.analyticExaflops);
    o.set("system_exaflops", r.systemExaflops);
    o.set("analytic_mw", r.analyticMw);
    o.set("network_mw", r.networkMw);
    o.set("system_mw", r.systemMw);
    return o;
}

} // anonymous namespace

Expected<wire::JsonValue>
EvalService::opClusterEval(const wire::JsonValue &req)
{
    ENA_ASSIGN_OR_RETURN(App app, appFromRequest(req));
    ENA_ASSIGN_OR_RETURN(Config cfgText, configFromRequest(req));
    ENA_ASSIGN_OR_RETURN(NodeConfig node,
                         tryNodeConfigFromConfig(cfgText));
    ENA_ASSIGN_OR_RETURN(ClusterConfig cluster,
                         tryClusterConfigFromConfig(cfgText));
    ENA_ASSIGN_OR_RETURN(CommSpec spec, commSpecFromRequest(req));

    ClusterEvaluator ce(eval_, cluster);
    ClusterResult r = ce.evaluate(node, app, spec);
    return clusterResultJson(r);
}

Expected<wire::JsonValue>
EvalService::opResilientEval(const wire::JsonValue &req)
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

    JsonValue o = JsonValue::object();
    o.set("cluster", clusterResultJson(r.cluster));
    o.set("node_fit", r.nodeFit);
    o.set("system_mttf_hours", r.systemMttfHours);
    o.set("interruption_mttf_hours", r.interruptionMttfHours);
    o.set("ckpt_efficiency", r.ckptEfficiency);
    o.set("rmt_slowdown", r.rmtSlowdown);
    o.set("effective_exaflops", r.effectiveExaflops);
    o.set("system_mw", r.systemMw);
    o.set("effective_exaflops_per_mw", r.effectiveExaflopsPerMw());
    return o;
}

Expected<wire::JsonValue>
EvalService::opTaskGraphEval(const wire::JsonValue &req)
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

    JsonValue o = JsonValue::object();
    o.set("dag", dag.label());
    o.set("shape", dagShapeName(spec.shape));
    o.set("app", appName(spec.app));
    o.set("tasks", static_cast<double>(dag.size()));
    o.set("edges", static_cast<double>(dag.numEdges()));
    o.set("scheduler", dagSchedulerName(policy));
    o.set("nodes", cluster.nodes);
    o.set("makespan_seconds", s.makespanSeconds);
    o.set("critical_path_seconds", criticalPathSeconds(dag, cost));
    o.set("total_task_seconds", s.totalCompSeconds);
    o.set("comm_seconds", s.totalCommSeconds);
    o.set("edges_costed", static_cast<double>(s.edgesCosted));
    o.set("speedup", s.speedup());
    o.set("efficiency", s.efficiency());
    o.set("utilization", s.utilization());
    return o;
}

} // namespace ena
