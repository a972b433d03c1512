/**
 * @file
 * server_mix: the service path. Two client connections on two threads
 * drive an in-process EvalServer (2 workers, Unix socket) in a closed
 * loop, as ena-client and sweep_tool --server callers do: each client
 * sends its next request when the previous reply arrives. Decode,
 * encode and the socket dominate (~22 us per request against ~0.17 us
 * of model arithmetic), and the shared EvalMemoCache sees cross-request
 * hits from the eval_node hot set rather than reuse within a search.
 *
 * Check: every response is bit-identical to the local library call on
 * the same input (NodeEvaluator::evaluate, scheduleDag,
 * ClusterEvaluator::evaluate), computed after the timed loop, and each
 * malformed request returns its expected error code.
 */

#include <algorithm>
#include <atomic>
#include <future>
#include <mutex>
#include <optional>
#include <thread>

#include "bench.hh"
#include "cluster/cluster_config_io.hh"
#include "cluster/cluster_evaluator.hh"
#include "common/node_config_io.hh"
#include "core/eval_memo.hh"
#include "inputs.hh"
#include "server/client.hh"
#include "server/eval_service.hh"
#include "server/server.hh"
#include "taskgraph/scheduler.hh"
#include "taskgraph/task_dag_io.hh"
#include "util/config.hh"

namespace perfbench {

using namespace ena;
using wire::JsonValue;

namespace {

constexpr int kWorkers = 2;
constexpr int kClients = 2;
/** Bounded waits: a hung daemon fails the run instead of hanging it. */
constexpr int kStartAttempts = 200;       // x 10 ms
constexpr double kStopSeconds = 10.0;
constexpr double kReplySeconds = 30.0;

/** Spans of the closed loop (traced half of a server_mix run). */
const char *const kRoundTripSpan[kReqKinds] = {
    "server.roundtrip.eval_node", "server.roundtrip.sweep",
    "server.roundtrip.taskgraph_eval", "server.roundtrip.cluster_eval",
    "server.roundtrip.malformed"};
/** Spans of the probe: one client, no other load. */
const char *const kProbeRoundTripSpan[kReqKinds] = {
    "probe.roundtrip.eval_node", "probe.roundtrip.sweep",
    "probe.roundtrip.taskgraph_eval", "probe.roundtrip.cluster_eval",
    "probe.roundtrip.malformed"};
const char *const kHandleSpan[kReqKinds] = {
    "server.handle.eval_node", "server.handle.sweep",
    "server.handle.taskgraph_eval", "server.handle.cluster_eval",
    "server.handle.malformed"};

const char *const kEvalFields[] = {"flops",     "budget_w",
                                   "package_w", "total_w",
                                   "traffic_gbs", "cu_utilization",
                                   "ops_per_byte"};
const char *const kSweepFields[] = {"value",  "cus",     "freq_ghz",
                                    "bw_tbs", "flops",   "budget_w",
                                    "total_w"};
const char *const kDagFields[] = {
    "tasks",          "edges",
    "nodes",          "makespan_seconds",
    "critical_path_seconds", "total_task_seconds",
    "comm_seconds",   "edges_costed"};
const char *const kClusterFields[] = {
    "node_teraflops",    "node_total_w",    "comm_efficiency",
    "analytic_exaflops", "system_exaflops", "analytic_mw",
    "network_mw",        "system_mw"};

std::uint64_t
codeDigest(const std::string &code)
{
    return Digest().add(std::string("error:") + code).value();
}

/** Add the named number fields of @p o; false when one is missing. */
template <std::size_t N>
bool
addFields(Digest &d, const JsonValue &o, const char *const (&keys)[N])
{
    for (const char *k : keys) {
        const JsonValue *v = o.find(k);
        if (!v || !v->isNumber())
            return false;
        d.add(v->number());
    }
    return true;
}

bool
addBool(Digest &d, const JsonValue &o, const char *key)
{
    const JsonValue *v = o.find(key);
    if (!v || !v->isBool())
        return false;
    d.add(v->boolean());
    return true;
}

/** Digest of a successful response's result; nullopt if malformed. */
std::optional<std::uint64_t>
resultDigest(ReqKind kind, const JsonValue &result)
{
    Digest d;
    bool ok = true;
    switch (kind) {
      case ReqKind::EvalNode:
        ok = addFields(d, result, kEvalFields) &&
             addBool(d, result, "memory_bound");
        break;
      case ReqKind::Sweep: {
        const JsonValue *pts = result.find("points");
        ok = pts && pts->isArray();
        for (std::size_t i = 0; ok && i < pts->size(); ++i) {
            ok = addFields(d, pts->at(i), kSweepFields) &&
                 addBool(d, pts->at(i), "memory_bound");
        }
        break;
      }
      case ReqKind::TaskGraph:
        ok = addFields(d, result, kDagFields);
        break;
      case ReqKind::Cluster:
        ok = addFields(d, result, kClusterFields);
        break;
      case ReqKind::Malformed:
        ok = false;   // a malformed request must not succeed
        break;
    }
    if (!ok)
        return std::nullopt;
    return d.value();
}

void
addEval(Digest &d, const EvalResult &r)
{
    d.add(r.perf.flops)
        .add(r.power.budgetPower())
        .add(r.power.packagePower())
        .add(r.power.total())
        .add(r.perf.trafficGbs)
        .add(r.perf.activity.cuUtilization)
        .add(r.perf.opsPerByte);
}

std::string
stringParam(const Request &q, const char *key)
{
    const JsonValue *v = q.params.find(key);
    return v && v->isString() ? v->str() : std::string();
}

double
numberParam(const Request &q, const char *key)
{
    const JsonValue *v = q.params.find(key);
    return v && v->isNumber() ? v->number() : 0.0;
}

/** The local library's answer to @p q: the oracle for the server. */
Expected<std::uint64_t>
localDigest(const Request &q, const NodeEvaluator &eval)
{
    if (q.kind == ReqKind::Malformed)
        return codeDigest(q.expectCode);

    ENA_ASSIGN_OR_RETURN(Config text, Config::tryFromString(
                                          stringParam(q, "config"),
                                          "request"));
    ENA_ASSIGN_OR_RETURN(NodeConfig node, tryNodeConfigFromConfig(text));
    Digest d;
    switch (q.kind) {
      case ReqKind::EvalNode: {
        ENA_ASSIGN_OR_RETURN(App app, tryAppFromName(stringParam(q, "app")));
        EvalResult r = eval.evaluate(node, app);
        addEval(d, r);
        d.add(r.perf.memoryBound);
        break;
      }
      case ReqKind::Sweep: {
        ENA_ASSIGN_OR_RETURN(App app, tryAppFromName(stringParam(q, "app")));
        const std::string axis = stringParam(q, "axis");
        const double from = numberParam(q, "from");
        const double to = numberParam(q, "to");
        const double step = numberParam(q, "step");
        // sweep_tool's axis enumeration, as the server runs it.
        for (double v = from; v <= to + 1e-9; v += step) {
            NodeConfig cfg = node;
            if (axis == "cus")
                cfg.cus = static_cast<int>(v);
            else if (axis == "freq")
                cfg.freqGhz = v;
            else
                cfg.bwTbs = v;
            EvalResult r = eval.evaluate(cfg, app);
            d.add(v)
                .add(static_cast<double>(cfg.cus))
                .add(cfg.freqGhz)
                .add(cfg.bwTbs)
                .add(r.perf.flops)
                .add(r.power.budgetPower())
                .add(r.power.total())
                .add(r.perf.memoryBound);
        }
        break;
      }
      case ReqKind::TaskGraph: {
        ENA_ASSIGN_OR_RETURN(ClusterConfig cluster,
                             tryClusterConfigFromConfig(text));
        ENA_ASSIGN_OR_RETURN(TaskGraphSpec spec,
                             tryTaskGraphSpecFromConfig(text));
        ENA_ASSIGN_OR_RETURN(DagScheduler policy,
                             tryDagSchedulerFromName(
                                 stringParam(q, "scheduler")));
        TaskDag dag = spec.build();
        InterNodeNetwork net(cluster);
        std::optional<DagCostModel> cost;
        {
            Span s("taskgraph.cost_model");
            cost = DagCostModel::build(dag, eval, node, net);
        }
        Schedule sched;
        {
            Span s("taskgraph.schedule");
            sched = scheduleDag(dag, *cost, policy, cluster.nodes);
        }
        d.add(static_cast<double>(dag.size()))
            .add(static_cast<double>(dag.numEdges()))
            .add(static_cast<double>(cluster.nodes))
            .add(sched.makespanSeconds)
            .add(criticalPathSeconds(dag, *cost))
            .add(sched.totalCompSeconds)
            .add(sched.totalCommSeconds)
            .add(static_cast<double>(sched.edgesCosted));
        break;
      }
      case ReqKind::Cluster: {
        ENA_ASSIGN_OR_RETURN(App app, tryAppFromName(stringParam(q, "app")));
        ENA_ASSIGN_OR_RETURN(ClusterConfig cluster,
                             tryClusterConfigFromConfig(text));
        ClusterEvaluator ce(eval, cluster);
        ClusterResult r;
        {
            Span s("cluster.evaluate");
            r = ce.evaluate(node, app, CommSpec{});
        }
        d.add(r.node.teraflops())
            .add(r.node.power.total())
            .add(r.commEfficiency)
            .add(r.analyticExaflops)
            .add(r.systemExaflops)
            .add(r.analyticMw)
            .add(r.networkMw)
            .add(r.systemMw);
        break;
      }
      case ReqKind::Malformed:
        break;
    }
    return d.value();
}

/** Digest of a client call's outcome (result or error code). */
std::uint64_t
callDigest(const Request &q, const Expected<JsonValue> &r,
           std::string *error)
{
    if (r.ok()) {
        std::optional<std::uint64_t> d = resultDigest(q.kind, *r);
        if (!d)
            *error = q.op + ": unexpected result shape";
        return d.value_or(0);
    }
    if (q.kind != ReqKind::Malformed)
        *error = q.op + ": " + r.status().toString();
    return codeDigest(errorCodeName(r.status().code()));
}

ClientOptions
clientOptions(const Endpoint &ep)
{
    ClientOptions c;
    c.endpoint = ep;
    c.retry = RetryPolicy::none();
    c.timeoutSec = kReplySeconds;
    return c;
}

/** Ping until the server answers; false (never a hang) on timeout. */
bool
waitForServer(ServerClient &client)
{
    for (int i = 0; i < kStartAttempts; ++i) {
        if (client.ping().ok())
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
}

/** A running server plus its connected clients. */
struct Harness
{
    std::unique_ptr<EvalServer> server;
    std::vector<std::unique_ptr<ServerClient>> clients;
};

Expected<Harness>
startHarness(const std::string &path, int clients)
{
    ServerOptions so;
    so.endpoint = Endpoint::unixPath(path);
    so.workers = kWorkers;
    Harness h;
    ENA_ASSIGN_OR_RETURN(h.server, EvalServer::start(so));
    for (int c = 0; c < clients; ++c) {
        h.clients.push_back(std::make_unique<ServerClient>(
            clientOptions(h.server->endpoint())));
        if (!waitForServer(*h.clients.back()))
            return Status::ioError("server at ", path,
                                   " did not answer ping");
    }
    return h;
}

/**
 * Stop the server within kStopSeconds. A stop that hangs ends the
 * process (abortRun) instead of hanging the benchmark.
 */
void
stopHarness(Harness &h, const Options &opts, RunReport &report)
{
    h.clients.clear();
    std::promise<void> done;
    std::future<void> stopped = done.get_future();
    EvalServer *server = h.server.get();
    std::thread stopper([&] {
        server->stop();
        done.set_value();
    });
    if (stopped.wait_for(std::chrono::duration<double>(kStopSeconds)) !=
        std::future_status::ready) {
        abortRun(opts, report, "server did not stop within " +
                                   std::to_string(kStopSeconds) + " s");
    }
    stopper.join();
    h.server.reset();
}

/** Set-up: the pool, server start and kClients connects (ping). */
Harness
setUp(const Options &opts, RunReport &report)
{
    ThreadPool::global();
    Expected<Harness> started = startHarness(opts.socketPath, kClients);
    if (!started.ok())
        abortRun(opts, report, started.status().toString());
    return std::move(*started);
}

/** Per-thread record of one client's requests. */
struct ClientLog
{
    std::vector<double> latenciesMs;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> digests;
    std::vector<std::string> errors;
};

/**
 * Closed loop: each client claims the next request index, sends it
 * and waits for the reply, until @p seconds elapse. Returns wall s.
 */
double
closedLoop(Harness &h, std::uint64_t seed,
           const std::vector<std::string> &hot,
           std::atomic<std::uint64_t> &next, double seconds,
           std::vector<double> &latencies,
           std::vector<std::pair<std::uint64_t, std::uint64_t>> &digests,
           RunReport &report)
{
    std::vector<ClientLog> logs(h.clients.size());
    auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < h.clients.size(); ++c) {
        threads.emplace_back([&, c] {
            ServerClient &client = *h.clients[c];
            ClientLog &log = logs[c];
            while (secondsSince(t0) < seconds) {
                const std::uint64_t i = next.fetch_add(1);
                Request q = serverRequest(seed, i, hot);
                auto s = std::chrono::steady_clock::now();
                Expected<JsonValue> r = [&] {
                    Span span(kRoundTripSpan[static_cast<int>(q.kind)],
                              static_cast<std::int64_t>(i));
                    return client.call(q.op, q.params);
                }();
                log.latenciesMs.push_back(secondsSince(s) * 1e3);
                std::string error;
                log.digests.emplace_back(i, callDigest(q, r, &error));
                if (!error.empty())
                    log.errors.push_back(
                        "request " + std::to_string(i) + " " + error);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    const double wall = secondsSince(t0);
    for (ClientLog &log : logs) {
        latencies.insert(latencies.end(), log.latenciesMs.begin(),
                         log.latenciesMs.end());
        digests.insert(digests.end(), log.digests.begin(),
                       log.digests.end());
        report.attempted += log.latenciesMs.size();
        for (const std::string &e : log.errors)
            report.fail(e);
    }
    return wall;
}

/** Compare every answered request with the local oracle. */
void
checkAgainstOracle(
    std::uint64_t seed, const std::vector<std::string> &hot,
    std::vector<std::pair<std::uint64_t, std::uint64_t>> &digests,
    RunReport &report)
{
    NodeEvaluator eval;
    std::sort(digests.begin(), digests.end());
    Digest first;   // output digest over a fixed request prefix
    constexpr std::uint64_t kDigestPrefix = 1000;
    for (const auto &[i, got] : digests) {
        Request q = serverRequest(seed, i, hot);
        Expected<std::uint64_t> want = localDigest(q, eval);
        if (!want.ok()) {
            report.fail("request " + std::to_string(i) +
                        ": local call failed: " +
                        want.status().toString());
        } else if (*want != got) {
            report.fail("request " + std::to_string(i) + " (" + q.op +
                        ") differs from the local library call");
        }
        if (i < kDigestPrefix)
            first.add(got);
    }
    report.digests["server_responses_first1000"] = first.hex();
}

} // anonymous namespace

void
runServerMix(const Options &opts, RunReport &report)
{
    const std::vector<std::string> hot = hotConfigs(opts.seed);
    Harness h = setUp(opts, report);

    // Request indices continue across the untraced and traced halves,
    // so both see the same warm hot set and only fresh inputs.
    std::atomic<std::uint64_t> next{0};
    std::vector<std::pair<std::uint64_t, std::uint64_t>> digests;
    measure(opts, report, 1,
            [&](double seconds, std::size_t, std::vector<double> &lat) {
                return closedLoop(h, opts.seed, hot, next, seconds, lat,
                                  digests, report);
            });
    stopHarness(h, opts, report);
    checkAgainstOracle(opts.seed, hot, digests, report);
}

double
setUpServerMix(const Options &opts, RunReport &report,
               Clock::time_point started)
{
    Harness h = setUp(opts, report);
    const double seconds = secondsSince(started);
    stopHarness(h, opts, report);
    return seconds;
}

void
probeServer(const Options &opts, RunReport &report)
{
    constexpr std::uint64_t kRequests = 400;
    // Inputs from a seed of the probe's own, so none of them is in the
    // shared memo from a server_mix loop: every workload's probe starts
    // from the same memo contents for its requests.
    const std::uint64_t seed = streamSeed(opts.seed, 5);
    const std::vector<std::string> hot = hotConfigs(seed);
    const std::size_t since = tracer::count();   // this probe's spans only
    const EvalMemoCache &memo = EvalMemoCache::sharedInstance();
    const std::uint64_t hits0 = memo.hits();
    const std::uint64_t misses0 = memo.misses();
    NodeEvaluator eval;
    EvalService service;
    auto &L = report.layers;

    // Socket-free layers: parse, config decode, dispatch, encode.
    for (std::uint64_t i = 0; i < kRequests; ++i) {
        Request q = serverRequest(seed, i, hot);
        const auto id = static_cast<std::int64_t>(i);
        JsonValue req = q.params;
        req.set("op", q.op);
        req.set("id", static_cast<double>(i));
        const std::string line = req.dump();
        {
            Span s("server.wire_parse", id);
            if (!wire::tryParseJson(line).ok())
                report.fail("probe: request does not parse");
        }
        if (q.kind != ReqKind::Malformed) {
            Span s("server.config_decode", id);
            Expected<Config> c =
                Config::tryFromString(stringParam(q, "config"), "request");
            if (!c.ok() || !tryNodeConfigFromConfig(*c).ok())
                report.fail("probe: config does not decode");
        }
        std::string response;
        {
            Span s(kHandleSpan[static_cast<int>(q.kind)], id);
            response = service.handleLine(line);
        }
        Expected<JsonValue> parsed = wire::tryParseJson(response);
        if (!parsed.ok()) {
            report.fail("probe: response does not parse");
            continue;
        }
        {
            Span s("server.wire_dump", id);
            parsed->dump();
        }
        const JsonValue *ok = parsed->find("ok");
        const JsonValue *result = parsed->find("result");
        const JsonValue *error = parsed->find("error");
        std::optional<std::uint64_t> got;
        if (ok && ok->isBool() && ok->boolean() && result) {
            got = resultDigest(q.kind, *result);
        } else if (error && error->find("code") &&
                   error->find("code")->isString()) {
            got = codeDigest(error->find("code")->str());
        }
        Expected<std::uint64_t> want = localDigest(q, eval);
        if (!got || !want.ok() || *got != *want)
            report.fail("probe: handleLine differs on request " +
                        std::to_string(i));
    }

    // The same requests through a live server and one client.
    Expected<Harness> started =
        startHarness(opts.socketPath + ".probe", 1);
    if (!started.ok())
        abortRun(opts, report, started.status().toString());
    Harness h = std::move(*started);
    for (std::uint64_t i = 0; i < kRequests; ++i) {
        Request q = serverRequest(seed, i, hot);
        Expected<JsonValue> r = [&] {
            Span s(kProbeRoundTripSpan[static_cast<int>(q.kind)],
                   static_cast<std::int64_t>(i));
            return h.clients[0]->call(q.op, q.params);
        }();
        std::string error;
        std::uint64_t got = callDigest(q, r, &error);
        Expected<std::uint64_t> want = localDigest(q, eval);
        if (!error.empty() || !want.ok() || got != *want)
            report.fail("probe: round trip differs on request " +
                        std::to_string(i));
    }
    stopHarness(h, opts, report);

    auto us = [&](const char *span) {
        return spanMedianNs(span, since) / 1e3;
    };
    L["server.wire_parse_us"] = us("server.wire_parse");
    L["server.config_decode_us"] = us("server.config_decode");
    L["server.wire_dump_us"] = us("server.wire_dump");
    for (int k = 0; k < kReqKinds; ++k) {
        const std::string kind = reqKindName(static_cast<ReqKind>(k));
        L["server.handle_us." + kind] = us(kHandleSpan[k]);
        L["server.roundtrip_us." + kind] = us(kProbeRoundTripSpan[k]);
    }
    L["server.transport_share"] =
        1.0 - L["server.handle_us.eval_node"] /
                  L["server.roundtrip_us.eval_node"];
    const double hits = static_cast<double>(memo.hits() - hits0);
    const double lookups =
        hits + static_cast<double>(memo.misses() - misses0);
    L["server.memo_hit_ratio"] = lookups > 0.0 ? hits / lookups : 0.0;
    L["taskgraph.cost_model_us"] = us("taskgraph.cost_model");
    L["taskgraph.schedule_us"] = us("taskgraph.schedule");
    L["cluster.evaluate_us"] = us("cluster.evaluate");
}

} // namespace perfbench
