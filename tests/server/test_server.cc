/**
 * @file
 * Tests for the evaluation server stack: endpoint parsing, socket-free
 * EvalService dispatch (including the bit-identity of server-side
 * evaluation against the scalar oracle, and an op that throws), the
 * client's retry policy, and
 * end-to-end daemon tests over a Unix socket — among them the
 * concurrent multi-client sweep that must be bit-identical to serial
 * local evaluation with exact request accounting, requests that once
 * ended the daemon and now get structured errors, and the serving
 * model: per-connection order, evaluation slots, a client that never
 * reads, joined reader threads and descriptor exhaustion.
 */

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <condition_variable>
#include <cstring>
#include <fstream>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "core/ena.hh"
#include "server/client.hh"
#include "server/server.hh"
#include "util/net.hh"
#include "util/thread_pool.hh"

using namespace ena;
using wire::JsonValue;

namespace {

std::uint64_t
bitsOf(double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    return bits;
}

/** A unique Unix socket path per test process. */
std::string
testSocketPath(const char *tag)
{
    return "/tmp/ena-ut-" + std::string(tag) + "-" +
           std::to_string(::getpid()) + ".sock";
}

// ---------------------------------------------------------------------
// Endpoint grammar

TEST(Endpoint, ParsesTheDocumentedGrammar)
{
    auto u = tryParseEndpoint("unix:/tmp/a.sock");
    ASSERT_TRUE(u.ok());
    EXPECT_EQ(u->kind, Endpoint::Kind::Unix);
    EXPECT_EQ(u->path, "/tmp/a.sock");
    EXPECT_EQ(u->toString(), "unix:/tmp/a.sock");

    auto t = tryParseEndpoint("tcp:10.0.0.1:9123");
    ASSERT_TRUE(t.ok());
    EXPECT_EQ(t->kind, Endpoint::Kind::Tcp);
    EXPECT_EQ(t->host, "10.0.0.1");
    EXPECT_EQ(t->port, 9123);
    EXPECT_EQ(t->toString(), "tcp:10.0.0.1:9123");

    // Bare integer: loopback TCP port.
    auto p = tryParseEndpoint("9123");
    ASSERT_TRUE(p.ok());
    EXPECT_EQ(p->kind, Endpoint::Kind::Tcp);
    EXPECT_EQ(p->host, "127.0.0.1");
    EXPECT_EQ(p->port, 9123);

    // Anything path-like is a Unix socket.
    auto bare = tryParseEndpoint("run/ena.sock");
    ASSERT_TRUE(bare.ok());
    EXPECT_EQ(bare->kind, Endpoint::Kind::Unix);
    EXPECT_EQ(bare->path, "run/ena.sock");

    EXPECT_FALSE(tryParseEndpoint("").ok());
    EXPECT_FALSE(tryParseEndpoint("tcp:nohostport").ok());
    EXPECT_FALSE(tryParseEndpoint("tcp:host:notaport").ok());
    EXPECT_FALSE(tryParseEndpoint("tcp:host:70000").ok());
}

// ---------------------------------------------------------------------
// EvalService (socket-free dispatch)

JsonValue
request(const char *op)
{
    JsonValue r = JsonValue::object();
    r.set("op", op);
    return r;
}

/** handle()'s response line, parsed back into a tree. */
JsonValue
handled(EvalService &svc, const JsonValue &req)
{
    Expected<JsonValue> resp = wire::tryParseJson(svc.handle(req));
    EXPECT_TRUE(resp.ok()) << resp.status().toString();
    return resp.ok() ? std::move(*resp) : JsonValue();
}

TEST(EvalService, PingEchoesIdAndIdentifiesTheServer)
{
    EvalService svc;
    JsonValue req = request("ping");
    req.set("id", 42);
    JsonValue resp = handled(svc, req);

    ASSERT_NE(resp.find("id"), nullptr);
    EXPECT_EQ(resp.find("id")->number(), 42.0);
    EXPECT_TRUE(resp.find("ok")->boolean());
    const JsonValue *result = resp.find("result");
    ASSERT_NE(result, nullptr);
    EXPECT_EQ(result->find("server")->str(), "ena-server");
    EXPECT_EQ(svc.requestsHandled(), 1u);
    EXPECT_EQ(svc.errorsReturned(), 0u);
}

TEST(EvalService, MissingIdEchoesNull)
{
    EvalService svc;
    JsonValue resp = handled(svc, request("ping"));
    ASSERT_NE(resp.find("id"), nullptr);
    EXPECT_TRUE(resp.find("id")->isNull());
}

TEST(EvalService, UnknownOpIsNotFound)
{
    EvalService svc;
    JsonValue resp = handled(svc, request("frobnicate"));
    EXPECT_FALSE(resp.find("ok")->boolean());
    const JsonValue *err = resp.find("error");
    ASSERT_NE(err, nullptr);
    EXPECT_EQ(err->find("code")->str(), "not_found");
    EXPECT_EQ(svc.errorsReturned(), 1u);
}

TEST(EvalService, UnknownOpsShareOneBoundedPerOpSlot)
{
    // Hostile clients can send any op string; each must still be
    // not_found, and the per-op accounting must not grow with them.
    EvalService svc;
    constexpr int kUnknown = 5000;
    for (int i = 0; i < kUnknown; ++i) {
        const std::string op = "no_such_op_" + std::to_string(i);
        JsonValue resp = handled(svc, request(op.c_str()));
        ASSERT_FALSE(resp.find("ok")->boolean()) << op;
        ASSERT_EQ(resp.find("error")->find("code")->str(), "not_found");
        ASSERT_EQ(resp.find("error")->find("message")->str(),
                  "unknown op '" + op + "'");
    }
    svc.handle(request("ping"));
    svc.handle(request("ping"));

    JsonValue stats = handled(svc, request("stats"));
    const JsonValue *perOp = stats.find("result")->find("per_op");
    ASSERT_NE(perOp, nullptr);
    // Only the ops that ran: ping and every unknown op under one key.
    EXPECT_EQ(perOp->dump(), "{\"ping\":2,\"unknown\":5000}");
    EXPECT_EQ(svc.requestsHandled(), kUnknown + 3u);
    EXPECT_EQ(svc.errorsReturned(), std::uint64_t(kUnknown));
}

TEST(EvalService, BadAppAndBadConfigAreStructuredErrors)
{
    EvalService svc;

    JsonValue req = request("eval_node");
    req.set("app", "no-such-app");
    JsonValue resp = handled(svc, req);
    EXPECT_FALSE(resp.find("ok")->boolean());

    JsonValue req2 = request("eval_node");
    req2.set("app", "lulesh");
    req2.set("config", "not a key-value line");
    JsonValue resp2 = handled(svc, req2);
    EXPECT_FALSE(resp2.find("ok")->boolean());

    // An out-of-range config crosses the boundary as a Status, not a
    // throw or a fatal.
    JsonValue req3 = request("eval_node");
    req3.set("app", "lulesh");
    req3.set("config", "ehp.cus = -5");
    JsonValue resp3 = handled(svc, req3);
    EXPECT_FALSE(resp3.find("ok")->boolean());
    EXPECT_EQ(svc.errorsReturned(), 3u);
}

TEST(EvalService, EvalNodeRejectsAnOverRangeCuCount)
{
    // 4294967616 is 2^32 + 320; narrowed to an int it would be
    // evaluated as a 320-CU node.
    EvalService svc;
    JsonValue req = request("eval_node");
    req.set("app", "lulesh");
    req.set("config", "ehp.cus = 4294967616\n");
    JsonValue resp = handled(svc, req);
    ASSERT_FALSE(resp.find("ok")->boolean());
    EXPECT_EQ(resp.find("error")->find("code")->str(), "out_of_range");
    EXPECT_EQ(resp.find("error")->find("message")->str(),
              "config key 'ehp.cus' (request:1): "
              "4294967616 does not fit in an int");
}

TEST(EvalService, HandleLineRejectsGarbageAsParseError)
{
    EvalService svc;
    std::string line = svc.handleLine("this is not json");
    auto resp = wire::tryParseJson(line);
    ASSERT_TRUE(resp.ok());
    EXPECT_FALSE(resp->find("ok")->boolean());
    EXPECT_EQ(resp->find("error")->find("code")->str(), "parse_error");
    EXPECT_EQ(svc.requestsHandled(), 1u);
    EXPECT_EQ(svc.errorsReturned(), 1u);
}

TEST(EvalService, EvalNodeMatchesTheScalarOracleBitExactly)
{
    EvalService svc;
    JsonValue req = request("eval_node");
    req.set("app", "hpgmg");
    req.set("config",
            "ehp.cus = 192\nehp.freq_ghz = 1.2\nehp.bw_tbs = 2.5\n");
    JsonValue resp = handled(svc, req);
    ASSERT_TRUE(resp.find("ok")->boolean()) << resp.dump();
    const JsonValue *r = resp.find("result");
    ASSERT_NE(r, nullptr);

    NodeConfig cfg;
    cfg.cus = 192;
    cfg.freqGhz = 1.2;
    cfg.bwTbs = 2.5;
    cfg.validate();
    NodeEvaluator eval;
    EvalResult expect = eval.evaluate(cfg, App::HPGMG);

    EXPECT_EQ(bitsOf(r->find("flops")->number()),
              bitsOf(expect.perf.flops));
    EXPECT_EQ(bitsOf(r->find("total_w")->number()),
              bitsOf(expect.power.total()));
    EXPECT_EQ(bitsOf(r->find("budget_w")->number()),
              bitsOf(expect.power.budgetPower()));
    EXPECT_EQ(bitsOf(r->find("traffic_gbs")->number()),
              bitsOf(expect.perf.trafficGbs));
    EXPECT_EQ(r->find("memory_bound")->boolean(),
              expect.perf.memoryBound);
}

/** The scalar reference for a server-side sweep (sweep_tool's loop). */
std::vector<std::pair<NodeConfig, EvalResult>>
localSweep(App app, const std::string &axis, double from, double to,
           double step, const NodeConfig &base)
{
    NodeEvaluator eval;
    std::vector<std::pair<NodeConfig, EvalResult>> out;
    for (double v = from; v <= to + 1e-9; v += step) {
        NodeConfig cfg = base;
        if (axis == "cus")
            cfg.cus = static_cast<int>(v);
        else if (axis == "freq")
            cfg.freqGhz = v;
        else
            cfg.bwTbs = v;
        cfg.validate();
        out.emplace_back(cfg, eval.evaluate(cfg, app));
    }
    return out;
}

void
expectSweepMatchesLocal(const JsonValue &result, App app,
                        const std::string &axis, double from, double to,
                        double step, const NodeConfig &base)
{
    auto expect = localSweep(app, axis, from, to, step, base);
    const JsonValue *points = result.find("points");
    ASSERT_NE(points, nullptr);
    ASSERT_EQ(points->size(), expect.size());
    for (std::size_t i = 0; i < expect.size(); ++i) {
        const JsonValue &p = points->at(i);
        const EvalResult &r = expect[i].second;
        EXPECT_EQ(bitsOf(p.find("flops")->number()),
                  bitsOf(r.perf.flops))
            << axis << " point " << i;
        EXPECT_EQ(bitsOf(p.find("total_w")->number()),
                  bitsOf(r.power.total()));
        EXPECT_EQ(bitsOf(p.find("cu_utilization")->number()),
                  bitsOf(r.perf.activity.cuUtilization));
        EXPECT_EQ(p.find("cus")->number(), expect[i].first.cus);
    }
}

TEST(EvalService, SweepMatchesLocalEvaluationBitExactly)
{
    EvalService svc;
    JsonValue req = request("sweep");
    req.set("app", "lulesh");
    req.set("axis", "bw");
    req.set("from", 1.0);
    req.set("to", 4.0);
    req.set("step", 0.5);
    JsonValue resp = handled(svc, req);
    ASSERT_TRUE(resp.find("ok")->boolean()) << resp.dump();
    expectSweepMatchesLocal(*resp.find("result"), App::LULESH, "bw",
                            1.0, 4.0, 0.5, NodeConfig::bestMean());
}

TEST(EvalService, SweepRejectsBadAxisAndRange)
{
    EvalService svc;
    JsonValue req = request("sweep");
    req.set("app", "lulesh");
    req.set("axis", "volts");
    req.set("from", 1.0);
    req.set("to", 2.0);
    req.set("step", 0.5);
    JsonValue resp = handled(svc, req);
    EXPECT_FALSE(resp.find("ok")->boolean());
    EXPECT_EQ(resp.find("error")->find("code")->str(),
              "invalid_argument");

    req.set("axis", "bw");
    req.set("step", -1.0);
    resp = handled(svc, req);
    EXPECT_FALSE(resp.find("ok")->boolean());
    EXPECT_EQ(resp.find("error")->find("code")->str(), "out_of_range");
}

TEST(EvalService, AnOpThatThrowsReturnsAnInternalError)
{
    // The stats op has written part of its result when the probe
    // throws: handle() cuts the line back to the envelope.
    EvalService svc;
    svc.setQueueDepthProbe(
        []() -> std::size_t { throw std::runtime_error("probe failed"); });
    JsonValue req = request("stats");
    req.set("id", 1);
    EXPECT_EQ(svc.handle(req),
              "{\"id\":1,\"ok\":false,\"error\":{\"code\":\"internal\","
              "\"message\":\"unhandled exception in op 'stats': "
              "probe failed\"}}");
    EXPECT_EQ(svc.errorsReturned(), 1u);
}

TEST(RetryPolicy, FactoriesAndDefaults)
{
    EXPECT_EQ(RetryPolicy::none().maxAttempts, 1);
    EXPECT_EQ(RetryPolicy::attempts(4).maxAttempts, 4);
    EXPECT_GT(RetryPolicy::attempts(4).backoffUs, 0.0);
    EXPECT_EQ(RetryPolicy::attempts(0).maxAttempts, 1);   // clamped
    EXPECT_EQ(RetryPolicy::attempts(1).backoffUs, 0.0);
}

TEST(EvalService, ShutdownSetsTheStopFlag)
{
    EvalService svc;
    EXPECT_FALSE(svc.stopRequested());
    JsonValue resp = handled(svc, request("shutdown"));
    EXPECT_TRUE(resp.find("ok")->boolean());
    EXPECT_TRUE(svc.stopRequested());
}

TEST(EvalService, SweepsOverThePointCapFailFast)
{
    // A step too small to advance the value, and 10^12 points: both
    // must be refused without enumerating them.
    EvalService svc;
    const double ranges[][3] = {{1.0, 2.0, 1e-20}, {0.0, 1e12, 1.0}};
    for (const auto &[from, to, step] : ranges) {
        JsonValue req = request("sweep");
        req.set("app", "lulesh");
        req.set("axis", "freq");
        req.set("from", from);
        req.set("to", to);
        req.set("step", step);
        const auto t0 = std::chrono::steady_clock::now();
        JsonValue resp = handled(svc, req);
        const std::chrono::duration<double> took =
            std::chrono::steady_clock::now() - t0;
        EXPECT_FALSE(resp.find("ok")->boolean());
        EXPECT_EQ(resp.find("error")->find("code")->str(), "out_of_range");
        EXPECT_EQ(resp.find("error")->find("message")->str(),
                  "sweep too large (more than 1000000 points)");
        EXPECT_LT(took.count(), 1.0);
    }
}

// ---------------------------------------------------------------------
// Response bytes: equal to the same response built as a JsonValue tree
// in the protocol's key order

/** One evaluated point's members, in the protocol's key order. */
JsonValue
evalResultReference(const NodeConfig &cfg, const EvalResult &r)
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
nodeConfigReference(const NodeConfig &cfg)
{
    JsonValue o = JsonValue::object();
    o.set("cus", cfg.cus);
    o.set("freq_ghz", cfg.freqGhz);
    o.set("bw_tbs", cfg.bwTbs);
    o.set("label", cfg.label());
    return o;
}

std::string
okReference(JsonValue id, JsonValue result)
{
    JsonValue r = JsonValue::object();
    r.set("id", std::move(id));
    r.set("ok", true);
    r.set("result", std::move(result));
    return r.dump();
}

std::string
errorReference(JsonValue id, const char *code, const std::string &message)
{
    JsonValue err = JsonValue::object();
    err.set("code", code);
    err.set("message", message);
    JsonValue r = JsonValue::object();
    r.set("id", std::move(id));
    r.set("ok", false);
    r.set("error", std::move(err));
    return r.dump();
}

TEST(EvalService, EvalNodeResponseBytesMatchTheReference)
{
    EvalService svc;
    JsonValue req = request("eval_node");
    req.set("id", "n-1");
    req.set("app", "xsbench");
    req.set("config",
            "ehp.cus = 200\nehp.freq_ghz = 1.005\nehp.bw_tbs = 2.25\n");

    NodeConfig cfg;
    cfg.cus = 200;
    cfg.freqGhz = 1.005;
    cfg.bwTbs = 2.25;
    NodeEvaluator eval;
    EXPECT_EQ(svc.handleLine(req.dump()),
              okReference("n-1", evalResultReference(
                                     cfg, eval.evaluate(cfg, App::XSBench))));
}

TEST(EvalService, SweepResponseBytesMatchTheReference)
{
    EvalService svc;
    JsonValue req = request("sweep");
    req.set("id", 5);
    req.set("app", "hpgmg");
    req.set("axis", "freq");
    req.set("from", 0.7);
    req.set("to", 1.5);
    req.set("step", 0.01);

    JsonValue points = JsonValue::array();
    for (const auto &[cfg, r] : localSweep(App::HPGMG, "freq", 0.7, 1.5,
                                           0.01, NodeConfig::bestMean())) {
        JsonValue p = evalResultReference(cfg, r);
        p.set("value", cfg.freqGhz);
        points.push(std::move(p));
    }
    JsonValue result = JsonValue::object();
    result.set("app", appName(App::HPGMG));
    result.set("axis", "freq");
    result.set("points", std::move(points));
    EXPECT_EQ(svc.handleLine(req.dump()), okReference(5, std::move(result)));

    // A 400-point response parses and dumps back to its own bytes.
    req.set("axis", "bw");
    req.set("from", 1.0);
    req.set("to", 4.99);
    const std::string line = svc.handleLine(req.dump());
    Expected<JsonValue> parsed = wire::tryParseJson(line);
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    EXPECT_EQ(parsed->find("result")->find("points")->size(), 400u);
    EXPECT_EQ(parsed->dump(), line);
}

TEST(EvalService, Table2ResponseBytesMatchTheReference)
{
    EvalService svc;
    JsonValue req = request("table2");
    req.set("id", JsonValue::array().push(1).push("a"));
    req.set("budget_w", 150.0);

    NodeEvaluator eval;
    DesignSpaceExplorer dse(eval, DseGrid::paperGrid(), 150.0);
    const NodeConfig bestMean = dse.findBestMean(PowerOptConfig{});
    JsonValue rows = JsonValue::array();
    for (const TableIIRow &row : dse.tableII(bestMean)) {
        JsonValue o = JsonValue::object();
        o.set("app", appName(row.app));
        o.set("best_config", nodeConfigReference(row.bestConfig));
        o.set("benefit_no_opt_pct", row.benefitNoOptPct);
        o.set("best_config_opt", nodeConfigReference(row.bestConfigOpt));
        o.set("benefit_with_opt_pct", row.benefitWithOptPct);
        rows.push(std::move(o));
    }
    JsonValue result = JsonValue::object();
    result.set("budget_w", 150.0);
    result.set("best_mean", nodeConfigReference(bestMean));
    result.set("rows", std::move(rows));
    EXPECT_EQ(svc.handleLine(req.dump()),
              okReference(JsonValue::array().push(1).push("a"),
                          std::move(result)));
}

TEST(EvalService, ErrorResponseBytesMatchTheReference)
{
    EvalService svc;
    EXPECT_EQ(svc.handleLine("{\"op\":\"frob\\\"\\n\",\"id\":3}"),
              errorReference(3, "not_found", "unknown op 'frob\"\n'"));
    EXPECT_EQ(svc.handleLine("{\"id\":{\"k\":true}}"),
              errorReference(JsonValue::object().set("k", true),
                             "invalid_argument", "missing field 'op'"));
    EXPECT_EQ(svc.handleLine("this is not json"),
              errorReference(JsonValue(), "parse_error",
                             "JSON: unexpected character 't' at byte 0"));
    EXPECT_EQ(svc.handleLine("{\"op\":\"sweep\",\"app\":\"lulesh\","
                             "\"axis\":\"bw\",\"from\":2,\"to\":1,"
                             "\"step\":0.5}"),
              errorReference(JsonValue(), "out_of_range",
                             "bad sweep range [2, 1] step 0.5"));
    EXPECT_EQ(svc.handleLine("{\"op\":\"table2\",\"id\":\"t\","
                             "\"budget_w\":1}"),
              errorReference("t", "failed_precondition",
                             "no feasible configuration under 1 W budget"));
    EXPECT_EQ(svc.errorsReturned(), 5u);
}

// ---------------------------------------------------------------------
// End-to-end over a Unix socket

TEST(EvalServer, ServesPingEvalAndErrorsOverAUnixSocket)
{
    ServerOptions opts;
    opts.endpoint = Endpoint::unixPath(testSocketPath("e2e"));
    opts.workers = 2;
    auto server = EvalServer::start(opts);
    ASSERT_TRUE(server.ok()) << server.status().toString();

    ClientOptions copts;
    copts.endpoint = (*server)->endpoint();
    ServerClient client(copts);

    auto pong = client.ping();
    ASSERT_TRUE(pong.ok()) << pong.status().toString();
    EXPECT_EQ(pong->find("server")->str(), "ena-server");

    // Application errors preserve the server's error code.
    auto bad = client.call("frobnicate");
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), ErrorCode::NotFound);

    JsonValue params = JsonValue::object();
    params.set("app", "maxflops");
    auto eval = client.call("eval_node", std::move(params));
    ASSERT_TRUE(eval.ok()) << eval.status().toString();
    NodeEvaluator local;
    NodeConfig base = NodeConfig::bestMean();
    EXPECT_EQ(bitsOf(eval->find("flops")->number()),
              bitsOf(local.evaluate(base, App::MaxFlops).perf.flops));

    auto stats = client.stats();
    ASSERT_TRUE(stats.ok());
    EXPECT_GE(stats->find("requests")->number(), 3.0);

    (*server)->stop();
}

// Each of these requests once ended the daemon from inside a request:
// a fabric shape the config named reached an ENA_FATAL, and a
// resilience spec that validated reached an assertion of the checkpoint
// model. Each must come back as a structured error, the daemon still
// serving.
TEST(EvalServer, FormerlyFatalRequestsGetStructuredErrors)
{
    ServerOptions opts;
    opts.endpoint = Endpoint::unixPath(testSocketPath("fatal"));
    opts.workers = 2;
    auto server = EvalServer::start(opts);
    ASSERT_TRUE(server.ok()) << server.status().toString();

    ClientOptions copts;
    copts.endpoint = (*server)->endpoint();
    ServerClient client(copts);

    struct Case
    {
        const char *op;
        const char *config;
        ErrorCode code;
        const char *says;
    };
    const Case cases[] = {
        {"cluster_eval", "cluster.fat_tree_radix = 5\n",
         ErrorCode::InvalidArgument,
         "unknown cluster-config key 'cluster.fat_tree_radix'"},
        {"taskgraph_eval",
         "cluster.topology = 3d-torus\ncluster.torus_x = 2\n",
         ErrorCode::InvalidArgument,
         "unknown cluster-config key 'cluster.torus_x'"},
        {"resilient_eval", "cluster.ras.checkpoint_overhead_s = -1000\n",
         ErrorCode::OutOfRange, "checkpoint overhead"},
        {"resilient_eval",
         "opts.ntc = true\ncluster.ras.ntc_ser_multiplier = 1e308\n",
         ErrorCode::OutOfRange, "NTC SER multiplier"},
    };
    for (const Case &c : cases) {
        JsonValue params = JsonValue::object();
        if (std::string(c.op) != "taskgraph_eval")
            params.set("app", "lulesh");
        params.set("config", c.config);
        auto got = client.call(c.op, std::move(params));
        ASSERT_FALSE(got.ok()) << c.op << " with " << c.config;
        EXPECT_EQ(got.status().code(), c.code) << got.status().toString();
        EXPECT_NE(got.status().message().find(c.says), std::string::npos)
            << got.status().toString();

        auto pong = client.ping();
        ASSERT_TRUE(pong.ok()) << pong.status().toString();
    }
    EXPECT_EQ((*server)->service().errorsReturned(), 4u);

    (*server)->stop();
}

// Memory capacities and CPU sizes past any node: an infinite HBM FIT
// once failed the checkpoint model's MTTF assertion, an infinite module
// count became a negative power budget, and a core count past int
// overflowed. Each must come back as an out-of-range error.
TEST(EvalServer, NodeSizesOutOfRangeGetStructuredErrors)
{
    ServerOptions opts;
    opts.endpoint = Endpoint::unixPath(testSocketPath("sizes"));
    opts.workers = 2;
    auto server = EvalServer::start(opts);
    ASSERT_TRUE(server.ok()) << server.status().toString();

    ClientOptions copts;
    copts.endpoint = (*server)->endpoint();
    ServerClient client(copts);

    struct Case
    {
        const char *op;
        const char *config;
        const char *says;
    };
    const Case cases[] = {
        {"resilient_eval", "ehp.in_package_gb = 1.7e308\n",
         "in-package capacity"},
        {"resilient_eval", "extmem.dram_gb = 1e308\n",
         "external capacities"},
        {"resilient_eval", "ehp.cpu_chiplets = 2000000000\n", "CPU size"},
        {"eval_node", "extmem.dram_module_gb = 0\n", "module sizes"},
        {"eval_node", "ehp.in_package_gb = -1\n", "in-package capacity"},
        {"eval_node", "extmem.dram_gb = -5\n", "external capacities"},
        {"eval_node", "extmem.interfaces = 0\n", "external interfaces"},
    };
    for (const Case &c : cases) {
        JsonValue params = JsonValue::object();
        params.set("app", "lulesh");
        params.set("config", c.config);
        auto got = client.call(c.op, std::move(params));
        ASSERT_FALSE(got.ok()) << c.op << " with " << c.config;
        EXPECT_EQ(got.status().code(), ErrorCode::OutOfRange)
            << got.status().toString();
        EXPECT_NE(got.status().message().find(c.says), std::string::npos)
            << got.status().toString();

        auto pong = client.ping();
        ASSERT_TRUE(pong.ok()) << pong.status().toString();
    }
    EXPECT_EQ((*server)->service().errorsReturned(), 7u);

    (*server)->stop();
}

TEST(EvalServer, ShutdownOpStopsTheDaemon)
{
    ServerOptions opts;
    opts.endpoint = Endpoint::unixPath(testSocketPath("stop"));
    opts.workers = 2;
    auto server = EvalServer::start(opts);
    ASSERT_TRUE(server.ok()) << server.status().toString();

    ClientOptions copts;
    copts.endpoint = (*server)->endpoint();
    ServerClient client(copts);
    auto ack = client.shutdownServer();
    ASSERT_TRUE(ack.ok()) << ack.status().toString();
    EXPECT_TRUE(ack->find("stopping")->boolean());

    (*server)->wait(); // returns because the op triggered requestStop()
    (*server)->stop();
    EXPECT_TRUE((*server)->service().stopRequested());
}

TEST(EvalServer, ConcurrentClientsMatchSerialLocalEvaluationBitExactly)
{
    // Satellite gate: N client threads issuing overlapping sweeps must
    // get results bit-identical to serial local evaluation, and the
    // server must account for exactly the requests sent.
    struct SweepSpec
    {
        const char *app;
        App appId;
        const char *axis;
        double from, to, step;
    };
    const SweepSpec specs[] = {
        {"lulesh", App::LULESH, "bw", 1.0, 3.0, 0.5},
        {"maxflops", App::MaxFlops, "cus", 64.0, 320.0, 64.0},
        {"hpgmg", App::HPGMG, "freq", 0.8, 1.2, 0.1},
    };
    const NodeConfig base = NodeConfig::bestMean();

    std::vector<std::vector<std::pair<NodeConfig, EvalResult>>> expect;
    for (const SweepSpec &s : specs) {
        expect.push_back(localSweep(s.appId, s.axis, s.from, s.to,
                                    s.step, base));
    }

    ServerOptions opts;
    opts.endpoint = Endpoint::unixPath(testSocketPath("mc"));
    opts.workers = 4;
    auto server = EvalServer::start(opts);
    ASSERT_TRUE(server.ok()) << server.status().toString();
    const std::uint64_t requestsBefore =
        (*server)->service().requestsHandled();

    constexpr int kClients = 8;
    std::vector<Expected<std::vector<SweepPoint>>> results(
        kClients,
        Expected<std::vector<SweepPoint>>(Status::internal("unset")));
    std::vector<std::thread> threads;
    for (int t = 0; t < kClients; ++t) {
        threads.emplace_back([&, t] {
            const SweepSpec &s = specs[t % 3];
            ClientOptions copts;
            copts.endpoint = (*server)->endpoint();
            ServerClient client(copts);
            results[t] = client.sweepAxis(s.app, s.axis, s.from, s.to,
                                          s.step);
        });
    }
    for (std::thread &th : threads)
        th.join();

    for (int t = 0; t < kClients; ++t) {
        const auto &want = expect[t % 3];
        ASSERT_TRUE(results[t].ok())
            << "client " << t << ": " << results[t].status().toString();
        const std::vector<SweepPoint> &got = *results[t];
        ASSERT_EQ(got.size(), want.size()) << "client " << t;
        for (std::size_t i = 0; i < want.size(); ++i) {
            const EvalResult &r = want[i].second;
            EXPECT_EQ(bitsOf(got[i].flops), bitsOf(r.perf.flops))
                << "client " << t << " point " << i;
            EXPECT_EQ(bitsOf(got[i].totalW), bitsOf(r.power.total()));
            EXPECT_EQ(bitsOf(got[i].budgetW),
                      bitsOf(r.power.budgetPower()));
            EXPECT_EQ(bitsOf(got[i].trafficGbs),
                      bitsOf(r.perf.trafficGbs));
            EXPECT_EQ(got[i].cus, want[i].first.cus);
            EXPECT_EQ(got[i].memoryBound, r.perf.memoryBound);
        }
    }

    // Exactly one request per client sweep, no more, no less.
    EXPECT_EQ((*server)->service().requestsHandled() - requestsBefore,
              static_cast<std::uint64_t>(kClients));
    EXPECT_EQ((*server)->service().errorsReturned(), 0u);

    (*server)->stop();
}

TEST(EvalServer, SweepAxisWithAnInexactBaseMatchesLocalEvaluationBitExactly)
{
    // 0.93333333333333335 needs 16 significant digits: the base config
    // the client sends must carry it exactly, or every point runs at
    // another frequency.
    NodeConfig base = NodeConfig::bestMean();
    base.freqGhz = 1.0 / 3.0 + 0.6;
    const std::vector<double> values = {192.0, 256.0, 320.0};
    Expected<std::vector<NodeConfig>> configs =
        trySweepConfigs(base, "cus", values);
    ASSERT_TRUE(configs.ok()) << configs.status().toString();

    ServerOptions opts;
    opts.endpoint = Endpoint::unixPath(testSocketPath("inexact"));
    opts.workers = 1;
    auto server = EvalServer::start(opts);
    ASSERT_TRUE(server.ok()) << server.status().toString();
    ClientOptions copts;
    copts.endpoint = (*server)->endpoint();
    ServerClient client(copts);
    auto got = client.sweepAxis("xsbench", "cus", 192.0, 320.0, 64.0, &base);
    (*server)->stop();

    ASSERT_TRUE(got.ok()) << got.status().toString();
    ASSERT_EQ(got->size(), configs->size());
    NodeEvaluator eval;
    for (std::size_t i = 0; i < configs->size(); ++i) {
        const EvalResult r = eval.evaluate((*configs)[i], App::XSBench);
        EXPECT_EQ(bitsOf((*got)[i].freqGhz), bitsOf(base.freqGhz))
            << "point " << i;
        EXPECT_EQ((*got)[i].cus, (*configs)[i].cus);
        EXPECT_EQ(bitsOf((*got)[i].flops), bitsOf(r.perf.flops))
            << "point " << i;
        EXPECT_EQ(bitsOf((*got)[i].totalW), bitsOf(r.power.total()))
            << "point " << i;
    }
}

TEST(EvalServer, OverlongRequestLineGetsAnErrorAndItsConnectionCloses)
{
    ServerOptions opts;
    opts.endpoint = Endpoint::unixPath(testSocketPath("long"));
    opts.workers = 2;
    auto server = EvalServer::start(opts);
    ASSERT_TRUE(server.ok()) << server.status().toString();

    auto sock = connectTo((*server)->endpoint());
    ASSERT_TRUE(sock.ok()) << sock.status().toString();
    ASSERT_TRUE(sock->setRecvTimeout(30.0).ok());
    // 2 MiB without a newline: the server answers once it has read
    // past its 1 MiB cap, then drops the rest of the line unread.
    std::thread writer(
        [&] { (void)sock->sendAll(std::string(2 << 20, 'x')); });
    std::string buffer;
    std::string line;
    Expected<bool> got = sock->recvLine(&buffer, &line);
    Expected<bool> eof = sock->recvLine(&buffer, &line);
    writer.join();

    ASSERT_TRUE(got.ok()) << got.status().toString();
    ASSERT_TRUE(*got);
    EXPECT_EQ(line, errorReference(JsonValue(), "out_of_range",
                                   "line longer than 1048576 bytes"));
    ASSERT_TRUE(eof.ok()) << eof.status().toString();
    EXPECT_FALSE(*eof);

    // The daemon still serves a second connection.
    ClientOptions copts;
    copts.endpoint = (*server)->endpoint();
    ServerClient client(copts);
    auto pong = client.ping();
    ASSERT_TRUE(pong.ok()) << pong.status().toString();
    EXPECT_EQ((*server)->service().requestsHandled(), 2u);
    EXPECT_EQ((*server)->service().errorsReturned(), 1u);

    (*server)->stop();
}

TEST(EvalServer, PipelinedRequestsOnOneConnectionCorrelateById)
{
    ServerOptions opts;
    opts.endpoint = Endpoint::unixPath(testSocketPath("pipe"));
    opts.workers = 2;
    auto server = EvalServer::start(opts);
    ASSERT_TRUE(server.ok()) << server.status().toString();

    auto sock = connectTo((*server)->endpoint());
    ASSERT_TRUE(sock.ok()) << sock.status().toString();

    // Three pipelined requests in one write; match each response to
    // its request by the echoed id.
    ASSERT_TRUE(sock->sendAll("{\"op\":\"ping\",\"id\":1}\n"
                              "{\"op\":\"ping\",\"id\":2}\n"
                              "{\"op\":\"nope\",\"id\":3}\n")
                    .ok());
    std::string buffer;
    bool sawOk[4] = {false, false, false, false};
    for (int i = 0; i < 3; ++i) {
        std::string line;
        auto got = sock->recvLine(&buffer, &line);
        ASSERT_TRUE(got.ok()) << got.status().toString();
        ASSERT_TRUE(*got);
        auto resp = wire::tryParseJson(line);
        ASSERT_TRUE(resp.ok());
        int id = static_cast<int>(resp->find("id")->number());
        ASSERT_GE(id, 1);
        ASSERT_LE(id, 3);
        sawOk[id] = resp->find("ok")->boolean();
    }
    EXPECT_TRUE(sawOk[1]);
    EXPECT_TRUE(sawOk[2]);
    EXPECT_FALSE(sawOk[3]);

    (*server)->stop();
}

// ---------------------------------------------------------------------
// The serving model: each connection's reader evaluates its requests in
// order, holding one of ServerOptions::workers slots per evaluation

/** Send @p request as one line on @p sock and read one response line. */
Expected<std::string>
roundTrip(Socket &sock, const std::string &request)
{
    ENA_TRY(sock.sendAll(request + "\n"));
    std::string buffer;
    std::string line;
    ENA_ASSIGN_OR_RETURN(bool got, sock.recvLine(&buffer, &line));
    if (!got)
        return Status::ioError("EOF before a response");
    return line;
}

/** A sweep request of @p points points along the bandwidth axis. */
std::string
sweepRequest(int id, int points)
{
    return "{\"op\":\"sweep\",\"id\":" + std::to_string(id) +
           ",\"app\":\"lulesh\",\"axis\":\"bw\",\"from\":1,\"to\":" +
           std::to_string(1 + (points - 1) / 100.0) + ",\"step\":0.01}";
}

/** The stats op's result, served in-process (bypassing the slots). */
JsonValue
statsOf(EvalServer &server)
{
    return *handled(server.service(), request("stats")).find("result");
}

TEST(EvalServer, PipelinedRequestsAreAnsweredInRequestOrder)
{
    ServerOptions opts;
    opts.endpoint = Endpoint::unixPath(testSocketPath("order"));
    opts.workers = 4;
    auto server = EvalServer::start(opts);
    ASSERT_TRUE(server.ok()) << server.status().toString();

    auto sock = connectTo((*server)->endpoint());
    ASSERT_TRUE(sock.ok()) << sock.status().toString();
    ASSERT_TRUE(sock->setRecvTimeout(30.0).ok());

    // Slow and fast requests interleaved in one write: a sweep, a ping,
    // an evaluation and an unknown op, ten times over.
    constexpr int kRequests = 40;
    std::string pipelined;
    for (int id = 0; id < kRequests; ++id) {
        const std::string ids = std::to_string(id);
        switch (id % 4) {
        case 0: pipelined += sweepRequest(id, 201); break;
        case 1: pipelined += "{\"op\":\"ping\",\"id\":" + ids + "}"; break;
        case 2:
            pipelined += "{\"op\":\"eval_node\",\"id\":" + ids +
                         ",\"app\":\"comd\"}";
            break;
        default: pipelined += "{\"op\":\"nope\",\"id\":" + ids + "}";
        }
        pipelined += "\n";
    }
    ASSERT_TRUE(sock->sendAll(pipelined).ok());

    std::string buffer;
    for (int id = 0; id < kRequests; ++id) {
        std::string line;
        auto got = sock->recvLine(&buffer, &line);
        ASSERT_TRUE(got.ok()) << got.status().toString();
        ASSERT_TRUE(*got);
        auto resp = wire::tryParseJson(line);
        ASSERT_TRUE(resp.ok()) << resp.status().toString();
        EXPECT_EQ(resp->find("id")->number(), id);
        EXPECT_EQ(resp->find("ok")->boolean(), id % 4 != 3) << line;
    }

    (*server)->stop();
}

TEST(EvalServer, AClientThatNeverReadsStallsOnlyItself)
{
    ServerOptions opts;
    opts.endpoint = Endpoint::unixPath(testSocketPath("noread"));
    opts.workers = 2;
    auto server = EvalServer::start(opts);
    ASSERT_TRUE(server.ok()) << server.status().toString();

    // 20 sweeps of 1,001 points (~435 KB of response each) and not one
    // byte read back: the daemon's sends to this peer block for good.
    auto hog = connectTo((*server)->endpoint());
    ASSERT_TRUE(hog.ok()) << hog.status().toString();
    std::string sweeps;
    for (int id = 0; id < 20; ++id)
        sweeps += sweepRequest(id, 1001) + "\n";
    ASSERT_TRUE(hog->sendAll(sweeps).ok());

    auto other = connectTo((*server)->endpoint());
    ASSERT_TRUE(other.ok()) << other.status().toString();
    ASSERT_TRUE(other->setRecvTimeout(10.0).ok());
    Expected<std::string> pong =
        roundTrip(*other, "{\"op\":\"ping\",\"id\":7}");
    ASSERT_TRUE(pong.ok()) << pong.status().toString();
    EXPECT_NE(pong->find("\"ok\":true"), std::string::npos) << *pong;

    (*server)->stop();
}

TEST(EvalServer, StopLeavesARequestWaitingForASlotUnevaluated)
{
    // The pool runs one top-level job at a time. A helper's job holds
    // both threads of a 2-thread pool on a latch, so a sweep of two
    // chunks blocks in parallelFor while it holds the one slot. The
    // guard opens the latch, joins every thread and restores the pool
    // on any exit; every wait has a deadline.
    ThreadPool::setGlobalThreads(2);
    ThreadPool &pool = ThreadPool::global();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    std::mutex mu;
    std::condition_variable cv;
    bool open = false;
    int entered = 0;
    const auto openLatch = [&] {
        {
            std::lock_guard<std::mutex> lock(mu);
            open = true;
        }
        cv.notify_all();
    };
    const std::uint64_t jobsBefore = pool.jobsSubmitted();
    std::thread helper([&] {
        pool.parallelFor(2, [&](std::size_t) {
            std::unique_lock<std::mutex> lock(mu);
            ++entered;
            cv.notify_all();
            cv.wait_until(lock, deadline, [&] { return open; });
        });
    });

    ServerOptions opts;
    opts.endpoint = Endpoint::unixPath(testSocketPath("gate"));
    opts.workers = 1;
    auto server = EvalServer::start(opts);
    std::thread stopper;
    struct Guard
    {
        std::function<void()> fn;
        ~Guard() { fn(); }
    } guard{[&] {
        openLatch();
        helper.join();
        if (stopper.joinable())
            stopper.join();
        if (server.ok())
            (*server)->stop();
        ThreadPool::setGlobalThreads(0);
    }};
    ASSERT_TRUE(server.ok()) << server.status().toString();
    {
        std::unique_lock<std::mutex> lock(mu);
        ASSERT_TRUE(cv.wait_until(lock, deadline,
                                  [&] { return entered == 2; }));
    }
    ASSERT_EQ(pool.jobsSubmitted(), jobsBefore + 1);

    // The holder's sweep counts its job before it waits for the pool.
    auto holder = connectTo((*server)->endpoint());
    ASSERT_TRUE(holder.ok()) << holder.status().toString();
    ASSERT_TRUE(holder->sendAll(sweepRequest(1, 64) + "\n").ok());
    while (pool.jobsSubmitted() == jobsBefore + 1 &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_GT(pool.jobsSubmitted(), jobsBefore + 1);

    auto waiter = connectTo((*server)->endpoint());
    ASSERT_TRUE(waiter.ok()) << waiter.status().toString();
    ASSERT_TRUE(waiter->setRecvTimeout(30.0).ok());
    ASSERT_TRUE(waiter->sendAll("{\"op\":\"ping\",\"id\":2}\n").ok());
    while (statsOf(**server).find("queue_depth")->number() < 1.0 &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(statsOf(**server).find("queue_depth")->number(), 1.0);

    // stop() joins the holder's reader, which finishes only once the
    // latch opens, so it runs on a thread of its own.
    stopper = std::thread([&] { (*server)->stop(); });

    // The waiting ping was dropped, never evaluated or answered.
    std::string buffer;
    std::string line;
    Expected<bool> got = waiter->recvLine(&buffer, &line);
    EXPECT_TRUE(!got.ok() || !*got) << line;
    openLatch();
    stopper.join();
    const JsonValue stats = statsOf(**server);
    EXPECT_EQ(stats.find("per_op")->find("ping"), nullptr)
        << stats.dump();
    EXPECT_EQ(stats.find("queue_depth")->number(), 0.0);
}

/** This process's mappings, one /proc/self/maps line each. */
std::vector<std::string>
mappings()
{
    std::ifstream maps("/proc/self/maps");
    std::vector<std::string> out;
    for (std::string line; std::getline(maps, line);)
        out.push_back(line);
    return out;
}

/**
 * Thread stacks among @p maps, live or held by an unjoined thread or
 * glibc's stack cache. glibc maps each one as an anonymous read-write
 * region right above a one-page PROT_NONE guard. A malloc arena has
 * the reverse layout (its read-write heap below its PROT_NONE
 * reserve), so arenas, which a loaded host makes glibc add for new
 * threads, do not count.
 */
std::size_t
threadStacks(const std::vector<std::string> &maps)
{
    const unsigned long page = sysconf(_SC_PAGESIZE);
    std::size_t stacks = 0;
    unsigned long guard_end = 0;   // end of the last lone guard page
    for (const std::string &line : maps) {
        unsigned long start = 0;
        unsigned long end = 0;
        char perms[5] = {};
        unsigned long inode = 1;
        int consumed = 0;
        std::sscanf(line.c_str(), "%lx-%lx %4s %*s %*s %lu %n", &start,
                    &end, perms, &inode, &consumed);
        const bool anonymous =
            inode == 0 && static_cast<std::size_t>(consumed) == line.size();
        if (anonymous && start == guard_end &&
            std::strcmp(perms, "rw-p") == 0)
            ++stacks;
        guard_end = anonymous && std::strcmp(perms, "---p") == 0 &&
                            end - start == page
                        ? end
                        : 0;
    }
    return stacks;
}

/** The lines of @p after that @p before lacks, one a line. */
std::string
newMappings(std::vector<std::string> before,
            const std::vector<std::string> &after)
{
    std::sort(before.begin(), before.end());
    std::string out;
    for (const std::string &line : after) {
        if (!std::binary_search(before.begin(), before.end(), line))
            out += line + "\n";
    }
    return out;
}

TEST(EvalServer, ReadersOfClosedConnectionsAreJoined)
{
    ServerOptions opts;
    opts.endpoint = Endpoint::unixPath(testSocketPath("join"));
    opts.workers = 2;
    auto server = EvalServer::start(opts);
    ASSERT_TRUE(server.ok()) << server.status().toString();

    auto pingOnce = [&] {
        auto sock = connectTo((*server)->endpoint());
        ASSERT_TRUE(sock.ok()) << sock.status().toString();
        ASSERT_TRUE(sock->setRecvTimeout(30.0).ok());
        auto pong = roundTrip(*sock, "{\"op\":\"ping\"}");
        ASSERT_TRUE(pong.ok()) << pong.status().toString();
    };
    // Warm up the stack cache.
    for (int i = 0; i < 20; ++i)
        pingOnce();
    const std::vector<std::string> before = mappings();
    // The accept thread's stack at least; none found means this libc
    // lays stacks out differently and the count below would be blind.
    ASSERT_GT(threadStacks(before), 0u);

    // A reader thread left unjoined keeps its whole stack mapped, so
    // 300 of them would add 300 stacks. Joined ones leave a few: the
    // live reader and glibc's cache of freed stacks (40 MiB).
    constexpr std::size_t kConnections = 300;
    for (std::size_t i = 0; i < kConnections; ++i)
        pingOnce();
    const std::vector<std::string> after = mappings();
    EXPECT_LT(threadStacks(after), threadStacks(before) + 30)
        << "new mappings:\n" << newMappings(before, after);

    (*server)->stop();
}

TEST(EvalServer, AcceptRecoversFromRunningOutOfDescriptors)
{
    // Linux accept() takes its descriptor slot before it waits for a
    // connection, so every slot must be full before the accept thread
    // exists: the client's socket is opened first, then the limit
    // leaves exactly one slot, which the listener takes. Each accept
    // then fails with EMFILE until the limit is raised again.
    const std::string path = testSocketPath("emfile");
    Socket client(::socket(AF_UNIX, SOCK_STREAM, 0));
    ASSERT_TRUE(client.valid()) << std::strerror(errno);
    ASSERT_LT(path.size(), sizeof(sockaddr_un::sun_path));
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size());

    rlimit saved{};
    ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
    const int lowestFree = ::open("/dev/null", O_RDONLY);
    ASSERT_GE(lowestFree, 0);
    ::close(lowestFree);
    rlimit lowered = saved;
    lowered.rlim_cur = static_cast<rlim_t>(lowestFree) + 1;
    ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &lowered), 0);

    ServerOptions opts;
    opts.endpoint = Endpoint::unixPath(path);
    opts.workers = 2;
    auto server = EvalServer::start(opts);
    int connected = -1;
    int connectErrno = 0;
    if (server.ok()) {
        connected = ::connect(client.fd(),
                              reinterpret_cast<sockaddr *>(&addr),
                              sizeof addr);
        connectErrno = errno;
    }
    const Status sent = client.sendAll("{\"op\":\"ping\"}\n");
    const Status bounded = client.setRecvTimeout(0.2);
    std::string buffer;
    std::string line;
    const Expected<bool> early = client.recvLine(&buffer, &line);
    ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);

    ASSERT_TRUE(server.ok()) << server.status().toString();
    ASSERT_EQ(connected, 0) << std::strerror(connectErrno);
    ASSERT_TRUE(sent.ok()) << sent.toString();
    ASSERT_TRUE(bounded.ok()) << bounded.toString();
    // The daemon cannot accept the connection yet, so nothing answers.
    ASSERT_FALSE(early.ok()) << "reply while out of descriptors: " << line;
    EXPECT_NE(early.status().message().find("timed out"), std::string::npos)
        << early.status().toString();

    ASSERT_TRUE(client.setRecvTimeout(10.0).ok());
    const Expected<bool> pong = client.recvLine(&buffer, &line);
    ASSERT_TRUE(pong.ok()) << pong.status().toString();
    ASSERT_TRUE(*pong) << "EOF before the pong";
    EXPECT_NE(line.find("\"ok\":true"), std::string::npos) << line;

    (*server)->stop();
}

} // anonymous namespace
