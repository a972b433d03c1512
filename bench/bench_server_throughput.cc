/**
 * @file
 * Gate + throughput measurement for the evaluation server. Two parts:
 *
 *  (a) identity gate (fatal to the exit code): a sweep evaluated
 *      through a live ena-server over a Unix socket must be
 *      bit-identical to serial local evaluation, point for point;
 *  (b) throughput: requests/sec for single-point eval_node calls, and
 *      points/sec for one large sweep request.
 *
 * With ENA_METRICS set it also prints, for each of the two phases, how
 * many socket reads that had to wait were served inside recvLine's
 * poll window (net.recv_polled) rather than by the blocking recv
 * (net.recv_blocked); client and server reads both count.
 *
 * Usage: bench_server_throughput [REQUESTS] [--json <path>]
 *        (default 2000 eval_node requests)
 */

#include <chrono>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench_util.hh"
#include "common/node_config_io.hh"
#include "server/client.hh"
#include "server/server.hh"
#include "telemetry/metrics.hh"
#include "telemetry/telemetry.hh"

using namespace ena;

namespace {

int failures = 0;

void
check(bool cond, const std::string &what)
{
    if (cond) {
        std::cout << "  ok: " << what << "\n";
    } else {
        std::cerr << "  FAIL: " << what << "\n";
        ++failures;
    }
}

std::uint64_t
doubleBits(double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    return bits;
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** The request mix for the eval_node phase: distinct configs. */
std::vector<NodeConfig>
requestConfigs(int n)
{
    std::vector<NodeConfig> cfgs;
    cfgs.reserve(n);
    NodeConfig base = NodeConfig::bestMean();
    for (int i = 0; i < n; ++i) {
        NodeConfig cfg = base;
        cfg.cus = 192 + 32 * (i % 7);
        cfg.freqGhz = 0.6 + 0.0001 * i;
        cfg.bwTbs = 1.0 + 0.25 * (i % 9);
        cfg.validate();
        cfgs.push_back(cfg);
    }
    return cfgs;
}

/** Socket reads that waited: inside the poll window, and past it. */
struct RecvWaits
{
    std::uint64_t polled = 0;
    std::uint64_t blocked = 0;

    static RecvWaits
    now()
    {
        return {telemetry::counter("net.recv_polled").value(),
                telemetry::counter("net.recv_blocked").value()};
    }

    RecvWaits
    since(const RecvWaits &start) const
    {
        return {polled - start.polled, blocked - start.blocked};
    }

    std::string
    describe() const
    {
        const std::uint64_t waits = polled + blocked;
        return strformat("%llu of %llu waits polled (%.1f%%)",
                         static_cast<unsigned long long>(polled),
                         static_cast<unsigned long long>(waits),
                         waits ? 100.0 * polled / waits : 0.0);
    }
};

double
evalNodePhase(ServerClient &client, const std::vector<NodeConfig> &cfgs,
              const char *app)
{
    auto t0 = std::chrono::steady_clock::now();
    for (const NodeConfig &cfg : cfgs) {
        wire::JsonValue params = wire::JsonValue::object();
        params.set("app", app);
        params.set("config", nodeConfigToConfig(cfg).toString());
        auto r = client.call("eval_node", std::move(params));
        if (!r.ok()) {
            std::cerr << "eval_node failed: " << r.status().toString()
                      << "\n";
            std::exit(1);
        }
    }
    return static_cast<double>(cfgs.size()) / secondsSince(t0);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    int requests = 2000;
    if (argc > 1 && argv[1][0] != '-')
        requests = std::atoi(argv[1]);
    if (requests < 1)
        requests = 1;

    bench::banner("the evaluation server",
                  "Local-vs-server bit-identity gate and request "
                  "throughput");

    ServerOptions opts;
    opts.endpoint = Endpoint::unixPath(
        "/tmp/ena-bench-" + std::to_string(::getpid()) + ".sock");
    opts.workers = 4;
    auto server = EvalServer::start(opts);
    if (!server.ok()) {
        std::cerr << "cannot start server: "
                  << server.status().toString() << "\n";
        return 1;
    }

    ClientOptions copts;
    copts.endpoint = (*server)->endpoint();
    ServerClient client(copts);

    // --- (a) identity gate: server sweep vs serial local evaluation.
    std::cout << "identity gate (lulesh bw 1..7 step 0.25):\n";
    const NodeConfig base = NodeConfig::bestMean();
    auto points = client.sweepAxis("lulesh", "bw", 1.0, 7.0, 0.25);
    if (!points.ok()) {
        std::cerr << "server sweep failed: "
                  << points.status().toString() << "\n";
        return 1;
    }
    NodeEvaluator local;
    std::size_t i = 0;
    bool identical = true;
    for (double v = 1.0; v <= 7.0 + 1e-9; v += 0.25, ++i) {
        NodeConfig cfg = base;
        cfg.bwTbs = v;
        cfg.validate();
        EvalResult r = local.evaluate(cfg, App::LULESH);
        if (i >= points->size() ||
            doubleBits((*points)[i].flops) != doubleBits(r.perf.flops) ||
            doubleBits((*points)[i].totalW) != doubleBits(r.power.total()) ||
            doubleBits((*points)[i].budgetW) !=
                doubleBits(r.power.budgetPower()) ||
            (*points)[i].memoryBound != r.perf.memoryBound) {
            identical = false;
            break;
        }
    }
    check(identical && i == points->size(),
          "server sweep is bit-identical to serial local evaluation");

    // --- (b) throughput: eval_node requests/sec.
    const RecvWaits evalStart = RecvWaits::now();
    double evalRps =
        evalNodePhase(client, requestConfigs(requests), "hpgmg");
    const RecvWaits evalWaits = RecvWaits::now().since(evalStart);

    // One large sweep request.
    const RecvWaits sweepStart = RecvWaits::now();
    auto t0 = std::chrono::steady_clock::now();
    auto big = client.sweepAxis("comd", "freq", 0.5, 1.5, 0.0005);
    double sweepSec = secondsSince(t0);
    const RecvWaits sweepWaits = RecvWaits::now().since(sweepStart);
    if (!big.ok()) {
        std::cerr << "large sweep failed: " << big.status().toString()
                  << "\n";
        return 1;
    }
    double sweepPps = static_cast<double>(big->size()) / sweepSec;

    std::cout << "\neval_node requests:     " << requests
              << "\neval_node requests/sec: " << evalRps
              << "\nsweep points/sec:       " << sweepPps << " ("
              << big->size() << " points in one request)\n";
    if (telemetry::metricsEnabled()) {
        std::cout << "\nsocket reads served by the poll window:"
                  << "\n  eval_node phase: " << evalWaits.describe()
                  << "\n  sweep phase:     " << sweepWaits.describe()
                  << "\n";
    }

    (*server)->stop();

    std::string jsonPath = bench::jsonPathFromArgs(argc, argv);
    if (!jsonPath.empty()) {
        bench::JsonReport report("server_throughput");
        report.metric("requests", requests);
        report.metric("eval_node_requests_per_sec", evalRps);
        report.metric("sweep_points_per_sec", sweepPps);
        report.metric("sweep_points", static_cast<double>(big->size()));
        report.metric("identical", identical ? 1.0 : 0.0);
        report.context("endpoint", opts.endpoint.toString());
        report.context("workers", std::to_string(opts.workers));
        if (!report.writeTo(jsonPath))
            return 1;
    }

    if (failures) {
        std::cerr << "\n" << failures << " check(s) FAILED\n";
        return 1;
    }
    std::cout << "\nall checks passed\n";
    return 0;
}
