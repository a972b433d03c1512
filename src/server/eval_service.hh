/**
 * @file
 * Socket-free request dispatcher for the evaluation server: one JSON
 * request object in, one JSON response line out. EvalServer wraps it
 * with sockets and a reader thread per connection; tests and benches
 * drive it directly.
 *
 * Protocol (newline-delimited JSON objects on the wire):
 *
 *   request:  {"op": "<name>", "id": <any>, ...op parameters}
 *   response: {"id": <echoed>, "ok": true,  "result": {...}}
 *          or {"id": <echoed>, "ok": false,
 *              "error": {"code": "<error code name>", "message": "..."}}
 *
 * EvalServer answers each connection's requests one at a time, in the
 * order they were sent; the echoed "id" is the client's correlation
 * handle. stats.queue_depth counts the requests waiting for one of the
 * server's evaluation slots (ServerOptions::workers).
 *
 * Operations: ping, stats, shutdown, eval_node, sweep, table2,
 * cluster_eval, resilient_eval, taskgraph_eval. Config payloads reuse
 * the repo's "key = value" config-text format (Config::tryFromString)
 * under a "config" string parameter; taskgraph_eval reads the node,
 * cluster, and taskgraph layers from one config text plus a
 * "scheduler" parameter.
 *
 * Error discipline: every failure crosses this boundary as an
 * ena::Status mapped to a structured error response — handle() never
 * throws and never calls a fatal path. Evaluations run on the shared
 * ThreadPool through the same NodeEvaluator::evaluate() the library
 * uses, so results are bit-identical to in-process evaluation by
 * construction.
 *
 * Encoding: each op writes its result straight into the response line
 * with a wire::JsonWriter; no JsonValue is built on the response path.
 * When an op fails after writing part of its result, the line is cut
 * back to the echoed id before the error is written.
 *
 * Accounting: stats.per_op counts requests per op that has run; every
 * unknown op shares the one key "unknown" (and the latency histogram
 * server.latency_us.unknown), so hostile op names cannot grow it.
 *
 * Thread safety: handle()/handleLine() may be called concurrently from
 * any number of threads.
 */

#ifndef ENA_SERVER_EVAL_SERVICE_HH
#define ENA_SERVER_EVAL_SERVICE_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

#include "core/node_evaluator.hh"
#include "server/wire.hh"
#include "util/status.hh"

namespace ena {

namespace telemetry {
class Histogram;
}

class EvalService
{
  public:
    EvalService() = default;

    /**
     * Dispatch one parsed request and return its response line (no
     * trailing newline). Never throws.
     */
    std::string handle(const wire::JsonValue &request);

    /**
     * Parse one protocol line and dispatch it. The returned response
     * line carries no trailing newline. Never throws.
     */
    std::string handleLine(const std::string &line);

    /**
     * The response to a request that could not be read or parsed: an
     * error carrying @p why, with a null id. Counts as a request
     * answered with an error.
     */
    std::string errorResponse(const Status &why);

    /** True once a shutdown request has been served. */
    bool stopRequested() const { return stop_.load(); }

    /** Source for the stats op's queue_depth (requests waiting for an
     *  evaluation slot). */
    void
    setQueueDepthProbe(std::function<std::size_t()> probe)
    {
        queueDepthProbe_ = std::move(probe);
    }

    std::uint64_t requestsHandled() const { return requests_.load(); }
    std::uint64_t errorsReturned() const { return errors_.load(); }

  private:
    /** Writes the op's result (one JSON value) or returns its error. */
    using Handler = Status (EvalService::*)(const wire::JsonValue &,
                                            wire::JsonWriter &);

    struct Op
    {
        const char *name;
        Handler handler;
    };

    /** The ops, sorted by name: the order stats.per_op lists them in. */
    static const Op kOps[];
    static constexpr std::size_t kNumOps = 9;

    /** Requests of one op, and its latency histogram once first used. */
    struct OpStats
    {
        std::atomic<std::uint64_t> requests{0};
        std::atomic<telemetry::Histogram *> latency{nullptr};
    };

    Status dispatch(const std::string &op, const wire::JsonValue &req,
                    wire::JsonWriter &out);

    /** The "ok":false and "error" members; counts the error. */
    void writeError(wire::JsonWriter &out, const Status &why);

    Status opPing(const wire::JsonValue &, wire::JsonWriter &out);
    Status opStats(const wire::JsonValue &, wire::JsonWriter &out);
    Status opShutdown(const wire::JsonValue &, wire::JsonWriter &out);
    Status opEvalNode(const wire::JsonValue &req, wire::JsonWriter &out);
    Status opSweep(const wire::JsonValue &req, wire::JsonWriter &out);
    Status opTable2(const wire::JsonValue &req, wire::JsonWriter &out);
    Status opClusterEval(const wire::JsonValue &req,
                         wire::JsonWriter &out);
    Status opResilientEval(const wire::JsonValue &req,
                           wire::JsonWriter &out);
    Status opTaskGraphEval(const wire::JsonValue &req,
                           wire::JsonWriter &out);

    NodeEvaluator eval_;
    std::function<std::size_t()> queueDepthProbe_;
    std::atomic<bool> stop_{false};
    std::atomic<std::uint64_t> requests_{0};
    std::atomic<std::uint64_t> errors_{0};

    /** One slot per kOps entry, then one shared by every unknown op,
     *  so hostile op names cannot grow the server's state. */
    std::array<OpStats, kNumOps + 1> perOp_;
};

} // namespace ena

#endif // ENA_SERVER_EVAL_SERVICE_HH
