/**
 * @file
 * Socket-free request dispatcher for the evaluation server: one JSON
 * request object in, one JSON response object out. EvalServer wraps it
 * with sockets and worker threads; tests and benches drive it
 * directly.
 *
 * Protocol (newline-delimited JSON objects on the wire):
 *
 *   request:  {"op": "<name>", "id": <any>, ...op parameters}
 *   response: {"id": <echoed>, "ok": true,  "result": {...}}
 *          or {"id": <echoed>, "ok": false,
 *              "error": {"code": "<error code name>", "message": "..."}}
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
 * Thread safety: handle()/handleLine() may be called concurrently from
 * any number of worker threads.
 */

#ifndef ENA_SERVER_EVAL_SERVICE_HH
#define ENA_SERVER_EVAL_SERVICE_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>

#include "core/node_evaluator.hh"
#include "server/wire.hh"
#include "util/status.hh"

namespace ena {

class EvalService
{
  public:
    EvalService() = default;

    /** Dispatch one parsed request. Never throws. */
    wire::JsonValue handle(const wire::JsonValue &request);

    /**
     * Parse one protocol line and dispatch it. The returned response
     * line carries no trailing newline. Never throws.
     */
    std::string handleLine(const std::string &line);

    /** True once a shutdown request has been served. */
    bool stopRequested() const { return stop_.load(); }

    /** Source for the stats op's queue_depth (the server's queue). */
    void
    setQueueDepthProbe(std::function<std::size_t()> probe)
    {
        queueDepthProbe_ = std::move(probe);
    }

    std::uint64_t requestsHandled() const { return requests_.load(); }
    std::uint64_t errorsReturned() const { return errors_.load(); }

  private:
    Expected<wire::JsonValue> dispatch(const std::string &op,
                                       const wire::JsonValue &req);

    Expected<wire::JsonValue> opPing() const;
    Expected<wire::JsonValue> opStats();
    Expected<wire::JsonValue> opShutdown();
    Expected<wire::JsonValue> opEvalNode(const wire::JsonValue &req);
    Expected<wire::JsonValue> opSweep(const wire::JsonValue &req);
    Expected<wire::JsonValue> opTable2(const wire::JsonValue &req);
    Expected<wire::JsonValue> opClusterEval(const wire::JsonValue &req);
    Expected<wire::JsonValue> opResilientEval(const wire::JsonValue &req);
    Expected<wire::JsonValue> opTaskGraphEval(const wire::JsonValue &req);

    NodeEvaluator eval_;
    std::function<std::size_t()> queueDepthProbe_;
    std::atomic<bool> stop_{false};
    std::atomic<std::uint64_t> requests_{0};
    std::atomic<std::uint64_t> errors_{0};

    mutable std::mutex perOpMu_;
    std::map<std::string, std::uint64_t> perOp_;
};

} // namespace ena

#endif // ENA_SERVER_EVAL_SERVICE_HH
