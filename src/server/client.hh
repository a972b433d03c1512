/**
 * @file
 * Client library for the evaluation server: connect/retry/timeout
 * around the newline-delimited JSON protocol (see eval_service.hh).
 *
 * call() retries transport failures (connection refused, dropped
 * socket, timeout) under a RetryPolicy — every server op is an
 * idempotent evaluation, so replaying a request is safe. Application
 * errors come back as the server's ena::Status (code preserved) and
 * are never retried.
 *
 * Not thread-safe: one ServerClient per thread (connections are
 * cheap; the server multiplexes).
 */

#ifndef ENA_SERVER_CLIENT_HH
#define ENA_SERVER_CLIENT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/node_config.hh"
#include "server/wire.hh"
#include "util/net.hh"
#include "util/status.hh"
// Nothing here uses the pool, but perfbench's server_mix workload reaches
// ThreadPool::global() through this header (ROADMAP item 2).
#include "util/thread_pool.hh"

namespace ena {

/**
 * How ServerClient::call retries a transport failure: up to
 * maxAttempts tries, sleeping an exponentially growing (capped)
 * backoff between them.
 */
struct RetryPolicy
{
    int maxAttempts = 1;          ///< total tries per call (>= 1)
    double backoffUs = 0.0;       ///< sleep before the first retry
    double maxBackoffUs = 10000;  ///< cap for the exponential backoff

    /** No retries: first failure is final. */
    static RetryPolicy none() { return {}; }

    /** @p attempts tries with a short capped backoff. */
    static RetryPolicy
    attempts(int attempts)
    {
        RetryPolicy p;
        p.maxAttempts = attempts > 1 ? attempts : 1;
        p.backoffUs = attempts > 1 ? 50.0 : 0.0;
        return p;
    }
};

struct ClientOptions
{
    Endpoint endpoint;
    RetryPolicy retry = RetryPolicy::attempts(3);
    double timeoutSec = 300.0;   ///< per-response receive timeout
};

/** One point of a server-side sweep (client.cc::sweepAxis). */
struct SweepPoint
{
    double value = 0.0;
    int cus = 0;
    double freqGhz = 0.0;
    double bwTbs = 0.0;
    double opsPerByte = 0.0;
    double flops = 0.0;
    double cuUtilization = 0.0;
    double trafficGbs = 0.0;
    double budgetW = 0.0;
    double totalW = 0.0;
    bool memoryBound = false;

    double teraflops() const { return flops / 1e12; }
    double gflopsPerW() const { return flops / 1e9 / totalW; }
};

class ServerClient
{
  public:
    explicit ServerClient(ClientOptions opts) : opts_(std::move(opts)) {}

    /**
     * Send one request and wait for its response. @p params may carry
     * op parameters; "op" and "id" are filled in here. Returns the
     * response's "result" object, or the server's error as a Status.
     */
    Expected<wire::JsonValue> call(const std::string &op,
                                   wire::JsonValue params =
                                       wire::JsonValue::object());

    Expected<wire::JsonValue> ping() { return call("ping"); }
    Expected<wire::JsonValue> stats() { return call("stats"); }
    Expected<wire::JsonValue> shutdownServer()
    {
        return call("shutdown");
    }

    /**
     * Run sweep_tool's axis sweep on the server: @p axis is
     * "cus" | "freq" | "bw"; @p base (optional) fixes the other knobs.
     * The returned points carry the exact result bits the local CLI
     * would compute.
     */
    Expected<std::vector<SweepPoint>> sweepAxis(
        const std::string &app, const std::string &axis, double from,
        double to, double step, const NodeConfig *base = nullptr);

  private:
    Status ensureConnected();
    /** One send/receive round trip; IoError resets the connection. */
    Expected<wire::JsonValue> roundTrip(const std::string &line);

    ClientOptions opts_;
    Socket socket_;
    std::string buffer_;
    std::int64_t nextId_ = 1;
};

} // namespace ena

#endif // ENA_SERVER_CLIENT_HH
