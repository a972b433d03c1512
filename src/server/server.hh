/**
 * @file
 * The ena-server daemon core: sockets + threads around EvalService.
 *
 * Architecture: one accept-loop thread hands each connection to its
 * own reader thread; readers push {connection, request line} work
 * items into a bounded RequestQueue (backpressure toward slow or
 * flooding clients), and a fixed pool of worker threads pops items,
 * dispatches through EvalService — which runs evaluations on the
 * shared ThreadPool — and writes
 * the response line back under a per-connection write mutex (responses
 * to one connection's pipelined requests may interleave in completion
 * order; the echoed "id" field is the client's correlation handle).
 *
 * A request line longer than kMaxRequestLineBytes gets an out_of_range
 * error response from its reader, which then closes the connection.
 *
 * Shutdown: requestStop() is idempotent and safe from any thread
 * (including a worker serving the "shutdown" op); stop() additionally
 * joins every thread and must be called from outside them.
 */

#ifndef ENA_SERVER_SERVER_HH
#define ENA_SERVER_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "server/eval_service.hh"
#include "server/request_queue.hh"
#include "util/net.hh"
#include "util/status.hh"

namespace ena {

/**
 * The longest request line the daemon reads, newline excluded. Requests
 * are config texts of a few hundred bytes; a longer line is answered
 * with an out_of_range error and its connection is closed.
 */
constexpr std::size_t kMaxRequestLineBytes = std::size_t(1) << 20;

struct ServerOptions
{
    Endpoint endpoint = Endpoint::unixPath("ena-server.sock");
    int workers = 4;
    std::size_t queueCapacity = 256;
};

class EvalServer
{
  public:
    /** Bind, listen, and spin up the accept/worker threads. */
    static Expected<std::unique_ptr<EvalServer>> start(
        const ServerOptions &opts);

    ~EvalServer();

    EvalServer(const EvalServer &) = delete;
    EvalServer &operator=(const EvalServer &) = delete;

    /** The bound endpoint (TCP port resolved when 0 was requested). */
    const Endpoint &endpoint() const { return listener_.endpoint(); }

    EvalService &service() { return service_; }

    /** Block until a shutdown request arrives or stop() is called. */
    void wait();

    /** Begin shutdown; safe from any thread, idempotent. */
    void requestStop();

    /** Shut down and join every thread. Call from outside them. */
    void stop();

  private:
    struct Connection
    {
        Socket socket;
        std::mutex writeMu;
    };

    struct WorkItem
    {
        std::shared_ptr<Connection> conn;
        std::string line;
    };

    explicit EvalServer(const ServerOptions &opts);

    void acceptLoop();
    void readerLoop(std::shared_ptr<Connection> conn);
    void workerLoop();

    ServerOptions opts_;
    Listener listener_;
    EvalService service_;
    RequestQueue<WorkItem> queue_;

    std::thread acceptThread_;
    std::vector<std::thread> workerThreads_;

    std::mutex connsMu_;
    std::vector<std::shared_ptr<Connection>> conns_;
    std::vector<std::thread> readerThreads_;

    std::atomic<bool> stopping_{false};
    std::mutex waitMu_;
    std::condition_variable waitCv_;
};

} // namespace ena

#endif // ENA_SERVER_SERVER_HH
