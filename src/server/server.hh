/**
 * @file
 * The ena-server daemon core: sockets + threads around EvalService.
 *
 * Architecture: one accept-loop thread hands each connection to its
 * own reader thread, which serves that connection's requests one at a
 * time, in order. For each request line the reader takes one of
 * ServerOptions::workers evaluation slots (waiting while all are in
 * use), dispatches through EvalService — which runs evaluations on
 * the shared ThreadPool — gives the slot back, and only then writes
 * the response. So at most `workers` requests are evaluated at once,
 * and a client that never reads its responses stalls only its own
 * reader, in the send, holding no slot. The echoed "id" field stays
 * the client's correlation handle.
 *
 * A request line longer than kMaxRequestLineBytes gets an out_of_range
 * error response from its reader, which then closes the connection.
 *
 * A reader that has exited is joined when the next connection is
 * accepted, so the daemon keeps a thread per open connection, not per
 * connection it has ever served.
 *
 * Shutdown: requestStop() is idempotent and safe from any thread
 * (including a reader serving the "shutdown" op); readers waiting for
 * a slot then exit without evaluating. stop() additionally joins
 * every thread and must be called from outside them.
 */

#ifndef ENA_SERVER_SERVER_HH
#define ENA_SERVER_SERVER_HH

#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "server/eval_service.hh"
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
    /** At most this many requests are evaluated at once. */
    int workers = 4;
};

class EvalServer
{
  public:
    /** Bind, listen, and spin up the accept thread. */
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
    explicit EvalServer(const ServerOptions &opts);

    void acceptLoop();
    void readerLoop(std::unique_ptr<Socket> socket);
    /** Join the readers that have exited since the last call. */
    void joinFinishedReaders();

    /** Wait for a free evaluation slot; false once stopping. */
    bool acquireSlot();
    void releaseSlot();
    bool stopping();

    Listener listener_;
    EvalService service_;

    std::mutex gateMu_;
    std::condition_variable slotFreed_;
    std::condition_variable stopCv_;
    int freeSlots_;                   ///< guarded by gateMu_
    std::size_t waitingForSlot_ = 0;  ///< guarded by gateMu_
    bool stopping_ = false;           ///< guarded by gateMu_

    std::mutex connsMu_;
    std::vector<Socket *> conns_;  ///< open connections, owned by readers
    std::unordered_map<std::thread::id, std::thread> readerThreads_;
    std::vector<std::thread::id> finishedReaders_;  ///< not yet joined

    std::thread acceptThread_;
};

} // namespace ena

#endif // ENA_SERVER_SERVER_HH
