/**
 * @file
 * Minimal POSIX socket wrapper for the evaluation server: endpoints,
 * RAII sockets, a listener, and buffered line reads. No external
 * dependencies — just enough plumbing for the newline-delimited JSON
 * protocol in src/server/.
 *
 * Errors are values (ena::Status / ena::Expected) per the repo's error
 * substrate: a refused connection or a dropped peer must never take a
 * sweep down. All sends use MSG_NOSIGNAL so a peer that disappears
 * mid-write surfaces as an IoError instead of SIGPIPE.
 *
 * Endpoints are spelled as strings:
 *
 *   unix:/path/to.sock   Unix-domain stream socket (also bare paths
 *                        containing '/' or ending in ".sock")
 *   tcp:host:port        TCP (IPv4); bare integers mean
 *                        tcp:127.0.0.1:port
 */

#ifndef ENA_UTIL_NET_HH
#define ENA_UTIL_NET_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.hh"

namespace ena {

/** Where a server listens / a client connects. */
struct Endpoint
{
    enum class Kind { Unix, Tcp };

    Kind kind = Kind::Unix;
    std::string path;              ///< Unix socket path
    std::string host = "127.0.0.1";
    int port = 0;                  ///< TCP; 0 lets the kernel pick

    /** "unix:/path" or "tcp:host:port" (round-trips through parse). */
    std::string toString() const;

    static Endpoint
    unixPath(std::string p)
    {
        Endpoint e;
        e.kind = Kind::Unix;
        e.path = std::move(p);
        return e;
    }

    static Endpoint
    tcp(std::string host, int port)
    {
        Endpoint e;
        e.kind = Kind::Tcp;
        e.host = std::move(host);
        e.port = port;
        return e;
    }
};

/** Parse the endpoint grammar above. */
Expected<Endpoint> tryParseEndpoint(const std::string &text);

/**
 * A connected (or accepted) stream socket. Move-only; closes its file
 * descriptor on destruction. A default-constructed Socket is invalid.
 */
class Socket
{
  public:
    Socket() = default;
    explicit Socket(int fd) : fd_(fd) {}
    ~Socket() { close(); }

    Socket(Socket &&o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
    Socket &
    operator=(Socket &&o) noexcept
    {
        if (this != &o) {
            close();
            fd_ = o.fd_;
            o.fd_ = -1;
        }
        return *this;
    }

    Socket(const Socket &) = delete;
    Socket &operator=(const Socket &) = delete;

    bool valid() const { return fd_ >= 0; }
    int fd() const { return fd_; }

    /** Write all of @p data (handles short writes); IoError on failure. */
    Status sendAll(std::string_view data);

    /**
     * Read one '\n'-terminated line (newline stripped) using @p buffer
     * as carry-over between calls. Returns false on orderly EOF with no
     * buffered partial line; IoError on failure or timeout; OutOfRange
     * once the line is known to be longer than @p maxLine bytes, with
     * the bytes read so far left in @p buffer. Each call searches every
     * received byte for the newline once.
     */
    Expected<bool> recvLine(std::string *buffer, std::string *line,
                            std::size_t maxLine = SIZE_MAX);

    /**
     * Bound every subsequent recv on this socket; 0 restores blocking
     * reads. A lapsed timeout surfaces as IoError("...timed out...").
     */
    Status setRecvTimeout(double seconds);

    /**
     * Wake any thread blocked in recv/send on this socket (they see
     * EOF/EPIPE). Safe to call from another thread; does not close the
     * descriptor.
     */
    void shutdownBoth();

    /** Stop sending: the peer reads EOF after the bytes already sent. */
    void shutdownWrite();

    /**
     * Read and drop incoming bytes until the peer closes, a receive
     * fails, or @p maxBytes were dropped. Closing a socket with unread
     * input resets the connection, which can also discard data the
     * peer has not read yet; draining first avoids that.
     */
    void discardInput(std::size_t maxBytes);

    void close();

  private:
    int fd_ = -1;
};

/** Connect to @p ep (blocking). */
Expected<Socket> connectTo(const Endpoint &ep);

/**
 * A listening socket bound to an endpoint. For Unix endpoints a stale
 * socket file left by a dead server is detected (connect() probe) and
 * removed; the file is unlinked again on destruction. For TCP, port 0
 * binds an ephemeral port and endpoint() reports the resolved one.
 *
 * Shutdown discipline: close() only *shuts down* the socket — it wakes
 * any thread blocked in accept() without releasing the descriptor, so
 * a racing accept can never touch a recycled fd. The descriptor is
 * released by the destructor, after the accept loop has been joined.
 */
class Listener
{
  public:
    Listener() = default;
    ~Listener();

    Listener(Listener &&) noexcept;
    Listener &operator=(Listener &&) noexcept;
    Listener(const Listener &) = delete;
    Listener &operator=(const Listener &) = delete;

    static Expected<Listener> listenOn(const Endpoint &ep);

    /**
     * Accept one connection. Blocks; FailedPrecondition once the
     * listener has been closed (the accept loop's exit signal). A
     * transient failure is retried, not returned: an aborted
     * handshake or a network error of the pending connection at once,
     * a shortage of descriptors or memory (EMFILE, ENFILE, ENOBUFS,
     * ENOMEM) after a 10 ms pause. Any other failure is an IoError.
     */
    Expected<Socket> accept();

    /** The bound endpoint (TCP port resolved when 0 was requested). */
    const Endpoint &endpoint() const { return endpoint_; }

    bool valid() const { return fd_ >= 0 && !closed_.load(); }

    /** Thread-safe and idempotent: unblocks a concurrent accept()
     *  without releasing the descriptor (see class comment). */
    void close();

  private:
    void release();

    int fd_ = -1;
    std::atomic<bool> closed_{false};
    Endpoint endpoint_;
};

} // namespace ena

#endif // ENA_UTIL_NET_HH
