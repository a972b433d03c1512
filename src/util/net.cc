#include "util/net.hh"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>

#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <unistd.h>

#include "telemetry/metrics.hh"
#include "util/string_utils.hh"

namespace ena {

namespace {

/**
 * How long recvLine polls with non-blocking reads before it blocks. A
 * request or reply that arrives within it is read by a thread that is
 * still running, so neither side of a round trip waits for the kernel
 * to wake a sleeping reader. Chosen on perfbench server_mix (Release,
 * 4-vCPU KVM guest, 5 s runs, seeds 1-10 with the three budgets in
 * rotation): 20 us lost p50 to 50 us on all 10 seeds (median 0.032
 * against 0.029 ms, up to 0.086 ms on a busy host); 100 us was level
 * with 50 us (p50 0.0286 ms, ops/s and p99 split between the two) and
 * spins twice as long on a wait it misses. Against the blocking read,
 * 50 us cut p50 from 0.047 to 0.028 ms (seeds 1-10, 10/10 pairs).
 */
constexpr std::chrono::microseconds kRecvPollBudget{50};

telemetry::Counter &
recvPolledCounter()
{
    static telemetry::Counter &c = telemetry::counter(
        "net.recv_polled",
        "socket reads that found no data at first and were served "
        "inside the poll window");
    return c;
}

telemetry::Counter &
recvBlockedCounter()
{
    static telemetry::Counter &c = telemetry::counter(
        "net.recv_blocked",
        "socket reads that found no data and went on to a blocking "
        "recv: past the poll window, or a socket's first wait");
    return c;
}

Status
errnoStatus(const char *what)
{
    return Status::ioError(what, ": ", std::strerror(errno));
}

/** True when a non-blocking recv that returned @p n found nothing yet. */
bool
nothingYet(ssize_t n)
{
    return n < 0 &&
           (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR);
}

/**
 * recv() into @p chunk. When nothing has arrived yet and @p poll is
 * set, first poll for kRecvPollBudget: non-blocking tries with a yield
 * between them, so a thread queued for the poller's CPU (a pool
 * worker, say) runs instead of waiting. Data, EOF or any other error
 * ends the poll and is returned as the blocking recv would return it.
 * After the window the blocking recv keeps the socket's SO_RCVTIMEO,
 * EOF and shutdown() behaviour.
 *
 * @p poll starts false on a new socket and is set by its first wait,
 * so that wait blocks at once. On a fresh connection the peer is still
 * starting up (accepting, starting its reader thread), which takes
 * longer than the window; on a host short of CPU a poll there only
 * holds a vCPU that the starting threads need.
 */
ssize_t
recvPolled(int fd, char *chunk, std::size_t size, bool *poll)
{
    ssize_t n = ::recv(fd, chunk, size, MSG_DONTWAIT);
    if (!nothingYet(n))
        return n; // no wait: the data (or EOF) was already there
    if (*poll) {
        const auto deadline =
            std::chrono::steady_clock::now() + kRecvPollBudget;
        while (std::chrono::steady_clock::now() < deadline) {
            std::this_thread::yield();
            n = ::recv(fd, chunk, size, MSG_DONTWAIT);
            if (!nothingYet(n)) {
                const int err = errno; // the caller reads recv's errno
                recvPolledCounter().add();
                errno = err;
                return n;
            }
        }
    }
    *poll = true;
    recvBlockedCounter().add();
    return ::recv(fd, chunk, size, 0);
}

/** Fill a sockaddr_un; OutOfRange when the path exceeds sun_path. */
Expected<sockaddr_un>
unixAddr(const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.empty())
        return Status::invalidArgument("empty Unix socket path");
    if (path.size() >= sizeof(addr.sun_path)) {
        return Status::outOfRange("Unix socket path too long (",
                                  path.size(), " bytes, max ",
                                  sizeof(addr.sun_path) - 1, "): ", path);
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    return addr;
}

Expected<sockaddr_in>
tcpAddr(const std::string &host, int port)
{
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (port < 0 || port > 65535)
        return Status::outOfRange("bad TCP port ", port);
    if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        return Status::invalidArgument("bad IPv4 address '", host,
                                       "' (hostnames not supported)");
    }
    return addr;
}

} // anonymous namespace

std::string
Endpoint::toString() const
{
    if (kind == Kind::Unix)
        return "unix:" + path;
    return strformat("tcp:%s:%d", host.c_str(), port);
}

Expected<Endpoint>
tryParseEndpoint(const std::string &text)
{
    std::string s = trim(text);
    if (s.empty())
        return Status::invalidArgument("empty endpoint");

    if (startsWith(s, "unix:"))
        return Endpoint::unixPath(s.substr(5));

    if (startsWith(s, "tcp:")) {
        std::string rest = s.substr(4);
        std::size_t colon = rest.rfind(':');
        if (colon == std::string::npos) {
            return Status::parseError(
                "bad TCP endpoint '", s, "' (want tcp:host:port)");
        }
        std::optional<long long> port =
            parseInt(rest.substr(colon + 1));
        if (!port || *port < 0 || *port > 65535) {
            return Status::parseError("bad TCP port in endpoint '", s,
                                      "'");
        }
        std::string host = rest.substr(0, colon);
        return Endpoint::tcp(host.empty() ? "127.0.0.1" : host,
                             static_cast<int>(*port));
    }

    // Bare integer: a local TCP port. Anything path-like: Unix.
    if (std::optional<long long> port = parseInt(s);
        port && *port >= 0 && *port <= 65535) {
        return Endpoint::tcp("127.0.0.1", static_cast<int>(*port));
    }
    return Endpoint::unixPath(s);
}

Status
Socket::sendAll(std::string_view data)
{
    if (!valid())
        return Status::failedPrecondition("send on closed socket");
    std::size_t off = 0;
    while (off < data.size()) {
        ssize_t n = ::send(fd_, data.data() + off, data.size() - off,
                           MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return errnoStatus("send");
        }
        off += static_cast<std::size_t>(n);
    }
    return Status();
}

Expected<bool>
Socket::recvLine(std::string *buffer, std::string *line,
                 std::size_t maxLine)
{
    if (!valid())
        return Status::failedPrecondition("recv on closed socket");
    std::size_t searched = 0;
    for (;;) {
        const std::size_t nl = buffer->find('\n', searched);
        if (nl != std::string::npos && nl <= maxLine) {
            line->assign(*buffer, 0, nl);
            buffer->erase(0, nl + 1);
            return true;
        }
        // No newline among the first maxLine + 1 bytes: too long.
        if (buffer->size() > maxLine) {
            return Status::outOfRange("line longer than ", maxLine,
                                      " bytes");
        }
        searched = buffer->size();
        char chunk[4096];
        ssize_t n = recvPolled(fd_, chunk, sizeof chunk, &pollWaits_);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return Status::ioError("recv timed out");
            return errnoStatus("recv");
        }
        if (n == 0) {
            // Orderly EOF. A partial trailing line is a peer that died
            // mid-write; report it rather than silently dropping bytes.
            if (!buffer->empty()) {
                return Status::ioError(
                    "connection closed mid-line (", buffer->size(),
                    " bytes pending)");
            }
            return false;
        }
        buffer->append(chunk, static_cast<std::size_t>(n));
    }
}

Status
Socket::setRecvTimeout(double seconds)
{
    if (!valid())
        return Status::failedPrecondition("timeout on closed socket");
    timeval tv{};
    if (seconds > 0.0) {
        tv.tv_sec = static_cast<time_t>(seconds);
        tv.tv_usec = static_cast<suseconds_t>(
            (seconds - static_cast<double>(tv.tv_sec)) * 1e6);
    }
    if (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv) != 0)
        return errnoStatus("setsockopt(SO_RCVTIMEO)");
    return Status();
}

void
Socket::shutdownBoth()
{
    if (valid())
        ::shutdown(fd_, SHUT_RDWR);
}

void
Socket::shutdownWrite()
{
    if (valid())
        ::shutdown(fd_, SHUT_WR);
}

void
Socket::discardInput(std::size_t maxBytes)
{
    if (!valid())
        return;
    char chunk[4096];
    std::size_t dropped = 0;
    while (dropped < maxBytes) {
        ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return;
        dropped += static_cast<std::size_t>(n);
    }
}

void
Socket::close()
{
    if (valid()) {
        ::close(fd_);
        fd_ = -1;
    }
}

Expected<Socket>
connectTo(const Endpoint &ep)
{
    if (ep.kind == Endpoint::Kind::Unix) {
        ENA_ASSIGN_OR_RETURN(sockaddr_un addr, unixAddr(ep.path));
        int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0)
            return errnoStatus("socket");
        Socket s(fd);
        if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof addr) != 0) {
            return errnoStatus("connect").withContext("connecting to ",
                                                      ep.toString());
        }
        return s;
    }

    ENA_ASSIGN_OR_RETURN(sockaddr_in addr, tcpAddr(ep.host, ep.port));
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return errnoStatus("socket");
    Socket s(fd);
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof addr) != 0) {
        return errnoStatus("connect").withContext("connecting to ",
                                                  ep.toString());
    }
    return s;
}

Listener::~Listener()
{
    release();
}

Listener::Listener(Listener &&o) noexcept
    : fd_(o.fd_), closed_(o.closed_.load()),
      endpoint_(std::move(o.endpoint_))
{
    o.fd_ = -1;
}

Listener &
Listener::operator=(Listener &&o) noexcept
{
    if (this != &o) {
        release();
        fd_ = o.fd_;
        closed_.store(o.closed_.load());
        endpoint_ = std::move(o.endpoint_);
        o.fd_ = -1;
    }
    return *this;
}

Expected<Listener>
Listener::listenOn(const Endpoint &ep)
{
    Listener l;
    l.endpoint_ = ep;

    if (ep.kind == Endpoint::Kind::Unix) {
        ENA_ASSIGN_OR_RETURN(sockaddr_un addr, unixAddr(ep.path));
        int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0)
            return errnoStatus("socket");
        l.fd_ = fd;
        if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
                   sizeof addr) != 0) {
            if (errno != EADDRINUSE) {
                return errnoStatus("bind").withContext("listening on ",
                                                       ep.toString());
            }
            // A socket file exists. Probe it: if nobody answers, it is
            // stale debris from a dead server — remove and rebind. If
            // a live server answers, refuse to hijack the address.
            if (connectTo(ep).ok()) {
                return Status::failedPrecondition(
                    "a server is already listening on ",
                    ep.toString());
            }
            ::unlink(ep.path.c_str());
            if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
                       sizeof addr) != 0) {
                return errnoStatus("bind").withContext(
                    "listening on ", ep.toString());
            }
        }
    } else {
        ENA_ASSIGN_OR_RETURN(sockaddr_in addr,
                             tcpAddr(ep.host, ep.port));
        int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0)
            return errnoStatus("socket");
        l.fd_ = fd;
        int one = 1;
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
        if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
                   sizeof addr) != 0) {
            return errnoStatus("bind").withContext("listening on ",
                                                   ep.toString());
        }
        sockaddr_in bound{};
        socklen_t len = sizeof bound;
        if (::getsockname(fd, reinterpret_cast<sockaddr *>(&bound),
                          &len) == 0) {
            l.endpoint_.port = ntohs(bound.sin_port);
        }
    }

    if (::listen(l.fd_, 64) != 0)
        return errnoStatus("listen").withContext("on ", ep.toString());
    return l;
}

Expected<Socket>
Listener::accept()
{
    // fd_ stays valid for the Listener's whole lifetime; close() only
    // shuts the socket down, so this read races with nothing.
    int fd = fd_;
    if (fd < 0 || closed_.load())
        return Status::failedPrecondition("listener closed");
    for (;;) {
        int conn = ::accept(fd, nullptr, nullptr);
        if (conn >= 0) {
            if (closed_.load()) {
                ::close(conn);
                return Status::failedPrecondition("listener closed");
            }
            if (endpoint_.kind == Endpoint::Kind::Tcp) {
                int one = 1;
                ::setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &one,
                             sizeof one);
            }
            return Socket(conn);
        }
        if (closed_.load())
            return Status::failedPrecondition("listener closed");
        switch (errno) {
        case EINTR:
        case ECONNABORTED:
        case EPROTO:
        // Network errors accept(2) passes on from the pending TCP
        // connection; the listener itself is fine.
        case ENETDOWN:
        case ENOPROTOOPT:
        case EHOSTDOWN:
        case ENONET:
        case EHOSTUNREACH:
        case EOPNOTSUPP:
        case ENETUNREACH:
            continue;
        case EMFILE:
        case ENFILE:
        case ENOBUFS:
        case ENOMEM:
            // The connection waits in the backlog until descriptors
            // or memory are freed, usually by other connections
            // closing.
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
            continue;
        default:
            return errnoStatus("accept");
        }
    }
}

void
Listener::close()
{
    // shutdown() wakes a thread blocked in accept(); close() alone
    // does not on Linux. The fd itself is released in release() once
    // no other thread can be using it.
    if (fd_ >= 0 && !closed_.exchange(true))
        ::shutdown(fd_, SHUT_RDWR);
}

void
Listener::release()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
        if (endpoint_.kind == Endpoint::Kind::Unix)
            ::unlink(endpoint_.path.c_str());
    }
}

} // namespace ena
