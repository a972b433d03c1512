#include "server/server.hh"

#include <utility>

#include "telemetry/metrics.hh"
#include "util/logging.hh"

namespace ena {

namespace {

telemetry::Gauge &
queueDepthGauge()
{
    static telemetry::Gauge &g = telemetry::gauge(
        "server.queue_depth", "request-queue depth at dequeue time");
    return g;
}

} // anonymous namespace

EvalServer::EvalServer(const ServerOptions &opts)
    : opts_(opts), queue_(opts.queueCapacity)
{
}

Expected<std::unique_ptr<EvalServer>>
EvalServer::start(const ServerOptions &opts)
{
    if (opts.workers < 1)
        return Status::invalidArgument("server needs at least 1 worker");
    if (opts.queueCapacity < 1)
        return Status::invalidArgument("queue capacity must be >= 1");

    std::unique_ptr<EvalServer> server(new EvalServer(opts));
    ENA_ASSIGN_OR_RETURN(server->listener_,
                         Listener::listenOn(opts.endpoint));
    server->service_.setQueueDepthProbe(
        [s = server.get()] { return s->queue_.depth(); });

    server->acceptThread_ =
        std::thread([s = server.get()] { s->acceptLoop(); });
    for (int i = 0; i < opts.workers; ++i) {
        server->workerThreads_.emplace_back(
            [s = server.get()] { s->workerLoop(); });
    }
    return server;
}

EvalServer::~EvalServer()
{
    stop();
}

void
EvalServer::acceptLoop()
{
    for (;;) {
        Expected<Socket> accepted = listener_.accept();
        if (!accepted.ok())
            break; // listener closed: shutdown
        auto conn = std::make_shared<Connection>();
        conn->socket = std::move(*accepted);
        std::lock_guard<std::mutex> lock(connsMu_);
        if (stopping_.load()) {
            conn->socket.shutdownBoth();
            break;
        }
        conns_.push_back(conn);
        readerThreads_.emplace_back(
            [this, conn] { readerLoop(std::move(conn)); });
    }
}

void
EvalServer::readerLoop(std::shared_ptr<Connection> conn)
{
    std::string buffer;
    std::string line;
    for (;;) {
        Expected<bool> got =
            conn->socket.recvLine(&buffer, &line, kMaxRequestLineBytes);
        if (got.status().code() == ErrorCode::OutOfRange) {
            // Over-long line: answer it and read no more requests. The
            // peer reads the error, then EOF. What it still sends, up
            // to one more line's worth, is dropped so that closing
            // does not reset the connection under it.
            std::string response = service_.errorResponse(got.status());
            response.push_back('\n');
            {
                std::lock_guard<std::mutex> lock(conn->writeMu);
                (void)conn->socket.sendAll(response);
                conn->socket.shutdownWrite();
            }
            conn->socket.discardInput(kMaxRequestLineBytes);
            break;
        }
        if (!got.ok() || !*got)
            break; // peer gone (EOF) or shutdown woke us
        // Blocks when the queue is full: backpressure propagates to
        // the client instead of buffering unbounded requests.
        if (!queue_.push(WorkItem{conn, std::move(line)}))
            break; // queue closed: shutdown
        line.clear();
    }
    // Drop this connection's registry entry; the Connection itself
    // stays alive (shared_ptr) until in-flight workers finish writing.
    std::lock_guard<std::mutex> lock(connsMu_);
    for (std::size_t i = 0; i < conns_.size(); ++i) {
        if (conns_[i] == conn) {
            conns_.erase(conns_.begin() +
                         static_cast<std::ptrdiff_t>(i));
            break;
        }
    }
}

void
EvalServer::workerLoop()
{
    for (;;) {
        std::optional<WorkItem> item = queue_.pop();
        if (!item)
            break; // queue closed and drained
        queueDepthGauge().set(static_cast<double>(queue_.depth()));

        std::string response = service_.handleLine(item->line);
        response.push_back('\n');
        {
            std::lock_guard<std::mutex> lock(item->conn->writeMu);
            // A vanished peer is not a server error; the reader loop
            // notices the same condition and retires the connection.
            (void)item->conn->socket.sendAll(response);
        }
        // The shutdown op's acknowledgement is on the wire; now tear
        // the server down.
        if (service_.stopRequested())
            requestStop();
    }
}

void
EvalServer::wait()
{
    std::unique_lock<std::mutex> lock(waitMu_);
    waitCv_.wait(lock, [this] { return stopping_.load(); });
}

void
EvalServer::requestStop()
{
    if (stopping_.exchange(true))
        return;
    listener_.close(); // wakes the accept loop
    {
        std::lock_guard<std::mutex> lock(connsMu_);
        for (const auto &conn : conns_)
            conn->socket.shutdownBoth(); // wakes blocked readers
    }
    queue_.close(); // wakes blocked workers and pushing readers
    waitCv_.notify_all();
}

void
EvalServer::stop()
{
    requestStop();
    if (acceptThread_.joinable())
        acceptThread_.join();
    // No new reader threads can appear once the accept loop has
    // exited; steal the list and join them.
    std::vector<std::thread> readers;
    {
        std::lock_guard<std::mutex> lock(connsMu_);
        readers.swap(readerThreads_);
    }
    for (std::thread &t : readers) {
        if (t.joinable())
            t.join();
    }
    for (std::thread &t : workerThreads_) {
        if (t.joinable())
            t.join();
    }
    workerThreads_.clear();
}

} // namespace ena
