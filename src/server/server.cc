#include "server/server.hh"

#include <utility>

namespace ena {

EvalServer::EvalServer(const ServerOptions &opts)
    : freeSlots_(opts.workers)
{
}

Expected<std::unique_ptr<EvalServer>>
EvalServer::start(const ServerOptions &opts)
{
    if (opts.workers < 1)
        return Status::invalidArgument("server needs at least 1 worker");

    std::unique_ptr<EvalServer> server(new EvalServer(opts));
    ENA_ASSIGN_OR_RETURN(server->listener_,
                         Listener::listenOn(opts.endpoint));
    server->service_.setQueueDepthProbe([s = server.get()] {
        std::lock_guard<std::mutex> lock(s->gateMu_);
        return s->waitingForSlot_;
    });

    server->acceptThread_ =
        std::thread([s = server.get()] { s->acceptLoop(); });
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
            break; // listener closed (shutdown) or broken
        joinFinishedReaders();
        auto socket = std::make_unique<Socket>(std::move(*accepted));
        std::lock_guard<std::mutex> lock(connsMu_);
        if (stopping()) {
            socket->shutdownBoth();
            break;
        }
        conns_.push_back(socket.get());
        // The reader records its exit under connsMu_, which is held
        // here, so its thread is in the map before it can finish.
        std::thread reader([this, s = std::move(socket)]() mutable {
            readerLoop(std::move(s));
        });
        const std::thread::id id = reader.get_id();
        readerThreads_.emplace(id, std::move(reader));
    }
}

void
EvalServer::joinFinishedReaders()
{
    std::vector<std::thread> finished;
    {
        std::lock_guard<std::mutex> lock(connsMu_);
        for (std::thread::id id : finishedReaders_) {
            finished.push_back(
                std::move(readerThreads_.extract(id).mapped()));
        }
        finishedReaders_.clear();
    }
    for (std::thread &t : finished)
        t.join();
}

void
EvalServer::readerLoop(std::unique_ptr<Socket> socket)
{
    std::string buffer;
    std::string line;
    for (;;) {
        Expected<bool> got =
            socket->recvLine(&buffer, &line, kMaxRequestLineBytes);
        if (got.status().code() == ErrorCode::OutOfRange) {
            // Over-long line: answer it and read no more requests. The
            // peer reads the error, then EOF. What it still sends, up
            // to one more line's worth, is dropped so that closing
            // does not reset the connection under it.
            std::string response = service_.errorResponse(got.status());
            response.push_back('\n');
            (void)socket->sendAll(response);
            socket->shutdownWrite();
            socket->discardInput(kMaxRequestLineBytes);
            break;
        }
        if (!got.ok() || !*got)
            break; // peer gone (EOF) or shutdown woke us
        if (!acquireSlot())
            break; // shutdown: the request is not evaluated
        std::string response = service_.handleLine(line);
        releaseSlot();
        response.push_back('\n');
        // Sent without a slot, so a peer that does not read stalls
        // only this connection. A vanished peer is not a server error;
        // the next read sees the same condition and ends the loop.
        (void)socket->sendAll(response);
        // The shutdown op's acknowledgement is on the wire; now tear
        // the server down.
        if (service_.stopRequested())
            requestStop();
    }
    // Unregister before the socket closes; the accept loop joins this
    // thread once it has recorded its exit.
    std::lock_guard<std::mutex> lock(connsMu_);
    std::erase(conns_, socket.get());
    finishedReaders_.push_back(std::this_thread::get_id());
}

bool
EvalServer::acquireSlot()
{
    std::unique_lock<std::mutex> lock(gateMu_);
    ++waitingForSlot_;
    slotFreed_.wait(lock, [this] { return stopping_ || freeSlots_ > 0; });
    --waitingForSlot_;
    if (stopping_)
        return false;
    --freeSlots_;
    return true;
}

void
EvalServer::releaseSlot()
{
    {
        std::lock_guard<std::mutex> lock(gateMu_);
        ++freeSlots_;
    }
    slotFreed_.notify_one();
}

bool
EvalServer::stopping()
{
    std::lock_guard<std::mutex> lock(gateMu_);
    return stopping_;
}

void
EvalServer::wait()
{
    std::unique_lock<std::mutex> lock(gateMu_);
    stopCv_.wait(lock, [this] { return stopping_; });
}

void
EvalServer::requestStop()
{
    {
        std::lock_guard<std::mutex> lock(gateMu_);
        if (stopping_)
            return;
        stopping_ = true;
    }
    slotFreed_.notify_all(); // readers waiting for a slot give up
    stopCv_.notify_all();
    listener_.close(); // wakes the accept loop
    // The accept loop checks stopping() under connsMu_, so it shuts
    // down any connection it accepts from here on itself.
    std::lock_guard<std::mutex> lock(connsMu_);
    for (Socket *socket : conns_)
        socket->shutdownBoth(); // wakes blocked reads and sends
}

void
EvalServer::stop()
{
    requestStop();
    if (acceptThread_.joinable())
        acceptThread_.join();
    // No new reader threads can appear once the accept loop has
    // exited; take them all and join them.
    std::unordered_map<std::thread::id, std::thread> readers;
    {
        std::lock_guard<std::mutex> lock(connsMu_);
        readers.swap(readerThreads_);
    }
    for (auto &entry : readers)
        entry.second.join();
}

} // namespace ena
