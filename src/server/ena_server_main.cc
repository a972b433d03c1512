/**
 * @file
 * The ena-server daemon: evaluation-as-a-service over a Unix or TCP
 * socket (newline-delimited JSON; see server/eval_service.hh).
 *
 * Usage:
 *   ena-server [--listen ENDPOINT] [--workers N]
 *
 * ENDPOINT is "unix:/path", "tcp:host:port", or a bare port; the
 * default is unix:ena-server.sock in the working directory. At most N
 * requests (default 4) are evaluated at once; each connection's
 * requests are answered one at a time, in order. The daemon runs
 * until a client sends the "shutdown" op.
 */

#include <climits>
#include <cstdlib>
#include <iostream>
#include <string>

#include "server/server.hh"
#include "util/string_utils.hh"

using namespace ena;

namespace {

int
usage()
{
    std::cerr << "usage: ena-server [--listen ENDPOINT] [--workers N]\n";
    return 1;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    ServerOptions opts;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--listen" && i + 1 < argc) {
            Expected<Endpoint> ep = tryParseEndpoint(argv[++i]);
            if (!ep.ok()) {
                std::cerr << "ena-server: " << ep.status().message()
                          << "\n";
                return 1;
            }
            opts.endpoint = *ep;
        } else if (arg == "--workers" && i + 1 < argc) {
            std::optional<long long> n = parseInt(argv[++i]);
            if (!n || *n < 1 || *n > INT_MAX)
                return usage();
            opts.workers = static_cast<int>(*n);
        } else {
            return usage();
        }
    }

    Expected<std::unique_ptr<EvalServer>> server =
        EvalServer::start(opts);
    if (!server.ok()) {
        std::cerr << "ena-server: " << server.status().message() << "\n";
        return 1;
    }

    // Scripts poll for this line (flushed) to know the socket is live.
    std::cout << "ena-server listening on "
              << (*server)->endpoint().toString() << std::endl;

    (*server)->wait();
    (*server)->stop();
    std::cout << "ena-server stopped ("
              << (*server)->service().requestsHandled()
              << " requests served)" << std::endl;
    return 0;
}
