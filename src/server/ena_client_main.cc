/**
 * @file
 * Thin CLI over the ena-server protocol (server/client.hh). Prints
 * each op's JSON result on stdout.
 *
 * Usage:
 *   ena-client ENDPOINT ping
 *   ena-client ENDPOINT stats
 *   ena-client ENDPOINT shutdown
 *   ena-client ENDPOINT eval APP [CONFIG_FILE]
 *   ena-client ENDPOINT sweep APP cus|freq|bw FROM TO STEP [CUS FREQ BW]
 *   ena-client ENDPOINT table2 [BUDGET_W]
 *   ena-client ENDPOINT cluster APP PATTERN [CONFIG_FILE]
 *   ena-client ENDPOINT resilient APP PATTERN [CONFIG_FILE]
 *   ena-client ENDPOINT taskgraph [SCHEDULER] [CONFIG_FILE]
 */

#include <climits>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "common/node_config_io.hh"
#include "server/client.hh"
#include "util/string_utils.hh"

using namespace ena;

namespace {

int
usage()
{
    std::cerr
        << "usage: ena-client ENDPOINT COMMAND [ARGS]\n"
           "  ping | stats | shutdown\n"
           "  eval APP [CONFIG_FILE]\n"
           "  sweep APP cus|freq|bw FROM TO STEP [CUS FREQ BW]\n"
           "  table2 [BUDGET_W]\n"
           "  cluster APP PATTERN [CONFIG_FILE]\n"
           "  resilient APP PATTERN [CONFIG_FILE]\n"
           "  taskgraph [SCHEDULER] [CONFIG_FILE]\n";
    return 1;
}

Expected<std::string>
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return Status::ioError("cannot read ", path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

int
fail(const Status &s)
{
    std::cerr << "ena-client: " << s.toString() << "\n";
    return 1;
}

/** @p arg, argument @p what, as a number; exit 1 unless all of it
 *  parses. */
double
numberArg(const char *what, const char *arg)
{
    const std::optional<double> v = parseDouble(arg);
    if (!v)
        std::exit(fail(Status::invalidArgument(what, " '", arg,
                                               "' is not a number")));
    return *v;
}

/** @p arg, argument @p what, as an int; exit 1 unless all of it
 *  parses. */
int
intArg(const char *what, const char *arg)
{
    const std::optional<long long> v = parseInt(arg);
    if (!v || *v < INT_MIN || *v > INT_MAX)
        std::exit(fail(Status::invalidArgument(what, " '", arg,
                                               "' is not an int")));
    return static_cast<int>(*v);
}

int
print(const Expected<wire::JsonValue> &result)
{
    if (!result.ok())
        return fail(result.status());
    std::cout << result->dump() << "\n";
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc < 3)
        return usage();

    Expected<Endpoint> ep = tryParseEndpoint(argv[1]);
    if (!ep.ok())
        return fail(ep.status());

    ClientOptions opts;
    opts.endpoint = *ep;
    ServerClient client(opts);

    std::string cmd = argv[2];
    if (cmd == "ping")
        return print(client.ping());
    if (cmd == "stats")
        return print(client.stats());
    if (cmd == "shutdown")
        return print(client.shutdownServer());

    if (cmd == "eval") {
        if (argc < 4)
            return usage();
        wire::JsonValue params = wire::JsonValue::object();
        params.set("app", argv[3]);
        if (argc > 4) {
            Expected<std::string> text = readFile(argv[4]);
            if (!text.ok())
                return fail(text.status());
            params.set("config", *text);
        }
        return print(client.call("eval_node", std::move(params)));
    }

    if (cmd == "sweep") {
        if (argc < 8)
            return usage();
        wire::JsonValue params = wire::JsonValue::object();
        params.set("app", argv[3]);
        params.set("axis", argv[4]);
        params.set("from", numberArg("FROM", argv[5]));
        params.set("to", numberArg("TO", argv[6]));
        params.set("step", numberArg("STEP", argv[7]));
        if (argc > 10) {
            NodeConfig base = NodeConfig::bestMean();
            base.cus = intArg("CUS", argv[8]);
            base.freqGhz = numberArg("FREQ", argv[9]);
            base.bwTbs = numberArg("BW", argv[10]);
            params.set("config", nodeConfigToConfig(base).toString());
        }
        return print(client.call("sweep", std::move(params)));
    }

    if (cmd == "table2") {
        wire::JsonValue params = wire::JsonValue::object();
        if (argc > 3)
            params.set("budget_w", numberArg("BUDGET_W", argv[3]));
        return print(client.call("table2", std::move(params)));
    }

    if (cmd == "cluster" || cmd == "resilient") {
        if (argc < 5)
            return usage();
        wire::JsonValue params = wire::JsonValue::object();
        params.set("app", argv[3]);
        params.set("pattern", argv[4]);
        if (argc > 5) {
            Expected<std::string> text = readFile(argv[5]);
            if (!text.ok())
                return fail(text.status());
            params.set("config", *text);
        }
        return print(client.call(
            cmd == "cluster" ? "cluster_eval" : "resilient_eval",
            std::move(params)));
    }

    if (cmd == "taskgraph") {
        wire::JsonValue params = wire::JsonValue::object();
        if (argc > 3)
            params.set("scheduler", argv[3]);
        if (argc > 4) {
            Expected<std::string> text = readFile(argv[4]);
            if (!text.ok())
                return fail(text.status());
            params.set("config", *text);
        }
        return print(client.call("taskgraph_eval", std::move(params)));
    }

    return usage();
}
