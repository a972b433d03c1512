#include "server/client.hh"

#include <chrono>
#include <cstring>
#include <thread>

#include "common/node_config_io.hh"
#include "util/config.hh"

namespace ena {

namespace {

void
sleepBackoff(const RetryPolicy &retry, int attempt)
{
    double us = retry.backoffUs;
    for (int i = 1; i < attempt; ++i)
        us *= 2.0;
    if (us > retry.maxBackoffUs)
        us = retry.maxBackoffUs;
    if (us > 0.0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::micro>(us));
    }
}

} // anonymous namespace

Status
ServerClient::ensureConnected()
{
    if (socket_.valid())
        return Status();
    buffer_.clear();
    ENA_ASSIGN_OR_RETURN(socket_, connectTo(opts_.endpoint));
    return socket_.setRecvTimeout(opts_.timeoutSec);
}

Expected<wire::JsonValue>
ServerClient::roundTrip(const std::string &line)
{
    ENA_TRY(ensureConnected());
    Status sent = socket_.sendAll(line);
    if (!sent.ok()) {
        socket_.close();
        return sent;
    }
    std::string response;
    Expected<bool> got = socket_.recvLine(&buffer_, &response);
    if (!got.ok()) {
        socket_.close();
        return got.status();
    }
    if (!*got) {
        socket_.close();
        return Status::ioError("server closed the connection");
    }
    return wire::tryParseJson(response)
        .withContext("parsing server response");
}

Expected<wire::JsonValue>
ServerClient::call(const std::string &op, wire::JsonValue params)
{
    params.set("op", op);
    params.set("id", static_cast<double>(nextId_++));
    std::string line = params.dump();
    line.push_back('\n');

    const int attempts =
        opts_.retry.maxAttempts > 0 ? opts_.retry.maxAttempts : 1;
    Status lastError;
    for (int attempt = 1; attempt <= attempts; ++attempt) {
        if (attempt > 1)
            sleepBackoff(opts_.retry, attempt - 1);
        Expected<wire::JsonValue> response = roundTrip(line);
        if (!response.ok()) {
            // Transport failure: reconnect and replay (evaluations
            // are idempotent). Application errors never land here.
            lastError = response.status();
            continue;
        }
        ENA_ASSIGN_OR_RETURN(bool ok,
                             wire::tryGetBool(*response, "ok", false));
        if (ok) {
            wire::JsonValue *result = response->find("result");
            if (!result) {
                return Status::internal(
                    "malformed server response: missing result");
            }
            return std::move(*result);
        }
        const wire::JsonValue *err = response->find("error");
        if (!err) {
            return Status::internal(
                "malformed server response: missing error");
        }
        ENA_ASSIGN_OR_RETURN(std::string code,
                             wire::tryGetString(*err, "code", "internal"));
        ENA_ASSIGN_OR_RETURN(std::string message,
                             wire::tryGetString(*err, "message", ""));
        return Status(errorCodeFromName(code), std::move(message));
    }
    return lastError.withContext("calling ", op, " on ",
                                 opts_.endpoint.toString(), " (",
                                 attempts, " attempts)");
}

Expected<std::vector<SweepPoint>>
ServerClient::sweepAxis(const std::string &app, const std::string &axis,
                        double from, double to, double step,
                        const NodeConfig *base)
{
    wire::JsonValue params = wire::JsonValue::object();
    params.set("app", app);
    params.set("axis", axis);
    params.set("from", from);
    params.set("to", to);
    params.set("step", step);
    if (base)
        params.set("config", nodeConfigToConfig(*base).toString());

    ENA_ASSIGN_OR_RETURN(wire::JsonValue result,
                         call("sweep", std::move(params)));
    const wire::JsonValue *points = result.find("points");
    if (!points || !points->isArray())
        return Status::internal("malformed sweep result: no points");

    std::vector<SweepPoint> out;
    out.reserve(points->size());
    for (const wire::JsonValue &p : points->elements()) {
        SweepPoint sp;
        ENA_ASSIGN_OR_RETURN(sp.value, wire::tryGetNumber(p, "value"));
        ENA_ASSIGN_OR_RETURN(double cus, wire::tryGetNumber(p, "cus"));
        sp.cus = static_cast<int>(cus);
        ENA_ASSIGN_OR_RETURN(sp.freqGhz,
                             wire::tryGetNumber(p, "freq_ghz"));
        ENA_ASSIGN_OR_RETURN(sp.bwTbs, wire::tryGetNumber(p, "bw_tbs"));
        ENA_ASSIGN_OR_RETURN(sp.opsPerByte,
                             wire::tryGetNumber(p, "ops_per_byte"));
        ENA_ASSIGN_OR_RETURN(sp.flops, wire::tryGetNumber(p, "flops"));
        ENA_ASSIGN_OR_RETURN(sp.cuUtilization,
                             wire::tryGetNumber(p, "cu_utilization"));
        ENA_ASSIGN_OR_RETURN(sp.trafficGbs,
                             wire::tryGetNumber(p, "traffic_gbs"));
        ENA_ASSIGN_OR_RETURN(sp.budgetW,
                             wire::tryGetNumber(p, "budget_w"));
        ENA_ASSIGN_OR_RETURN(sp.totalW,
                             wire::tryGetNumber(p, "total_w"));
        ENA_ASSIGN_OR_RETURN(sp.memoryBound,
                             wire::tryGetBool(p, "memory_bound", false));
        out.push_back(sp);
    }
    return out;
}

} // namespace ena
