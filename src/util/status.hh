/**
 * @file
 * Errors as values for ena-sim: ena::Status and ena::Expected<T>.
 *
 * The original code reported every user error through fatal(), which
 * std::exit()s the process — acceptable for a CLI, lethal for a
 * thousand-point DSE sweep where one malformed grid point should be
 * quarantined, not kill hours of work. This header is the error
 * substrate that makes failures recoverable:
 *
 *  - Status: an error code plus a human-readable message with
 *    chainable context ("loading node config: config key 'ehp.cus'
 *    (cfg.ini:12): 'abc' is not an integer").
 *  - Expected<T>: a value or a non-ok Status.
 *  - ENA_TRY / ENA_ASSIGN_OR_RETURN: early-return plumbing so try*
 *    functions compose without pyramid-of-doom checks.
 *
 * Conversion pattern used across the repo: the entry point is try*()
 * returning Status/Expected, and a CLI that exits on error unwraps it
 * at its own boundary (unwrapOrFatal / checkOrFatal). A fatal flavor
 * stays only where its callers all exit on the error (the validate()
 * members, appFromName). New subsystems expose only the try*() form.
 */

#ifndef ENA_UTIL_STATUS_HH
#define ENA_UTIL_STATUS_HH

#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "util/logging.hh"

namespace ena {

/** Broad error categories, coarse on purpose (gRPC-style). */
enum class ErrorCode
{
    Ok = 0,
    InvalidArgument,    ///< caller passed a nonsensical value
    NotFound,           ///< missing key / file / name
    OutOfRange,         ///< value parsed but outside the legal range
    ParseError,         ///< malformed text (config lines, numbers)
    IoError,            ///< unreadable / unwritable file
    FailedPrecondition, ///< operation invalid in the current state
    Internal,           ///< invariant violation inside the simulator
};

/** Stable display name ("invalid_argument", ...). */
inline const char *
errorCodeName(ErrorCode c)
{
    switch (c) {
      case ErrorCode::Ok: return "ok";
      case ErrorCode::InvalidArgument: return "invalid_argument";
      case ErrorCode::NotFound: return "not_found";
      case ErrorCode::OutOfRange: return "out_of_range";
      case ErrorCode::ParseError: return "parse_error";
      case ErrorCode::IoError: return "io_error";
      case ErrorCode::FailedPrecondition: return "failed_precondition";
      case ErrorCode::Internal: return "internal";
    }
    return "unknown";
}

/** Inverse of errorCodeName(); Internal for a name it never returns.
 *  Walks the codes from Ok to Internal, which must stay the last. */
inline ErrorCode
errorCodeFromName(std::string_view name)
{
    for (int c = 0; c <= static_cast<int>(ErrorCode::Internal); ++c) {
        if (name == errorCodeName(static_cast<ErrorCode>(c)))
            return static_cast<ErrorCode>(c);
    }
    return ErrorCode::Internal;
}

/**
 * The result of an operation that can fail: Ok, or a code plus a
 * message. Cheap to move; an Ok status allocates nothing.
 */
class Status
{
  public:
    /** Ok. */
    Status() = default;

    Status(ErrorCode code, std::string message)
        : code_(code), message_(std::move(message))
    {
    }

    template <typename... Args>
    static Status
    invalidArgument(Args &&...args)
    {
        return Status(ErrorCode::InvalidArgument,
                      detail::formatMsg(std::forward<Args>(args)...));
    }

    template <typename... Args>
    static Status
    notFound(Args &&...args)
    {
        return Status(ErrorCode::NotFound,
                      detail::formatMsg(std::forward<Args>(args)...));
    }

    template <typename... Args>
    static Status
    outOfRange(Args &&...args)
    {
        return Status(ErrorCode::OutOfRange,
                      detail::formatMsg(std::forward<Args>(args)...));
    }

    template <typename... Args>
    static Status
    parseError(Args &&...args)
    {
        return Status(ErrorCode::ParseError,
                      detail::formatMsg(std::forward<Args>(args)...));
    }

    template <typename... Args>
    static Status
    ioError(Args &&...args)
    {
        return Status(ErrorCode::IoError,
                      detail::formatMsg(std::forward<Args>(args)...));
    }

    template <typename... Args>
    static Status
    failedPrecondition(Args &&...args)
    {
        return Status(ErrorCode::FailedPrecondition,
                      detail::formatMsg(std::forward<Args>(args)...));
    }

    template <typename... Args>
    static Status
    internal(Args &&...args)
    {
        return Status(ErrorCode::Internal,
                      detail::formatMsg(std::forward<Args>(args)...));
    }

    bool ok() const { return code_ == ErrorCode::Ok; }
    ErrorCode code() const { return code_; }
    const std::string &message() const { return message_; }

    /**
     * Prepend a context frame: s.withContext("loading ", path) turns
     * "bad key 'x'" into "loading cfg.ini: bad key 'x'". No-op on Ok.
     * The code is preserved, so callers can still dispatch on it after
     * several layers of chaining.
     */
    template <typename... Args>
    Status
    withContext(Args &&...args) const
    {
        if (ok())
            return *this;
        // Build "<context>: <message>" with one allocation instead of
        // the two temporaries operator+ chains would create — context
        // frames stack up several layers deep on sweep error paths.
        std::string out = detail::formatMsg(std::forward<Args>(args)...);
        out.reserve(out.size() + 2 + message_.size());
        out += ": ";
        out += message_;
        return Status(code_, std::move(out));
    }

    /** "[parse_error] config line 3: missing '='" (or "[ok]"). */
    std::string
    toString() const
    {
        std::string s = "[";
        s += errorCodeName(code_);
        s += "]";
        if (!message_.empty()) {
            s += " ";
            s += message_;
        }
        return s;
    }

    bool
    operator==(const Status &o) const
    {
        return code_ == o.code_ && message_ == o.message_;
    }

  private:
    ErrorCode code_ = ErrorCode::Ok;
    std::string message_;
};

/**
 * A T, or the Status explaining why there is none. The error
 * constructor requires a non-ok Status (constructing from Ok is a
 * programming error and panics).
 */
template <typename T>
class Expected
{
  public:
    Expected(T value) : value_(std::move(value)) {}

    Expected(Status status) : status_(std::move(status))
    {
        ENA_ASSERT(!status_.ok(),
                   "Expected constructed from an ok Status");
    }

    bool ok() const { return value_.has_value(); }
    explicit operator bool() const { return ok(); }

    /** The error; a default (ok) Status when a value is present. */
    const Status &status() const { return status_; }

    T &
    value() &
    {
        ENA_ASSERT(ok(), "Expected::value() on error: ",
                   status_.toString());
        return *value_;
    }

    const T &
    value() const &
    {
        ENA_ASSERT(ok(), "Expected::value() on error: ",
                   status_.toString());
        return *value_;
    }

    T &&
    value() &&
    {
        ENA_ASSERT(ok(), "Expected::value() on error: ",
                   status_.toString());
        return std::move(*value_);
    }

    T
    valueOr(T dflt) const
    {
        return ok() ? *value_ : std::move(dflt);
    }

    T &operator*() & { return value(); }
    const T &operator*() const & { return value(); }
    T &&operator*() && { return std::move(*this).value(); }
    T *operator->() { return &value(); }
    const T *operator->() const { return &value(); }

    /** Chain context onto the error (no-op when a value is present). */
    template <typename... Args>
    Expected<T>
    withContext(Args &&...args) &&
    {
        if (ok())
            return std::move(*this);
        return Expected<T>(
            status_.withContext(std::forward<Args>(args)...));
    }

  private:
    std::optional<T> value_;
    Status status_;
};

/**
 * The CLI boundary: unwrap a try*() result, or exit with its chained
 * diagnostic on error.
 */
template <typename T>
T
unwrapOrFatal(Expected<T> e)
{
    if (!e.ok())
        ENA_FATAL(e.status().message());
    return std::move(e).value();
}

inline void
checkOrFatal(const Status &s)
{
    if (!s.ok())
        ENA_FATAL(s.message());
}

#define ENA_STATUS_CONCAT2(a, b) a##b
#define ENA_STATUS_CONCAT(a, b) ENA_STATUS_CONCAT2(a, b)

/** Early-return a non-ok Status from a Status-returning function. */
#define ENA_TRY(expr) \
    do { \
        ::ena::Status ena_try_status_ = (expr); \
        if (!ena_try_status_.ok()) \
            return ena_try_status_; \
    } while (0)

/**
 * Evaluate an Expected<T> expression; on error return its Status, on
 * success bind the value to @p decl:
 *
 *   ENA_ASSIGN_OR_RETURN(double f, cfg.tryGetDouble("ehp.freq_ghz"));
 */
#define ENA_ASSIGN_OR_RETURN(decl, expr) \
    ENA_ASSIGN_OR_RETURN_IMPL( \
        ENA_STATUS_CONCAT(ena_expected_, __LINE__), decl, expr)

#define ENA_ASSIGN_OR_RETURN_IMPL(tmp, decl, expr) \
    auto tmp = (expr); \
    if (!tmp.ok()) \
        return tmp.status(); \
    decl = std::move(tmp).value()

} // namespace ena

#endif // ENA_UTIL_STATUS_HH
