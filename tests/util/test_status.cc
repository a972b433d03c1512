/**
 * @file
 * Tests for the ena::Status / ena::Expected error substrate: codes,
 * context chaining, and the ENA_TRY / ENA_ASSIGN_OR_RETURN plumbing.
 */

#include <gtest/gtest.h>

#include <string>

#include "util/status.hh"

using namespace ena;

TEST(Status, DefaultIsOk)
{
    Status s;
    EXPECT_TRUE(s.ok());
    EXPECT_EQ(s.code(), ErrorCode::Ok);
    EXPECT_TRUE(s.message().empty());
    EXPECT_EQ(s.toString(), "[ok]");
}

TEST(Status, NamedConstructorsFormatVariadically)
{
    Status s = Status::parseError("line ", 3, ": missing '", '=', "'");
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(s.code(), ErrorCode::ParseError);
    EXPECT_EQ(s.message(), "line 3: missing '='");
    EXPECT_EQ(s.toString(), "[parse_error] line 3: missing '='");
}

TEST(Status, EveryCodeHasAStableName)
{
    EXPECT_STREQ(errorCodeName(ErrorCode::Ok), "ok");
    EXPECT_STREQ(errorCodeName(ErrorCode::InvalidArgument),
                 "invalid_argument");
    EXPECT_STREQ(errorCodeName(ErrorCode::NotFound), "not_found");
    EXPECT_STREQ(errorCodeName(ErrorCode::OutOfRange), "out_of_range");
    EXPECT_STREQ(errorCodeName(ErrorCode::ParseError), "parse_error");
    EXPECT_STREQ(errorCodeName(ErrorCode::IoError), "io_error");
    EXPECT_STREQ(errorCodeName(ErrorCode::FailedPrecondition),
                 "failed_precondition");
    EXPECT_STREQ(errorCodeName(ErrorCode::Internal), "internal");
}

TEST(Status, EveryCodeReadsBackFromItsName)
{
    const ErrorCode codes[] = {
        ErrorCode::Ok,         ErrorCode::InvalidArgument,
        ErrorCode::NotFound,   ErrorCode::OutOfRange,
        ErrorCode::ParseError, ErrorCode::IoError,
        ErrorCode::FailedPrecondition, ErrorCode::Internal};
    for (ErrorCode c : codes)
        EXPECT_EQ(errorCodeFromName(errorCodeName(c)), c) << errorCodeName(c);
    EXPECT_EQ(errorCodeFromName("no_such_code"), ErrorCode::Internal);
    EXPECT_EQ(errorCodeFromName(""), ErrorCode::Internal);
}

TEST(Status, WithContextPrependsAndKeepsTheCode)
{
    Status inner = Status::notFound("missing config key 'ehp.cus'");
    Status outer = inner.withContext("loading node config");
    EXPECT_EQ(outer.code(), ErrorCode::NotFound);
    EXPECT_EQ(outer.message(),
              "loading node config: missing config key 'ehp.cus'");
    // Chaining stacks outermost-first.
    Status twice = outer.withContext("run ", 7);
    EXPECT_EQ(twice.message(),
              "run 7: loading node config: missing config key 'ehp.cus'");
}

TEST(Status, WithContextFormatIsPinned)
{
    // Tooling greps these messages ("context: context: message"), so
    // the exact separator and multi-arg formatting are contractual.
    Status s = Status::parseError("bad token")
                   .withContext("line ", 3)
                   .withContext("loading ", std::string("cfg.ini"));
    EXPECT_EQ(s.code(), ErrorCode::ParseError);
    EXPECT_EQ(s.message(), "loading cfg.ini: line 3: bad token");
}

TEST(Status, WithContextIsANoOpOnOk)
{
    Status s = Status().withContext("should not appear");
    EXPECT_TRUE(s.ok());
    EXPECT_TRUE(s.message().empty());
}

TEST(Status, EqualityComparesCodeAndMessage)
{
    EXPECT_EQ(Status(), Status());
    EXPECT_EQ(Status::ioError("x"), Status::ioError("x"));
    EXPECT_FALSE(Status::ioError("x") == Status::ioError("y"));
    EXPECT_FALSE(Status::ioError("x") == Status::parseError("x"));
}

TEST(Expected, HoldsAValue)
{
    Expected<int> e = 42;
    ASSERT_TRUE(e.ok());
    EXPECT_TRUE(static_cast<bool>(e));
    EXPECT_EQ(e.value(), 42);
    EXPECT_EQ(*e, 42);
    EXPECT_TRUE(e.status().ok());
}

TEST(Expected, HoldsAnError)
{
    Expected<int> e = Status::outOfRange("bad CU count");
    EXPECT_FALSE(e.ok());
    EXPECT_FALSE(static_cast<bool>(e));
    EXPECT_EQ(e.status().code(), ErrorCode::OutOfRange);
    EXPECT_EQ(e.status().message(), "bad CU count");
}

TEST(Expected, ValueOrFallsBackOnError)
{
    Expected<double> ok_e = 2.5;
    Expected<double> bad_e = Status::parseError("nope");
    EXPECT_DOUBLE_EQ(ok_e.valueOr(7.0), 2.5);
    EXPECT_DOUBLE_EQ(bad_e.valueOr(7.0), 7.0);
}

TEST(Expected, ArrowReachesMembers)
{
    Expected<std::string> e = std::string("hello");
    EXPECT_EQ(e->size(), 5u);
}

TEST(Expected, RvalueValueMovesOut)
{
    Expected<std::string> e = std::string("move me");
    std::string s = std::move(e).value();
    EXPECT_EQ(s, "move me");
}

TEST(Expected, WithContextChainsOntoTheError)
{
    Expected<int> e = Expected<int>(Status::ioError("cannot open 'f'"))
                          .withContext("loading cluster config");
    EXPECT_FALSE(e.ok());
    EXPECT_EQ(e.status().code(), ErrorCode::IoError);
    EXPECT_EQ(e.status().message(),
              "loading cluster config: cannot open 'f'");
    // And is a pass-through when a value is present.
    Expected<int> v = Expected<int>(3).withContext("ignored");
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(*v, 3);
}

namespace {

Status
tryStep(bool fail)
{
    if (fail)
        return Status::failedPrecondition("step refused");
    return Status();
}

Status
tryRun(bool fail)
{
    ENA_TRY(tryStep(fail));
    return Status();
}

Expected<int>
tryParsePositive(int v)
{
    if (v <= 0)
        return Status::outOfRange("want a positive value, got ", v);
    return v;
}

Expected<int>
trySum(int a, int b)
{
    // Two expansions on different lines: the __LINE__-based temp names
    // must not collide.
    ENA_ASSIGN_OR_RETURN(int x, tryParsePositive(a));
    ENA_ASSIGN_OR_RETURN(int y, tryParsePositive(b));
    return x + y;
}

} // anonymous namespace

TEST(StatusMacros, EnaTryPropagatesFirstFailure)
{
    EXPECT_TRUE(tryRun(false).ok());
    Status s = tryRun(true);
    EXPECT_EQ(s.code(), ErrorCode::FailedPrecondition);
    EXPECT_EQ(s.message(), "step refused");
}

TEST(StatusMacros, AssignOrReturnBindsOrPropagates)
{
    Expected<int> ok_e = trySum(2, 3);
    ASSERT_TRUE(ok_e.ok());
    EXPECT_EQ(*ok_e, 5);

    Expected<int> bad = trySum(2, -1);
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), ErrorCode::OutOfRange);
    EXPECT_EQ(bad.status().message(), "want a positive value, got -1");
}

TEST(StatusShims, CheckOrFatalExitsWithTheDiagnostic)
{
    EXPECT_EXIT(checkOrFatal(Status::outOfRange("bad CU count -3")),
                testing::ExitedWithCode(1), "bad CU count -3");
}

TEST(StatusShims, UnwrapOrFatalUnwrapsOrExits)
{
    EXPECT_EQ(unwrapOrFatal(Expected<int>(9)), 9);
    EXPECT_EXIT(unwrapOrFatal(Expected<int>(Status::ioError("no file"))),
                testing::ExitedWithCode(1), "no file");
}
