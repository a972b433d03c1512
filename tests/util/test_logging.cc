/**
 * @file
 * Unit tests for logging: level control, fatal/panic behaviour, and the
 * pluggable sink under concurrent writers.
 */

#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/logging.hh"

using namespace ena;

TEST(Logging, LevelRoundTrip)
{
    LogLevel before = logLevel();
    setLogLevel(LogLevel::Debug);
    EXPECT_EQ(logLevel(), LogLevel::Debug);
    setLogLevel(LogLevel::Silent);
    EXPECT_EQ(logLevel(), LogLevel::Silent);
    setLogLevel(before);
}

TEST(Logging, WarnDoesNotTerminate)
{
    setLogLevel(LogLevel::Silent);
    warn("suppressed warning ", 42);
    setLogLevel(LogLevel::Warn);
    SUCCEED();
}

TEST(LoggingDeathTest, FatalExitsWithOne)
{
    EXPECT_EXIT(ENA_FATAL("bad user input ", 7),
                testing::ExitedWithCode(1), "bad user input 7");
}

TEST(LoggingDeathTest, PanicAborts)
{
    EXPECT_DEATH(ENA_PANIC("internal bug"), "internal bug");
}

TEST(LoggingDeathTest, AssertFiresOnFalse)
{
    EXPECT_DEATH(ENA_ASSERT(1 == 2, "math broke"), "math broke");
}

TEST(Logging, AssertPassesOnTrue)
{
    ENA_ASSERT(2 + 2 == 4, "never shown");
    SUCCEED();
}

TEST(Logging, SinkReceivesFormattedLines)
{
    std::vector<std::string> lines;
    setLogSink([&](LogLevel, const std::string &line) {
        lines.push_back(line);
    });
    setLogLevel(LogLevel::Info);
    warn("watch out ", 7);
    setLogSink({});   // restore the default stderr sink
    setLogLevel(LogLevel::Warn);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(lines[0], "warn: watch out 7");
}

TEST(Logging, SinkRespectsLogLevel)
{
    int calls = 0;
    setLogSink([&](LogLevel, const std::string &) { ++calls; });
    setLogLevel(LogLevel::Silent);
    warn("dropped");
    setLogSink({});
    setLogLevel(LogLevel::Warn);
    EXPECT_EQ(calls, 0);
}

TEST(Logging, ConcurrentWarnsAreSerializedAndUntorn)
{
    // The sink runs under the logger's lock: with 8 threads hammering
    // warn() every captured line must still be complete (no
    // interleaving) and none may be lost.
    constexpr int kThreads = 8;
    constexpr int kPerThread = 200;
    std::mutex m;
    std::vector<std::string> lines;
    setLogSink([&](LogLevel, const std::string &line) {
        // The logger already serializes sink calls; this lock only
        // protects the test's own vector from the final reader.
        std::lock_guard<std::mutex> lk(m);
        lines.push_back(line);
    });
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([t] {
            for (int i = 0; i < kPerThread; ++i)
                warn("thread ", t, " message ", i, " end");
        });
    }
    for (auto &th : threads)
        th.join();
    setLogSink({});

    ASSERT_EQ(lines.size(),
              static_cast<std::size_t>(kThreads * kPerThread));
    std::vector<int> seen(kThreads, 0);
    for (const std::string &line : lines) {
        int t = -1, i = -1;
        ASSERT_EQ(std::sscanf(line.c_str(),
                              "warn: thread %d message %d end", &t, &i),
                  2)
            << "torn line: " << line;
        // Round-trip: the whole line must be exactly one message.
        ASSERT_EQ(line, "warn: thread " + std::to_string(t) +
                            " message " + std::to_string(i) + " end")
            << "torn line: " << line;
        ASSERT_GE(t, 0);
        ASSERT_LT(t, kThreads);
        ++seen[t];
    }
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(seen[t], kPerThread);
}
