/**
 * @file
 * Tests for Socket::recvLine (util/net.hh) over a socketpair, with
 * Socket(int fd) wrapping each end: long lines arriving in many small
 * writes, several lines in one write, EOF mid-line, a lapsed receive
 * timeout, the maximum line length, and the poll window a read spends
 * before it blocks.
 */

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>

#include <sys/socket.h>
#include <time.h>

#include <gtest/gtest.h>

#include "telemetry/metrics.hh"
#include "util/net.hh"

using namespace ena;

namespace {

struct SocketPair
{
    Socket reader;
    Socket writer;
};

SocketPair
socketPair()
{
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    return SocketPair{Socket(fds[0]), Socket(fds[1])};
}

double
threadCpuSeconds()
{
    timespec ts{};
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
}

TEST(SocketRecvLine, MegabyteLineInSmallWritesArrivesWhole)
{
    SocketPair p = socketPair();
    std::string sent(1 << 20, '\0');
    for (std::size_t i = 0; i < sent.size(); ++i)
        sent[i] = static_cast<char>('a' + i % 26);

    // The socket buffer holds far less than 1 MiB, so write from a
    // second thread while the reader drains; the timeout turns a
    // failed writer into a test failure rather than a hang.
    ASSERT_TRUE(p.reader.setRecvTimeout(30.0).ok());
    std::thread writer([&] {
        constexpr std::size_t kWrite = 4096;
        for (std::size_t off = 0; off < sent.size(); off += kWrite) {
            ASSERT_TRUE(p.writer
                            .sendAll(std::string_view(sent).substr(
                                off, kWrite))
                            .ok());
        }
        ASSERT_TRUE(p.writer.sendAll("\n").ok());
    });
    std::string buffer;
    std::string line;
    Expected<bool> got = p.reader.recvLine(&buffer, &line);
    writer.join();
    ASSERT_TRUE(got.ok()) << got.status().toString();
    EXPECT_TRUE(*got);
    EXPECT_EQ(line.size(), sent.size());
    EXPECT_TRUE(line == sent);
    EXPECT_TRUE(buffer.empty());
}

TEST(SocketRecvLine, LinesFromOneWriteComeBackOnePerCall)
{
    SocketPair p = socketPair();
    ASSERT_TRUE(p.writer.sendAll("first\nsecond\npart").ok());

    std::string buffer;
    std::string line;
    Expected<bool> got = p.reader.recvLine(&buffer, &line);
    ASSERT_TRUE(got.ok());
    EXPECT_TRUE(*got);
    EXPECT_EQ(line, "first");
    EXPECT_EQ(buffer, "second\npart");

    got = p.reader.recvLine(&buffer, &line);
    ASSERT_TRUE(got.ok());
    EXPECT_TRUE(*got);
    EXPECT_EQ(line, "second");
    EXPECT_EQ(buffer, "part");

    // The kept remainder joins the next write's bytes.
    ASSERT_TRUE(p.writer.sendAll("ial\n").ok());
    got = p.reader.recvLine(&buffer, &line);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(line, "partial");
    EXPECT_TRUE(buffer.empty());
}

TEST(SocketRecvLine, EofMidLineIsAnIoError)
{
    SocketPair p = socketPair();
    ASSERT_TRUE(p.writer.sendAll("no newline").ok());
    p.writer.close();

    std::string buffer;
    std::string line;
    Expected<bool> got = p.reader.recvLine(&buffer, &line);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), ErrorCode::IoError);
    EXPECT_EQ(got.status().message(),
              "connection closed mid-line (10 bytes pending)");
}

TEST(SocketRecvLine, EofBetweenLinesIsFalse)
{
    SocketPair p = socketPair();
    p.writer.close();

    std::string buffer;
    std::string line;
    Expected<bool> got = p.reader.recvLine(&buffer, &line);
    ASSERT_TRUE(got.ok());
    EXPECT_FALSE(*got);
}

TEST(SocketRecvLine, LapsedTimeoutIsAnIoError)
{
    SocketPair p = socketPair();
    ASSERT_TRUE(p.reader.setRecvTimeout(0.05).ok());
    ASSERT_TRUE(p.writer.sendAll("half a line").ok());

    std::string buffer;
    std::string line;
    Expected<bool> got = p.reader.recvLine(&buffer, &line);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), ErrorCode::IoError);
    EXPECT_EQ(got.status().message(), "recv timed out");
}

TEST(SocketRecvLine, LineOverTheCapIsOutOfRange)
{
    // A line of exactly the cap passes; one byte more fails whether
    // its newline has arrived yet or not.
    SocketPair p = socketPair();
    ASSERT_TRUE(p.reader.setRecvTimeout(5.0).ok());
    const std::string atCap(64, 'a');
    ASSERT_TRUE(p.writer.sendAll(atCap + "\n" + atCap + "b\n").ok());

    std::string buffer;
    std::string line;
    Expected<bool> got = p.reader.recvLine(&buffer, &line, 64);
    ASSERT_TRUE(got.ok()) << got.status().toString();
    EXPECT_EQ(line, atCap);

    got = p.reader.recvLine(&buffer, &line, 64);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), ErrorCode::OutOfRange);
    EXPECT_EQ(got.status().message(), "line longer than 64 bytes");

    // No newline at all: fails once more than the cap has arrived,
    // without waiting for the rest of the line.
    SocketPair q = socketPair();
    ASSERT_TRUE(q.reader.setRecvTimeout(5.0).ok());
    ASSERT_TRUE(q.writer.sendAll(std::string(65, 'x')).ok());
    buffer.clear();
    got = q.reader.recvLine(&buffer, &line, 64);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), ErrorCode::OutOfRange);
    EXPECT_EQ(buffer.size(), 65u);
}

/**
 * Wait out a 10 ms receive timeout once: a socket's first wait blocks
 * at once, and every later one polls first.
 */
void
armPolling(Socket &s)
{
    ASSERT_TRUE(s.setRecvTimeout(0.01).ok());
    std::string buffer;
    std::string line;
    Expected<bool> got = s.recvLine(&buffer, &line);
    ASSERT_FALSE(got.ok());
    ASSERT_EQ(got.status().message(), "recv timed out");
}

/**
 * Close @p p's writer as soon as its reader is about to read, and
 * return what the read gave. The closer is already running when the
 * read starts, so the close lands within microseconds of it unless
 * the host stalls one of the threads.
 */
Expected<bool>
readWhilePeerCloses(SocketPair &p)
{
    enum Stage { kStarting, kCloserRunning, kReading };
    std::atomic<int> stage{kStarting};
    std::thread closer([&] {
        stage.store(kCloserRunning);
        while (stage.load() != kReading)
            std::this_thread::yield();
        p.writer.close();
    });
    while (stage.load() != kCloserRunning)
        std::this_thread::yield();
    std::string buffer;
    std::string line;
    stage.store(kReading);
    Expected<bool> got = p.reader.recvLine(&buffer, &line);
    closer.join();
    return got;
}

TEST(SocketRecvLine, LineWrittenAfterThePollWindowArrivesWhole)
{
    // 20 ms is far past the poll window, so the reader has gone on to
    // the blocking recv by the time the line is written.
    SocketPair p = socketPair();
    armPolling(p.reader);
    ASSERT_TRUE(p.reader.setRecvTimeout(30.0).ok());
    std::atomic<bool> reading{false};
    std::thread writer([&] {
        while (!reading.load())
            std::this_thread::yield();
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        ASSERT_TRUE(p.writer.sendAll("written late\n").ok());
    });
    std::string buffer;
    std::string line;
    reading.store(true);
    Expected<bool> got = p.reader.recvLine(&buffer, &line);
    writer.join();
    ASSERT_TRUE(got.ok()) << got.status().toString();
    EXPECT_TRUE(*got);
    EXPECT_EQ(line, "written late");
    EXPECT_TRUE(buffer.empty());
}

TEST(SocketRecvLine, PeerClosingInsideThePollWindowIsEof)
{
    // Rounds repeat until net.recv_polled shows that a close landed
    // inside the window; every round must read EOF, not an error.
    telemetry::Counter &polled = telemetry::counter("net.recv_polled");
    bool closedInWindow = false;
    for (int round = 0; round < 100 && !closedInWindow; ++round) {
        SocketPair p = socketPair();
        armPolling(p.reader);
        ASSERT_TRUE(p.reader.setRecvTimeout(30.0).ok());
        const std::uint64_t before = polled.value();
        Expected<bool> got = readWhilePeerCloses(p);
        ASSERT_TRUE(got.ok()) << got.status().toString();
        EXPECT_FALSE(*got);
        closedInWindow = polled.value() > before;
    }
    EXPECT_TRUE(closedInWindow);
}

TEST(SocketRecvLine, FirstWaitOnASocketDoesNotPoll)
{
    // The same close as above, on fresh sockets: their first wait goes
    // straight to the blocking recv, so no round is served by a poll.
    telemetry::Counter &polled = telemetry::counter("net.recv_polled");
    telemetry::Counter &blocked = telemetry::counter("net.recv_blocked");
    const std::uint64_t polled0 = polled.value();
    const std::uint64_t blocked0 = blocked.value();
    for (int round = 0; round < 20; ++round) {
        SocketPair p = socketPair();
        ASSERT_TRUE(p.reader.setRecvTimeout(30.0).ok());
        Expected<bool> got = readWhilePeerCloses(p);
        ASSERT_TRUE(got.ok()) << got.status().toString();
        EXPECT_FALSE(*got);
    }
    EXPECT_EQ(polled.value(), polled0);
    // A close before the first try is no wait at all; most are later.
    EXPECT_GT(blocked.value(), blocked0);
}

TEST(SocketRecvLine, LapsedTimeoutWaitsInTheBlockingRead)
{
    // A poll that never handed over to the blocking recv would spend
    // the whole 0.5 s on the CPU; the blocking read spends none of it.
    telemetry::Counter &polled = telemetry::counter("net.recv_polled");
    telemetry::Counter &blocked = telemetry::counter("net.recv_blocked");
    SocketPair p = socketPair();
    armPolling(p.reader);
    ASSERT_TRUE(p.reader.setRecvTimeout(0.5).ok());
    const std::uint64_t polled0 = polled.value();
    const std::uint64_t blocked0 = blocked.value();

    std::string buffer;
    std::string line;
    const double cpu0 = threadCpuSeconds();
    Expected<bool> got = p.reader.recvLine(&buffer, &line);
    const double cpu = threadCpuSeconds() - cpu0;
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), ErrorCode::IoError);
    EXPECT_EQ(got.status().message(), "recv timed out");
    EXPECT_LT(cpu, 0.05);
    EXPECT_EQ(polled.value(), polled0);
    EXPECT_EQ(blocked.value(), blocked0 + 1);
}

} // anonymous namespace
