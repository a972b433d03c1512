/**
 * @file
 * Tests for Socket::recvLine (util/net.hh) over a socketpair, with
 * Socket(int fd) wrapping each end: long lines arriving in many small
 * writes, several lines in one write, EOF mid-line, a lapsed receive
 * timeout and the maximum line length.
 */

#include <string>
#include <thread>

#include <sys/socket.h>

#include <gtest/gtest.h>

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

} // anonymous namespace
