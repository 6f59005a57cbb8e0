/**
 * @file
 * The socket line framing of the upcd wire protocol (svc/server.hh):
 * LineReader against a socketpair, and requestOverSocket against a
 * one-shot fake daemon. Covers a line longer than one read chunk,
 * several lines arriving in one segment, a last line ended by EOF
 * rather than '\n', and a line over the cap, which is refused.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "svc/server.hh"

using namespace upc780;
using svc::LineReader;

namespace
{

/** A connected stream socketpair, closed on destruction. */
struct Pair
{
    int fd[2] = {-1, -1};

    Pair()
    {
        if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fd) != 0)
            ADD_FAILURE() << "socketpair: " << std::strerror(errno);
    }
    ~Pair()
    {
        for (int f : fd)
            if (f >= 0)
                ::close(f);
    }

    /** Close the writing end: the reader sees EOF after the data. */
    void
    closeWriter()
    {
        ::close(fd[1]);
        fd[1] = -1;
    }
};

/** Write all of @p bytes to @p fd in one send where the kernel allows. */
void
writeAll(int fd, const std::string &bytes)
{
    size_t off = 0;
    while (off < bytes.size()) {
        const ssize_t n = ::send(fd, bytes.data() + off,
                                 bytes.size() - off, MSG_NOSIGNAL);
        ASSERT_GT(n, 0) << std::strerror(errno);
        off += static_cast<size_t>(n);
    }
}

} // namespace

TEST(LineReader, LineLongerThanOneChunk)
{
    Pair p;
    // Three chunks and a bit: the reader must stitch reads together.
    std::string big(3 * LineReader::ChunkBytes + 17, 'x');
    for (size_t i = 0; i < big.size(); i += 4093)
        big[i] = static_cast<char>('a' + i % 26);
    std::thread writer([&] {
        writeAll(p.fd[1], big + "\n" + "tail\n");
        p.closeWriter();
    });
    LineReader r(p.fd[0]);
    std::string line;
    ASSERT_TRUE(r.next(line));
    EXPECT_EQ(line, big);
    ASSERT_TRUE(r.next(line));
    EXPECT_EQ(line, "tail");
    EXPECT_FALSE(r.next(line));
    writer.join();
}

TEST(LineReader, LinesArrivingInOneSegment)
{
    Pair p;
    writeAll(p.fd[1], "{\"event\":\"cache\"}\n{\"ok\":true}\n");
    p.closeWriter();
    LineReader r(p.fd[0]);
    std::string line;
    ASSERT_TRUE(r.next(line));
    EXPECT_EQ(line, "{\"event\":\"cache\"}");
    ASSERT_TRUE(r.next(line));
    EXPECT_EQ(line, "{\"ok\":true}");
    EXPECT_FALSE(r.next(line));
}

TEST(LineReader, EofEndsTheLastLine)
{
    Pair p;
    writeAll(p.fd[1], "first\nno newline");
    p.closeWriter();
    LineReader r(p.fd[0]);
    std::string line;
    ASSERT_TRUE(r.next(line));
    EXPECT_EQ(line, "first");
    ASSERT_TRUE(r.next(line));
    EXPECT_EQ(line, "no newline");
    EXPECT_FALSE(r.next(line));
    EXPECT_FALSE(r.next(line));  // EOF stays EOF
}

TEST(LineReader, EmptyStreamIsNoLine)
{
    Pair p;
    p.closeWriter();
    LineReader r(p.fd[0]);
    std::string line;
    EXPECT_FALSE(r.next(line));
}

TEST(LineReader, LineOverTheCapIsRefused)
{
    {
        Pair p;
        writeAll(p.fd[1], std::string(16, 'y') + "\n");
        p.closeWriter();
        LineReader r(p.fd[0], 16);
        std::string line;
        ASSERT_TRUE(r.next(line));  // exactly the cap: accepted
        EXPECT_EQ(line.size(), 16u);
    }
    for (const char *end : {"\n", ""}) {
        Pair p;
        writeAll(p.fd[1], std::string(17, 'y') + end);
        p.closeWriter();
        LineReader r(p.fd[0], 16);
        std::string line;
        EXPECT_FALSE(r.next(line)) << "terminator '" << end << "'";
    }
}

TEST(RequestOverSocket, EventAndReplyInOneSegment)
{
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::path(::testing::TempDir()) / "upc780_svc_line";
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string path = (dir / "d.sock").string();

    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    ASSERT_LT(path.size(), sizeof(addr.sun_path));
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    const int lfd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(lfd, 0);
    ASSERT_EQ(0, ::bind(lfd, reinterpret_cast<const sockaddr *>(&addr),
                        sizeof(addr)));
    ASSERT_EQ(0, ::listen(lfd, 1));

    // A one-shot daemon: read the request, answer with a progress
    // event and a reply larger than one chunk in a single write.
    const std::string reply =
        "{\"report\":\"" + std::string(LineReader::ChunkBytes, 'r') + "\"}";
    std::string request;
    std::thread daemon([&] {
        const int fd = ::accept(lfd, nullptr, nullptr);
        ASSERT_GE(fd, 0);
        LineReader r(fd);
        ASSERT_TRUE(r.next(request));
        writeAll(fd, "{\"event\":\"cache\",\"hit\":true}\n" + reply + "\n");
        ::close(fd);
    });

    std::vector<std::string> events;
    const std::string got = svc::requestOverSocket(
        path, "{\"workloads\":\"paper\"}",
        [&](const std::string &ev) { events.push_back(ev); });
    daemon.join();
    ::close(lfd);
    fs::remove_all(dir);

    EXPECT_EQ(request, "{\"workloads\":\"paper\"}");
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0], "{\"event\":\"cache\",\"hit\":true}");
    EXPECT_EQ(got, reply);
}
