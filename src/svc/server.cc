#include "svc/server.hh"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/logging.hh"

namespace upc780::svc
{

namespace
{

/** Write all of @p line + '\n' to @p fd (MSG_NOSIGNAL: a vanished
 *  client must not SIGPIPE the daemon). Returns false on error. */
bool
sendLine(int fd, const std::string &line)
{
    std::string framed = line;
    framed.push_back('\n');
    size_t off = 0;
    while (off < framed.size()) {
        const ssize_t n = ::send(fd, framed.data() + off,
                                 framed.size() - off, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<size_t>(n);
    }
    return true;
}

sockaddr_un
makeAddr(const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path))
        sim_throw(ConfigError,
                  "socket path '%s' is too long (max %zu bytes)",
                  path.c_str(), sizeof(addr.sun_path) - 1);
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    return addr;
}

} // namespace

LineReader::LineReader(int fd, size_t maxBytes)
    : fd_(fd), maxBytes_(maxBytes)
{
}

bool
LineReader::next(std::string &line)
{
    line.clear();
    for (;;) {
        const char *begin = buf_ + pos_;
        const size_t avail = len_ - pos_;
        const char *nl =
            static_cast<const char *>(std::memchr(begin, '\n', avail));
        const size_t take = nl ? static_cast<size_t>(nl - begin) : avail;
        if (line.size() + take > maxBytes_)
            return false;
        line.append(begin, take);
        if (nl) {
            pos_ += take + 1;
            return true;
        }
        if (eof_)
            return !line.empty(); // EOF can terminate the last line
        pos_ = len_ = 0;
        ssize_t n;
        do {
            n = ::recv(fd_, buf_, ChunkBytes, 0);
        } while (n < 0 && errno == EINTR);
        if (n < 0)
            return false;
        len_ = static_cast<size_t>(n);
        eof_ = n == 0;
    }
}

Server::Server(Daemon &daemon, std::string socketPath)
    : daemon_(daemon), path_(std::move(socketPath))
{
    const sockaddr_un addr = makeAddr(path_);
    listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        sim_throw(ConfigError, "cannot create socket: %s",
                  std::strerror(errno));
    ::unlink(path_.c_str()); // a stale socket file from a dead daemon
    if (::bind(listenFd_, reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) < 0) {
        const int err = errno;
        ::close(listenFd_);
        listenFd_ = -1;
        sim_throw(ConfigError, "cannot bind '%s': %s", path_.c_str(),
                  std::strerror(err));
    }
    if (::listen(listenFd_, 64) < 0) {
        const int err = errno;
        ::close(listenFd_);
        listenFd_ = -1;
        ::unlink(path_.c_str());
        sim_throw(ConfigError, "cannot listen on '%s': %s",
                  path_.c_str(), std::strerror(err));
    }
}

Server::~Server()
{
    stop();
}

void
Server::start()
{
    if (!acceptThread_.joinable())
        acceptThread_ = std::thread([this] { acceptLoop(); });
}

void
Server::stop()
{
    stopping_.store(true);
    const int fd = listenFd_.exchange(-1);
    if (fd >= 0) {
        ::shutdown(fd, SHUT_RDWR);
        ::close(fd);
        ::unlink(path_.c_str());
    }
    if (acceptThread_.joinable())
        acceptThread_.join();
    std::vector<std::thread> conns;
    {
        std::lock_guard<std::mutex> lock(connMu_);
        conns.swap(connections_);
    }
    for (std::thread &t : conns)
        if (t.joinable())
            t.join();
}

void
Server::acceptLoop()
{
    for (;;) {
        const int lfd = listenFd_.load();
        if (lfd < 0)
            return;
        const int fd = ::accept(lfd, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return; // listener closed (stop) or broken
        }
        if (stopping_.load()) {
            ::close(fd);
            return;
        }
        std::lock_guard<std::mutex> lock(connMu_);
        connections_.emplace_back(
            [this, fd] { handleConnection(fd); });
    }
}

void
Server::handleConnection(int fd)
{
    std::string line;
    if (!LineReader(fd).next(line)) {
        ::close(fd);
        return;
    }

    if (line == "ping") {
        json::Value pong = json::object();
        pong.set("ok", true);
        pong.set("pong", true);
        pong.set("draining", daemon_.draining());
        sendLine(fd, pong.dump());
        ::close(fd);
        return;
    }

    // Event lines and the final line share the socket; serialize them
    // so a progress event can never tear the reply mid-line.
    auto writeMu = std::make_shared<std::mutex>();
    JobHandle handle =
        daemon_.submit(line, [fd, writeMu](const json::Value &ev) {
            std::lock_guard<std::mutex> lock(*writeMu);
            sendLine(fd, ev.dump());
        });
    const std::string reply = handle.wait();
    {
        std::lock_guard<std::mutex> lock(*writeMu);
        sendLine(fd, reply);
    }
    ::close(fd);
}

std::string
requestOverSocket(const std::string &socketPath,
                  const std::string &requestLine,
                  const std::function<void(const std::string &)> &onEvent)
{
    const sockaddr_un addr = makeAddr(socketPath);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        sim_throw(ConfigError, "cannot create socket: %s",
                  std::strerror(errno));
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) < 0) {
        const int err = errno;
        ::close(fd);
        sim_throw(ConfigError, "cannot connect to '%s': %s",
                  socketPath.c_str(), std::strerror(err));
    }
    if (!sendLine(fd, requestLine)) {
        ::close(fd);
        sim_throw(ConfigError, "send to '%s' failed",
                  socketPath.c_str());
    }

    // Every line with an "event" member is progress; the first line
    // without one is the reply and ends the exchange.
    LineReader reader(fd);
    std::string line;
    while (reader.next(line)) {
        bool isEvent = false;
        try {
            isEvent = json::parse(line).find("event") != nullptr;
        } catch (const SimError &) {
            isEvent = false; // a non-JSON line can only be the reply
        }
        if (!isEvent) {
            ::close(fd);
            return line;
        }
        if (onEvent)
            onEvent(line);
    }
    ::close(fd);
    sim_throw(ConfigError,
              "connection to '%s' closed before a reply arrived",
              socketPath.c_str());
}

} // namespace upc780::svc
