/**
 * @file
 * Wire transport for the experiment daemon: a Unix-domain stream
 * socket speaking newline-delimited JSON.
 *
 * Protocol, per connection:
 *
 *     client:  one request line (a job document, or the bare word
 *              "ping")
 *     daemon:  zero or more progress-event lines — objects carrying
 *              an "event" member ("admitted", "run", "progress",
 *              "cache", "done", ...)
 *     daemon:  exactly one final line, then EOF
 *
 * The final line is the reply body *verbatim* — for a cache hit it is
 * the stored bytes, for a cold run the bytes just stored — so a
 * client diffing two replies byte-for-byte is exercising the
 * determinism contract end to end. Everything per-request/transient
 * (hit vs cold, queue position) rides in the event lines, which is
 * why they are separate lines and not reply members.
 *
 * The Server owns only transport: sockets, threads, line framing.
 * All policy (admission, queueing, caching, single-flight) lives in
 * the Daemon, which the integration tests drive directly without any
 * of this file.
 */

#ifndef UPC780_SVC_SERVER_HH
#define UPC780_SVC_SERVER_HH

#include <atomic>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "svc/daemon.hh"

namespace upc780::svc
{

/**
 * Buffered reader of '\n'-framed lines from one stream socket: reads
 * in chunks of up to ChunkBytes and hands out one line at a time, so a
 * line costs a recv per chunk rather than per byte. One reader per
 * connection; bytes past the line returned stay buffered for the next
 * call, so lines that arrive together in one segment are all seen.
 */
class LineReader
{
  public:
    static constexpr size_t ChunkBytes = 16u << 10;
    /** Longest accepted line; a request larger than the JSON parser's
     *  own input cap is cut off here. */
    static constexpr size_t DefaultMaxBytes = 8u << 20;

    explicit LineReader(int fd, size_t maxBytes = DefaultMaxBytes);

    /**
     * The next line, newline stripped. False on EOF before any byte of
     * it, on a read error, or on a line longer than the cap (refused,
     * not truncated). EOF may end the last line; reads interrupted by
     * a signal are retried.
     */
    bool next(std::string &line);

  private:
    int fd_;
    size_t maxBytes_;
    char buf_[ChunkBytes];  //!< the last chunk read
    size_t len_ = 0;        //!< bytes of it received
    size_t pos_ = 0;        //!< first byte not yet handed out
    bool eof_ = false;
};

/** Serves one Daemon on one Unix-domain socket. */
class Server
{
  public:
    /** Binds and listens immediately; throws ConfigError on failure
     *  (path too long for sun_path, address in use, ...). */
    Server(Daemon &daemon, std::string socketPath);

    /** Stops (idempotent) and removes the socket file. */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Start the accept loop (background thread). */
    void start();

    /** Close the listener, join the accept loop and every connection
     *  handler. Safe to call more than once. */
    void stop();

    const std::string &socketPath() const { return path_; }

  private:
    void acceptLoop();
    void handleConnection(int fd);

    Daemon &daemon_;
    std::string path_;
    std::atomic<int> listenFd_{-1};
    std::atomic<bool> stopping_{false};
    std::thread acceptThread_;
    std::mutex connMu_;
    std::vector<std::thread> connections_;
};

/**
 * Client helper: connect to @p socketPath, send @p requestLine, stream
 * every progress-event line to @p onEvent (optional, raw line text),
 * and return the final reply line. Throws ConfigError on connect or
 * protocol failures.
 */
std::string requestOverSocket(
    const std::string &socketPath, const std::string &requestLine,
    const std::function<void(const std::string &)> &onEvent = {});

} // namespace upc780::svc

#endif // UPC780_SVC_SERVER_HH
