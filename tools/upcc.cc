/**
 * @file
 * upcc: client for the upcd experiment daemon.
 *
 *     upcc submit --socket PATH [--file REQ.json | REQUEST]
 *     upcc fetch  --socket PATH [--file REQ.json | REQUEST]
 *     upcc ping   --socket PATH
 *
 * `submit` sends the request as-is; `fetch` forces "cache_only": true
 * (serve from cache or fail, never simulate). The final reply body
 * goes to stdout verbatim; progress-event lines go to stderr — so
 * `upcc submit ... > a.json` twice and `diff a.json b.json` is a
 * byte-level cache-consistency check, which is exactly how the check
 * script's e2e smoke uses it. Exit 0 when the reply says "ok": true,
 * 1 otherwise.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "common/error.hh"
#include "common/json.hh"
#include "svc/server.hh"

using namespace upc780;

namespace
{

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s submit --socket PATH [--file REQ | REQUEST]\n"
                 "       %s fetch  --socket PATH [--file REQ | REQUEST]\n"
                 "       %s ping   --socket PATH\n",
                 argv0, argv0, argv0);
    return 2;
}

/** One line; embedded newlines would tear the wire framing. */
std::string
flatten(std::string text)
{
    for (char &c : text)
        if (c == '\n' || c == '\r')
            c = ' ';
    return text;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage(argv[0]);
    const std::string cmd = argv[1];
    std::string socketPath;
    std::string request;

    for (int i = 2; i < argc; ++i) {
        const std::string a = argv[i];
        const bool hasArg = i + 1 < argc;
        if (a == "--socket" && hasArg) {
            socketPath = argv[++i];
        } else if (a == "--file" && hasArg) {
            std::ifstream in(argv[++i]);
            if (!in) {
                std::fprintf(stderr, "upcc: cannot read %s\n", argv[i]);
                return 1;
            }
            std::ostringstream ss;
            ss << in.rdbuf();
            request = ss.str();
        } else if (!a.empty() && a[0] != '-' && request.empty()) {
            request = a;
        } else {
            return usage(argv[0]);
        }
    }
    if (socketPath.empty())
        return usage(argv[0]);

    try {
        if (cmd == "ping") {
            const std::string reply =
                svc::requestOverSocket(socketPath, "ping");
            std::printf("%s\n", reply.c_str());
            return json::parse(reply).find("pong") ? 0 : 1;
        }
        if (cmd != "submit" && cmd != "fetch")
            return usage(argv[0]);
        if (request.empty())
            return usage(argv[0]);

        if (cmd == "fetch") {
            // Force fetch mode without trusting the caller's document
            // to have set it: parse, overwrite, re-dump.
            json::Value req = json::parse(request);
            json::Value forced = json::object();
            for (const auto &[k, v] : req.asObject())
                if (k != "cache_only")
                    forced.set(k, v);
            forced.set("cache_only", true);
            request = forced.dump();
        }

        const std::string reply = svc::requestOverSocket(
            socketPath, flatten(request),
            [](const std::string &eventLine) {
                std::fprintf(stderr, "%s\n", eventLine.c_str());
            });
        std::printf("%s\n", reply.c_str());

        const json::Value parsed = json::parse(reply);
        const json::Value *ok = parsed.find("ok");
        return (ok && ok->isBool() && ok->asBool()) ? 0 : 1;
    } catch (const SimError &e) {
        std::fprintf(stderr, "upcc: %s\n", e.what());
        return 1;
    }
}
