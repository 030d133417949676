/**
 * @file
 * Minimal line-protocol client for the serve daemon — just enough for
 * `critics_cli submit/status/wait`, the unit tests and the smoke
 * script: connect, send one JSONL request line, read reply lines with
 * a timeout.  Anything that can speak "JSON lines over TCP" (netcat,
 * a python script) is an equally valid client; this class exists so
 * the CLI and the tests need no such dependency.
 */

#ifndef CRITICS_SERVE_CLIENT_HH
#define CRITICS_SERVE_CLIENT_HH

#include <optional>
#include <string>

#include "serve/protocol.hh"

namespace critics::serve
{

class ServeClient
{
  public:
    ServeClient() = default;
    ~ServeClient();

    ServeClient(const ServeClient &) = delete;
    ServeClient &operator=(const ServeClient &) = delete;

    /** Connect to host:port; false (with *error set) on failure. */
    bool connect(const std::string &host, unsigned short port,
                 std::string *error = nullptr);

    bool connected() const { return fd_ >= 0; }
    void close();

    /** Send one request line (the newline is added here). */
    bool sendLine(const std::string &line);

    /** Next complete reply line, waiting up to `timeoutMs` (-1 =
     *  forever); nullopt on timeout or a closed connection.  A reply
     *  line longer than kMaxLineBytes closes the connection. */
    std::optional<std::string> readLine(int timeoutMs = -1);

  private:
    int fd_ = -1;
    LineReader lines_;
};

} // namespace critics::serve

#endif // CRITICS_SERVE_CLIENT_HH
