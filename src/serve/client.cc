#include "serve/client.hh"

#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace critics::serve
{

ServeClient::~ServeClient()
{
    close();
}

void
ServeClient::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

bool
ServeClient::connect(const std::string &host, unsigned short port,
                     std::string *error)
{
    close();
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) {
        if (error != nullptr)
            *error = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    struct sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        if (error != nullptr)
            *error = "bad host '" + host + "'";
        close();
        return false;
    }
    if (::connect(fd_, reinterpret_cast<struct sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        if (error != nullptr) {
            *error = host + ":" + std::to_string(port) + ": " +
                     std::strerror(errno);
        }
        close();
        return false;
    }
    setNoDelay(fd_);
    return true;
}

bool
ServeClient::sendLine(const std::string &line)
{
    return fd_ >= 0 && sendAll(fd_, line + "\n");
}

std::optional<std::string>
ServeClient::readLine(int timeoutMs)
{
    if (const auto line = lines_.nextLine())
        return line;
    char buf[4096];
    while (fd_ >= 0) {
        struct pollfd p = {fd_, POLLIN, 0};
        const int ready = ::poll(&p, 1, timeoutMs);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            return std::nullopt;
        }
        if (ready == 0)
            return std::nullopt; // timeout
        const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
        if (n <= 0) {
            close();
            return std::nullopt;
        }
        lines_.feed(buf, static_cast<std::size_t>(n));
        if (const auto line = lines_.nextLine())
            return line;
        if (lines_.overflowed()) {
            close(); // no daemon sends such a line
            return std::nullopt;
        }
    }
    return std::nullopt;
}

} // namespace critics::serve
