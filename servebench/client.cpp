#include "client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstring>
#include <vector>

namespace servebench {

namespace {

bool send_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

char lower(char c) { return (c >= 'A' && c <= 'Z') ? c - 'A' + 'a' : c; }

/// Case-insensitive search for `needle` (lowercase) in `hay`.
std::size_t ifind(std::string_view hay, std::string_view needle) {
  if (needle.size() > hay.size()) return std::string_view::npos;
  for (std::size_t i = 0; i + needle.size() <= hay.size(); ++i) {
    std::size_t j = 0;
    while (j < needle.size() && lower(hay[i + j]) == needle[j]) ++j;
    if (j == needle.size()) return i;
  }
  return std::string_view::npos;
}

/// Position just past `"key":` in [from, to), or npos.
std::size_t field(std::string_view json, std::string_view key,
                  std::size_t from, std::size_t to) {
  std::string pattern;
  pattern.reserve(key.size() + 3);
  pattern += '"';
  pattern += key;
  pattern += "\":";
  const std::size_t at = json.find(pattern, from);
  if (at == std::string_view::npos || at + pattern.size() > to) {
    return std::string_view::npos;
  }
  return at + pattern.size();
}

}  // namespace

bool HttpClient::connect(std::uint16_t port) {
  close();
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return false;
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    close();
    return false;
  }
  return true;
}

void HttpClient::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  in_.clear();
}

bool HttpClient::send_post(std::string_view body) {
  if (fd_ < 0) return false;
  out_.assign(
      "POST / HTTP/1.1\r\nHost: 127.0.0.1\r\n"
      "Content-Type: application/json\r\nContent-Length: ");
  out_ += std::to_string(body.size());
  out_ += "\r\n\r\n";
  out_ += body;
  if (!send_all(fd_, out_.data(), out_.size())) {
    close();
    return false;
  }
  return true;
}

bool HttpClient::read_response(std::string& body, int& status) {
  if (fd_ < 0) return false;
  std::size_t head_end = std::string::npos;
  std::size_t content_length = 0;
  char chunk[16384];
  for (;;) {
    if (head_end == std::string::npos) {
      head_end = in_.find("\r\n\r\n");
      if (head_end != std::string::npos) {
        const std::string_view head(in_.data(), head_end);
        // "HTTP/1.1 200 OK"
        if (head.size() < 12 || head.compare(0, 5, "HTTP/") != 0) break;
        const std::size_t sp = head.find(' ');
        if (sp == std::string_view::npos) break;
        status = 0;
        std::from_chars(head.data() + sp + 1, head.data() + head.size(),
                        status);
        const std::size_t cl = ifind(head, "content-length:");
        if (cl != std::string_view::npos) {
          std::size_t p = cl + 15;
          while (p < head.size() && head[p] == ' ') ++p;
          std::from_chars(head.data() + p, head.data() + head.size(),
                          content_length);
        }
      }
    }
    if (head_end != std::string::npos &&
        in_.size() >= head_end + 4 + content_length) {
      body.assign(in_, head_end + 4, content_length);
      in_.erase(0, head_end + 4 + content_length);
      return true;
    }
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    in_.append(chunk, static_cast<std::size_t>(n));
  }
  close();
  return false;
}

Verdict scan_verdict(std::string_view json, std::size_t from,
                     std::size_t to) {
  Verdict v;
  const auto string_at = [&](std::size_t at, std::string_view& out) {
    if (at == std::string_view::npos || at >= to || json[at] != '"') {
      return false;
    }
    const std::size_t end = json.find('"', at + 1);
    if (end == std::string_view::npos || end >= to) return false;
    out = json.substr(at + 1, end - at - 1);
    return true;
  };
  const auto number_at = [&](std::size_t at, auto& out) {
    if (at == std::string_view::npos) return false;
    return std::from_chars(json.data() + at, json.data() + to, out).ec ==
           std::errc{};
  };
  double trace = 0.0;
  v.parsed = string_at(field(json, "address", from, to), v.address) &&
             string_at(field(json, "status", from, to), v.status) &&
             number_at(field(json, "probability", from, to), v.probability) &&
             number_at(field(json, "latency_us", from, to), v.latency_us) &&
             number_at(field(json, "trace_id", from, to), trace);
  v.trace_id = static_cast<std::uint64_t>(trace);
  return v;
}

std::size_t find_result(std::string_view json) {
  return field(json, "result", 0, json.size());
}

void find_verdicts(std::string_view json, std::size_t from,
                   std::vector<std::size_t>& starts) {
  starts.clear();
  for (std::size_t at = json.find("\"address\":", from);
       at != std::string_view::npos; at = json.find("\"address\":", at + 1)) {
    starts.push_back(at);
  }
}

}  // namespace servebench
