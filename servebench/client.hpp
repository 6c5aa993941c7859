// The load generator's wire client: minimal HTTP/1.1 keep-alive framing
// and a JSON field scan, written against raw sockets. Nothing from the
// repository's src/net is on this path, so a change to the server's
// network layer moves only the server side of every measurement.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace servebench {

class HttpClient {
 public:
  HttpClient() = default;
  ~HttpClient() { close(); }
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// Connects to 127.0.0.1:`port` with TCP_NODELAY. False on failure.
  bool connect(std::uint16_t port);
  void close();
  bool connected() const { return fd_ >= 0; }

  /// Writes one `POST /` request carrying `body`. False on a transport
  /// error (the connection is closed).
  bool send_post(std::string_view body);

  /// Reads one response into `body`; `status` gets the HTTP status code.
  /// False on a transport error or a malformed frame.
  bool read_response(std::string& body, int& status);

 private:
  int fd_ = -1;
  std::string in_;  ///< bytes received and not yet consumed
  std::string out_;
};

/// One scoring verdict scanned out of a response body.
struct Verdict {
  std::string_view address;
  std::string_view status;
  double probability = 0.0;
  double latency_us = 0.0;  ///< engine submit -> completion
  std::uint64_t trace_id = 0;
  bool parsed = false;  ///< every field above was present
};

/// Scans the verdict object whose fields start at `from`, up to `to`.
Verdict scan_verdict(std::string_view json, std::size_t from, std::size_t to);

/// Offset just past `"result":` in a JSON-RPC response, or npos (an error
/// response or a malformed body).
std::size_t find_result(std::string_view json);

/// Offsets of every `"address":` key at or after `from`, in order — the
/// start of each verdict object in a phook_scoreBatch result array.
void find_verdicts(std::string_view json, std::size_t from,
                   std::vector<std::size_t>& starts);

}  // namespace servebench
