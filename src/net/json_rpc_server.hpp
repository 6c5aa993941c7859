// JSON-RPC 2.0 server over HTTP POST, on the net-layer event loop.
//
// This is the network front door the serving path was missing: scoring
// goes from "call ScoringEngine::submit in-process" to "POST a JSON-RPC
// frame at 127.0.0.1:<port>", the same shape as a real Ethereum node's
// RPC endpoint (and therefore curl-able):
//
//   curl -s -X POST http://127.0.0.1:9545/ -d '{"jsonrpc":"2.0","id":1,
//       "method":"phook_score","params":["0x1234...40 hex..."]}'
//
// Threads: none of its own. The SocketServer loop thread buffers and
// parses HTTP and JSON-RPC, mints the request's obs::RequestContext and
// runs the method handler, which must not block: it replies at once or
// hands its Reply to the work's completion (a scoring engine worker). The
// thread that lands a frame's last reply builds the body and posts it to
// the loop with with_connection(). stop() refuses new frames (503/-32005),
// waits for every frame in flight to post its response, then stops the
// loop, whose final task drain writes them. Malformed frames and per-stage
// latency land in the server's net_* registry.
//
// Transport rules: POST only (405 otherwise), Content-Length required
// (411), bodies over max_body_bytes refused (413), HTTP/1.1 keep-alive
// honored with at most one in-flight request per connection (responses
// are posted asynchronously; ordering two pipelined responses would
// require sequencing the completions — refusing to read ahead is simpler
// and loses nothing at scoring-request sizes). JSON-RPC batches work,
// including mixed valid/invalid entries and notification elision, capped
// at max_batch entries.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "common/bounded_queue.hpp"
#include "net/json.hpp"
#include "net/socket_server.hpp"
#include "obs/metrics.hpp"
#include "obs/request_context.hpp"

namespace phishinghook::net {

/// JSON-RPC 2.0 error codes used by the server core. Handlers may throw
/// RpcError with these or their own application codes.
struct rpc_errors {
  static constexpr int kParseError = -32700;
  static constexpr int kInvalidRequest = -32600;
  static constexpr int kMethodNotFound = -32601;
  static constexpr int kInvalidParams = -32602;
  static constexpr int kInternalError = -32603;
  /// Request refused: the server is stopping or the scoring engine shut
  /// down — the socket-layer twin of serve::ScoreStatus::kShed.
  static constexpr int kShed = -32005;
};

/// Thrown by method handlers to produce a JSON-RPC error response.
class RpcError : public std::runtime_error {
 public:
  RpcError(int code, const std::string& message)
      : std::runtime_error(message), code_(code) {}
  int code() const { return code_; }

 private:
  int code_;
};

struct RpcConfig {
  std::size_t max_connections = 128;
  /// HTTP body cap; Content-Length above this is refused with 413.
  std::size_t max_body_bytes = 1 << 20;
  /// Entries allowed in one JSON-RPC batch array.
  std::size_t max_batch = 64;
  std::uint64_t idle_timeout_ms = 30000;
};

class JsonRpcServer : public SocketServer {
  struct Frame;

 public:
  /// Everything a handler may want beyond its params: the request's
  /// causal identity (pass it into ScoringEngine::submit to keep the
  /// socket request one connected trace lane).
  struct CallInfo {
    obs::RequestContext ctx;
  };

  /// A handler's way to answer its call, now or later, from any thread.
  /// Copyable; every copy answers the same call, and only the first
  /// answer counts.
  class Reply {
   public:
    void result(JsonValue value) const;
    void error(int code, const std::string& message) const;

   private:
    friend class JsonRpcServer;
    Reply(std::shared_ptr<Frame> frame, std::size_t call)
        : frame_(std::move(frame)), call_(call) {}
    std::shared_ptr<Frame> frame_;
    std::size_t call_;
  };

  /// Runs on the loop thread and must not block. Answer exactly once
  /// through `reply`; throwing RpcError (or any exception) before that
  /// answers with the error instead.
  using Handler = std::function<void(const JsonValue& params,
                                     const CallInfo& call, Reply reply)>;

  explicit JsonRpcServer(RpcConfig config = {});
  ~JsonRpcServer() override;

  /// Registers `method`; call before start(). Re-registering replaces.
  void register_method(std::string method, Handler handler);

  /// Refuses new frames, waits for every frame in flight to reply, writes
  /// those responses, then stops the loop. Idempotent.
  void stop();

  /// The server's net_* metrics (counters, gauges, stage histograms).
  /// Attach to a ScrapeServer alongside the engine registry. The non-const
  /// overload lets benches re-register a histogram handle to read it.
  const obs::MetricsRegistry& metrics_registry() const { return registry_; }
  obs::MetricsRegistry& metrics_registry() { return registry_; }

  /// Syncs pull-model gauges (active connections, frames in flight) into
  /// the registry — wire as a scrape-server pre-scrape hook.
  void export_metrics();

  std::uint64_t requests_received() const {
    return requests_total_.value();
  }

 protected:
  void on_data(Connection& conn) override;
  void on_open(Connection& conn) override;
  void on_overflow(Connection& conn) override;

 private:
  /// Per-connection HTTP state, hung off Connection::user.
  struct HttpState {
    bool busy = false;        ///< frame in flight; don't read ahead
    double first_byte_us = 0; ///< tracer clock at this request's first byte
  };

  void process_input(Connection& conn);
  /// Sends an HTTP response and either re-arms (keep-alive) or finishes
  /// the connection. Loop thread.
  void respond_http(Connection& conn, int status, const char* reason,
                    const std::string& body, bool keep_alive);

  /// Parses one frame body and runs its handlers. Loop thread.
  void dispatch(const std::shared_ptr<Frame>& frame, const std::string& body);
  /// Validates one request object and runs its handler (or answers).
  void call_method(const std::shared_ptr<Frame>& frame, std::size_t call,
                   const JsonValue& request);
  /// Records a call's response; only the first answer per call counts.
  void answer(Frame& frame, std::size_t call, JsonValue response);
  /// Counts down the frame's pending answers; the last completes it.
  void release(Frame& frame);
  /// Builds the body, closes the trace lane, posts the response. Any
  /// thread.
  void complete(Frame& frame);

  RpcConfig config_;
  std::unordered_map<std::string, Handler> methods_;

  /// Frames dispatched whose response is not yet posted; stop() closes it.
  common::InFlight in_flight_;

  obs::MetricsRegistry registry_;
  obs::Counter requests_total_ = registry_.counter("net_requests_total");
  obs::Counter responses_total_ = registry_.counter("net_responses_total");
  obs::Counter malformed_ = registry_.counter("net_requests_malformed");
  obs::Counter shed_ = registry_.counter("net_requests_shed");
  obs::Counter batch_calls_ = registry_.counter("net_batch_calls_total");
  obs::Gauge active_connections_ = registry_.gauge("net_connections_active");
  obs::Gauge accepted_gauge_ = registry_.gauge("net_connections_accepted");
  obs::Gauge rejected_gauge_ = registry_.gauge("net_connections_rejected");
  obs::Gauge in_flight_gauge_ = registry_.gauge("net_frames_in_flight");
  obs::LatencyHistogram& parse_us_ =
      registry_.histogram("net_stage_service_us", obs::label("stage", "parse"));
  obs::LatencyHistogram& handle_us_ = registry_.histogram(
      "net_stage_service_us", obs::label("stage", "handle"));
  obs::LatencyHistogram& request_total_us_ =
      registry_.histogram("net_request_total_us");
};

}  // namespace phishinghook::net
