#include "net/json_rpc_server.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <utility>
#include <vector>

#include "obs/trace.hpp"

namespace phishinghook::net {

namespace {

constexpr std::size_t kMaxHeadBytes = 16384;

/// Case-insensitive header lookup inside [head_begin, head_end); returns
/// the trimmed value or empty.
std::string find_header(const std::string& in, std::size_t head_end,
                        std::string_view name) {
  std::size_t pos = in.find("\r\n");
  while (pos != std::string::npos && pos < head_end) {
    const std::size_t line_start = pos + 2;
    const std::size_t line_end = in.find("\r\n", line_start);
    if (line_end == std::string::npos || line_start >= head_end) break;
    const std::size_t colon = in.find(':', line_start);
    if (colon != std::string::npos && colon < line_end &&
        colon - line_start == name.size()) {
      bool match = true;
      for (std::size_t i = 0; i < name.size(); ++i) {
        if (std::tolower(static_cast<unsigned char>(in[line_start + i])) !=
            std::tolower(static_cast<unsigned char>(name[i]))) {
          match = false;
          break;
        }
      }
      if (match) {
        std::size_t value_start = colon + 1;
        while (value_start < line_end &&
               (in[value_start] == ' ' || in[value_start] == '\t')) {
          ++value_start;
        }
        std::size_t value_end = line_end;
        while (value_end > value_start &&
               (in[value_end - 1] == ' ' || in[value_end - 1] == '\t')) {
          --value_end;
        }
        return in.substr(value_start, value_end - value_start);
      }
    }
    pos = line_end;
  }
  return {};
}

std::string ascii_lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s;
}

JsonValue make_error_value(int code, const std::string& message) {
  JsonValue error;
  error.set("code", JsonValue::number(code));
  error.set("message", JsonValue::string(message));
  return error;
}

JsonValue make_error_response(const JsonValue& id, int code,
                              const std::string& message) {
  JsonValue response;
  response.set("jsonrpc", JsonValue::string("2.0"));
  response.set("id", id);
  response.set("error", make_error_value(code, message));
  return response;
}

JsonValue make_result_response(const JsonValue& id, JsonValue result) {
  JsonValue response;
  response.set("jsonrpc", JsonValue::string("2.0"));
  response.set("id", id);
  response.set("result", std::move(result));
  return response;
}

std::string shed_body(const std::string& why) {
  return make_error_response(JsonValue::null(), rpc_errors::kShed, why).dump();
}

}  // namespace

/// One HTTP frame from dispatch to response: a single call, or one call
/// per batch entry. Shared by every Reply handed out for it.
struct JsonRpcServer::Frame {
  struct Call {
    JsonValue id;
    bool notification = false;
    std::atomic<bool> answered{false};
    std::optional<JsonValue> response;  ///< unset: nothing to send
  };

  JsonRpcServer* server = nullptr;
  std::uint64_t conn_id = 0;
  bool keep_alive = true;
  bool batch = false;  ///< the body is an array of responses
  obs::RequestContext ctx;
  double handle_start_us = 0.0;
  std::vector<Call> calls;
  std::atomic<std::size_t> pending{0};  ///< unanswered calls (+1, dispatch)
};

void JsonRpcServer::Reply::result(JsonValue value) const {
  const JsonValue& id = frame_->calls[call_].id;
  frame_->server->answer(*frame_, call_,
                         make_result_response(id, std::move(value)));
}

void JsonRpcServer::Reply::error(int code, const std::string& message) const {
  const JsonValue& id = frame_->calls[call_].id;
  frame_->server->answer(*frame_, call_, make_error_response(id, code, message));
}

JsonRpcServer::JsonRpcServer(RpcConfig config)
    : SocketServer(SocketServerConfig{
          config.max_connections,
          /*max_in_bytes=*/config.max_body_bytes + kMaxHeadBytes,
          config.idle_timeout_ms,
      }),
      config_(config) {
  registry_.set_help("net_requests_total",
                     "HTTP frames received by the JSON-RPC server");
  registry_.set_help("net_requests_shed",
                     "Frames refused with 503 because the server is stopping");
  registry_.set_help("net_requests_malformed",
                     "HTTP or JSON-RPC protocol violations answered with "
                     "an error");
  registry_.set_help("net_stage_service_us",
                     "Service time per network stage (parse; handle = "
                     "handler start to the frame's last reply)");
  registry_.set_help("net_request_total_us",
                     "Frame completion to response build, JSON-RPC layer");
  registry_.set_help("net_frames_in_flight",
                     "Frames dispatched whose response is not yet posted");
}

JsonRpcServer::~JsonRpcServer() { stop(); }

void JsonRpcServer::register_method(std::string method, Handler handler) {
  methods_[std::move(method)] = std::move(handler);
}

void JsonRpcServer::stop() {
  // Frames in flight still reply; each completion posts its response
  // before leaving the gate, and the loop's final task drain (inside
  // SocketServer::stop) writes them.
  in_flight_.close();
  in_flight_.wait_idle();
  SocketServer::stop();
}

void JsonRpcServer::export_metrics() {
  active_connections_.set(static_cast<double>(connections()));
  accepted_gauge_.set(static_cast<double>(connections_accepted()));
  rejected_gauge_.set(static_cast<double>(connections_rejected()));
  in_flight_gauge_.set(static_cast<double>(in_flight_.size()));
}

void JsonRpcServer::on_open(Connection& conn) {
  conn.user = std::make_shared<HttpState>();
}

void JsonRpcServer::on_data(Connection& conn) { process_input(conn); }

void JsonRpcServer::on_overflow(Connection& conn) {
  malformed_.inc();
  conn.in.clear();
  respond_http(conn, 413, "Payload Too Large",
               shed_body("request body exceeds server limit"), false);
}

void JsonRpcServer::process_input(Connection& conn) {
  auto* state = static_cast<HttpState*>(conn.user.get());
  if (state == nullptr || state->busy) return;  // response in flight
  if (conn.in.empty()) return;
  obs::Tracer& tracer = obs::Tracer::global();
  if (state->first_byte_us == 0) state->first_byte_us = tracer.now_us();

  const std::size_t head_end = conn.in.find("\r\n\r\n");
  if (head_end == std::string::npos) {
    if (conn.in.size() > kMaxHeadBytes) {
      malformed_.inc();
      respond_http(conn, 431, "Request Header Fields Too Large",
                   shed_body("request head too large"), false);
    }
    return;  // head still arriving
  }

  // Request line: METHOD SP target SP version.
  const std::size_t method_end = conn.in.find(' ');
  if (method_end == std::string::npos || method_end > head_end) {
    malformed_.inc();
    respond_http(conn, 400, "Bad Request", shed_body("malformed request line"),
                 false);
    return;
  }
  const std::string method = conn.in.substr(0, method_end);
  const std::size_t line_end = conn.in.find("\r\n");
  const bool http10 =
      line_end != std::string::npos && line_end >= 8 &&
      conn.in.compare(line_end - 8, 8, "HTTP/1.0") == 0;
  const std::string connection_header =
      ascii_lower(find_header(conn.in, head_end, "connection"));
  bool keep_alive = http10 ? connection_header == "keep-alive"
                           : connection_header != "close";

  if (method != "POST") {
    malformed_.inc();
    respond_http(conn, 405, "Method Not Allowed",
                 shed_body("JSON-RPC requires POST"), false);
    return;
  }
  const std::string length_header =
      find_header(conn.in, head_end, "content-length");
  if (length_header.empty()) {
    malformed_.inc();
    respond_http(conn, 411, "Length Required",
                 shed_body("Content-Length required"), false);
    return;
  }
  std::size_t content_length = 0;
  for (const char c : length_header) {
    if (c < '0' || c > '9') {
      malformed_.inc();
      respond_http(conn, 400, "Bad Request", shed_body("bad Content-Length"),
                   false);
      return;
    }
    content_length = content_length * 10 + static_cast<std::size_t>(c - '0');
    if (content_length > config_.max_body_bytes) break;
  }
  if (content_length > config_.max_body_bytes) {
    malformed_.inc();
    respond_http(conn, 413, "Payload Too Large",
                 shed_body("request body exceeds server limit"), false);
    return;
  }
  const std::size_t frame_size = head_end + 4 + content_length;
  if (conn.in.size() < frame_size) return;  // body still arriving

  const std::string body = conn.in.substr(head_end + 4, content_length);
  conn.in.erase(0, frame_size);

  // The frame is complete: give the request its causal identity and
  // attribute the receive span (first byte -> frame complete) as the
  // "parse" stage on its lane.
  auto frame = std::make_shared<Frame>();
  frame->server = this;
  frame->conn_id = conn.id;
  frame->keep_alive = keep_alive;
  frame->ctx = obs::mint_request(tracer);
  const double now = tracer.now_us();
  parse_us_.record(now - state->first_byte_us);
  obs::stage_slice(frame->ctx, "net.parse", state->first_byte_us, now, tracer);
  state->first_byte_us = 0;
  requests_total_.inc();

  if (!in_flight_.enter()) {  // stop() began
    shed_.inc();
    obs::finish_request(frame->ctx, tracer);
    respond_http(conn, 503, "Service Unavailable",
                 shed_body("request refused: server stopping"), keep_alive);
    return;
  }
  state->busy = true;
  frame->handle_start_us = now;
  dispatch(frame, body);
}

void JsonRpcServer::respond_http(Connection& conn, int status,
                                 const char* reason, const std::string& body,
                                 bool keep_alive) {
  std::string response = "HTTP/1.1 " + std::to_string(status) + ' ' + reason +
                         "\r\n";
  if (status == 204) {
    response += "Connection: ";
    response += keep_alive ? "keep-alive" : "close";
    response += "\r\n\r\n";
  } else {
    response += "Content-Type: application/json\r\nContent-Length: " +
                std::to_string(body.size()) + "\r\nConnection: ";
    response += keep_alive ? "keep-alive" : "close";
    response += "\r\n\r\n";
    response += body;
  }
  responses_total_.inc();
  send_data(conn, response);
  if (!keep_alive) {
    finish(conn);
    return;
  }
  auto* state = static_cast<HttpState*>(conn.user.get());
  if (state != nullptr) {
    state->busy = false;
    // A well-behaved client may already have sent its next request while
    // this response was being produced; pick it up now.
    if (!conn.in.empty()) process_input(conn);
  }
}

void JsonRpcServer::dispatch(const std::shared_ptr<Frame>& frame,
                             const std::string& body) {
  std::string parse_error;
  const std::optional<JsonValue> doc = JsonValue::parse(body, &parse_error);
  std::string frame_error;  // answers the whole frame as one call
  if (!doc) {
    frame_error = "parse error: " + parse_error;
  } else if (doc->is_array()) {
    batch_calls_.inc();
    const std::size_t size = doc->as_array().size();
    if (size == 0) {
      frame_error = "empty batch";
    } else if (size > config_.max_batch) {
      frame_error = "batch larger than " + std::to_string(config_.max_batch);
    }
    frame->batch = frame_error.empty();
  }
  const std::size_t calls = frame->batch ? doc->as_array().size() : 1;
  frame->calls = std::vector<Frame::Call>(calls);
  // One extra count held until every handler has started, so a frame
  // cannot complete half-dispatched.
  frame->pending.store(calls + 1, std::memory_order_relaxed);
  if (!frame_error.empty()) {
    malformed_.inc();
    answer(*frame, 0,
           make_error_response(JsonValue::null(),
                               doc ? rpc_errors::kInvalidRequest
                                   : rpc_errors::kParseError,
                               frame_error));
  } else {
    for (std::size_t i = 0; i < calls; ++i) {
      call_method(frame, i, frame->batch ? doc->as_array()[i] : *doc);
    }
  }
  release(*frame);
}

void JsonRpcServer::answer(Frame& frame, std::size_t call,
                           JsonValue response) {
  Frame::Call& slot = frame.calls[call];
  if (slot.answered.exchange(true, std::memory_order_acq_rel)) return;
  // Notifications run their handler but get no response (spec).
  if (!slot.notification) slot.response = std::move(response);
  release(frame);
}

void JsonRpcServer::release(Frame& frame) {
  if (frame.pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    complete(frame);
  }
}

void JsonRpcServer::complete(Frame& frame) {
  std::string body;
  if (frame.batch) {
    JsonValue responses = JsonValue::array();
    for (Frame::Call& call : frame.calls) {
      if (call.response) responses.push_back(std::move(*call.response));
    }
    // All-notification batches get no body at all (spec: the server MUST
    // NOT return an empty array).
    if (!responses.as_array().empty()) body = responses.dump();
  } else if (frame.calls[0].response) {
    body = frame.calls[0].response->dump();
  }

  obs::Tracer& tracer = obs::Tracer::global();
  const double done = tracer.now_us();
  handle_us_.record(done - frame.handle_start_us);
  obs::stage_slice(frame.ctx, "net.handle", frame.handle_start_us, done,
                   tracer);
  request_total_us_.record(done - frame.ctx.born_us);
  obs::finish_request(frame.ctx, tracer);

  const int status = body.empty() ? 204 : 200;
  with_connection(frame.conn_id, [this, status, body = std::move(body),
                                  keep_alive = frame.keep_alive](
                                     Connection& conn) {
    respond_http(conn, status, status == 200 ? "OK" : "No Content", body,
                 keep_alive);
  });
  // Last touch of the server from a completing thread: stop() may return
  // as soon as the gate is idle.
  in_flight_.leave();
}

void JsonRpcServer::call_method(const std::shared_ptr<Frame>& frame,
                                std::size_t call, const JsonValue& request) {
  Frame::Call& slot = frame->calls[call];
  const auto fail = [&](int code, const std::string& message) {
    answer(*frame, call, make_error_response(slot.id, code, message));
  };
  if (!request.is_object()) {
    malformed_.inc();
    fail(rpc_errors::kInvalidRequest, "request must be an object");
    return;
  }
  const JsonValue* id_member = request.find("id");
  slot.notification = id_member == nullptr;
  if (id_member != nullptr) slot.id = *id_member;

  const JsonValue* version = request.find("jsonrpc");
  if (version == nullptr || !version->is_string() ||
      version->as_string() != "2.0") {
    malformed_.inc();
    fail(rpc_errors::kInvalidRequest, "jsonrpc must be \"2.0\"");
    return;
  }
  const JsonValue* method = request.find("method");
  if (method == nullptr || !method->is_string()) {
    malformed_.inc();
    fail(rpc_errors::kInvalidRequest, "method must be a string");
    return;
  }
  const auto handler = methods_.find(method->as_string());
  if (handler == methods_.end()) {
    fail(rpc_errors::kMethodNotFound,
         "method not found: " + method->as_string());
    return;
  }
  const JsonValue* params_member = request.find("params");
  const JsonValue params =
      params_member == nullptr ? JsonValue::null() : *params_member;
  if (!params.is_null() && !params.is_array() && !params.is_object()) {
    malformed_.inc();
    fail(rpc_errors::kInvalidParams, "params must be array or object");
    return;
  }
  try {
    handler->second(params, CallInfo{frame->ctx}, Reply(frame, call));
  } catch (const RpcError& error) {
    fail(error.code(), error.what());
  } catch (const std::exception& error) {
    fail(rpc_errors::kInternalError,
         std::string("internal error: ") + error.what());
  }
}

}  // namespace phishinghook::net
