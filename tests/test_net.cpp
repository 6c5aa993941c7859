// Network-layer tests: JSON document model, the event-loop scrape server
// (with regressions for the four bugs the blocking PR-8 implementation
// shipped: HEAD-as-GET, EINTR-aborted writes, unbounded stop() on a
// stalled peer, split-request mis-parse), the JSON-RPC 2.0 front door
// (protocol errors, batches, deferred replies, keep-alive, disconnects, and
// a concurrent-clients hammer the TSan leg runs), and the scoring methods
// RpcFrontend serves on it (sheds, engine shutdown, stop() with a reply
// owed, one trace lane per frame).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "chain/chain_store.hpp"
#include "chain/explorer.hpp"
#include "common/errors.hpp"
#include "ml/scorer.hpp"
#include "net/event_loop.hpp"
#include "net/json.hpp"
#include "net/json_rpc_server.hpp"
#include "net/scrape_server.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "request_lanes.hpp"
#include "serve/rpc_frontend.hpp"
#include "serve/scoring_engine.hpp"

namespace {

using namespace phishinghook;

// --- socket helpers ----------------------------------------------------------

/// Connects to 127.0.0.1:port with a 5s IO timeout; -1 on failure.
int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  timeval timeout{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

void send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;
    }
    sent += static_cast<std::size_t>(n);
  }
}

std::string recv_to_eof(int fd) {
  std::string response;
  char buffer[4096];
  while (true) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    response.append(buffer, static_cast<std::size_t>(n));
  }
  return response;
}

/// Reads exactly one HTTP response off a keep-alive connection: headers
/// until the blank line, then Content-Length body bytes.
std::string recv_one_response(int fd) {
  std::string response;
  char ch = 0;
  while (response.find("\r\n\r\n") == std::string::npos) {
    const ssize_t n = ::recv(fd, &ch, 1, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return response;
    response.push_back(ch);
  }
  std::size_t body_len = 0;
  const std::size_t cl = response.find("Content-Length: ");
  if (cl != std::string::npos) {
    body_len = static_cast<std::size_t>(
        std::strtoul(response.c_str() + cl + 16, nullptr, 10));
  }
  const std::size_t head_end = response.find("\r\n\r\n") + 4;
  while (response.size() < head_end + body_len) {
    char buffer[4096];
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    response.append(buffer, static_cast<std::size_t>(n));
  }
  return response;
}

/// One-shot request (Connection embedded in `request`), read to EOF.
std::string round_trip(std::uint16_t port, const std::string& request) {
  const int fd = connect_loopback(port);
  if (fd < 0) return {};
  send_all(fd, request);
  const std::string response = recv_to_eof(fd);
  ::close(fd);
  return response;
}

std::string http_request(const char* method, const std::string& target) {
  return std::string(method) + " " + target + " HTTP/1.0\r\nHost: x\r\n\r\n";
}

/// JSON-RPC POST with Connection: close.
std::string rpc_post(std::uint16_t port, const std::string& body) {
  return round_trip(
      port, "POST / HTTP/1.1\r\nHost: x\r\nContent-Length: " +
                std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n" +
                body);
}

std::string body_of(const std::string& response) {
  const std::size_t head_end = response.find("\r\n\r\n");
  return head_end == std::string::npos ? std::string()
                                       : response.substr(head_end + 4);
}

// --- JSON document model -----------------------------------------------------

TEST(NetJson, ParseDumpRoundTripKeepsIntegralIds) {
  std::string error;
  const auto doc = net::JsonValue::parse(
      R"({"id":7,"pi":2.5,"flag":true,"none":null,"list":[1,-2,"x"]})",
      &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->find("id")->as_number(), 7.0);
  const std::string text = doc->dump();
  // Integral numbers must not grow a fractional part — the JSON-RPC id
  // echo has to match what the client sent.
  EXPECT_NE(text.find("\"id\":7"), std::string::npos) << text;
  EXPECT_NE(text.find("\"pi\":2.5"), std::string::npos) << text;
  const auto again = net::JsonValue::parse(text, &error);
  ASSERT_TRUE(again.has_value()) << error;
  EXPECT_EQ(again->dump(), text);
}

TEST(NetJson, RejectsTrailingGarbageAndControlChars) {
  std::string error;
  EXPECT_FALSE(net::JsonValue::parse("1 2", &error).has_value());
  EXPECT_FALSE(net::JsonValue::parse("{\"a\":1}x", &error).has_value());
  EXPECT_FALSE(net::JsonValue::parse("\"a\nb\"", &error).has_value());
  EXPECT_FALSE(net::JsonValue::parse("", &error).has_value());
}

TEST(NetJson, DepthLimitStopsNestingBombs) {
  std::string bomb;
  for (int i = 0; i < 200; ++i) bomb += '[';
  std::string error;
  EXPECT_FALSE(net::JsonValue::parse(bomb, &error).has_value());
  EXPECT_NE(error.find("deep"), std::string::npos) << error;
  // At the default limit, 32 levels are fine.
  std::string ok(32, '[');
  ok += std::string(32, ']');
  EXPECT_TRUE(net::JsonValue::parse(ok, &error).has_value()) << error;
}

TEST(NetJson, UnicodeEscapesIncludingSurrogatePairs) {
  std::string error;
  const auto doc = net::JsonValue::parse(R"(["\u00e9", "\ud83d\ude00"])",
                                         &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->as_array()[0].as_string(), "\xc3\xa9");
  EXPECT_EQ(doc->as_array()[1].as_string(), "\xf0\x9f\x98\x80");
  // Lone surrogate halves are malformed.
  EXPECT_FALSE(net::JsonValue::parse(R"("\ud83d")", &error).has_value());
}

// --- scrape server regressions ----------------------------------------------

class ScrapeRegressionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    registry_.counter("netreg_test_total").inc(42);
    server_.add_registry(registry_);
    server_.start(0);
  }
  void TearDown() override { server_.stop(); }

  obs::MetricsRegistry registry_;
  net::ScrapeServer server_;
};

// Bug 1 (PR 8): HEAD was treated exactly like GET and sent the full body.
TEST_F(ScrapeRegressionTest, HeadGetsHeadersAndContentLengthButNoBody) {
  const std::string get =
      round_trip(server_.port(), http_request("GET", "/metrics"));
  const std::string head =
      round_trip(server_.port(), http_request("HEAD", "/metrics"));
  ASSERT_NE(get.find("200 OK"), std::string::npos);
  ASSERT_NE(head.find("200 OK"), std::string::npos);

  const std::string get_body = body_of(get);
  EXPECT_NE(get_body.find("netreg_test_total"), std::string::npos);
  // HEAD: no body at all...
  EXPECT_TRUE(body_of(head).empty()) << body_of(head);
  // ...but the Content-Length a GET would have produced.
  const std::string expected =
      "Content-Length: " + std::to_string(get_body.size()) + "\r\n";
  EXPECT_NE(head.find(expected), std::string::npos) << head;
}

// Bug 2 (PR 8): write_all() returned (dropping the rest of the response)
// on the first EINTR. send_some must retry through injected EINTRs.
TEST_F(ScrapeRegressionTest, EintrDuringSendStillDeliversFullResponse) {
  // Something big enough that the response takes several send() calls.
  obs::MetricsRegistry big;
  for (int i = 0; i < 200; ++i) {
    big.counter("netreg_bulk_total",
                obs::label("idx", std::to_string(i)))
        .inc(static_cast<std::uint64_t>(i));
  }
  server_.add_registry(big);
  const std::string clean =
      round_trip(server_.port(), http_request("GET", "/metrics"));
  net::testing::force_send_eintr(3);
  const std::string interrupted =
      round_trip(server_.port(), http_request("GET", "/metrics"));
  EXPECT_EQ(interrupted, clean);
  EXPECT_NE(interrupted.find("idx=\"199\""), std::string::npos);
}

// Bug 3 (PR 8): a peer that connected and then went silent pinned the
// accept thread in an untimed recv(), so stop() could hang forever.
TEST_F(ScrapeRegressionTest, StopIsBoundedWithStalledConnection) {
  const int stalled = connect_loopback(server_.port());
  ASSERT_GE(stalled, 0);
  send_all(stalled, "GET /met");  // never finished
  // Give the loop a moment to accept + buffer the partial request.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto start = std::chrono::steady_clock::now();
  server_.stop();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(2));
  ::close(stalled);
}

// Bug 4 (PR 8): the request was parsed out of a single recv(), so a head
// split across TCP segments came back 400.
TEST_F(ScrapeRegressionTest, RequestSplitAcrossSegmentsParses) {
  const int fd = connect_loopback(server_.port());
  ASSERT_GE(fd, 0);
  send_all(fd, "GET /heal");
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  send_all(fd, "thz HTTP/1.0\r\nHost: x\r\n\r\n");
  const std::string response = recv_to_eof(fd);
  ::close(fd);
  EXPECT_NE(response.find("200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("\"status\":\"ok\""), std::string::npos);
}

// --- JSON-RPC server ---------------------------------------------------------

class JsonRpcTest : public ::testing::Test {
 protected:
  using Reply = net::JsonRpcServer::Reply;
  using CallInfo = net::JsonRpcServer::CallInfo;

  void start(net::RpcConfig config = {}) {
    server_ = std::make_unique<net::JsonRpcServer>(config);
    server_->register_method(
        "echo", [this](const net::JsonValue& params, const CallInfo&,
                       const Reply& reply) {
          echo_calls_.fetch_add(1, std::memory_order_relaxed);
          reply.result(params);
        });
    // Deferred replies: the handler returns at once and the answer comes
    // later from another thread, the way the scoring engine's completion
    // answers phook_score.
    server_->register_method(
        "gate", [this](const net::JsonValue&, const CallInfo&, Reply reply) {
          {
            std::lock_guard<std::mutex> lock(gate_mutex_);
            gated_.push_back(std::move(reply));
          }
          gate_cv_.notify_all();
        });
    server_->register_method(
        "slow", [this](const net::JsonValue&, const CallInfo&, Reply reply) {
          std::lock_guard<std::mutex> lock(gate_mutex_);
          repliers_.emplace_back([reply = std::move(reply)] {
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
            reply.result(net::JsonValue::string("done"));
          });
        });
    server_->register_method(
        "boom", [](const net::JsonValue&, const CallInfo&,
                   const Reply&) { throw std::runtime_error("kaboom"); });
    server_->start(0);
  }
  void TearDown() override {
    // An unanswered gate would hold stop() forever: it waits for every
    // frame in flight to reply.
    release_gate();
    std::vector<std::thread> repliers;
    {
      std::lock_guard<std::mutex> lock(gate_mutex_);
      repliers.swap(repliers_);
    }
    for (std::thread& t : repliers) t.join();
    if (server_) server_->stop();
  }
  /// Blocks until `n` gate calls are parked.
  void wait_gated(std::size_t n) {
    std::unique_lock<std::mutex> lock(gate_mutex_);
    gate_cv_.wait(lock, [&] { return gated_.size() >= n; });
  }
  /// Answers every parked gate call from the test thread.
  void release_gate() {
    std::vector<Reply> gated;
    {
      std::lock_guard<std::mutex> lock(gate_mutex_);
      gated.swap(gated_);
    }
    for (const Reply& reply : gated) {
      reply.result(net::JsonValue::string("opened"));
    }
  }

  std::unique_ptr<net::JsonRpcServer> server_;
  std::atomic<int> echo_calls_{0};
  std::mutex gate_mutex_;
  std::condition_variable gate_cv_;
  std::vector<Reply> gated_;
  std::vector<std::thread> repliers_;
};

TEST_F(JsonRpcTest, EchoRoundTripAndIdFidelity) {
  start();
  const std::string response = rpc_post(
      server_->port(),
      R"({"jsonrpc":"2.0","id":41,"method":"echo","params":[1,"two"]})");
  EXPECT_NE(response.find("200 OK"), std::string::npos) << response;
  EXPECT_NE(body_of(response).find("\"id\":41"), std::string::npos);
  EXPECT_NE(body_of(response).find("\"result\":[1,\"two\"]"),
            std::string::npos);
}

TEST_F(JsonRpcTest, MalformedJsonReturnsParseError) {
  start();
  const std::string body = body_of(rpc_post(server_->port(), "{nope"));
  EXPECT_NE(body.find("-32700"), std::string::npos) << body;
  EXPECT_NE(body.find("\"id\":null"), std::string::npos);
}

TEST_F(JsonRpcTest, ProtocolViolationsGetTheirCodes) {
  start();
  // Missing jsonrpc member.
  EXPECT_NE(body_of(rpc_post(server_->port(),
                             R"({"id":1,"method":"echo"})"))
                .find("-32600"),
            std::string::npos);
  // method not a string.
  EXPECT_NE(body_of(rpc_post(server_->port(),
                             R"({"jsonrpc":"2.0","id":1,"method":4})"))
                .find("-32600"),
            std::string::npos);
  // Unknown method.
  EXPECT_NE(body_of(rpc_post(server_->port(),
                             R"({"jsonrpc":"2.0","id":1,"method":"nope"})"))
                .find("-32601"),
            std::string::npos);
  // Scalar params.
  EXPECT_NE(body_of(rpc_post(
                        server_->port(),
                        R"({"jsonrpc":"2.0","id":1,"method":"echo","params":3})"))
                .find("-32602"),
            std::string::npos);
  // Handler exception -> internal error, connection survives to report it.
  const std::string boom = body_of(rpc_post(
      server_->port(), R"({"jsonrpc":"2.0","id":9,"method":"boom"})"));
  EXPECT_NE(boom.find("-32603"), std::string::npos);
  EXPECT_NE(boom.find("kaboom"), std::string::npos);
}

TEST_F(JsonRpcTest, NotificationsGet204NoBody) {
  start();
  const std::string response = rpc_post(
      server_->port(), R"({"jsonrpc":"2.0","method":"echo","params":[]})");
  EXPECT_NE(response.find("204"), std::string::npos) << response;
  EXPECT_TRUE(body_of(response).empty());
  EXPECT_EQ(echo_calls_.load(), 1);  // the handler still ran
}

TEST_F(JsonRpcTest, BatchMixesValidInvalidAndNotifications) {
  start();
  const std::string body = body_of(rpc_post(
      server_->port(),
      R"([{"jsonrpc":"2.0","id":1,"method":"echo","params":["a"]},)"
      R"({"jsonrpc":"2.0","id":2,"method":"missing"},)"
      R"(42,)"
      R"({"jsonrpc":"2.0","method":"echo","params":["notify"]}])"));
  // Three responses (the notification is elided), order preserved.
  EXPECT_NE(body.find("\"result\":[\"a\"]"), std::string::npos) << body;
  EXPECT_NE(body.find("-32601"), std::string::npos);
  EXPECT_NE(body.find("-32600"), std::string::npos);
  EXPECT_EQ(echo_calls_.load(), 2);
  EXPECT_LT(body.find("\"id\":1"), body.find("\"id\":2"));

  // Empty batch and oversized batch are invalid requests.
  EXPECT_NE(body_of(rpc_post(server_->port(), "[]")).find("-32600"),
            std::string::npos);
  std::string big = "[";
  for (int i = 0; i < 65; ++i) {
    if (i > 0) big += ',';
    big += R"({"jsonrpc":"2.0","id":)" + std::to_string(i) +
           R"(,"method":"echo"})";
  }
  big += "]";
  EXPECT_NE(body_of(rpc_post(server_->port(), big)).find("-32600"),
            std::string::npos);
}

TEST_F(JsonRpcTest, TransportRulesEnforced) {
  start();
  EXPECT_NE(round_trip(server_->port(), http_request("GET", "/"))
                .find("405"),
            std::string::npos);
  EXPECT_NE(round_trip(server_->port(),
                       "POST / HTTP/1.1\r\nHost: x\r\n\r\n")
                .find("411"),
            std::string::npos);
  // Declared body over the cap is refused before it is read.
  net::RpcConfig config;
  config.max_body_bytes = 512;
  TearDown();
  start(config);
  EXPECT_NE(round_trip(server_->port(),
                       "POST / HTTP/1.1\r\nHost: x\r\nContent-Length: "
                       "100000\r\nConnection: close\r\n\r\n")
                .find("413"),
            std::string::npos);
}

TEST_F(JsonRpcTest, KeepAliveServesSequentialRequests) {
  start();
  const int fd = connect_loopback(server_->port());
  ASSERT_GE(fd, 0);
  const auto post = [&](const std::string& body) {
    send_all(fd, "POST / HTTP/1.1\r\nHost: x\r\nContent-Length: " +
                     std::to_string(body.size()) + "\r\n\r\n" + body);
    return recv_one_response(fd);
  };
  const std::string first =
      post(R"({"jsonrpc":"2.0","id":1,"method":"echo","params":[1]})");
  const std::string second =
      post(R"({"jsonrpc":"2.0","id":2,"method":"echo","params":[2]})");
  ::close(fd);
  EXPECT_NE(first.find("\"id\":1"), std::string::npos) << first;
  EXPECT_NE(second.find("\"id\":2"), std::string::npos) << second;
  EXPECT_NE(first.find("Connection: keep-alive"), std::string::npos);
  EXPECT_EQ(server_->connections_accepted(), 1u);
}

// Handlers run on the loop thread and never block it: while one call's
// reply is deferred, other connections are still parsed and answered.
TEST_F(JsonRpcTest, DeferredReplyDoesNotHoldOtherConnections) {
  start();
  const int gated = connect_loopback(server_->port());
  ASSERT_GE(gated, 0);
  const std::string body = R"({"jsonrpc":"2.0","id":1,"method":"gate"})";
  send_all(gated, "POST / HTTP/1.1\r\nHost: x\r\nContent-Length: " +
                      std::to_string(body.size()) +
                      "\r\nConnection: close\r\n\r\n" + body);
  wait_gated(1);
  for (int i = 0; i < 3; ++i) {
    const std::string served = rpc_post(
        server_->port(),
        R"({"jsonrpc":"2.0","id":)" + std::to_string(10 + i) +
            R"(,"method":"echo","params":[]})");
    EXPECT_NE(served.find("\"id\":" + std::to_string(10 + i)),
              std::string::npos)
        << served;
  }
  release_gate();
  const std::string opened = recv_to_eof(gated);
  ::close(gated);
  EXPECT_NE(opened.find("\"result\":\"opened\""), std::string::npos)
      << opened;
  EXPECT_EQ(server_->metrics_registry()
                .histogram("net_stage_service_us",
                           obs::label("stage", "handle"))
                .count(),
            4u);
}

// A handler that replies and then throws, or replies twice, still gets
// exactly one response: the first answer counts.
TEST(JsonRpcReply, FirstAnswerWins) {
  net::JsonRpcServer server;
  server.register_method(
      "twice", [](const net::JsonValue&, const net::JsonRpcServer::CallInfo&,
                  const net::JsonRpcServer::Reply& reply) {
        reply.result(net::JsonValue::string("first"));
        reply.result(net::JsonValue::string("second"));
        throw std::runtime_error("late throw");
      });
  server.start(0);
  const std::string body = body_of(rpc_post(
      server.port(), R"({"jsonrpc":"2.0","id":5,"method":"twice"})"));
  server.stop();
  EXPECT_NE(body.find("\"result\":\"first\""), std::string::npos) << body;
  EXPECT_EQ(body.find("second"), std::string::npos) << body;
  EXPECT_EQ(body.find("late throw"), std::string::npos) << body;
}

TEST_F(JsonRpcTest, ClientDisconnectMidResponseLeavesServerHealthy) {
  start();
  // Fire a slow request and hang up before the response can be written.
  const int fd = connect_loopback(server_->port());
  ASSERT_GE(fd, 0);
  const std::string body = R"({"jsonrpc":"2.0","id":1,"method":"slow"})";
  send_all(fd, "POST / HTTP/1.1\r\nHost: x\r\nContent-Length: " +
                   std::to_string(body.size()) +
                   "\r\nConnection: close\r\n\r\n" + body);
  ::close(fd);
  // The deferred reply lands after the peer left: the posted response is
  // dropped on the dead connection, and the server keeps serving.
  const std::string after = rpc_post(
      server_->port(), R"({"jsonrpc":"2.0","id":2,"method":"echo"})");
  EXPECT_NE(after.find("\"id\":2"), std::string::npos) << after;
}

// The TSan leg runs this: many client threads against the one loop thread
// exercise with_connection re-entry, frame completion and metric writes.
TEST_F(JsonRpcTest, ConcurrentClientsAllGetTheirOwnResponses) {
  start();
  constexpr int kThreads = 8;
  constexpr int kRequests = 25;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kRequests; ++i) {
        const int id = t * 1000 + i;
        const std::string response = rpc_post(
            server_->port(),
            R"({"jsonrpc":"2.0","id":)" + std::to_string(id) +
                R"(,"method":"echo","params":[)" + std::to_string(id) +
                "]}");
        if (response.find("\"id\":" + std::to_string(id) + ",") ==
                std::string::npos ||
            response.find("\"result\":[" + std::to_string(id) + "]") ==
                std::string::npos) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(echo_calls_.load(), kThreads * kRequests);
  EXPECT_EQ(server_->requests_received(),
            static_cast<std::uint64_t>(kThreads * kRequests));
}

TEST(JsonRpcLifecycle, StartTwiceThrowsAndStopIsIdempotent) {
  net::JsonRpcServer server;
  server.start(0);
  EXPECT_THROW(server.start(0), StateError);
  server.stop();
  server.stop();
}

// --- RpcFrontend: the scoring methods on the completion API -----------------

/// P(phishing) = first byte / 100, so every verdict is checkable by hand.
class FirstByteScorer final : public ml::Scorer {
 public:
  void score_batch(const ml::BytecodeBatchView& view,
                   std::span<ml::ScoredRow> out) override {
    for (std::size_t i = 0; i < view.size(); ++i) {
      out[i] = ml::ScoredRow{static_cast<double>(view[i]->bytes()[0]) / 100.0,
                             0, false};
    }
  }
  std::string name() const override { return "first-byte"; }
};

/// Explorer whose code fetch (get_code, the engine's path) can be held
/// shut, so a test decides how long a row stays inside the engine.
class GatedExplorer final : public chain::Explorer {
 public:
  using chain::Explorer::Explorer;

  evm::Bytecode get_code(const evm::Address& address) const override {
    std::unique_lock<std::mutex> lock(mutex_);
    ++entered_;
    cv_.notify_all();
    cv_.wait(lock, [this] { return open_; });
    return chain::Explorer::get_code(address);
  }
  void close() {
    std::lock_guard<std::mutex> lock(mutex_);
    open_ = false;
  }
  void open() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_ = true;
    }
    cv_.notify_all();
  }
  /// Blocks until `n` fetches have reached the gate.
  void wait_entered(std::size_t n) const {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return entered_ >= n; });
  }

 private:
  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
  mutable std::size_t entered_ = 0;
  bool open_ = true;
};

class RpcFrontendTest : public ::testing::Test {
 protected:
  RpcFrontendTest() {
    const evm::Address deployer =
        evm::Address::from_hex("0x00000000000000000000000000000000000000d0");
    for (int i = 0; i < 64; ++i) {
      const auto first = static_cast<std::uint8_t>(i + 1);
      addresses_.push_back(
          chain_
              .register_contract(deployer,
                                 evm::Bytecode({first, 0x60, 0x00, 0x60, 0x00}))
              .address);
    }
  }

  void start(serve::EngineConfig config = {}) {
    engine_ = std::make_unique<serve::ScoringEngine>(explorer_, scorer_,
                                                     config);
    frontend_ = std::make_unique<serve::RpcFrontend>(*engine_);
    frontend_->start(0);
  }
  /// Front end first, then the engine — the order a real stack stops in.
  void stop() {
    explorer_.open();
    if (frontend_) frontend_->stop();
    if (engine_) engine_->shutdown();
  }
  void TearDown() override { stop(); }

  std::uint16_t port() const { return frontend_->port(); }

  /// The verdict FirstByteScorer gives addresses_[i].
  static double expected(std::size_t i) {
    return static_cast<double>(i + 1) / 100.0;
  }

  std::string quoted(std::size_t i) const {
    return "\"" + addresses_[i].to_hex() + "\"";
  }
  std::string score_body(std::size_t i) const {
    return R"({"jsonrpc":"2.0","id":1,"method":"phook_score","params":[)" +
           quoted(i) + "]}";
  }
  /// phook_scoreBatch over n entries, cycling through addresses_.
  std::string batch_body(std::size_t n) const {
    std::string list;
    for (std::size_t i = 0; i < n; ++i) {
      if (i > 0) list += ',';
      list += quoted(i % addresses_.size());
    }
    return R"({"jsonrpc":"2.0","id":2,"method":"phook_scoreBatch","params":[[)" +
           list + "]]}";
  }

  bool accounting_ok() const {
    const serve::ServiceMetrics& m = engine_->metrics();
    return m.requests_submitted.value() ==
           m.requests_completed.value() + m.requests_failed.value() +
               m.requests_shed.value();
  }

  chain::ChainStore chain_;
  GatedExplorer explorer_{chain_};
  FirstByteScorer scorer_;
  std::vector<evm::Address> addresses_;
  std::unique_ptr<serve::ScoringEngine> engine_;
  std::unique_ptr<serve::RpcFrontend> frontend_;
};

/// Parses an HTTP response's JSON body; fails the test when it is not JSON.
net::JsonValue json_body(const std::string& response) {
  std::string error;
  std::optional<net::JsonValue> doc =
      net::JsonValue::parse(body_of(response), &error);
  EXPECT_TRUE(doc.has_value()) << error << "\n" << response;
  return doc ? std::move(*doc) : net::JsonValue::null();
}

std::size_t count_of(const std::string& haystack, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + 1)) {
    ++n;
  }
  return n;
}

TEST_F(RpcFrontendTest, ScoreReturnsTheEngineVerdict) {
  start();
  const net::JsonValue doc = json_body(rpc_post(port(), score_body(6)));
  const net::JsonValue* result = doc.find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->find("status")->as_string(), "ok");
  EXPECT_EQ(result->find("address")->as_string(), addresses_[6].to_hex());
  EXPECT_EQ(result->find("probability")->as_number(), expected(6));
  EXPECT_EQ(result->find("model")->as_string(), "first-byte");
  EXPECT_GT(result->find("trace_id")->as_number(), 0.0);
  EXPECT_EQ(engine_->metrics().requests_completed.value(), 1u);
}

TEST_F(RpcFrontendTest, ScoreBatchAnswersAnInvalidEntryInPlace) {
  start();
  const std::string body =
      R"({"jsonrpc":"2.0","id":3,"method":"phook_scoreBatch","params":[[)" +
      quoted(0) + R"(,"0xnot-an-address",)" + quoted(1) + "," + quoted(2) +
      "]]}";
  const net::JsonValue doc = json_body(rpc_post(port(), body));
  const net::JsonValue* result = doc.find("result");
  ASSERT_NE(result, nullptr) << doc.dump();
  const net::JsonValue::Array& rows = result->as_array();
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[1].find("status")->as_string(), "invalid_address");
  EXPECT_EQ(rows[1].find("address")->as_string(), "0xnot-an-address");
  // The valid rows keep their positions and their own verdicts.
  const std::size_t valid[][2] = {{0, 0}, {2, 1}, {3, 2}};
  for (const auto& [row, address] : valid) {
    EXPECT_EQ(rows[row].find("status")->as_string(), "ok") << row;
    EXPECT_EQ(rows[row].find("address")->as_string(),
              addresses_[address].to_hex());
    EXPECT_EQ(rows[row].find("probability")->as_number(), expected(address));
  }
  EXPECT_EQ(engine_->metrics().requests_submitted.value(), 3u);
}

TEST_F(RpcFrontendTest, EngineQueueShedShowsAsStatusShed) {
  serve::EngineConfig config;
  config.workers = 1;
  config.max_batch = 1;
  config.max_queue = 2;
  explorer_.close();
  start(config);
  // One row holds the only worker at the gate...
  const int held = connect_loopback(port());
  ASSERT_GE(held, 0);
  const std::string held_body = score_body(9);
  send_all(held, "POST / HTTP/1.1\r\nHost: x\r\nContent-Length: " +
                     std::to_string(held_body.size()) +
                     "\r\nConnection: close\r\n\r\n" + held_body);
  explorer_.wait_entered(1);
  // ...so of the next three rows two fill the queue and the third is shed
  // on admission.
  std::string batch;
  std::thread client([&] { batch = rpc_post(port(), batch_body(3)); });
  while (engine_->metrics().requests_shed.value() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  explorer_.open();
  client.join();
  const std::string held_response = recv_to_eof(held);
  ::close(held);

  const net::JsonValue doc = json_body(batch);
  ASSERT_NE(doc.find("result"), nullptr) << batch;
  const net::JsonValue::Array& rows = doc.find("result")->as_array();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].find("status")->as_string(), "ok");
  EXPECT_EQ(rows[1].find("status")->as_string(), "ok");
  EXPECT_EQ(rows[2].find("status")->as_string(), "shed");
  EXPECT_NE(rows[2].find("error")->as_string().find("queue full"),
            std::string::npos);
  EXPECT_NE(held_response.find("\"status\":\"ok\""), std::string::npos)
      << held_response;
  stop();
  EXPECT_EQ(engine_->metrics().requests_submitted.value(), 4u);
  EXPECT_EQ(engine_->metrics().requests_shed.value(), 1u);
  EXPECT_TRUE(accounting_ok());
}

// The engine begins shutting down while a batch is being submitted: rows
// already accepted still land, the rest are refused, and the call gets one
// -32005 answer once the last accepted row is in. Shutdown starts as soon
// as the first row is in, from another thread, and submitting 8,192 rows
// takes the loop thread milliseconds — but where it lands is still a race,
// so each attempt checks whichever side it fell on, and the test needs one
// attempt to land mid-batch.
TEST_F(RpcFrontendTest, EngineShutdownMidBatchAnswersOnceWithShed) {
  constexpr std::size_t kRows = 8192;
  serve::EngineConfig config;
  config.workers = 1;
  bool mid_batch = false;
  for (int attempt = 0; attempt < 10 && !mid_batch; ++attempt) {
    explorer_.close();
    start(config);
    std::atomic<bool> shutting_down{false};
    std::thread stopper([&] {
      while (engine_->metrics().requests_submitted.value() == 0) {
        std::this_thread::yield();
      }
      shutting_down.store(true);
      engine_->shutdown();  // returns once the gate opens and rows land
    });
    std::string response;
    std::thread client(
        [&] { response = rpc_post(port(), batch_body(kRows)); });
    while (!shutting_down.load()) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    explorer_.open();
    client.join();
    stopper.join();

    EXPECT_EQ(count_of(response, "HTTP/1.1 "), 1u) << response;
    EXPECT_EQ(count_of(response, "\"jsonrpc\""), 1u) << response;
    const std::uint64_t accepted =
        engine_->metrics().requests_submitted.value();
    if (accepted < kRows) {
      mid_batch = true;
      EXPECT_NE(response.find("-32005"), std::string::npos) << response;
      EXPECT_EQ(response.find("\"result\""), std::string::npos) << response;
    } else {
      EXPECT_EQ(count_of(response, "\"status\":\"ok\""), kRows);
    }
    EXPECT_TRUE(accounting_ok());
    EXPECT_EQ(engine_->metrics().requests_completed.value(), accepted);
    stop();
    frontend_.reset();
    engine_.reset();
  }
  EXPECT_TRUE(mid_batch) << "shutdown never landed inside the batch";
}

// The TSan leg runs this: stop() races a completion on an engine worker.
TEST_F(RpcFrontendTest, StopReturnsOnlyAfterTheInFlightResponseIsWritten) {
  serve::EngineConfig config;
  config.workers = 1;
  explorer_.close();
  start(config);
  const int fd = connect_loopback(port());
  ASSERT_GE(fd, 0);
  const std::string body = score_body(3);
  send_all(fd, "POST / HTTP/1.1\r\nHost: x\r\nContent-Length: " +
                   std::to_string(body.size()) +
                   "\r\nConnection: close\r\n\r\n" + body);
  explorer_.wait_entered(1);

  std::atomic<bool> stopped{false};
  std::thread stopper([&] {
    frontend_->stop();
    stopped.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(stopped.load()) << "stop() returned with a reply still owed";
  // While stopping, a new frame is refused instead of joining the wait.
  const std::string refused = rpc_post(
      port(), R"({"jsonrpc":"2.0","id":7,"method":"phook_health"})");
  EXPECT_NE(refused.find("503"), std::string::npos) << refused;
  EXPECT_NE(refused.find("-32005"), std::string::npos) << refused;

  explorer_.open();
  stopper.join();
  // stop() has returned, so the response already sits in our socket.
  const std::string response = recv_to_eof(fd);
  ::close(fd);
  const net::JsonValue doc = json_body(response);
  ASSERT_NE(doc.find("result"), nullptr) << response;
  EXPECT_EQ(doc.find("result")->find("probability")->as_number(),
            expected(3));
}

// One socket frame is one trace lane, however many rows it fans out to:
// the server mints it, the engine only adds stage slices, and the server
// closes it once, when the response is built.
TEST_F(RpcFrontendTest, EachFrameClosesItsTraceLaneExactlyOnce) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.enable(1 << 16);
  start();
  const std::string single = rpc_post(port(), score_body(0));
  const std::string batch = rpc_post(port(), batch_body(64));
  stop();
  tracer.disable();
  std::ostringstream out;
  tracer.write_chrome_trace(out);
  tracer.clear();

  EXPECT_NE(single.find("\"status\":\"ok\""), std::string::npos) << single;
  EXPECT_EQ(count_of(batch, "\"status\":\"ok\""), 64u) << batch;
  const std::map<std::string, LaneCount> lanes = request_lanes(out.str());
  EXPECT_EQ(lanes.size(), 2u);
  for (const auto& [id, lane] : lanes) {
    EXPECT_EQ(lane.begins, 1) << "lane " << id;
    EXPECT_EQ(lane.ends, 1) << "lane " << id;
  }
}

}  // namespace
