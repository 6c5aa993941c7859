// JSON-RPC binding of the scoring engine: the process's network front door.
//
// RpcFrontend owns a net::JsonRpcServer and registers three methods
// against a borrowed ScoringEngine:
//
//   phook_score      params ["0x<40 hex>"] — one address, one result
//                    object (probability, flagged, status, cache_hit,
//                    cascade stage + model attribution, latency
//                    attribution, trace_id)
//   phook_scoreBatch params [["0x..", "0x..", ...]] — scored as one
//                    engine wave (all submitted at once, one response when
//                    the last row lands); bad hex entries come back as
//                    status "invalid_address" without failing the rest
//   phook_health     no params — engine counters + cache stats + the
//                    net-layer's own request counts, as one JSON object;
//                    when the engine serves a CascadeScorer, a "cascade"
//                    section adds the band config and per-stage traffic
//
// The handlers run on the server's loop thread and never wait: they reply
// from the engine's completion, on the worker that scored the last row.
// They pass the frame's obs::RequestContext into try_submit, so one trace
// id spans net.parse -> engine queue -> extract -> predict -> net.handle;
// the server owns that lane and closes it once.
//
// Shed semantics: engine-level sheds (a full admission queue) surface in
// the result object's status field as "shed", because the request
// *was* answered — with a definite refusal, which a wallet treats
// differently from a transport error. An engine that has begun shutting
// down answers the whole call with -32005.
#pragma once

#include <cstdint>
#include <string>

#include "net/json_rpc_server.hpp"
#include "serve/scoring_engine.hpp"

namespace phishinghook::serve {

class RpcFrontend {
 public:
  /// Borrows `engine`; it must outlive the frontend.
  RpcFrontend(ScoringEngine& engine, net::RpcConfig config = {});

  /// Binds 127.0.0.1:`port` (0 = ephemeral) and starts serving.
  void start(std::uint16_t port);
  void stop();

  std::uint16_t port() const { return server_.port(); }

  /// The underlying server, e.g. to attach its net_* registry to a
  /// ScrapeServer next to the engine's serve_* registry.
  net::JsonRpcServer& server() { return server_; }
  const net::JsonRpcServer& server() const { return server_; }

 private:
  void score(const net::JsonValue& params,
             const net::JsonRpcServer::CallInfo& call,
             net::JsonRpcServer::Reply reply);
  void score_batch(const net::JsonValue& params,
                   const net::JsonRpcServer::CallInfo& call,
                   net::JsonRpcServer::Reply reply);
  net::JsonValue health() const;

  ScoringEngine& engine_;
  net::JsonRpcServer server_;
};

}  // namespace phishinghook::serve
