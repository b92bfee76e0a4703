// The `dfmkit shard-serve` worker: one process, one spatial shard. A
// minimal framed server speaking the protocol-v4 shard op family over a
// Unix-domain socket — deliberately simpler than the analysis daemon
// (service/server.h): one coordinator connection at a time, requests
// handled inline in arrival order (the coordinator pipelines across
// workers, not within one), no admission queue, no session registry.
//
// Ops: shard_open (hydrate a window from a layout file or inline
// layers), shard_drc / shard_match / shard_litho (unit batches),
// shard_edit (mirror a delta), ping, shutdown. Requests reuse the v3
// trace-context fields, so worker spans parent under the coordinator's
// dispatch span and `dfmkit trace-merge` stitches both timelines
// together. handle_shard_request is the op dispatch itself; the
// in-process shard channel (shard/fleet.h) calls it directly.
#pragma once

#include "service/protocol.h"
#include "shard/worker.h"

#include <optional>
#include <string>

namespace dfm::shard {

/// One request -> one reply, for the worker whose open shard is
/// `session` (shard_open replaces it; `default_threads` is the pool size
/// of an open that names none). Never throws: malformed requests and
/// engine failures come back as error replies. A shutdown op sets
/// `shutdown`; the caller exits after sending the reply.
service::Json handle_shard_request(const service::Json& req,
                                   unsigned default_threads,
                                   std::optional<ShardWorkerSession>& session,
                                   bool& shutdown);

struct ShardServeOptions {
  /// Unix-domain socket path to listen on (required).
  std::string unix_path;
  /// Worker compute pool for shard_open'd sessions; 1 = serial,
  /// 0 = hardware concurrency. A shard_open may override per open.
  unsigned threads = 1;
  /// Exit after the first coordinator connection closes (the spawn
  /// helper's mode); false keeps accepting coordinators until a
  /// shutdown op.
  bool once = true;
  /// When non-empty, record telemetry for the worker's lifetime and
  /// write a Chrome trace here on exit. Worker spans carry the
  /// coordinator's trace context, so `dfmkit trace-merge` can stitch
  /// the coordinator's file with each worker's into one timeline.
  std::string trace_out;
};

/// Runs the worker loop until shutdown (op or disconnect under `once`).
/// Returns a process exit code. Throws on listener setup failure.
int run_shard_server(const ShardServeOptions& options);

}  // namespace dfm::shard
