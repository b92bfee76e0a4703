// The ShardBackend: one spatial ShardPlan and one ShardChannel per
// shard. Routing (route_litho_tile, route_pattern_site), per-shard
// batching, concurrent fan-out, reply decode, stitching, edit mirroring
// and the degrade rule live here once; a channel only moves one
// protocol-v4 shard request to a worker and its reply back.
//
// Two channels make the two deployment shapes:
//   * in-process (ShardFleet::in_process): each channel owns a
//     ShardWorkerSession and passes every request and reply through the
//     Json text codec, so the determinism and TSan tests exercise the
//     exact frame bytes the socket carries, minus the length prefix;
//   * socket (ShardFleet::spawn): each channel owns one forked
//     `dfmkit shard-serve` process and its framed Unix-socket client.
//
// Any failed call, malformed reply or edit escaping the plan extent
// degrades the fleet for good: every dispatch then declines and the flow
// computes locally, so reports stay byte-identical either way.
#pragma once

#include "core/shard_backend.h"
#include "service/protocol.h"
#include "shard/plan.h"
#include "shard/worker.h"

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace dfm::shard {

/// One shard's transport. call() returns the worker's ok reply to `req`
/// and throws on a transport failure or an error reply.
class ShardChannel {
 public:
  ShardChannel() = default;
  ShardChannel(const ShardChannel&) = delete;
  ShardChannel& operator=(const ShardChannel&) = delete;
  virtual ~ShardChannel() = default;
  virtual service::Json call(const service::Json& req) = 0;
};

struct RemoteShardConfig {
  /// Engine configuration every worker reproduces (tech, optical model,
  /// litho tiling/calibration inputs, worker pool size).
  ShardWorkerConfig worker;
  /// The dfmkit binary to exec as workers (/proc/self/exe for the CLI;
  /// tests pass the DFMKIT_BIN compile definition).
  std::string binary;
  /// Directory for worker sockets and log files. Required; must exist.
  std::string socket_dir;
  int shards = 2;
  /// When non-empty, each worker records telemetry and writes
  /// <trace_dir>/shard-<i>.trace.json on exit (merge with trace-merge).
  std::string trace_dir;
};

class ShardFleet : public ShardBackend {
 public:
  /// Partitions the joint bbox of `layers` into `shards` cores and opens
  /// one in-process worker per core, shipping its window-clipped layers
  /// inline in shard_open.
  static ShardFleet in_process(const LayerMap& layers, int shards,
                               const ShardWorkerConfig& config);

  /// Partitions the layout file's extent (its standard flow layers'
  /// joint bbox, from the stream index) into config.shards cores,
  /// spawns one `shard-serve` worker per core, waits for readiness and
  /// has each hydrate its window from `layout_path`.
  /// Throws on spawn, connect, handshake or open failure; workers
  /// already started are shut down and reaped first.
  static ShardFleet spawn(const std::string& layout_path,
                          RemoteShardConfig config);

  const ShardPlan& plan() const { return plan_; }

  /// Fault-injection seam: replaces shard `s`'s channel with
  /// `wrap(current channel)`.
  void wrap_channel(std::size_t s,
                    const std::function<std::unique_ptr<ShardChannel>(
                        std::unique_ptr<ShardChannel>)>& wrap);

  std::size_t shard_count() const override { return channels_.size(); }
  bool is_degraded() const override { return degraded_; }

  bool shard_drc(const std::vector<Rule>& rules, std::vector<Region>* bad2x,
                 std::vector<char>* handled) override;
  bool shard_match(std::size_t set_index,
                   const std::vector<AnchorWindow>& sites,
                   std::vector<std::vector<PatternMatch>>* out,
                   std::vector<char>* handled) override;
  bool shard_litho(const std::vector<Rect>& cores,
                   std::vector<std::vector<Hotspot>>* per_core,
                   std::vector<char>* skipped,
                   std::vector<char>* handled) override;
  void shard_apply(const LayoutDelta& delta) override;

 private:
  /// Shard index -> the unit indices it computes, ascending.
  using Batches = std::map<std::size_t, std::vector<std::size_t>>;

  ShardFleet(ShardPlan plan, Coord sigma,
             std::vector<std::unique_ptr<ShardChannel>> channels);

  /// Sends `request(units)` to every shard in `batches` concurrently,
  /// then hands each reply to `decode(units, reply)`. Returns false
  /// after degrading when a call fails or a decode throws.
  bool dispatch(
      const Batches& batches,
      const std::function<service::Json(const std::vector<std::size_t>&)>&
          request,
      const std::function<void(const std::vector<std::size_t>&,
                               const service::Json&)>& decode);
  /// Stops accelerating for good and bumps the cause's counter:
  /// shard.degraded.extent, .call_failed or .bad_reply.
  void degrade(const char* cause_counter);

  ShardPlan plan_;
  Coord sigma_ = 0;  // optical sigma, for litho tile routing
  std::vector<std::unique_ptr<ShardChannel>> channels_;
  bool degraded_ = false;
};

/// Shared routing rules: the shard that owns a litho tile — the one
/// whose core holds the tile center, provided its window covers the
/// 6-sigma simulation window — or -1 when none qualifies.
int route_litho_tile(const ShardPlan& plan, const Rect& tile_core,
                     Coord sigma);
/// The shard that owns a pattern site — core holds the anchor, window
/// covers the capture window — or -1.
int route_pattern_site(const ShardPlan& plan, const AnchorWindow& site);

/// This process's executable (/proc/self/exe) — the default worker
/// binary for `dfmkit flow --shards` and `dfmkit serve --shards`.
std::string self_executable_path();

/// Creates a fresh scratch directory for worker sockets and logs under
/// `base` (empty: $TMPDIR or /tmp). Left behind on exit so worker logs
/// survive for post-mortems.
std::string make_shard_scratch_dir(const std::string& base = "");

}  // namespace dfm::shard
