#include "shard/fleet.h"

#include "core/delta.h"
#include "core/stream_source.h"
#include "core/telemetry.h"
#include "service/client.h"
#include "shard/shard_server.h"
#include "shard/wire.h"

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <utility>

namespace dfm::shard {
namespace {

using service::Json;

/// Seconds to wait for each spawned worker's socket to accept.
constexpr double kSpawnTimeoutS = 30.0;

/// Routes requests through the same Json text codec and op dispatch as
/// a `shard-serve` worker, with the worker session held in-process.
class InProcessChannel final : public ShardChannel {
 public:
  Json call(const Json& req) override {
    bool shutdown = false;
    Json reply = Json::parse(
        handle_shard_request(Json::parse(req.dump()), 1, session_, shutdown)
            .dump());
    if (!reply.get_bool("ok", false)) {
      throw service::ServiceError(
          reply.get_string("error", service::errc::kInternal),
          reply.get_string("message", "request failed"));
    }
    return reply;
  }

 private:
  std::optional<ShardWorkerSession> session_;
};

/// One forked `dfmkit shard-serve` worker and its framed client. The
/// constructor forks; connect() waits for the socket and checks the
/// handshake; the destructor shuts the worker down and reaps it.
class SocketChannel final : public ShardChannel {
 public:
  SocketChannel(const RemoteShardConfig& config, std::size_t shard)
      : socket_path_(config.socket_dir + "/shard-" + std::to_string(shard) +
                     ".sock") {
    // Build argv before forking: the child must stick to
    // async-signal-safe calls (the coordinator may have pool threads
    // holding allocator locks at fork time).
    const std::string log =
        config.socket_dir + "/shard-" + std::to_string(shard) + ".log";
    const std::string threads = std::to_string(config.worker.threads);
    const std::string trace =
        config.trace_dir.empty()
            ? std::string()
            : config.trace_dir + "/shard-" + std::to_string(shard) +
                  ".trace.json";
    std::vector<const char*> argv = {config.binary.c_str(), "shard-serve",
                                     "--socket", socket_path_.c_str(),
                                     "--threads", threads.c_str(),
                                     "--once"};
    if (!trace.empty()) {
      argv.push_back("--trace-out");
      argv.push_back(trace.c_str());
    }
    argv.push_back(nullptr);

    pid_ = ::fork();
    if (pid_ < 0) {
      throw std::runtime_error(std::string("shard: fork: ") +
                               std::strerror(errno));
    }
    if (pid_ == 0) {
      const int fd = ::open(log.c_str(),
                            O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
      if (fd >= 0) {
        ::dup2(fd, STDOUT_FILENO);
        ::dup2(fd, STDERR_FILENO);
        ::close(fd);
      }
      ::execv(config.binary.c_str(), const_cast<char* const*>(argv.data()));
      ::_exit(127);
    }
  }

  ~SocketChannel() override {
    if (client_.connected()) {
      try {
        client_.call(Json(Json::Object{{"op", Json("shutdown")}}));
      } catch (...) {
      }
      client_.close();
    } else if (pid_ > 0) {
      // Never connected: the worker still blocks in accept.
      ::kill(pid_, SIGTERM);
    }
    if (pid_ > 0) ::waitpid(pid_, nullptr, 0);
  }

  /// Polls with backoff until the worker's socket accepts, up to
  /// kSpawnTimeoutS. Throws on timeout, on the worker exiting first, or
  /// on a hello from anything but a protocol-matched shard worker.
  void connect() {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(kSpawnTimeoutS);
    std::chrono::milliseconds backoff(5);
    for (;;) {
      try {
        client_ = service::ServiceClient::connect_unix(socket_path_);
        break;
      } catch (const service::ProtocolError&) {
        // Socket not bound yet (or worker died). Distinguish the two.
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("shard: worker for " + socket_path_ +
                                 " exited before accepting (status " +
                                 std::to_string(status) + ")");
      }
      if (std::chrono::steady_clock::now() >= deadline) {
        throw std::runtime_error(
            "shard: timed out waiting for worker socket " + socket_path_);
      }
      std::this_thread::sleep_for(backoff);
      backoff = std::min(backoff * 2, std::chrono::milliseconds(100));
    }
    const Json& hello = client_.hello();
    if (hello.get_string("server", "") != "dfmkit-shard" ||
        hello.get_int("protocol", 0) != service::kProtocolVersion) {
      throw std::runtime_error("shard: worker " + socket_path_ +
                               " spoke the wrong protocol");
    }
    client_.set_max_frame_bytes(kShardMaxFrameBytes);
  }

  Json call(const Json& req) override { return client_.call_ok(req); }

 private:
  std::string socket_path_;
  pid_t pid_ = -1;
  service::ServiceClient client_;
};

/// The partition extent for a layout file: the join of every standard
/// flow layer's bbox from the stream index (no geometry decoded). The
/// same file is what workers hydrate their windows from, so coordinator
/// plan and worker content agree by construction.
Rect shard_extent_of(const std::string& layout_path) {
  const std::shared_ptr<const SnapshotSource> src =
      open_stream_source(layout_path);
  Rect extent = Rect::empty();
  for (const LayerKey k : LayoutSnapshot::standard_flow_layers()) {
    extent = extent.join(src->layer_bbox(k));
  }
  return extent;
}

ShardPlan plan_for(const Rect& extent, int shards,
                   const ShardWorkerConfig& config) {
  return ShardPlan::make(
      extent, shards,
      shard_halo(config.tech, config.litho_tile, config.model.sigma));
}

Json shard_op(const char* op) { return Json(Json::Object{{"op", Json(op)}}); }

/// shard_open for one shard, minus its geometry source ("path" or
/// inline "layers").
Json open_request(const ShardWorkerConfig& config, const Rect& core,
                  const Rect& window) {
  Json req = shard_op("shard_open");
  req.set("core", rect_to_json(core));
  req.set("window", rect_to_json(window));
  req.set("tech", tech_to_json(config.tech));
  req.set("model", model_to_json(config.model));
  req.set("litho_tile", Json(static_cast<std::int64_t>(config.litho_tile)));
  req.set("litho_edge_tolerance",
          Json(static_cast<std::int64_t>(config.litho_edge_tolerance)));
  req.set("litho_fast", Json(litho_fast_name(config.litho_fast)));
  req.set("threads", Json(static_cast<std::int64_t>(config.threads)));
  return req;
}

/// The `key` array of a reply, which must carry one entry per unit the
/// request sent; anything else is a malformed reply.
const Json::Array& reply_array(const Json& reply, const char* key,
                               std::size_t units) {
  const Json* field = reply.find(key);
  if (field == nullptr) {
    throw service::JsonError(std::string(key) + ": missing from reply");
  }
  const Json::Array& out = field->as_array();
  if (out.size() != units) {
    throw service::JsonError(std::string(key) + ": wrong arity");
  }
  return out;
}

}  // namespace

int route_litho_tile(const ShardPlan& plan, const Rect& tile_core,
                     Coord sigma) {
  const Rect needed = tile_core.expanded(6 * sigma);
  const int own = plan.owner(tile_core.center());
  if (own >= 0 &&
      plan.windows[static_cast<std::size_t>(own)].contains(needed)) {
    return own;
  }
  // Center-routing can miss only when the plan's halo is undersized for
  // this tile grid (e.g. a changed litho_tile); any covering window is
  // equally correct, so take the first.
  for (std::size_t i = 0; i < plan.windows.size(); ++i) {
    if (plan.windows[i].contains(needed)) return static_cast<int>(i);
  }
  return -1;
}

int route_pattern_site(const ShardPlan& plan, const AnchorWindow& site) {
  const int own = plan.owner(site.anchor);
  if (own < 0) return -1;
  if (!plan.windows[static_cast<std::size_t>(own)].contains(site.window)) {
    return -1;
  }
  return own;
}

std::string self_executable_path() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) {
    throw std::runtime_error("shard: cannot resolve /proc/self/exe");
  }
  buf[n] = '\0';
  return std::string(buf);
}

std::string make_shard_scratch_dir(const std::string& base) {
  std::string root = base;
  if (root.empty()) {
    const char* tmp = std::getenv("TMPDIR");
    root = (tmp != nullptr && tmp[0] != '\0') ? tmp : "/tmp";
  }
  std::string tmpl = root + "/dfmkit-shard-XXXXXX";
  if (::mkdtemp(tmpl.data()) == nullptr) {
    throw std::runtime_error("shard: mkdtemp " + tmpl + ": " +
                             std::strerror(errno));
  }
  return tmpl;
}

ShardFleet::ShardFleet(ShardPlan plan, Coord sigma,
                       std::vector<std::unique_ptr<ShardChannel>> channels)
    : plan_(std::move(plan)), sigma_(sigma), channels_(std::move(channels)) {}

ShardFleet ShardFleet::in_process(const LayerMap& layers, int shards,
                                  const ShardWorkerConfig& config) {
  Rect bbox = Rect::empty();
  for (const auto& [k, r] : layers) bbox = bbox.join(r.bbox());
  ShardPlan plan = plan_for(bbox, shards, config);
  std::vector<std::unique_ptr<ShardChannel>> channels;
  for (std::size_t s = 0; s < plan.size(); ++s) {
    Json::Array inline_layers;
    for (const auto& [k, r] : layers) {
      inline_layers.push_back(Json(Json::Object{
          {"layer", layer_to_json(k)},
          {"region", region_to_json(r.clipped(plan.windows[s]))}}));
    }
    Json req = open_request(config, plan.cores[s], plan.windows[s]);
    req.set("layers", Json(std::move(inline_layers)));
    channels.push_back(std::make_unique<InProcessChannel>());
    channels.back()->call(req);
  }
  return ShardFleet(std::move(plan), config.model.sigma, std::move(channels));
}

ShardFleet ShardFleet::spawn(const std::string& layout_path,
                             RemoteShardConfig config) {
  ShardPlan plan =
      plan_for(shard_extent_of(layout_path), config.shards, config.worker);
  // Fork every worker before waiting on any, so they start in parallel.
  // On a throw the channels already made shut their workers down.
  std::vector<std::unique_ptr<SocketChannel>> sockets;
  for (std::size_t s = 0; s < plan.size(); ++s) {
    sockets.push_back(std::make_unique<SocketChannel>(config, s));
  }
  std::vector<std::unique_ptr<ShardChannel>> channels;
  for (std::size_t s = 0; s < plan.size(); ++s) {
    sockets[s]->connect();
    Json req = open_request(config.worker, plan.cores[s], plan.windows[s]);
    req.set("path", Json(layout_path));
    sockets[s]->call(req);
    channels.push_back(std::move(sockets[s]));
  }
  return ShardFleet(std::move(plan), config.worker.model.sigma,
                    std::move(channels));
}

void ShardFleet::wrap_channel(
    std::size_t s, const std::function<std::unique_ptr<ShardChannel>(
                       std::unique_ptr<ShardChannel>)>& wrap) {
  channels_.at(s) = wrap(std::move(channels_.at(s)));
}

void ShardFleet::degrade(const char* cause_counter) {
  degraded_ = true;
  if (telemetry::compiled_in()) telemetry::counter(cause_counter).add();
}

bool ShardFleet::dispatch(
    const Batches& batches,
    const std::function<Json(const std::vector<std::size_t>&)>& request,
    const std::function<void(const std::vector<std::size_t>&, const Json&)>&
        decode) {
  std::vector<ShardChannel*> targets;
  std::vector<Json> requests;
  for (const auto& [s, units] : batches) {
    targets.push_back(channels_[s].get());
    requests.push_back(request(units));
  }
  std::vector<Json> replies(targets.size());
  std::vector<char> failed(targets.size(), 0);
  const auto run = [&](std::size_t i) {
    try {
      replies[i] = targets[i]->call(requests[i]);
    } catch (...) {
      failed[i] = 1;
    }
  };
  // One thread per shard: a channel serves one request at a time, so
  // concurrency comes from fanning out across shards.
  std::vector<std::thread> threads;
  threads.reserve(targets.size());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    try {
      threads.emplace_back(run, i);
    } catch (const std::system_error&) {
      run(i);  // no thread to spare: this shard's call runs inline
    }
  }
  for (std::thread& t : threads) t.join();
  // A failed or malformed exchange may leave that worker out of step
  // with the coordinator, so stop accelerating for good.
  if (std::find(failed.begin(), failed.end(), 1) != failed.end()) {
    degrade("shard.degraded.call_failed");
    return false;
  }
  try {
    std::size_t i = 0;
    for (const auto& [s, units] : batches) decode(units, replies[i++]);
  } catch (const std::exception&) {
    degrade("shard.degraded.bad_reply");
    return false;
  }
  return true;
}

bool ShardFleet::shard_drc(const std::vector<Rule>& rules,
                           std::vector<Region>* bad2x,
                           std::vector<char>* handled) {
  if (degraded_) return false;
  TELEM_SPAN("shard/drc_fleet");
  Json::Array jrules;
  for (const Rule& r : rules) jrules.push_back(rule_to_json(r));
  std::vector<std::size_t> all(rules.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  Batches batches;
  if (!rules.empty()) {
    for (std::size_t s = 0; s < plan_.size(); ++s) batches[s] = all;
  }
  // Each shard's bad region is clipped to its core; their union is the
  // whole-layer region.
  std::vector<Region> stitched(rules.size());
  const bool ok = dispatch(
      batches,
      [&](const std::vector<std::size_t>&) {
        Json req = shard_op("shard_drc");
        req.set("rules", Json(jrules));
        return req;
      },
      [&](const std::vector<std::size_t>& units, const Json& reply) {
        const Json::Array& per_rule = reply_array(reply, "bad2x", units.size());
        for (std::size_t j = 0; j < units.size(); ++j) {
          // Named: rects() references the Region's storage, and a
          // temporary would die before the loop body ran.
          const Region piece = region_from_json(per_rule[j]);
          for (const Rect& b : piece.rects()) stitched[units[j]].add(b);
        }
      });
  if (!ok) return false;
  for (std::size_t i = 0; i < rules.size(); ++i) {
    (*bad2x)[i] = std::move(stitched[i]);
    (*handled)[i] = 1;
  }
  return true;
}

bool ShardFleet::shard_match(std::size_t set_index,
                             const std::vector<AnchorWindow>& sites,
                             std::vector<std::vector<PatternMatch>>* out,
                             std::vector<char>* handled) {
  if (degraded_) return false;
  TELEM_SPAN_ARG("shard/match_fleet", set_index);
  Batches batches;
  for (std::size_t i = 0; i < sites.size(); ++i) {
    const int s = route_pattern_site(plan_, sites[i]);
    if (s >= 0) batches[static_cast<std::size_t>(s)].push_back(i);
  }
  std::vector<std::vector<PatternMatch>> got(sites.size());
  const bool ok = dispatch(
      batches,
      [&](const std::vector<std::size_t>& units) {
        Json::Array jsites;
        for (const std::size_t i : units) {
          jsites.push_back(site_to_json(sites[i]));
        }
        Json req = shard_op("shard_match");
        req.set("set", Json(static_cast<std::int64_t>(set_index)));
        req.set("sites", Json(std::move(jsites)));
        return req;
      },
      [&](const std::vector<std::size_t>& units, const Json& reply) {
        const Json::Array& per_site =
            reply_array(reply, "matches", units.size());
        for (std::size_t j = 0; j < units.size(); ++j) {
          std::vector<PatternMatch> ms;
          for (const Json& jm : per_site[j].as_array()) {
            ms.push_back(match_from_json(jm));
          }
          got[units[j]] = std::move(ms);
        }
      });
  if (!ok) return false;
  for (const auto& [s, units] : batches) {
    for (const std::size_t i : units) {
      (*out)[i] = std::move(got[i]);
      (*handled)[i] = 1;
    }
  }
  return true;
}

bool ShardFleet::shard_litho(const std::vector<Rect>& cores,
                             std::vector<std::vector<Hotspot>>* per_core,
                             std::vector<char>* skipped,
                             std::vector<char>* handled) {
  if (degraded_) return false;
  TELEM_SPAN("shard/litho_fleet");
  Batches batches;
  for (std::size_t i = 0; i < cores.size(); ++i) {
    const int s = route_litho_tile(plan_, cores[i], sigma_);
    if (s >= 0) batches[static_cast<std::size_t>(s)].push_back(i);
  }
  std::vector<std::vector<Hotspot>> got(cores.size());
  std::vector<char> skip(cores.size(), 0);
  const bool ok = dispatch(
      batches,
      [&](const std::vector<std::size_t>& units) {
        Json::Array jcores;
        for (const std::size_t i : units) {
          jcores.push_back(rect_to_json(cores[i]));
        }
        Json req = shard_op("shard_litho");
        req.set("cores", Json(std::move(jcores)));
        return req;
      },
      [&](const std::vector<std::size_t>& units, const Json& reply) {
        const Json::Array& hs = reply_array(reply, "hotspots", units.size());
        const Json::Array& sk = reply_array(reply, "skipped", units.size());
        for (std::size_t j = 0; j < units.size(); ++j) {
          std::vector<Hotspot> per;
          for (const Json& jh : hs[j].as_array()) {
            per.push_back(hotspot_from_json(jh));
          }
          got[units[j]] = std::move(per);
          skip[units[j]] = sk[j].as_int() != 0 ? 1 : 0;
        }
      });
  if (!ok) return false;
  for (const auto& [s, units] : batches) {
    for (const std::size_t i : units) {
      (*per_core)[i] = std::move(got[i]);
      (*skipped)[i] = skip[i];
      (*handled)[i] = 1;
    }
  }
  return true;
}

void ShardFleet::shard_apply(const LayoutDelta& delta) {
  if (degraded_) return;
  TELEM_SPAN("shard/apply_fleet");
  Rect added = Rect::empty();
  Rect touched = Rect::empty();
  for (const auto& [k, ld] : delta.layers()) {
    if (!ld.added.empty()) {
      added = added.join(ld.added.bbox());
      touched = touched.join(ld.added.bbox());
    }
    if (!ld.removed.empty()) touched = touched.join(ld.removed.bbox());
  }
  // Growth past the plan extent leaves geometry no core owns.
  if (!added.is_empty() && !plan_.extent.contains(added)) {
    degrade("shard.degraded.extent");
    return;
  }
  if (touched.is_empty()) return;
  Batches batches;
  for (const std::size_t s : plan_.windows_overlapping(touched)) {
    batches[s] = {};
  }
  const Json jdelta = delta_to_json(delta);
  dispatch(
      batches,
      [&](const std::vector<std::size_t>&) {
        Json req = shard_op("shard_edit");
        req.set("delta", jdelta);
        return req;
      },
      [](const std::vector<std::size_t>&, const Json&) {});
}

}  // namespace dfm::shard
