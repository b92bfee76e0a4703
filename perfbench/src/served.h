// A `dfmkit serve` child process and the closed-loop client that drives
// it, shared by the served workload and the service probe of traced runs.
#pragma once

#include "bench.h"

#include <functional>
#include <memory>
#include <optional>

#include <sys/types.h>

namespace perfbench {

/// `dfmkit serve` on a Unix socket, with one executor per client
/// connection and a compute pool of one thread, so each request runs on
/// its executor. Started in the
/// constructor (returns once the socket accepts), stopped with the
/// `shutdown` op and reaped in stop() or the destructor.
class ServerProcess {
 public:
  ServerProcess(const std::string& dfmkit, const std::string& socket_path,
                const std::string& log_path);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  pid_t pid() const { return pid_; }
  void stop();

 private:
  std::string socket_;
  pid_t pid_ = -1;
};

struct ServedConfig {
  std::string gds_path;
  /// Regenerates the layout file; part of each timed set-up.
  std::function<void()> make_design;
  /// The server's flow options (`dfmkit serve` defaults), with the pass
  /// set the sessions are opened with.
  DfmFlowOptions options;
  int writers = 2;
  int readers = 2;
  /// eco_round rounds in a writer's edit list, which it cycles through.
  int rounds_per_writer = 2;
  int setup_reps = 3;  // at least; see repeat_setup
  double seconds = 10;
  bool traced = false;  // ask the server for per-request timings
};

struct ServedRun {
  std::vector<double> setup_s;
  std::vector<double> edit_ms, fetch_ms;  // client-side latencies
  // Per request, traced runs only: queue wait and execution on the
  // server, the rest of the client latency, and the reply size.
  std::vector<double> queue_ms, exec_ms, wire_ms, frame_bytes;
  double writers_s = 0;  // until the last writer's last reply
  std::uint64_t attempted = 0, failed = 0;
  double server_rss_mb = 0;
  bool served_equals_direct = true;
  bool direct_restores = true;
  bool closed_form = true;
  bool metrics_consistent = true;
};

ServedRun drive_server(const Args& args, const ServedConfig& cfg);

/// The service.* per-layer metrics of a traced drive.
void set_service_metrics(const ServedRun& run, Result& res);

}  // namespace perfbench
