// The served workload: a `dfmkit serve` process with warm sessions, driven
// in a closed loop by client threads of this process, one connection
// each. Writers send the eco-edit sequence of one-rect edits (add, then
// the remove that undoes it), cycling through a fixed list, each request
// as soon as the previous reply arrives; readers fetch their session's
// report at a fixed rate. Every reply is compared with
// the same call on a direct DfmFlowSession in this process. The replies
// carry only flow_report_canonical_json (counts and scores), so that is
// what the comparison covers.
#include "served.h"

#include "core/telemetry.h"
#include "service/client.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

namespace perfbench {

using namespace dfm;
using service::Json;
using service::ServiceClient;

namespace {

constexpr unsigned kServerWorkers = 4;  // one executor per client connection
/// Four busy clients already keep the four cores busy; fanning each
/// request out over a shared pool as well only oversubscribed them, and
/// the figures then swung by 20% between runs of one seed.
constexpr unsigned kServerPoolThreads = 1;
/// Reader pacing: 500 fetches/s per reader, a small load beside the edits.
constexpr std::chrono::microseconds kFetchInterval{2000};

bool exited(pid_t pid, int* status) {
  return ::waitpid(pid, status, WNOHANG) == pid;
}

}  // namespace

ServerProcess::ServerProcess(const std::string& dfmkit,
                             const std::string& socket_path,
                             const std::string& log_path)
    : socket_(socket_path) {
  const std::string threads = std::to_string(kServerPoolThreads);
  const std::string workers = std::to_string(kServerWorkers);
  std::vector<std::string> argv_s = {dfmkit,         "serve",
                                     "--socket",     socket_path,
                                     "--workers",    workers,
                                     "--pool-threads", threads,
                                     "--max-sessions", "8",
                                     "--max-queue",  "16"};
  std::vector<char*> argv;
  for (std::string& a : argv_s) argv.push_back(a.data());
  argv.push_back(nullptr);
  ::unlink(socket_path.c_str());
  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error("fork failed");
  if (pid_ == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    const int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      ::dup2(fd, 1);
      ::dup2(fd, 2);
    }
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  // Ready once the socket accepts a connection.
  const Stopwatch t;
  for (;;) {
    int status = 0;
    if (exited(pid_, &status)) {
      pid_ = -1;
      throw std::runtime_error("dfmkit serve exited during start-up; see " +
                               log_path);
    }
    try {
      ServiceClient probe = ServiceClient::connect_unix(socket_);
      return;
    } catch (const std::exception&) {
      if (t.s() > 60) {
        stop();
        throw std::runtime_error("dfmkit serve did not start; see " + log_path);
      }
      ::usleep(5000);
    }
  }
}

ServerProcess::~ServerProcess() { stop(); }

void ServerProcess::stop() {
  if (pid_ <= 0) return;
  try {
    ServiceClient c = ServiceClient::connect_unix(socket_);
    c.shutdown_server();
  } catch (const std::exception&) {
    ::kill(pid_, SIGTERM);
  }
  int status = 0;
  const Stopwatch t;
  while (!exited(pid_, &status)) {
    if (t.s() > 30) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    ::usleep(5000);
  }
  pid_ = -1;
}

namespace {

std::string layer_name(LayerKey k) {
  if (k == layers::kMetal1) return "m1";
  if (k == layers::kMetal2) return "m2";
  return "via1";
}

Json edit_request(const std::string& session, const RectEdit& e, bool remove) {
  Json::Object req;
  req["op"] = Json("edit");
  req["session"] = Json(session);
  req["edits"] = Json(Json::Array{ServiceClient::make_edit(
      layer_name(e.layer), e.rect.lo.x, e.rect.lo.y, e.rect.hi.x, e.rect.hi.y,
      remove)});
  return Json(std::move(req));
}

Json fetch_request(const std::string& session) {
  Json::Object req;
  req["op"] = Json("flow");
  req["session"] = Json(session);
  return Json(std::move(req));
}

/// One client's closed loop and what it saw.
struct ClientLog {
  std::vector<double> edit_ms, fetch_ms;
  std::vector<double> queue_ms, exec_ms, wire_ms, frame_bytes;
  std::uint64_t attempted = 0, failed = 0;
  bool equal = true;
  double end_s = 0;  // writers: when the last reply arrived
};

/// Sends `req`, records its latency (from `due`, when it was due to be
/// sent, or else from now) and, traced, its server-side split. Returns
/// the reply, or null after an error reply or transport failure.
std::optional<Json> send(
    ServiceClient& c, Json req, bool traced, ClientLog& log,
    std::vector<double>& latencies,
    std::optional<std::chrono::steady_clock::time_point> due = std::nullopt) {
  ++log.attempted;
  try {
    const auto start = due.value_or(std::chrono::steady_clock::now());
    Json reply = c.call(std::move(req));
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    if (!reply.get_bool("ok", false)) {
      ++log.failed;  // queue_full and every other error reply
      return std::nullopt;
    }
    latencies.push_back(ms);
    if (traced) {
      if (const Json* tr = reply.find("trace")) {
        const double exec =
            static_cast<double>(tr->get_int("end_ns", 0) -
                                tr->get_int("start_ns", 0)) / 1e6;
        const double queue = static_cast<double>(tr->get_int("queue_ns", 0)) / 1e6;
        log.exec_ms.push_back(exec);
        log.queue_ms.push_back(queue);
        log.wire_ms.push_back(ms - exec - queue);
      }
      log.frame_bytes.push_back(static_cast<double>(reply.dump().size()));
    }
    return reply;
  } catch (const std::exception& e) {
    ++log.failed;
    std::fprintf(stderr, "perfbench: served request failed: %s\n", e.what());
    return std::nullopt;
  }
}

}  // namespace

ServedRun drive_server(const Args& args, const ServedConfig& cfg) {
  ServedRun out;
  const std::string sock = args.workdir + "/dfm.sock";
  const std::string log = args.workdir + "/serve.log";
  const int clients = cfg.writers + cfg.readers;

  std::unique_ptr<ServerProcess> server;
  std::vector<ServiceClient> conns;
  std::vector<std::string> sessions;
  std::string opened_report;
  out.setup_s = repeat_setup(cfg.setup_reps, [&] {
    conns.clear();
    sessions.clear();
    server.reset();
    if (cfg.make_design) cfg.make_design();
    server = std::make_unique<ServerProcess>(args.dfmkit, sock, log);
    for (int i = 0; i < clients; ++i) {
      conns.push_back(ServiceClient::connect_unix(sock));
      const Json opened = conns.back().open(cfg.gds_path, "", cfg.options.passes);
      sessions.push_back(opened.get_string("session", ""));
      opened_report = opened.get_string("report", "");
    }
  });

  // The direct twin: the same layout and options in this process. Each
  // writer cycles through a fixed list of edits, so the expected reply of
  // every request is known before the loop starts.
  std::uint32_t top = 0;
  const Library lib = read_design(cfg.gds_path, &top);
  DfmFlowSession direct(lib, top, cfg.options);
  const DfmFlowReport direct_open = direct.report();
  const std::string open_json = flow_report_canonical_json(direct_open);
  out.closed_form = yield_closed_form(direct_open);
  out.served_equals_direct = opened_report == open_json;
  std::vector<std::vector<RectEdit>> edits(static_cast<std::size_t>(cfg.writers));
  // Expected replies per writer edit: after the add, after the remove.
  // A remove restores the opening analysis, but the canonical form also
  // carries the run's per-pass unit counts, so it is compared with the
  // direct remove, and the direct remove with the opening report.
  std::vector<std::vector<std::pair<std::string, std::string>>> expected(
      edits.size());
  Rng rng(args.seed ^ 0x5E1);
  for (std::size_t w = 0; w < edits.size(); ++w) {
    for (int round = 0; round < cfg.rounds_per_writer; ++round) {
      for (const RectEdit& e :
           eco_round(rng, direct.snapshot(), cfg.options, round)) {
        std::string added = flow_report_canonical_json(direct.apply(e.add()));
        out.closed_form = out.closed_form && yield_closed_form(direct.report());
        const DfmFlowReport& removed = direct.apply(e.remove());
        out.direct_restores =
            out.direct_restores && reports_equivalent(removed, direct_open);
        expected[w].emplace_back(std::move(added),
                                 flow_report_canonical_json(removed));
        edits[w].push_back(e);
      }
    }
  }

  if (cfg.traced) telemetry::set_enabled(true);
  std::vector<ClientLog> logs(static_cast<std::size_t>(clients));
  std::atomic<int> ready{0};
  std::atomic<int> writers_done{0};
  const auto deadline_s = cfg.seconds;
  Stopwatch run;
  std::vector<std::thread> threads;
  for (int i = 0; i < clients; ++i) {
    threads.emplace_back([&, i] {
      const auto ui = static_cast<std::size_t>(i);
      ClientLog& lg = logs[ui];
      ServiceClient& c = conns[ui];
      const std::string& sid = sessions[ui];
      ready.fetch_add(1);
      while (ready.load() < clients) std::this_thread::yield();
      if (i < cfg.writers) {
        // Writer: whole rounds of the writer's edit list, add then remove.
        do {
          for (std::size_t e = 0; e < edits[ui].size(); ++e) {
            const auto a = send(c, edit_request(sid, edits[ui][e], false),
                                cfg.traced, lg, lg.edit_ms);
            lg.equal = lg.equal && a && a->get_string("report", "") ==
                                            expected[ui][e].first;
            const auto r = send(c, edit_request(sid, edits[ui][e], true),
                                cfg.traced, lg, lg.edit_ms);
            lg.equal = lg.equal && r && r->get_string("report", "") ==
                                            expected[ui][e].second;
          }
        } while (run.s() < deadline_s);
        lg.end_s = run.s();
        writers_done.fetch_add(1);
      } else {
        // Readers are paced (open loop): one fetch due every
        // kFetchInterval, timed from when it was due, so a slow reply
        // delays the next ones and counts against them. They run until
        // the writers' last round ends.
        auto due = std::chrono::steady_clock::now();
        do {
          std::this_thread::sleep_until(due);
          const auto f = send(c, fetch_request(sid), cfg.traced, lg,
                              lg.fetch_ms, due);
          lg.equal = lg.equal && f && f->get_string("report", "") == open_json;
          due += kFetchInterval;
        } while (run.s() < deadline_s || writers_done.load() < cfg.writers);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  if (cfg.traced) telemetry::set_enabled(false);

  std::uint64_t executed = 0;
  for (const ClientLog& lg : logs) {
    out.attempted += lg.attempted;
    out.failed += lg.failed;
    out.served_equals_direct = out.served_equals_direct && lg.equal;
    out.edit_ms.insert(out.edit_ms.end(), lg.edit_ms.begin(), lg.edit_ms.end());
    out.fetch_ms.insert(out.fetch_ms.end(), lg.fetch_ms.begin(), lg.fetch_ms.end());
    out.queue_ms.insert(out.queue_ms.end(), lg.queue_ms.begin(), lg.queue_ms.end());
    out.exec_ms.insert(out.exec_ms.end(), lg.exec_ms.begin(), lg.exec_ms.end());
    out.wire_ms.insert(out.wire_ms.end(), lg.wire_ms.begin(), lg.wire_ms.end());
    out.frame_bytes.insert(out.frame_bytes.end(), lg.frame_bytes.begin(),
                           lg.frame_bytes.end());
    executed += lg.attempted;
    out.writers_s = std::max(out.writers_s, lg.end_s);
  }

  // The server's own request histogram must count every analysis request
  // it answered: the opens of this server's set-up plus the loop's.
  const Json metrics = conns.front().metrics();
  const Json parsed = Json::parse(metrics.get_string("json", "{}"));
  std::int64_t counted = -1;
  if (const Json* h = parsed.find("histograms")) {
    if (const Json* r = h->find("service.request_ms")) counted = r->get_int("total", -1);
  }
  // Error replies are counted there too but queue_full refusals are not,
  // so the identity only holds for a run without failures.
  out.metrics_consistent =
      out.failed > 0 ||
      counted == static_cast<std::int64_t>(executed +
                                           static_cast<std::uint64_t>(clients));
  out.server_rss_mb = peak_rss_mb(server->pid());
  conns.clear();
  server->stop();
  return out;
}

void set_service_metrics(const ServedRun& run, Result& res) {
  res.set("service.queue_wait_ms", median(run.queue_ms), "ms");
  res.set("service.server_ms", median(run.exec_ms), "ms");
  res.set("service.wire_ms", median(run.wire_ms), "ms");
  double bytes = 0;
  for (const double b : run.frame_bytes) bytes += b;
  res.set("service.frame_bytes",
          run.frame_bytes.empty() ? 0 : bytes / static_cast<double>(run.frame_bytes.size()),
          "bytes");
  res.set("service.edit_p90_ms", quantile(run.edit_ms, 0.9), "ms");
  res.set("service.fetch_p50_ms", median(run.fetch_ms), "ms");
  // Writers run closed loop, so their completed rate is the service's
  // throughput; the readers' rate is fixed by their pacing.
  res.set("service.edit_req_per_s",
          static_cast<double>(run.edit_ms.size()) / run.writers_s, "1/s");
}

void run_served(const Args& args, Result& res) {
  std::optional<Design> design;
  ServedConfig cfg;
  cfg.gds_path = args.workdir + "/served.gds";
  cfg.make_design = [&] {
    design.emplace(make_served_design(args.seed, cfg.gds_path));
  };
  cfg.options = served_options(4);
  cfg.seconds = args.seconds;
  cfg.traced = args.trace;
  if (args.trace) cfg.setup_reps = 1;  // traced runs report no setup_s
  const ServedRun run = drive_server(args, cfg);
  res.attempted += run.attempted;
  res.failed += run.failed;
  res.set("setup_s", median(run.setup_s), "s");
  res.set("latency_ms", median(run.edit_ms), "ms");
  res.set("peak_rss_mb", run.server_rss_mb, "MB");

  res.check(run.served_equals_direct,
            "served: every reply equals the direct session call "
            "(canonical counts and scores)");
  res.check(run.direct_restores,
            "served: each direct add/remove pair restores the opening");
  res.check(run.closed_form, "served: defect_yield == exp(-(lambda_s+lambda_o))");
  res.check(run.metrics_consistent,
            "served: the server's request histogram counts every request");
  res.check(reports_equivalent(
                run_dfm_flow(design->lib, design->top, served_options(1)),
                run_dfm_flow(design->lib, design->top, served_options(4))),
            "served: report at 1 thread equals report at 4 threads");
  if (args.trace) {
    set_service_metrics(run, res);
    probe_layers(args, *design, cfg.options, res);
  }
}

}  // namespace perfbench
