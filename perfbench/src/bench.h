// Shared pieces of the dfmkit benchmark driver: run arguments, timing and
// statistics, the result every run prints, the seeded designs, and the
// correctness checks the workloads apply to the program's outputs.
#pragma once

#include "core/dfm_flow.h"
#include "core/fix_engine.h"
#include "core/incremental.h"
#include "gen/generators.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using dfm::DfmFlowOptions;
using dfm::DfmFlowReport;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dfmkit;   // path of the dfmkit CLI (`dfmkit serve`)
  std::string workdir;  // scratch directory for GDSII files and sockets
};

class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }
  double s() const { return ms() / 1000.0; }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Runs `setup` at least `min_reps` times, and again while less than a
/// second has been spent, up to 25 times; returns each run's seconds.
/// Cheap set-ups so get enough repetitions for a steady median.
template <typename F>
std::vector<double> repeat_setup(int min_reps, F&& setup) {
  std::vector<double> s;
  const Stopwatch total;
  while (s.size() < static_cast<std::size_t>(min_reps) ||
         (total.s() < 1.0 && s.size() < 25)) {
    const Stopwatch t;
    setup();
    s.push_back(t.s());
  }
  return s;
}

/// The q-quantile (q in [0, 1]), linear between order statistics.
double quantile(std::vector<double> v, double q);
double median(const std::vector<double>& v);

/// Peak resident set of this process (VmHWM) or of another one, in MB.
double peak_rss_mb(int pid = 0);

/// What one run prints as its last line. Operations that throw or get an
/// error reply count in `failed`; a wrong output clears `correct`.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::pair<double, std::string>> metrics;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  bool has(const std::string& name) const { return metrics.count(name) != 0; }
  /// Records a correctness verdict; a failure is reported on stderr.
  void check(bool ok, const std::string& what);
  std::string json() const;
};

// ---- designs ---------------------------------------------------------------

/// A generated design, written to GDSII during set-up. The program only
/// ever sees the file (or deltas and requests derived from it).
struct Design {
  dfm::Library lib;
  std::uint32_t top = 0;
  std::vector<dfm::Injection> injections;  // labelled defects
  std::string gds_path;
};

/// Sign-off design: a routed standard-cell block with a strip of
/// labelled defects below it, wide and tall enough for 6 litho tiles at
/// the default 20 um tile.
Design make_signoff_design(std::uint64_t seed, const std::string& gds_path);
/// Fix-loop design: the small, defect-dense bench_f5 family.
Design make_fix_design(std::uint64_t seed, const std::string& gds_path);
/// Served design: one small row, so service work is visible in an edit.
Design make_served_design(std::uint64_t seed, const std::string& gds_path);

/// Flow options per workload. `threads` is clamped to nproc.
DfmFlowOptions signoff_options(unsigned threads);
DfmFlowOptions fix_options(unsigned threads);
/// Mirrors `dfmkit serve`: default options with its optical model.
DfmFlowOptions served_options(unsigned threads);
dfm::FixOptions fix_loop_options();
/// min(4, nproc).
unsigned bench_threads();

/// Reads the design's GDSII file and returns the library and its top cell.
dfm::Library read_design(const std::string& gds_path, std::uint32_t* top);

/// One-rect edits: an add of `rect` on `layer`, and the remove that
/// undoes it. `rect` lies in empty space on `layer`.
struct RectEdit {
  dfm::LayerKey layer;
  dfm::Rect rect;
  dfm::LayoutDelta add() const;
  dfm::LayoutDelta remove() const;
};

/// A rect of `size` on `layer` inside `area`, clear of existing geometry
/// on that layer by `clearance`, drawn from `rng`.
RectEdit random_edit(dfm::Rng& rng, const dfm::LayoutSnapshot& snap,
                     dfm::LayerKey layer, const dfm::Rect& area,
                     dfm::Coord size, dfm::Coord clearance);

/// The eco-edit sequence: round r holds an M1 edit in each of the first
/// two full-size litho tiles, then one M2 (even r) or via1 (odd r) edit
/// anywhere in the layout. Every edit is applied as an add, then a remove.
std::vector<RectEdit> eco_round(dfm::Rng& rng, const dfm::LayoutSnapshot& snap,
                                const DfmFlowOptions& options, int round);

// ---- correctness checks ----------------------------------------------------

/// Every injected spacing/notch construct under a DRC marker, every
/// pinch/bridge construct under a DRC+ pattern match window.
bool labels_detected(const DfmFlowReport& rep,
                     const std::vector<dfm::Injection>& injections,
                     std::string* detail);
/// defect_yield == exp(-(lambda_shorts + lambda_opens)), bit for bit.
bool yield_closed_form(const DfmFlowReport& rep);
/// Every finding the fix gate refuses to create more of, as a multiset
/// keyed by kind and location.
std::map<std::string, int> issue_multiset(const DfmFlowReport& rep);
/// Total number of issues in the multiset (DPT flags excluded).
std::int64_t issue_total(const DfmFlowReport& rep);
/// True when `after` has more of some issue than `before`.
bool adds_issue(const std::map<std::string, int>& before,
                const std::map<std::string, int>& after);
/// The flow's canonical layers after applying `delta` to `snap`.
dfm::LayerMap edited_layers(const dfm::LayoutSnapshot& snap,
                            const dfm::LayoutDelta& delta);
/// A cold flow over an explicit layer map.
DfmFlowReport cold_flow(const dfm::LayerMap& layers,
                        const DfmFlowOptions& options);

// ---- workloads -------------------------------------------------------------

void run_signoff(const Args& args, Result& res);
void run_eco_edit(const Args& args, Result& res);
void run_fix_loop(const Args& args, Result& res);
void run_served(const Args& args, Result& res);

// ---- per-layer probes (traced runs) ----------------------------------------

/// Fills every per-layer metric not already in `res` by timing calls into
/// each module's public entry points over `design`.
void probe_layers(const Args& args, const Design& design,
                  const DfmFlowOptions& options, Result& res);

/// Replays FixEngine::fix step by step through DfmFlowSession::apply,
/// timing each step's normalized delta and its inverse. Stops after
/// `max_candidates` candidates (0 = the whole loop).
struct FixReplay {
  int proposed = 0;
  int accepted = 0;
  std::vector<bool> accepted_flags;  // per evaluated candidate, by the gate
  std::vector<double> gains;         // per evaluated candidate
  std::vector<double> plan_ms, apply_ms, rollback_ms;
};
FixReplay replay_fix(dfm::DfmFlowSession& session,
                     const dfm::FixOptions& options, int max_candidates);

}  // namespace perfbench
