// The sign-off, eco-edit and fix-loop workloads. Each sets up its inputs
// (timed as setup_s, the median of repeated set-ups), runs whole rounds of its
// operation until --seconds have passed, then checks the outputs against
// generator labels, closed forms and properties the method must have.
#include "bench.h"

#include "core/hotspot_flow.h"
#include "core/parallel.h"

#include <cstdio>
#include <exception>
#include <memory>
#include <optional>

namespace perfbench {

using namespace dfm;

namespace {

constexpr int kSetupReps = 3;  // at least; see repeat_setup
constexpr int kFixDesigns = 4;  // fix-loop designs per run

/// Traced runs report no setup_s, so one set-up is enough there.
int setup_reps(const Args& args) { return args.trace ? 1 : kSetupReps; }

/// Runs `op` once, counting it as attempted and, if it throws, failed.
template <typename F>
bool attempt(Result& res, const char* what, F&& op) {
  ++res.attempted;
  try {
    op();
    return true;
  } catch (const std::exception& e) {
    ++res.failed;
    std::fprintf(stderr, "perfbench: %s failed: %s\n", what, e.what());
    return false;
  }
}

void set_end_to_end(Result& res, const std::vector<double>& setup_s,
                    const std::vector<double>& op_ms, double rss_mb) {
  res.set("setup_s", median(setup_s), "s");
  res.set("latency_ms", median(op_ms), "ms");
  res.set("peak_rss_mb", rss_mb, "MB");
}

}  // namespace

// ---- signoff ---------------------------------------------------------------

void run_signoff(const Args& args, Result& res) {
  const std::string gds = args.workdir + "/signoff.gds";
  std::optional<Design> design;
  const std::vector<double> setup_s = repeat_setup(
      setup_reps(args),
      [&] { design.emplace(make_signoff_design(args.seed, gds)); });
  const DfmFlowOptions opts = signoff_options(4);

  // Cold flows, GDSII file to report. Every report must equal the first.
  std::optional<DfmFlowReport> first;
  std::vector<double> flow_ms;
  bool same = true, closed_form = true;
  const Stopwatch run;
  do {
    attempt(res, "flow", [&] {
      const Stopwatch t;
      std::uint32_t top = 0;
      const Library lib = read_design(gds, &top);
      DfmFlowReport rep = run_dfm_flow(lib, top, opts);
      flow_ms.push_back(t.ms());
      closed_form = closed_form && yield_closed_form(rep);
      if (!first) {
        first = std::move(rep);
      } else {
        same = same && reports_equivalent(*first, rep);
      }
    });
  } while (run.s() < args.seconds);
  set_end_to_end(res, setup_s, flow_ms, peak_rss_mb());
  if (!first) return;

  res.check(same, "signoff: repeated cold flows give the same report");
  res.check(closed_form, "signoff: defect_yield == exp(-(lambda_s+lambda_o))");
  std::string missed;
  res.check(labels_detected(*first, design->injections, &missed),
            "signoff: injected defects detected (missed:" + missed + ")");
  const Library& lib = design->lib;
  res.check(reports_equivalent(
                *first, run_dfm_flow(lib, design->top, signoff_options(1))),
            "signoff: report at 1 thread equals report at 4 threads");

  // Litho fast path against the direct path, on one seeded tile.
  ThreadPool pool(opts.threads);
  const LayoutSnapshot snap(lib, design->top, &pool);
  const std::vector<Rect> tiles =
      make_tiles(snap.layer(layers::kMetal1).bbox(), opts.litho_tile);
  Rng rng(args.seed ^ 0x11770);
  const Rect tile = tiles[rng.index(tiles.size())];
  HotspotSimOptions sim{&pool};
  sim.model = opts.model;
  sim.edge_tolerance = opts.litho_edge_tolerance;
  sim.tile = opts.litho_tile;
  sim.fast = opts.litho_fast;
  const std::vector<Hotspot> fast =
      simulate_hotspots_tiled(snap, layers::kMetal1, tile, sim).merged();
  sim.fast = LithoFastMode::kOff;
  const std::vector<Hotspot> direct =
      simulate_hotspots_tiled(snap, layers::kMetal1, tile, sim).merged();
  res.check(fast == direct,
            "signoff: litho fast path hotspots equal LithoFastMode::kOff");
  if (args.trace) probe_layers(args, *design, opts, res);
}

// ---- eco-edit --------------------------------------------------------------

void run_eco_edit(const Args& args, Result& res) {
  const std::string gds = args.workdir + "/eco.gds";
  const DfmFlowOptions opts = signoff_options(4);
  std::optional<Design> design;
  std::unique_ptr<DfmFlowSession> session;
  const std::vector<double> setup_s = repeat_setup(setup_reps(args), [&] {
    session.reset();
    design.emplace(make_signoff_design(args.seed, gds));
    std::uint32_t top = 0;
    const Library lib = read_design(gds, &top);
    session = std::make_unique<DfmFlowSession>(lib, top, opts);
  });
  const DfmFlowReport opening = session->report();

  // Whole rounds of add/remove pairs. Each add's report is kept for the
  // cold-flow comparison below; each remove must restore the opening.
  struct Applied {
    RectEdit edit;
    DfmFlowReport report;
  };
  std::vector<Applied> adds;
  std::vector<double> apply_ms;
  bool restored = true, closed_form = true;
  Rng rng(args.seed ^ 0xEC0);
  const Stopwatch run;
  int round = 0;
  do {
    for (const RectEdit& e : eco_round(rng, session->snapshot(), opts, round)) {
      attempt(res, "edit", [&] {
        const Stopwatch t;
        const DfmFlowReport& rep = session->apply(e.add());
        apply_ms.push_back(t.ms());
        closed_form = closed_form && yield_closed_form(rep);
        adds.push_back({e, rep});
      });
      attempt(res, "edit", [&] {
        const Stopwatch t;
        const DfmFlowReport& rep = session->apply(e.remove());
        apply_ms.push_back(t.ms());
        restored = restored && reports_equivalent(rep, opening);
      });
    }
    ++round;
  } while (run.s() < args.seconds);
  set_end_to_end(res, setup_s, apply_ms, peak_rss_mb());

  res.check(restored, "eco-edit: each add/remove pair restores the opening");
  res.check(closed_form, "eco-edit: defect_yield == exp(-(lambda_s+lambda_o))");
  for (const Applied& a : adds) {
    const DfmFlowReport cold =
        cold_flow(edited_layers(session->snapshot(), a.edit.add()), opts);
    res.check(reports_equivalent(a.report, cold),
              "eco-edit: incremental report equals a cold flow after adding " +
                  to_string(a.edit.rect));
  }
  if (args.trace) probe_layers(args, *design, opts, res);
}

// ---- fix-loop --------------------------------------------------------------

FixReplay replay_fix(DfmFlowSession& session, const FixOptions& options,
                     int max_candidates) {
  FixReplay r;
  const Tech& tech = session.options().tech;
  const int rounds = options.max_iters > 0 ? options.max_iters : 1;
  for (int iter = 1; iter <= rounds; ++iter) {
    const Stopwatch tp;
    const FixPlan plan =
        FixEngine::run(session.snapshot(), session.report(), options, tech);
    r.plan_ms.push_back(tp.ms());
    if (plan.empty()) break;
    int accepted_this_round = 0;
    for (const FixProposal& prop : plan.proposals) {
      if (max_candidates > 0 && r.proposed >= max_candidates) return r;
      ++r.proposed;
      const LayoutDelta norm = normalize_delta(prop.delta, session.snapshot());
      if (norm.empty()) {
        r.accepted_flags.push_back(false);
        r.gains.push_back(0);
        continue;
      }
      const double pre = session.report().scorecard.composite();
      const std::map<std::string, int> pre_issues =
          issue_multiset(session.report());
      const Stopwatch ta;
      const DfmFlowReport& rep = session.apply(norm);
      r.apply_ms.push_back(ta.ms());
      const double gain = rep.scorecard.composite() - pre;
      const bool ok = gain > options.min_gain &&
                      !adds_issue(pre_issues, issue_multiset(rep));
      r.accepted_flags.push_back(ok);
      r.gains.push_back(gain);
      if (ok) {
        ++r.accepted;
        ++accepted_this_round;
      } else {
        const Stopwatch tr;
        session.apply(inverse_delta(norm));
        r.rollback_ms.push_back(tr.ms());
      }
    }
    if (accepted_this_round == 0) break;
  }
  return r;
}

void run_fix_loop(const Args& args, Result& res) {
  const DfmFlowOptions opts = fix_options(4);
  const FixOptions fo = fix_loop_options();

  // Loop cost differs by up to 2x between designs of one family, so a run
  // fixes several designs (seeds derived from --seed) and a round's
  // latency is the mean over them.
  struct Case {
    Design design;
    std::optional<Library> lib;  // read back from the design's GDSII file
    std::uint32_t top = 0;
    std::optional<FixOutcome> first;
    std::string first_json;
    std::int64_t issues_before = 0, issues_after = 0;
  };
  std::vector<Case> cases;
  const std::vector<double> setup_s = repeat_setup(setup_reps(args), [&] {
    cases.clear();
    for (int k = 0; k < kFixDesigns; ++k) {
      const std::string gds = args.workdir + "/fix" + std::to_string(k) + ".gds";
      Case c{make_fix_design(args.seed * kFixDesigns + k, gds)};
      c.lib.emplace(read_design(gds, &c.top));
      const DfmFlowSession warm(*c.lib, c.top, opts);
      cases.push_back(std::move(c));
    }
  });

  // A round fixes every design once: a fresh session (untimed), one timed
  // FixEngine::fix, and the check against a cold flow over the pre-fix
  // layout with outcome.applied applied.
  std::vector<double> round_ms;
  bool same = true, post_fix_cold = true, strict_gain = true, accepts = true;
  const Stopwatch run;
  do {
    std::vector<double> loop_ms;
    for (Case& c : cases) {
      DfmFlowSession session(*c.lib, c.top, opts);
      const LayerMap pre = edited_layers(session.snapshot(), LayoutDelta{});
      const std::int64_t before = issue_total(session.report());
      std::optional<FixOutcome> out;
      const bool ok = attempt(res, "fix loop", [&] {
        const Stopwatch t;
        out = FixEngine::fix(session, fo);
        loop_ms.push_back(t.ms());
      });
      if (!ok) continue;
      // The loop's operations are its candidates: count each one.
      res.attempted += static_cast<std::uint64_t>(out->proposed) - 1;
      for (const FixStep& st : out->steps) {
        strict_gain = strict_gain && (!st.accepted || st.gain > fo.min_gain);
      }
      accepts = accepts && out->accepted > 0;
      LayerMap fixed = pre;
      out->applied.apply(fixed);
      post_fix_cold = post_fix_cold && reports_equivalent(session.report(),
                                                          cold_flow(fixed, opts));
      if (!c.first) {
        c.first = std::move(out);
        c.first_json = fix_outcome_json(*c.first);
        c.issues_before = before;
        c.issues_after = issue_total(session.report());
      } else {
        same = same && fix_outcome_json(*out) == c.first_json;
      }
    }
    double sum = 0;
    for (const double ms : loop_ms) sum += ms;
    if (!loop_ms.empty()) round_ms.push_back(sum / static_cast<double>(loop_ms.size()));
  } while (run.s() < args.seconds);
  set_end_to_end(res, setup_s, round_ms, peak_rss_mb());
  Case& c0 = cases.front();
  if (!c0.first) return;

  res.check(same, "fix-loop: repeated loops give the same outcome");
  res.check(strict_gain, "fix-loop: every accepted step has a strict gain");
  res.check(post_fix_cold,
            "fix-loop: post-fix report equals a cold flow over pre-fix + "
            "outcome.applied");
  res.check(accepts, "fix-loop: every loop accepts a repair");

  // Replay the first design's loop step by step: the engine's decisions
  // must be the gate's decisions (strict gain and no new issue, judged
  // here).
  DfmFlowSession session(*c0.lib, c0.top, opts);
  const FixReplay replay = replay_fix(session, fo, 0);
  const std::vector<FixStep>& steps = c0.first->steps;
  bool agree = replay.proposed == c0.first->proposed &&
               replay.accepted_flags.size() == steps.size();
  for (std::size_t i = 0; agree && i < steps.size(); ++i) {
    agree = replay.accepted_flags[i] == steps[i].accepted &&
            replay.gains[i] == steps[i].gain;
  }
  res.check(agree,
            "fix-loop: every accepted step adds no issue (replayed gate "
            "agrees with the engine)");

  if (args.trace) {
    res.set("fix.plan_ms", median(replay.plan_ms), "ms");
    res.set("fix.proposed", c0.first->proposed, "count");
    res.set("fix.accepted", c0.first->accepted, "count");
    res.set("fix.apply_ms", median(replay.apply_ms), "ms");
    res.set("fix.rollback_ms", median(replay.rollback_ms), "ms");
    res.set("fix.issues_removed",
            static_cast<double>(c0.issues_before - c0.issues_after), "count");
    res.set("fix.composite_gain",
            c0.first->composite_after - c0.first->composite_before, "score");
    probe_layers(args, c0.design, opts, res);
  }
}

}  // namespace perfbench
