// Per-layer numbers for traced runs. Each layer is timed by calling its
// module's public entry point from here, over the workload's own design;
// nothing is instrumented inside the library. What the library already
// returns is read as well: FlowTrace per-pass times and units, FixOutcome
// style counts (through a step-by-step replay of the fix loop) and the
// service's per-request timings.
#include "bench.h"
#include "served.h"

#include "core/drc_plus.h"
#include "core/hotspot_flow.h"
#include "core/parallel.h"
#include "core/recommended_rules.h"
#include "core/telemetry.h"
#include "dpt/dpt.h"
#include "geometry/edge_ops.h"
#include "layout/connectivity.h"
#include "litho/fft.h"
#include "pattern/capture.h"
#include "yield/yield.h"

#include <filesystem>
#include <functional>

namespace perfbench {

using namespace dfm;

namespace {

constexpr int kReps = 3;
/// Candidates the fix probe replays on designs other than the fix-loop
/// workload's (a whole loop on a sign-off design would take minutes).
constexpr int kProbeCandidates = 4;

/// Median wall time of `reps` calls of `f`, in ms.
double time_ms(const std::function<void()>& f, int reps = kReps) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const Stopwatch t;
    f();
    ms.push_back(t.ms());
  }
  return median(ms);
}

const char* const kFlowPasses[] = {"snapshot",     "drc_plus",     "recommended",
                                   "litho",        "dpt",          "via_doubling",
                                   "connectivity", "caa_yield"};

}  // namespace

void probe_layers(const Args& args, const Design& design,
                  const DfmFlowOptions& options, Result& res) {
  const Tech& t = options.tech;
  ThreadPool pool(options.threads);

  // gdsii, layout, core snapshot.
  std::uint32_t top = 0;
  Library lib = read_design(design.gds_path, &top);
  const double read_ms = time_ms([&] { lib = read_design(design.gds_path, &top); });
  const double file_mb =
      static_cast<double>(std::filesystem::file_size(design.gds_path)) / 1e6;
  res.set("gdsii.read_ms", read_ms, "ms");
  res.set("gdsii.read_mb_per_s", file_mb / (read_ms / 1000.0), "MB/s");
  res.set("layout.flatten_ms", time_ms([&] {
            for (const LayerKey k : LayoutSnapshot::standard_flow_layers()) {
              (void)lib.flatten(top, k);
            }
          }),
          "ms");
  res.set("layout.flat_shapes", static_cast<double>(lib.flat_shape_count(top)),
          "count");
  res.set("snapshot.build_ms",
          time_ms([&] { const LayoutSnapshot s(lib, top, &pool); }), "ms");
  const LayoutSnapshot snap(lib, top, &pool);
  double snap_bytes = 0;
  for (const LayerKey k : snap.layer_keys()) {
    snap_bytes += static_cast<double>(snap.layer(k).rect_count() * sizeof(Rect));
  }
  res.set("snapshot.bytes", snap_bytes, "bytes");

  // geometry kernels.
  const Region& m1 = snap.layer(layers::kMetal1).region();
  const Region& m2 = snap.layer(layers::kMetal2).region();
  res.set("geometry.boolean_ms", time_ms([&] {
            for (const BoolOp op :
                 {BoolOp::kOr, BoolOp::kAnd, BoolOp::kSub, BoolOp::kXor}) {
              (void)boolean_op(m1, m2, op);
            }
          }),
          "ms");
  const RTree& rtree = snap.rtree(layers::kMetal1);
  const Rect bb = snap.bbox();
  res.set("geometry.rtree_query_ms", time_ms([&] {
            std::vector<std::uint32_t> hits;
            for (Coord y = bb.lo.y; y < bb.hi.y; y += 500) {
              for (Coord x = bb.lo.x; x < bb.hi.x; x += 500) {
                rtree.query(Rect{x, y, x + 1000, y + 1000}, hits);
              }
            }
          }),
          "ms");
  res.set("geometry.facing_pairs_ms",
          time_ms([&] { (void)facing_pairs(m1, t.m1_space, true); }), "ms");

  // drc, pattern, recommended.
  const DrcPlusEngine engine(DrcPlusDeck::standard(t));
  DrcPlusResult drc;
  res.set("drc.run_ms", time_ms([&] { drc = engine.run(snap, &pool); }), "ms");
  res.set("drc.violations", static_cast<double>(drc.drc.violations.size()),
          "count");
  std::size_t windows = 0;
  res.set("pattern.capture_ms", time_ms([&] {
            windows = capture_grid(snap,
                                   {layers::kMetal1, layers::kVia1,
                                    layers::kMetal2},
                                   bb, 1000, 1000, false, &pool)
                          .size();
          }),
          "ms");
  res.set("pattern.windows", static_cast<double>(windows), "count");
  const std::vector<RecommendedRule> rules = standard_recommended_rules(t);
  res.set("recommended.run_ms",
          time_ms([&] { (void)check_recommended(snap, rules, &pool); }), "ms");

  // litho: the tiled simulation as a cold flow runs it (fresh spectra).
  HotspotSimOptions sim{&pool};
  sim.model = options.model;
  sim.edge_tolerance = options.litho_edge_tolerance;
  sim.tile = options.litho_tile;
  sim.fast = options.litho_fast;
  HotspotTileSim tiles;
  const double litho_ms = time_ms([&] {
    sim.kernels = std::make_shared<KernelSpectrumCache>();
    tiles = simulate_hotspots_tiled(snap, layers::kMetal1, m1.bbox(), sim);
  });
  res.set("litho.sim_ms", litho_ms, "ms");
  res.set("litho.tiles", static_cast<double>(tiles.tiles.size()), "count");
  res.set("litho.tiles_skipped", static_cast<double>(tiles.skipped), "count");
  res.set("litho.ms_per_tile",
          litho_ms / static_cast<double>(std::max<std::size_t>(1, tiles.tiles.size())),
          "ms");

  // dpt, yield, connectivity.
  Decomposition dpt;
  res.set("dpt.decompose_ms",
          time_ms([&] { dpt = decompose_dpt(snap, layers::kMetal1, t); }), "ms");
  res.set("dpt.nodes", dpt.nodes, "count");
  res.set("yield.via_double_ms", time_ms([&] { (void)double_vias(snap, t); }),
          "ms");
  Netlist nets;
  res.set("connectivity.extract_ms",
          time_ms([&] { nets = extract_nets(snap, standard_stack()); }), "ms");
  res.set("connectivity.nets", static_cast<double>(nets.size()), "count");
  res.set("yield.caa_ms", time_ms([&] {
            std::vector<Region> pieces;
            std::vector<int> net_of;
            for (std::size_t ni = 0; ni < nets.nets.size(); ++ni) {
              if (const Region* p = nets.nets[ni].on(layers::kMetal2)) {
                pieces.push_back(*p);
                net_of.push_back(static_cast<int>(ni));
              }
            }
            (void)average_critical_area(
                [&](Coord s) { return short_critical_area_nets(pieces, net_of, s); },
                options.defects, 16);
            (void)layer_lambda(m1, options.defects, true);
            (void)layer_lambda(m2, options.defects, false);
          }),
          "ms");

  // core flow: unattributed time, library tracing overhead, thread scaling.
  // The overhead is the median over kReps pairs of a flow with the
  // library's telemetry recording on minus one with it off, the order
  // alternating between pairs so drift of the host's load cancels.
  constexpr int kOrder[2][2] = {{0, 1}, {1, 0}};
  DfmFlowReport ref;
  std::vector<double> unattributed, overhead;
  for (int pair = 0; pair < kReps; ++pair) {
    double ms[2] = {0, 0};  // [telemetry off, on]
    for (const int on : kOrder[pair % 2]) {
      telemetry::set_enabled(on != 0);
      const Stopwatch tf;
      DfmFlowReport rep = run_dfm_flow(lib, top, options);
      ms[on] = tf.ms();
      telemetry::set_enabled(false);
      telemetry::clear();
      if (on == 0) {
        unattributed.push_back(ms[0] - rep.trace.passes_ms());
        if (pair == 0) ref = std::move(rep);
      }
    }
    overhead.push_back(ms[1] - ms[0]);
  }
  res.set("flow.unattributed_ms", median(unattributed), "ms");
  res.set("trace.overhead_ms", median(overhead), "ms");
  for (const unsigned threads : {1u, 2u}) {
    DfmFlowOptions o = options;
    o.threads = threads;
    const Stopwatch tf;
    const DfmFlowReport rep = run_dfm_flow(lib, top, o);
    res.set("flow.threads" + std::to_string(threads) + "_ms", tf.ms(), "ms");
    res.check(reports_equivalent(ref, rep),
              "probe: report at " + std::to_string(threads) +
                  " thread(s) equals report at " +
                  std::to_string(options.threads));
  }

  // core incremental: one eco-edit round through a warm session.
  DfmFlowSession session(lib, top, options);
  const DfmFlowReport opening = session.report();
  std::map<std::string, std::vector<double>> pass_ms;
  std::vector<double> dirty;
  double units_total = 0, units_dirty = 0;
  Rng rng(args.seed ^ 0x1DC);
  for (const RectEdit& e : eco_round(rng, session.snapshot(), options, 0)) {
    for (const LayoutDelta& d : {e.add(), e.remove()}) {
      const DfmFlowReport& rep = session.apply(d);
      double dirty_here = 0;
      for (const PassTrace& p : rep.trace.passes) {
        pass_ms[p.name].push_back(p.ms);
        dirty_here += static_cast<double>(p.dirty_units);
        units_total += static_cast<double>(p.total_units);
      }
      dirty.push_back(dirty_here);
      units_dirty += dirty_here;
    }
  }
  res.check(reports_equivalent(session.report(), opening),
            "probe: add/remove pairs restore the opening report");
  for (const char* name : kFlowPasses) {
    res.set(std::string("incremental.") + name + "_ms", median(pass_ms[name]),
            "ms");
  }
  res.set("incremental.dirty_units", median(dirty), "count");
  res.set("incremental.reuse_ratio",
          units_total > 0 ? 1.0 - units_dirty / units_total : 1.0, "ratio");

  // core fix engine: the loop replayed step by step (capped here).
  if (!res.has("fix.proposed")) {
    const std::int64_t before = issue_total(session.report());
    const double composite = session.report().scorecard.composite();
    const FixReplay replay =
        replay_fix(session, fix_loop_options(), kProbeCandidates);
    res.set("fix.plan_ms", median(replay.plan_ms), "ms");
    res.set("fix.proposed", replay.proposed, "count");
    res.set("fix.accepted", replay.accepted, "count");
    res.set("fix.apply_ms", median(replay.apply_ms), "ms");
    res.set("fix.rollback_ms", median(replay.rollback_ms), "ms");
    res.set("fix.issues_removed",
            static_cast<double>(before - issue_total(session.report())), "count");
    res.set("fix.composite_gain",
            session.report().scorecard.composite() - composite, "score");
  }

  // service: a short served run against `dfmkit serve` on this design.
  if (!res.has("service.server_ms")) {
    ServedConfig cfg;
    cfg.gds_path = design.gds_path;
    cfg.options = served_options(options.threads);
    if (!options.run_litho) {
      cfg.options.passes = {"drc_plus", "recommended", "dpt", "via_doubling",
                            "connectivity", "caa_yield"};
    }
    cfg.writers = 1;
    cfg.readers = 1;
    cfg.rounds_per_writer = 1;
    cfg.setup_reps = 1;
    cfg.seconds = 0;
    cfg.traced = true;
    const ServedRun run = drive_server(args, cfg);
    res.attempted += run.attempted;
    res.failed += run.failed;
    res.check(run.served_equals_direct,
              "probe: served replies equal the direct session call");
    set_service_metrics(run, res);
  }
}

}  // namespace perfbench
