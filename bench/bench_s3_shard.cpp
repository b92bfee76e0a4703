// S3 — Distributed sharded analysis vs the single-process flow.
//
// The deployment question behind the sharding subsystem: does carving
// the chip into spatial shards and fanning the unit-parallel passes
// (min-width DRC, pattern sites, litho tiles) out to worker *processes*
// actually buy wall time, and does the answer stay byte-identical while
// it happens? Each row spawns N real `dfmkit shard-serve` workers over
// the framed protocol — fork/exec, socket handshake, shard_open
// hydration all included in "open ms" — then runs the flow cold and
// incrementally against them. The hard gate is report equality
// (flow_report_canonical_json, cold and after the edit, at every shard
// count); the timing columns are the scaling story. Efficiency is
// cold(1 shard) / (N * cold(N)) — 1.0 would be perfect linear scaling
// of the whole flow, which the non-distributed passes (spacing, DPT,
// connectivity) cap well below 1.
#include "bench_common.h"

#include "core/dfm_flow.h"
#include "core/incremental.h"
#include "core/stream_source.h"
#include "gdsii/gdsii.h"
#include "shard/fleet.h"

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

using namespace dfm;
using namespace dfm::bench;

namespace {

// The f1 runtime-scaling design family, at a scale where the litho and
// DRC work dwarfs per-worker process overhead.
Library scaling_design(int scale) {
  DesignParams p;
  p.seed = static_cast<std::uint64_t>(scale);
  p.name = "s" + std::to_string(scale);
  p.rows = scale;
  p.cells_per_row = 4 * scale;
  p.routes = 10 * scale;
  p.via_fields = scale;
  p.vias_per_field = 64;
  return generate_design(p);
}

DfmFlowOptions flow_options() {
  DfmFlowOptions o;
  o.threads = 2;  // the coordinator's own pool; shards add processes
  // Finer litho tiles than the sign-off default: more tiles to
  // distribute, and a smaller halo for the shard windows.
  o.litho_tile = 4000;
  return o;
}

}  // namespace

int main() {
  const int scale = 8;
  const Library lib = scaling_design(scale);
  const std::uint32_t top = lib.top_cells()[0];

  // Workers hydrate from the same file the coordinator streams.
  const std::string scratch = shard::make_shard_scratch_dir();
  const std::string gds = scratch + "/bench_s3.gds";
  write_gdsii_file(lib, gds);
  const DfmFlowOptions opt = flow_options();
  const auto source = open_stream_source(gds);

  // The incremental probe: one small M1 patch mid-core (the bench_f3
  // fix->recheck edit), landing near a shard border at every count.
  const Rect bb = lib.bbox(top);
  const Point c{(bb.lo.x + bb.hi.x) / 2, (bb.lo.y + bb.hi.y) / 2};
  LayoutDelta delta;
  delta.add(layers::kMetal1, Rect{c.x, c.y, c.x + 400, c.y + 400});

  // Unsharded baseline, cold + incremental.
  Stopwatch t_base;
  DfmFlowSession baseline(source, opt);
  const double base_cold_ms = t_base.ms();
  const std::string base_cold = flow_report_canonical_json(baseline.report());
  Stopwatch t_base_inc;
  baseline.apply(delta);
  const double base_inc_ms = t_base_inc.ms();
  const std::string base_inc = flow_report_canonical_json(baseline.report());

  Table table("S3: distributed sharded flow vs single-process");
  table.set_header({"shards", "open ms", "cold ms", "incr ms", "speedup",
                    "efficiency", "identical"});
  table.add_row({"0 (local)", "-", Table::num(base_cold_ms, 1),
                 Table::num(base_inc_ms, 1), "1.0x", "-", "yes"});

  bool all_equal = true;
  double one_shard_cold_ms = 0;
  struct Row {
    int shards;
    double open_ms, cold_ms, inc_ms, speedup, efficiency;
    bool identical;
  };
  std::vector<Row> rows;

  for (const int shards : {1, 2, 8}) {
    shard::RemoteShardConfig sc;
    sc.worker = shard::worker_config(opt);
    sc.binary = DFMKIT_BIN;
    sc.socket_dir = scratch;
    sc.shards = shards;

    Stopwatch t_open;
    shard::ShardFleet backend = shard::ShardFleet::spawn(gds, std::move(sc));
    const double open_ms = t_open.ms();

    DfmFlowOptions sharded = opt;
    sharded.shards = &backend;
    Stopwatch t_cold;
    DfmFlowSession session(source, sharded);
    const double cold_ms = t_cold.ms();
    const bool cold_equal =
        flow_report_canonical_json(session.report()) == base_cold;
    Stopwatch t_inc;
    session.apply(delta);
    const double inc_ms = t_inc.ms();
    const bool inc_equal =
        flow_report_canonical_json(session.report()) == base_inc;

    const bool identical = cold_equal && inc_equal && !backend.is_degraded();
    if (!identical) {
      std::fprintf(stderr,
                   "MISMATCH at %d shards: cold=%d incremental=%d "
                   "degraded=%d\n",
                   shards, cold_equal ? 1 : 0, inc_equal ? 1 : 0,
                   backend.is_degraded() ? 1 : 0);
    }
    all_equal = all_equal && identical;
    if (shards == 1) one_shard_cold_ms = cold_ms;
    const double speedup = base_cold_ms / cold_ms;
    const double efficiency =
        one_shard_cold_ms > 0 ? one_shard_cold_ms / (shards * cold_ms) : 0;
    rows.push_back(
        {shards, open_ms, cold_ms, inc_ms, speedup, efficiency, identical});
    table.add_row({std::to_string(shards), Table::num(open_ms, 1),
                   Table::num(cold_ms, 1), Table::num(inc_ms, 1),
                   Table::num(speedup, 1) + "x", Table::num(efficiency, 2),
                   identical ? "yes" : "NO"});
  }

  table.print();
  for (const Row& r : rows) {
    std::printf("SHARD shards=%d open_ms=%.1f cold_ms=%.1f inc_ms=%.1f "
                "base_cold_ms=%.1f base_inc_ms=%.1f speedup=%.2f "
                "efficiency=%.2f identical=%d\n",
                r.shards, r.open_ms, r.cold_ms, r.inc_ms, base_cold_ms,
                base_inc_ms, r.speedup, r.efficiency, r.identical ? 1 : 0);
  }
  std::printf("\nreports byte-identical to the unsharded flow at shards "
              "1/2/8, cold and after the edit: %s\n",
              all_equal ? "yes" : "NO");
  std::printf("verdict: sharding is a deployment knob, not a semantics "
              "knob — the report\nnever changes; only the wall clock "
              "does. Speedups are bounded by the\nnon-distributed passes "
              "and per-process overhead (Amdahl does not fork).\n");
  // Equality is the hard gate; wall-clock scaling is environment-bound
  // and reported, not gated.
  return all_equal ? 0 : 1;
}
