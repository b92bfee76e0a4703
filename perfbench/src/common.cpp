#include "bench.h"

#include "core/parallel.h"
#include "gdsii/gdsii.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <sys/resource.h>

namespace perfbench {

using namespace dfm;

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double peak_rss_mb(int pid) {
  if (pid == 0) {
    rusage ru{};
    if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  }
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

void Result::check(bool ok, const std::string& what) {
  if (!ok) {
    correct = false;
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
}

std::string Result::json() const {
  std::string s = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(attempted) +
                  ", \"failed\": " + std::to_string(failed) +
                  ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics) {
    char num[64];
    std::snprintf(num, sizeof num, "%.17g",
                  std::isfinite(vu.first) ? vu.first : 0.0);
    s += std::string(first ? "" : ", ") + "\"" + name + "\": {\"value\": " +
         num + ", \"unit\": \"" + vu.second + "\"}";
    first = false;
  }
  return s + "}}";
}

// ---- designs ---------------------------------------------------------------

namespace {

/// Injects `n` labelled defects, the five kinds in turn, into a strip of
/// `cell_w` slots below the core. Which slot each defect takes is drawn
/// from the seed; how many of each kind there are is fixed.
std::vector<Injection> inject_strip(Library& lib, std::uint32_t top,
                                    std::uint64_t seed, const Tech& t, int n) {
  const Coord cell_w = 40 * t.m1_width;  // inject_pathologies' exclusion cell
  const Rect core = lib.bbox(top);
  const Coord per_row = std::max<Coord>(1, core.width() / cell_w);
  const Coord rows = (n + per_row - 1) / per_row;
  const Coord y0 = core.lo.y - 1000 - rows * cell_w;
  std::vector<std::size_t> slots(static_cast<std::size_t>(per_row * rows));
  for (std::size_t i = 0; i < slots.size(); ++i) slots[i] = i;
  Rng rng(seed ^ 0xD0D0);
  for (std::size_t i = slots.size(); i > 1; --i) {
    std::swap(slots[i - 1], slots[rng.index(i)]);
  }
  Cell& cell = lib.cell(top);
  std::vector<Injection> out;
  for (int i = 0; i < n; ++i) {
    const auto slot = static_cast<Coord>(slots[static_cast<std::size_t>(i)]);
    const Point at{core.lo.x + (slot % per_row) * cell_w,
                   y0 + (slot / per_row) * cell_w};
    switch (i % 5) {
      case 0: out.push_back(inject_spacing_violation(cell, t, at)); break;
      case 1: out.push_back(inject_notch(cell, t, at)); break;
      case 2: out.push_back(inject_pinch_candidate(cell, t, at)); break;
      case 3: out.push_back(inject_bridge_candidate(cell, t, at)); break;
      default: out.push_back(inject_odd_cycle(cell, t, at)); break;
    }
  }
  return out;
}

Design finish(DesignParams p, int defects, const std::string& gds_path,
              const Rect& frame = Rect::empty()) {
  Design d{generate_design(p), 0, {}, gds_path};
  d.top = d.lib.top_cells()[0];
  if (defects > 0) d.injections = inject_strip(d.lib, d.top, p.seed, p.tech, defects);
  if (!frame.is_empty()) {
    // Corner marks pin the layout extent, so every seed gets the same
    // litho tile grid and the same raster sizes.
    const Coord m = 2 * p.tech.m1_width;
    for (const Point c : {frame.lo, Point{frame.hi.x - m, frame.lo.y},
                          Point{frame.lo.x, frame.hi.y - m},
                          Point{frame.hi.x - m, frame.hi.y - m}}) {
      d.lib.cell(d.top).add(layers::kMetal1, Rect{c.x, c.y, c.x + m, c.y + m});
    }
  }
  write_gdsii_file(d.lib, gds_path);
  return d;
}

}  // namespace

Design make_signoff_design(std::uint64_t seed, const std::string& gds_path) {
  DesignParams p;
  p.seed = seed;
  p.name = "signoff";
  p.rows = 8;
  p.cells_per_row = 48;
  p.routes = 80;
  p.via_fields = 8;
  p.vias_per_field = 64;
  // Holds the core (x <= 45 um over seeds 1..300) and the defect strip.
  return finish(p, 24, gds_path, Rect{-1000, -6000, 46000, 19500});
}

Design make_fix_design(std::uint64_t seed, const std::string& gds_path) {
  DesignParams p;
  p.seed = seed;
  p.name = "fixloop";
  p.rows = 1;
  p.cells_per_row = 4;
  p.routes = 4;
  p.via_fields = 1;
  p.vias_per_field = 16;
  return finish(p, 10, gds_path);
}

Design make_served_design(std::uint64_t seed, const std::string& gds_path) {
  DesignParams p;
  p.seed = seed;
  p.name = "served";
  p.rows = 1;
  p.cells_per_row = 6;
  p.routes = 8;
  return finish(p, 0, gds_path);
}

unsigned bench_threads() {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return std::min(4u, hw);
}

DfmFlowOptions signoff_options(unsigned threads) {
  DfmFlowOptions o;
  o.threads = std::min(threads, bench_threads());
  o.tech = Tech::standard();
  return o;
}

DfmFlowOptions fix_options(unsigned threads) {
  DfmFlowOptions o = signoff_options(threads);
  o.model.sigma = 20;
  o.model.px = 10;
  o.litho_tile = 8000;
  o.run_litho = false;
  return o;
}

DfmFlowOptions served_options(unsigned threads) {
  DfmFlowOptions o = signoff_options(threads);
  o.model.sigma = 25;  // the optical model `dfmkit serve` configures
  o.model.px = 5;
  return o;
}

FixOptions fix_loop_options() {
  FixOptions fo;
  fo.max_iters = 2;
  return fo;
}

Library read_design(const std::string& gds_path, std::uint32_t* top) {
  Library lib = read_gdsii_file(gds_path);
  *top = lib.top_cells()[0];
  return lib;
}

LayoutDelta RectEdit::add() const {
  LayoutDelta d;
  d.add(layer, rect);
  return d;
}

LayoutDelta RectEdit::remove() const {
  LayoutDelta d;
  d.remove(layer, rect);
  return d;
}

RectEdit random_edit(Rng& rng, const LayoutSnapshot& snap, LayerKey layer,
                     const Rect& area, Coord size, Coord clearance) {
  const NormalizedRegion existing = snap.layer(layer);
  for (int attempt = 0; attempt < 10000; ++attempt) {
    const Coord x = rng.uniform(area.lo.x, area.hi.x - size);
    const Coord y = rng.uniform(area.lo.y, area.hi.y - size);
    const Rect r{x, y, x + size, y + size};
    if (existing.clipped(r.expanded(clearance)).empty()) return {layer, r};
  }
  throw std::runtime_error("no empty site for an edit on the layout");
}

std::vector<RectEdit> eco_round(Rng& rng, const LayoutSnapshot& snap,
                                const DfmFlowOptions& options, int round) {
  const Tech& t = options.tech;
  const Rect core = snap.bbox();
  // M1 edits sit 1 um inside a full-size litho tile, so the optical halo
  // stays in that tile and every M1 edit re-simulates the same area. A
  // layout with fewer than two full tiles takes them anywhere.
  std::vector<Rect> m1_areas;
  for (const Rect& tile : make_tiles(snap.layer(layers::kMetal1).bbox(),
                                     options.litho_tile)) {
    if (tile.width() == options.litho_tile &&
        tile.height() == options.litho_tile && m1_areas.size() < 2) {
      m1_areas.push_back(tile.expanded(-1000));
    }
  }
  if (m1_areas.size() < 2) m1_areas.assign(2, core);
  std::vector<RectEdit> out;
  for (const Rect& area : m1_areas) {
    out.push_back(random_edit(rng, snap, layers::kMetal1, area,
                              2 * t.m1_width, t.m1_space));
  }
  if (round % 2 == 0) {
    out.push_back(random_edit(rng, snap, layers::kMetal2, core,
                              2 * t.m2_width, t.m1_space));
  } else {
    out.push_back(random_edit(rng, snap, layers::kVia1, core, t.via_size,
                              t.via_size));
  }
  return out;
}

// ---- correctness checks ----------------------------------------------------

bool labels_detected(const DfmFlowReport& rep,
                     const std::vector<Injection>& injections,
                     std::string* detail) {
  bool ok = true;
  for (const Injection& inj : injections) {
    bool hit = false;
    if (inj.kind == "spacing" || inj.kind == "notch") {
      for (const Violation& v : rep.drcplus.drc.violations) {
        hit = hit || v.marker.overlaps(inj.where);
      }
    } else if (inj.kind == "pinch" || inj.kind == "bridge") {
      for (const auto& set : rep.drcplus.matches) {
        for (const PatternMatch& m : set) hit = hit || m.window.overlaps(inj.where);
      }
    } else {
      continue;  // odd cycles are DPT findings; the labels name no marker
    }
    if (!hit) {
      ok = false;
      if (detail) *detail += " " + inj.kind + "@" + to_string(inj.where);
    }
  }
  return ok;
}

bool yield_closed_form(const DfmFlowReport& rep) {
  return rep.defect_yield == std::exp(-(rep.lambda_shorts + rep.lambda_opens));
}

namespace {

std::string rect_key(const Rect& r) {
  std::ostringstream os;
  os << r.lo.x << ',' << r.lo.y << ',' << r.hi.x << ',' << r.hi.y;
  return os.str();
}

}  // namespace

std::map<std::string, int> issue_multiset(const DfmFlowReport& rep) {
  std::map<std::string, int> m;
  for (const Violation& v : rep.drcplus.drc.violations) {
    ++m["drc|" + v.rule + "|" + rect_key(v.marker) + "|" +
        std::to_string(v.measured)];
  }
  for (std::size_t s = 0; s < rep.drcplus.matches.size(); ++s) {
    for (const PatternMatch& pm : rep.drcplus.matches[s]) {
      ++m["pattern|" + std::to_string(s) + "|" + std::to_string(pm.rule_index) +
          "|" + rect_key(pm.window)];
    }
  }
  for (const Hotspot& h : rep.hotspots) {
    ++m["hotspot|" + std::to_string(static_cast<int>(h.kind)) + "|" +
        rect_key(h.marker)];
  }
  for (const FloatingCut& c : rep.floating_cuts) ++m["cut|" + rect_key(c.where)];
  for (const auto& [rule, n] : rep.recommended.counts) m["rec|" + rule] += n;
  m["dpt|unresolved"] += rep.dpt.unresolved;
  m["dpt|noncompliant"] += rep.dpt.compliant ? 0 : 1;
  return m;
}

std::int64_t issue_total(const DfmFlowReport& rep) {
  std::int64_t n = 0;
  for (const auto& [key, count] : issue_multiset(rep)) {
    if (key.rfind("dpt|", 0) != 0) n += count;
  }
  return n;
}

bool adds_issue(const std::map<std::string, int>& before,
                const std::map<std::string, int>& after) {
  for (const auto& [key, n] : after) {
    const auto it = before.find(key);
    if (n > (it == before.end() ? 0 : it->second)) return true;
  }
  return false;
}

LayerMap edited_layers(const LayoutSnapshot& snap, const LayoutDelta& delta) {
  LayerMap layers;
  for (const LayerKey k : snap.layer_keys()) layers.emplace(k, snap.layer(k).region());
  delta.apply(layers);
  return layers;
}

DfmFlowReport cold_flow(const LayerMap& layers, const DfmFlowOptions& options) {
  const LayoutSnapshot snap(layers);
  return run_dfm_flow(snap, options);
}

}  // namespace perfbench
