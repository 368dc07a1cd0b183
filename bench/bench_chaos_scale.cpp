// bench_chaos_scale: paper-scale failure & recovery baseline
// (BENCH_chaos_scale.json).
//
// Runs every storm family (flap storm, withdrawal storm, regional
// partition/heal, transit-core outage) over the hierarchical scale
// profile for each of the four design points with recovery knobs OFF,
// then adds a damping A/B pair for the DV family (ECMA, IDRP) under the
// flap storm so the update-churn drop from route-flap damping is a
// tracked number. One JSON row per (arch, storm, damping) cell carries
// the figures the CI gate (tools/check_bench_chaos_scale.py) and
// EXPERIMENTS.md track: injected transitions, convergence and
// storm-class reconvergence times, control-plane churn during/after the
// storm, blast radius, persistent/transient invariant counts, damper
// accounting, and peak RSS.
//
// Standalone binary (not google-benchmark): one deterministic run per
// cell is the measurement; same seed, same storm schedule, same counter
// fingerprint.
//
// Peak-RSS caveat: getrusage(RUSAGE_SELF).ru_maxrss is a process-wide
// high-water mark; each row reports the mark after its run, which is
// only meaningful relative to earlier rows.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/chaos.hpp"
#include "util/check.hpp"
#include "util/stats.hpp"

namespace {

struct Row {
  idr::ScaleChaosResult res;
  bool damping = false;
  double wall_ms = 0.0;
  long rss_after_kb = 0;
  // Undamped updates_during_storm / damped updates_during_storm for the
  // matching undamped cell (damped rows only; 0 when not applicable).
  double churn_drop = 0.0;
};

Row run_cell(const std::string& arch, const idr::ScaleChaosParams& params,
             bool damping) {
  Row row;
  row.damping = damping;
  const auto t0 = std::chrono::steady_clock::now();
  row.res = idr::run_scale_chaos(arch, params);
  const auto t1 = std::chrono::steady_clock::now();
  row.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  row.rss_after_kb = idr::peak_rss_kb();
  std::fprintf(stderr,
               "%-6s %-14s damping=%d transitions=%-4zu conv=%7.1fms "
               "reconv=%8.1fms storm_msgs=%-8llu persistent=%llu\n",
               row.res.arch.c_str(), idr::to_string(row.res.storm), damping,
               row.res.storm_transitions, row.res.converge_ms,
               row.res.reconverge_ms,
               static_cast<unsigned long long>(row.res.updates_during_storm),
               static_cast<unsigned long long>(
                   row.res.invariants.persistent_violations()));
  return row;
}

void emit(std::FILE* out, const std::vector<Row>& rows,
          const idr::ScaleChaosParams& base) {
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"schema\": \"bench_chaos_scale/v1\",\n");
  std::fprintf(out, "  \"profile_seed\": %llu,\n",
               static_cast<unsigned long long>(base.seed));
  std::fprintf(out, "  \"beacons\": %u,\n", base.beacon_count);
  std::fprintf(out, "  \"runs\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    const idr::ScaleChaosResult& s = r.res;
    const double blast =
        s.invariants.fault_classes.size() > 1
            ? s.invariants.fault_classes[1].peak_blast
            : 0.0;
    std::fprintf(
        out,
        "    {\"arch\": \"%s\", \"storm\": \"%s\", \"ads\": %u, "
        "\"transit_ads\": %u, \"damping\": %s, \"ls_holddown_ms\": %.1f, "
        "\"storm_transitions\": %zu, \"converge_ms\": %.3f, "
        "\"reconverge_ms\": %.3f, \"storm_msgs\": %llu, "
        "\"post_storm_msgs\": %llu, \"storm_msgs_per_sec\": %.1f, "
        "\"churn_drop\": %.2f, \"peak_blast\": %.4f, "
        "\"transient_violations\": %llu, \"persistent_violations\": %llu, "
        "\"flaps\": %llu, \"routes_suppressed\": %llu, "
        "\"routes_reused\": %llu, \"suppressed_at_end\": %zu, "
        "\"ls_originations_suppressed\": %llu, "
        "\"counter_fingerprint\": %llu, \"wall_ms\": %.3f, "
        "\"rss_after_kb\": %ld}%s\n",
        s.arch.c_str(), idr::to_string(s.storm), s.ads, s.transit_ads,
        r.damping ? "true" : "false",
        0.0,  // LS hold-down A/B lives in chaos_soak, not the bench grid
        s.storm_transitions, s.converge_ms, s.reconverge_ms,
        static_cast<unsigned long long>(s.updates_during_storm),
        static_cast<unsigned long long>(s.updates_after_storm),
        s.updates_per_sec_storm, r.churn_drop, blast,
        static_cast<unsigned long long>(
            s.invariants.transient_violations()),
        static_cast<unsigned long long>(
            s.invariants.persistent_violations()),
        static_cast<unsigned long long>(s.flaps_recorded),
        static_cast<unsigned long long>(s.routes_suppressed),
        static_cast<unsigned long long>(s.routes_reused),
        s.suppressed_at_end,
        static_cast<unsigned long long>(s.ls_originations_suppressed),
        static_cast<unsigned long long>(s.counter_fingerprint), r.wall_ms,
        r.rss_after_kb, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::uint32_t ads = 10'000;
  std::string out_path = "BENCH_chaos_scale.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--ads") == 0 && i + 1 < argc) {
      ads = static_cast<std::uint32_t>(std::atol(argv[++i]));
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--ads N] [--out PATH]\n", argv[0]);
      return 2;
    }
  }

  idr::ScaleChaosParams base;
  base.target_ads = ads;
  // Longer flap storm than the soak default: suppression needs ~3
  // transitions per link to engage, and the damping A/B ratio below is
  // only meaningful once the suppressed steady state dominates the
  // pre-suppression waves (undamped churn grows linearly with cycle
  // count, damped churn plateaus once every flapping key is suppressed).
  base.flap_cycles = 24;

  std::vector<Row> rows;
  // Recovery-off sweep: every storm family x every design point. The
  // restart storm has its own A/B bench (bench_restart, emitting
  // BENCH_restart.json), so this grid stays the original 4x4.
  for (const idr::StormFamily storm : idr::storm_families()) {
    if (storm == idr::StormFamily::kRestartStorm) continue;
    for (const std::string& arch : idr::chaos_design_points()) {
      idr::ScaleChaosParams params = base;
      params.storm = storm;
      rows.push_back(run_cell(arch, params, /*damping=*/false));
    }
  }
  // Damping A/B for the DV family under the flap storm: the damped cell
  // reuses the undamped cell's churn for the drop ratio.
  for (const std::string& arch : {std::string("ecma"), std::string("idrp")}) {
    idr::ScaleChaosParams params = base;
    params.storm = idr::StormFamily::kFlapStorm;
    params.damping.enabled = true;
    params.damping.half_life_ms = 500.0;
    Row damped = run_cell(arch, params, /*damping=*/true);
    for (const Row& r : rows) {
      if (r.res.arch == arch && r.res.storm == idr::StormFamily::kFlapStorm &&
          !r.damping && damped.res.updates_during_storm > 0) {
        damped.churn_drop =
            static_cast<double>(r.res.updates_during_storm) /
            static_cast<double>(damped.res.updates_during_storm);
      }
    }
    rows.push_back(std::move(damped));
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  emit(out, rows, base);
  std::fclose(out);
  return 0;
}
