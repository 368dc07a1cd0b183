// bench_restart: graceful restart & control-plane overload protection
// A/B under the restart storm (BENCH_restart.json).
//
// For each design point, three cells over the hierarchical scale
// profile, all driven by the same staggered transit-core crash/restart
// schedule (StormFamily::kRestartStorm):
//
//   * cold      -- no graceful restart, no overload protection: every
//                  crash is observed immediately, neighbors withdraw,
//                  the restarted node resyncs from scratch. The
//                  forwarding-continuity baseline the GR cell is
//                  measured against.
//   * gr        -- graceful restart (grace window longer than the
//                  outage, so every window ends in a recovery handover)
//                  plus bounded class-prioritized ingress queues and
//                  deterministic tail drop. The gate cell: continuity
//                  through the storm must stay >= 99% and no persistent
//                  invariant violations may survive.
//   * gr-flush  -- grace window SHORTER than the outage: every grace
//                  window expires before the node returns, exercising
//                  the stale-flush path. The gate here is correctness
//                  (zero persistent stale-route violations after the
//                  flush), not continuity.
//
// Continuity is InvariantStats::continuity(): of the probes sent while
// node churn was in flight whose endpoints were up and which a
// transit-aliveness-blind ground truth says should have been
// deliverable (the GR promise), the fraction actually delivered over
// fresh paths. Cold cells keep the same denominator, which is what
// makes the gap attributable to GR.
//
// Standalone binary (not google-benchmark): one deterministic run per
// cell is the measurement; same seed, same storm schedule, same counter
// fingerprint. Peak-RSS caveat as in bench_chaos_scale.

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
  std::string mode;  // "cold" | "gr" | "gr-flush"
  double wall_ms = 0.0;
  long rss_after_kb = 0;
};

Row run_cell(const std::string& arch, const std::string& mode,
             const idr::ScaleChaosParams& params) {
  Row row;
  row.mode = mode;
  const auto t0 = std::chrono::steady_clock::now();
  row.res = idr::run_scale_chaos(arch, params);
  const auto t1 = std::chrono::steady_clock::now();
  row.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  row.rss_after_kb = idr::peak_rss_kb();
  std::fprintf(
      stderr,
      "%-6s %-8s crashes=%-3zu continuity=%6.2f%% (%llu/%llu) "
      "reconv=%8.1fms persistent=%llu recoveries=%llu flushes=%llu "
      "peak_q=%zu drops=%llu\n",
      row.res.arch.c_str(), mode.c_str(), row.res.node_crashes,
      100.0 * row.res.invariants.continuity(),
      static_cast<unsigned long long>(row.res.invariants.continuity_ok),
      static_cast<unsigned long long>(row.res.invariants.continuity_probes),
      row.res.reconverge_ms,
      static_cast<unsigned long long>(
          row.res.invariants.persistent_violations()),
      static_cast<unsigned long long>(row.res.gr_recoveries),
      static_cast<unsigned long long>(row.res.gr_flushes),
      row.res.overload.peak_depth,
      static_cast<unsigned long long>(row.res.overload.dropped_total()));
  return row;
}

void emit(std::FILE* out, const std::vector<Row>& rows,
          const idr::ScaleChaosParams& base) {
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"schema\": \"bench_restart/v1\",\n");
  std::fprintf(out, "  \"profile_seed\": %llu,\n",
               static_cast<unsigned long long>(base.seed));
  std::fprintf(out, "  \"beacons\": %u,\n", base.beacon_count);
  std::fprintf(out, "  \"restart_nodes\": %zu,\n", base.restart_nodes);
  std::fprintf(out, "  \"restart_waves\": %u,\n", base.restart_waves);
  std::fprintf(out, "  \"runs\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    const idr::ScaleChaosResult& s = r.res;
    std::fprintf(
        out,
        "    {\"arch\": \"%s\", \"mode\": \"%s\", \"ads\": %u, "
        "\"transit_ads\": %u, \"node_crashes\": %zu, "
        "\"converge_ms\": %.3f, \"reconverge_ms\": %.3f, "
        "\"continuity_pct\": %.4f, \"continuity_probes\": %llu, "
        "\"continuity_ok\": %llu, "
        "\"transient_violations\": %llu, \"persistent_violations\": %llu, "
        "\"gr_recoveries\": %llu, \"gr_flushes\": %llu, "
        "\"gr_stale_flushed\": %llu, \"gr_resyncs\": %llu, "
        "\"gr_retained\": %llu, \"gr_memoized\": %llu, "
        "\"queue_enqueued\": %llu, \"queue_served\": %llu, "
        "\"peak_queue_depth\": %zu, "
        "\"dropped_keepalive\": %llu, \"dropped_withdrawal\": %llu, "
        "\"dropped_update\": %llu, \"dropped_refresh\": %llu, "
        "\"cleared_on_crash\": %llu, "
        "\"storm_msgs\": %llu, \"post_storm_msgs\": %llu, "
        "\"counter_fingerprint\": %llu, \"wall_ms\": %.3f, "
        "\"rss_after_kb\": %ld}%s\n",
        s.arch.c_str(), r.mode.c_str(), s.ads, s.transit_ads, s.node_crashes,
        s.converge_ms, s.reconverge_ms, 100.0 * s.invariants.continuity(),
        static_cast<unsigned long long>(s.invariants.continuity_probes),
        static_cast<unsigned long long>(s.invariants.continuity_ok),
        static_cast<unsigned long long>(s.invariants.transient_violations()),
        static_cast<unsigned long long>(s.invariants.persistent_violations()),
        static_cast<unsigned long long>(s.gr_recoveries),
        static_cast<unsigned long long>(s.gr_flushes),
        static_cast<unsigned long long>(s.gr_stale_flushed),
        static_cast<unsigned long long>(s.gr_resyncs),
        static_cast<unsigned long long>(s.gr_retained),
        static_cast<unsigned long long>(s.gr_memoized),
        static_cast<unsigned long long>(s.overload.enqueued),
        static_cast<unsigned long long>(s.overload.served),
        s.overload.peak_depth,
        static_cast<unsigned long long>(
            s.overload.dropped[static_cast<std::size_t>(
                idr::MsgClass::kKeepalive)]),
        static_cast<unsigned long long>(
            s.overload.dropped[static_cast<std::size_t>(
                idr::MsgClass::kWithdrawal)]),
        static_cast<unsigned long long>(
            s.overload.dropped[static_cast<std::size_t>(
                idr::MsgClass::kUpdate)]),
        static_cast<unsigned long long>(
            s.overload.dropped[static_cast<std::size_t>(
                idr::MsgClass::kRefresh)]),
        static_cast<unsigned long long>(s.overload.cleared_on_crash),
        static_cast<unsigned long long>(s.updates_during_storm),
        static_cast<unsigned long long>(s.updates_after_storm),
        static_cast<unsigned long long>(s.counter_fingerprint), r.wall_ms,
        r.rss_after_kb, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::uint32_t ads = 10'000;
  std::string out_path = "BENCH_restart.json";
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
  base.storm = idr::StormFamily::kRestartStorm;

  // The overload knobs of the protected cells: bounded queues sized for
  // storm churn (not cold bring-up -- the driver arms them on the
  // settled network), strict class priority, deterministic tail drop.
  idr::OverloadConfig overload;
  overload.queue_limit = 64;
  overload.service_batch = 16;
  overload.service_interval_ms = 0.5;

  std::vector<Row> rows;
  for (const std::string& arch : idr::chaos_design_points()) {
    {
      idr::ScaleChaosParams params = base;  // cold: both knobs off
      rows.push_back(run_cell(arch, "cold", params));
    }
    {
      idr::ScaleChaosParams params = base;
      params.gr.enabled = true;
      params.gr.grace_ms = 2'000.0;  // > restart_down_ms: recovery in grace
      params.overload = overload;
      rows.push_back(run_cell(arch, "gr", params));
    }
    {
      idr::ScaleChaosParams params = base;
      params.gr.enabled = true;
      params.gr.grace_ms = 150.0;      // < outage: every grace expires...
      params.restart_down_ms = 600.0;  // ...and the stale flush must run
      params.overload = overload;
      rows.push_back(run_cell(arch, "gr-flush", params));
    }
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
