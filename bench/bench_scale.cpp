// bench_scale: paper-scale engine baseline (BENCH_scale.json) and the
// sharded-parallel engine bench (--threads -> BENCH_parallel.json).
//
// Baseline mode stands up the hierarchical scale profile
// (core/scale_profile.*) at AD counts 1e2..1e5 for each of the four
// design points, runs each internet to full convergence on the
// calendar-queue engine, and emits one JSON row per (arch, size) with
// the throughput/overhead numbers the CI regression gate
// (tools/check_bench_scale.py) and EXPERIMENTS.md track: events
// processed, wall time, events/sec, control-plane messages and bytes
// (bytes/event), simulated convergence time, peak RSS, and the
// delivered fraction of sampled stub->beacon probes.
//
// Parallel mode (--threads T1,T2,...) runs the largest size on the
// 8-shard conservative-window engine at each thread count and emits
// BENCH_parallel.json for tools/check_bench_parallel.py. Two speedups
// are reported per design point:
//   * critical_path_speedup -- deterministic available parallelism,
//     (parallel + control events) / (per-window busiest shard + control
//     events): host-independent, identical on every machine;
//   * wall speedup per thread count -- the measured ratio, meaningful
//     only when the host actually has that many cores (host_cpus is
//     recorded so the gate can tell).
// Every parallel run must reproduce the sequential fingerprint and
// event count exactly; the bench records the comparison per cell.
//
// Standalone binary (not google-benchmark): one converged run per cell
// is the measurement; determinism comes from the fixed profile seed.
//
// Peak-RSS caveat: getrusage(RUSAGE_SELF).ru_maxrss is a process-wide
// high-water mark, so sizes run ascending and each row reports the mark
// before and after its run; the per-run delta is only meaningful for the
// largest size so far.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/design_harness.hpp"
#include "core/scale_profile.hpp"
#include "sim/engine.hpp"
#include "sim/invariants.hpp"
#include "sim/network.hpp"
#include "sim/shard.hpp"
#include "util/check.hpp"
#include "util/prng.hpp"
#include "util/stats.hpp"

namespace {

constexpr std::uint64_t kProfileSeed = 0x5ca1eULL;
constexpr std::uint32_t kBeacons = 64;
constexpr std::size_t kProbes = 256;
constexpr std::size_t kMaxEvents = 2'000'000'000;

struct Row {
  std::string arch;
  std::uint32_t ads = 0;
  std::uint32_t transit_ads = 0;
  std::size_t links = 0;
  std::uint64_t events = 0;
  double wall_ms = 0.0;
  double events_per_sec = 0.0;
  std::uint64_t msgs_sent = 0;
  std::uint64_t bytes_sent = 0;
  double bytes_per_event = 0.0;
  double convergence_ms = 0.0;  // simulated time of the last event
  std::size_t probes = 0;
  std::size_t probe_delivered = 0;
  long rss_before_kb = 0;
  long rss_after_kb = 0;
};

Row run_cell(const std::string& arch, idr::ScaleProfile& profile) {
  Row row;
  row.arch = arch;
  row.ads = static_cast<std::uint32_t>(profile.topo.ad_count());
  row.transit_ads = static_cast<std::uint32_t>(profile.transits.size());
  row.links = profile.topo.link_count();
  row.rss_before_kb = idr::peak_rss_kb();

  idr::Engine engine(idr::SchedulerKind::kCalendar);
  idr::Network net(engine, profile.topo);
  const auto factory = idr::make_scale_factory(arch, profile);
  net.set_node_factory(factory);
  for (const idr::Ad& ad : profile.topo.ads()) {
    net.attach(ad.id, factory(ad.id));
  }

  const auto t0 = std::chrono::steady_clock::now();
  net.start_all();
  row.events = engine.run(kMaxEvents);
  const auto t1 = std::chrono::steady_clock::now();
  IDR_CHECK_MSG(engine.empty(), "scale run hit the event cap");

  row.wall_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  row.events_per_sec =
      row.wall_ms > 0.0 ? row.events / (row.wall_ms / 1e3) : 0.0;
  row.convergence_ms = engine.now();
  row.msgs_sent = net.total().msgs_sent;
  row.bytes_sent = net.total().bytes_sent;
  row.bytes_per_event =
      row.events > 0 ? static_cast<double>(row.bytes_sent) /
                           static_cast<double>(row.events)
                     : 0.0;

  // Data-plane sanity at the converged horizon: sampled stub->beacon
  // probes through the design's own forwarding walk.
  const auto probe = idr::make_design_probe(arch, net, profile.topo);
  idr::Prng prng(kProfileSeed ^ 0x9e3779b97f4a7c15ULL);
  const std::size_t n = profile.topo.ad_count();
  for (std::size_t i = 0; i < kProbes; ++i) {
    const idr::AdId src{static_cast<std::uint32_t>(prng.below(n))};
    const idr::AdId dst =
        profile.beacons[prng.below(profile.beacons.size())];
    if (src == dst) continue;
    idr::FlowSpec flow;
    flow.src = src;
    flow.dst = dst;
    ++row.probes;
    if (probe(flow).outcome == idr::ProbeOutcome::kDelivered) {
      ++row.probe_delivered;
    }
  }
  row.rss_after_kb = idr::peak_rss_kb();
  return row;
}

void emit(std::FILE* out, const std::vector<Row>& rows) {
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"schema\": \"bench_scale/v1\",\n");
  std::fprintf(out, "  \"profile_seed\": %llu,\n",
               static_cast<unsigned long long>(kProfileSeed));
  std::fprintf(out, "  \"beacons\": %u,\n", kBeacons);
  std::fprintf(out, "  \"runs\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(
        out,
        "    {\"arch\": \"%s\", \"ads\": %u, \"transit_ads\": %u, "
        "\"links\": %zu, \"events\": %llu, \"wall_ms\": %.3f, "
        "\"events_per_sec\": %.1f, \"msgs_sent\": %llu, "
        "\"bytes_sent\": %llu, \"bytes_per_event\": %.2f, "
        "\"convergence_ms\": %.3f, \"probes\": %zu, "
        "\"probe_delivered\": %zu, \"rss_before_kb\": %ld, "
        "\"rss_after_kb\": %ld}%s\n",
        r.arch.c_str(), r.ads, r.transit_ads, r.links,
        static_cast<unsigned long long>(r.events), r.wall_ms,
        r.events_per_sec, static_cast<unsigned long long>(r.msgs_sent),
        static_cast<unsigned long long>(r.bytes_sent), r.bytes_per_event,
        r.convergence_ms, r.probes, r.probe_delivered, r.rss_before_kb,
        r.rss_after_kb, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
}

// --- parallel mode (--threads) ------------------------------------------

constexpr std::uint32_t kParallelShards = 8;

struct ParallelCell {
  unsigned threads = 0;  // 0 = inline windows on the driving thread
  double wall_ms = 0.0;
  double events_per_sec = 0.0;
  double wall_speedup = 0.0;  // sequential wall / this wall
  bool fingerprint_match = false;
  bool events_match = false;
};

struct ParallelRun {
  std::string arch;
  std::uint32_t ads = 0;
  std::uint64_t events = 0;       // sequential reference
  double seq_wall_ms = 0.0;
  double seq_events_per_sec = 0.0;
  std::uint64_t windows = 0;
  std::uint64_t control_events = 0;
  double lookahead_ms = 0.0;
  double balance_factor = 0.0;
  double critical_path_speedup = 0.0;
  std::vector<ParallelCell> cells;
};

struct ConvergedRun {
  std::uint64_t events = 0;
  double wall_ms = 0.0;
  std::uint64_t fingerprint = 0;
  idr::ParallelStats stats;
};

ConvergedRun run_converged(const std::string& arch,
                           idr::ScaleProfile& profile,
                           const idr::ShardPlan* plan, unsigned threads) {
  idr::Engine engine(idr::SchedulerKind::kCalendar);
  if (plan) engine.enable_sharding(*plan, threads);
  idr::Network net(engine, profile.topo);
  const auto factory = idr::make_scale_factory(arch, profile);
  net.set_node_factory(factory);
  for (const idr::Ad& ad : profile.topo.ads()) {
    net.attach(ad.id, factory(ad.id));
  }
  const auto t0 = std::chrono::steady_clock::now();
  net.start_all();
  ConvergedRun run;
  run.events = engine.run(kMaxEvents);
  const auto t1 = std::chrono::steady_clock::now();
  IDR_CHECK_MSG(engine.empty(), "scale run hit the event cap");
  run.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  run.fingerprint = idr::counter_fingerprint(net, profile.topo);
  if (const idr::ParallelStats* stats = engine.parallel_stats()) {
    run.stats = *stats;
  }
  return run;
}

ParallelRun run_parallel_arch(const std::string& arch,
                              idr::ScaleProfile& profile,
                              const std::vector<unsigned>& thread_counts) {
  ParallelRun out;
  out.arch = arch;
  out.ads = static_cast<std::uint32_t>(profile.topo.ad_count());

  const ConvergedRun seq = run_converged(arch, profile, nullptr, 0);
  out.events = seq.events;
  out.seq_wall_ms = seq.wall_ms;
  out.seq_events_per_sec =
      seq.wall_ms > 0.0 ? seq.events / (seq.wall_ms / 1e3) : 0.0;

  const idr::ShardPlan plan =
      idr::make_scale_shard_plan(profile, kParallelShards);
  out.lookahead_ms = plan.lookahead_ms;
  out.balance_factor = plan.balance_factor();

  for (const unsigned threads : thread_counts) {
    const ConvergedRun par = run_converged(arch, profile, &plan, threads);
    ParallelCell cell;
    cell.threads = threads;
    cell.wall_ms = par.wall_ms;
    cell.events_per_sec =
        par.wall_ms > 0.0 ? par.events / (par.wall_ms / 1e3) : 0.0;
    cell.wall_speedup = par.wall_ms > 0.0 ? seq.wall_ms / par.wall_ms : 0.0;
    cell.fingerprint_match = par.fingerprint == seq.fingerprint;
    cell.events_match = par.events == seq.events;
    out.cells.push_back(cell);
    // The stats are thread-count-independent; keep the last run's copy.
    out.windows = par.stats.windows;
    out.control_events = par.stats.control_events;
    out.critical_path_speedup = par.stats.critical_path_speedup();
    std::fprintf(stderr,
                 "%-6s shards=%u threads=%u wall=%8.1fms speedup=%5.2fx "
                 "cp-speedup=%5.2fx fp=%s events=%s\n",
                 arch.c_str(), kParallelShards, threads, par.wall_ms,
                 cell.wall_speedup, out.critical_path_speedup,
                 cell.fingerprint_match ? "match" : "MISMATCH",
                 cell.events_match ? "match" : "MISMATCH");
  }
  return out;
}

void emit_parallel(std::FILE* out, const std::vector<ParallelRun>& runs) {
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"schema\": \"bench_parallel/v1\",\n");
  std::fprintf(out, "  \"profile_seed\": %llu,\n",
               static_cast<unsigned long long>(kProfileSeed));
  std::fprintf(out, "  \"shards\": %u,\n", kParallelShards);
  std::fprintf(out, "  \"host_cpus\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(out, "  \"runs\": [\n");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const ParallelRun& r = runs[i];
    std::fprintf(out,
                 "    {\"arch\": \"%s\", \"ads\": %u, \"events\": %llu, "
                 "\"seq_wall_ms\": %.3f, \"seq_events_per_sec\": %.1f, "
                 "\"windows\": %llu, \"control_events\": %llu, "
                 "\"lookahead_ms\": %.3f, \"balance_factor\": %.3f, "
                 "\"critical_path_speedup\": %.3f, \"threads\": [\n",
                 r.arch.c_str(), r.ads,
                 static_cast<unsigned long long>(r.events), r.seq_wall_ms,
                 r.seq_events_per_sec,
                 static_cast<unsigned long long>(r.windows),
                 static_cast<unsigned long long>(r.control_events),
                 r.lookahead_ms, r.balance_factor, r.critical_path_speedup);
    for (std::size_t j = 0; j < r.cells.size(); ++j) {
      const ParallelCell& c = r.cells[j];
      std::fprintf(out,
                   "      {\"threads\": %u, \"wall_ms\": %.3f, "
                   "\"events_per_sec\": %.1f, \"wall_speedup\": %.3f, "
                   "\"fingerprint_match\": %s, \"events_match\": %s}%s\n",
                   c.threads, c.wall_ms, c.events_per_sec, c.wall_speedup,
                   c.fingerprint_match ? "true" : "false",
                   c.events_match ? "true" : "false",
                   j + 1 < r.cells.size() ? "," : "");
    }
    std::fprintf(out, "    ]}%s\n", i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::uint32_t max_ads = 100'000;
  std::string out_path;
  std::vector<unsigned> thread_counts;  // non-empty => parallel mode
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--max-ads") == 0 && i + 1 < argc) {
      max_ads = static_cast<std::uint32_t>(std::atol(argv[++i]));
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      for (const char* p = argv[++i]; *p != '\0';) {
        thread_counts.push_back(
            static_cast<unsigned>(std::strtoul(p, const_cast<char**>(&p), 10)));
        if (*p == ',') ++p;
      }
    } else {
      std::fprintf(stderr,
                   "usage: %s [--max-ads N] [--out PATH] [--threads T1,T2,..]\n",
                   argv[0]);
      return 2;
    }
  }
  if (out_path.empty()) {
    out_path =
        thread_counts.empty() ? "BENCH_scale.json" : "BENCH_parallel.json";
  }

  if (!thread_counts.empty()) {
    // Parallel mode: the largest requested size only, 8 shards, one run
    // per (arch, thread count) against the sequential reference.
    idr::ScaleProfile profile =
        idr::make_scale_profile(max_ads, kProfileSeed, kBeacons);
    std::vector<ParallelRun> runs;
    for (const std::string& arch : idr::design_point_names()) {
      runs.push_back(run_parallel_arch(arch, profile, thread_counts));
    }
    std::FILE* out = std::fopen(out_path.c_str(), "w");
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
      return 1;
    }
    emit_parallel(out, runs);
    std::fclose(out);
    return 0;
  }

  std::vector<Row> rows;
  for (const std::uint32_t size : {100u, 1'000u, 10'000u, 100'000u}) {
    if (size > max_ads) break;  // ascending: RSS high-water stays honest
    idr::ScaleProfile profile =
        idr::make_scale_profile(size, kProfileSeed, kBeacons);
    for (const std::string& arch : idr::design_point_names()) {
      rows.push_back(run_cell(arch, profile));
      const Row& r = rows.back();
      std::fprintf(stderr,
                   "%-6s ads=%-7u events=%-10llu wall=%8.1fms "
                   "ev/s=%12.0f conv=%8.1fms delivered=%zu/%zu\n",
                   r.arch.c_str(), r.ads,
                   static_cast<unsigned long long>(r.events), r.wall_ms,
                   r.events_per_sec, r.convergence_ms, r.probe_delivered,
                   r.probes);
    }
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  emit(out, rows);
  std::fclose(out);
  return 0;
}
