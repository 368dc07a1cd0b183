// perfbench_cell: one (workload, design point) cell of the repository
// benchmark. run.py starts one process per design point so that each
// cell's peak RSS belongs to that design point alone, then merges the
// cells' JSON into the benchmark's result line.
//
// The cell measures the simulator from the outside: it times calls into
// the public API of each module (make_scale_profile, the node factory and
// Network::attach, Network::start_all, Engine::run / run_until,
// make_design_probe, Network::set_link_state, Engine::enable_sharding)
// and reads the public counters each layer already keeps. It never
// changes what it measures: the work done in a run is a pure function of
// (workload, --ads, --seed, --seconds), never of the clock, so every
// exact counter repeats bit for bit.
//
//   perfbench_cell --workload W --arch A --seed N --seconds S --trace 0|1
//                  [--ads N] [--run-id ID] --out FILE [--spans FILE]
//
// The cell takes turns with its siblings over stdin/stdout (see turn()),
// so it runs only under run.py.
//
// With --trace 1 the cell runs the workload twice: untraced (timings
// only) and traced (spans around every call above, the engine driven in
// run_until slices with pending() sampled, queries classified by counter
// diffs). It checks that both passes produce identical exact counters
// and reports the difference in measured time as the tracing overhead.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/design_harness.hpp"
#include "core/scale_profile.hpp"
#include "proto/ecma/ecma_node.hpp"
#include "proto/idrp/idrp_node.hpp"
#include "proto/lshh/lshh_node.hpp"
#include "proto/orwg/orwg_node.hpp"
#include "sim/engine.hpp"
#include "sim/invariants.hpp"
#include "sim/network.hpp"
#include "sim/shard.hpp"
#include "util/check.hpp"
#include "util/prng.hpp"

namespace {

using idr::AdId;

constexpr std::uint64_t kProfileSeed = 0x5ca1eULL;
constexpr std::uint32_t kBeacons = 64;
constexpr std::uint32_t kShards = 8;
constexpr std::size_t kEventCap = 200'000'000;
constexpr double kSliceMs = 1.0;        // run_until slice in traced passes
// Traffic parameters. README.md ("Traffic parameters") gives the basis of
// each; changing one changes what every end-to-end metric measures.
constexpr std::size_t kHotSet = kBeacons;  // Zipf-skewed destination hot set
constexpr double kZipfExponent = 1.0;
constexpr std::size_t kWriteEvery = 40;    // queries-1e4: every M-th op a write
constexpr std::uint64_t kChurnSeed = 0xf1a9ULL;  // which links writes/storms flip
// One flap storm: core/chaos's kFlapStorm shape (8 links, 200 ms period,
// duty 0.5), one cycle per storm.
constexpr std::size_t kStormLinks = 8;
constexpr double kStormWindowMs = 200.0;  // each link goes down at a seeded phase
constexpr double kStormDownMs = 100.0;    // ... and comes back this much later

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile; 0 when there are no samples.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

// Fold a 64-bit fingerprint to 53 bits so a JSON double carries it exactly.
double fold53(std::uint64_t fp) {
  return static_cast<double>((fp ^ (fp >> 53)) & ((1ULL << 53) - 1));
}

// --- tracing ---------------------------------------------------------------

// In-memory spans, written once at exit. A span's parent is the span open
// when it began, so self time = duration minus the children's durations.
class Tracer {
 public:
  bool on = false;

  int begin(const char* name) {
    if (!on) return -1;
    spans_.push_back({name, now_s(), 0.0, stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void end(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].t1 = now_s();
    stack_.pop_back();
  }
  void write(const std::string& path, const std::string& run_id,
             const std::string& cell) const {
    if (path.empty()) return;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"run\": \"%s\", \"cell\": \"%s\", \"id\": %zu, "
                   "\"parent\": %d, \"name\": \"%s\", \"t0\": %.9f, "
                   "\"t1\": %.9f}\n",
                   run_id.c_str(), cell.c_str(), i, s.parent, s.name,
                   s.t0, s.t1);
    }
    std::fclose(f);
  }

 private:
  struct Span {
    const char* name;
    double t0, t1;
    int parent;
  };
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

Tracer g_tracer;

struct ScopedSpan {
  explicit ScopedSpan(const char* name) : id(g_tracer.begin(name)) {}
  ~ScopedSpan() { g_tracer.end(id); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id;
};

// Reference probe, run at every turn: a fixed memory-bound loop (400k
// dependent random reads over 8 MiB, ~1.2 ms). run.py scales every
// wall-clock metric by (nominal probe time / median probe time of the
// run), which cancels most of the host's run-to-run speed drift
// (README.md, "Noise"). An untimed pass first pulls the buffer back into
// cache, so the timed passes measure the host's speed, not how much of the
// buffer the simulator's previous sample evicted. Several timed passes per
// turn keep the run's median steady on workloads with few turns.
constexpr int kProbePasses = 4;
std::vector<double> g_probe_s;

std::uint64_t probe_pass(const std::vector<std::uint32_t>& buf) {
  std::uint64_t x = 1, acc = 0;
  for (int k = 0; k < 400'000; ++k) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    acc += buf[(x >> 33) & (buf.size() - 1)];
  }
  return acc;
}

void reference_probe() {
  static std::vector<std::uint32_t> buf;
  static std::uint64_t sink = 0;
  if (buf.empty()) {
    buf.resize(1u << 21);
    for (std::size_t i = 0; i < buf.size(); ++i) {
      buf[i] = static_cast<std::uint32_t>(i * 2654435761u);
    }
  }
  sink += probe_pass(buf);
  for (int i = 0; i < kProbePasses; ++i) {
    const double t0 = now_s();
    sink += probe_pass(buf);
    g_probe_s.push_back(now_s() - t0);
  }
}

// Turn-taking with run.py. run.py keeps the four design points' cells
// alive at once and lets one run at a time, round-robin, one sample (a
// set-up, a convergence, a write, a storm) per turn. The host's speed
// drifts by up to 1.5x in phases of seconds, so each metric's samples are
// spread over the whole run instead of one stretch of it, while each
// design point keeps its own process (and its own peak RSS).
void turn() {
  {
    ScopedSpan wait("turn.wait");
    std::fputs("ready\n", stdout);
    std::fflush(stdout);
    char line[16];
    if (!std::fgets(line, sizeof line, stdin)) std::exit(3);  // run.py is gone
  }
  ScopedSpan span("host.reference_probe");
  reference_probe();
}

// --- options -----------------------------------------------------------------

struct Options {
  std::string workload;
  std::string arch;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::uint32_t ads = 0;  // 0 = the workload's size
  std::string run_id = "run";
  std::string out;
  std::string spans;
};

// Work per run, derived from --seconds by fixed factors (never from the
// clock, so counters repeat). The factors size a run near --seconds of
// measured work per cell set on a 4-CPU host.
struct Plan {
  std::uint32_t ads = 10'000;
  bool sharded = false;
  std::size_t setup_reps = 3;     // set-ups timed (median reported)
  std::size_t converge_reps = 1;  // cold convergences timed
  std::size_t queries = 2'000;    // probes / route queries
  std::size_t write_every = 0;    // queries-1e4: every M-th op is a write
  std::size_t storms = 0;         // flap-storm-1e4: storms run
};

// Worker threads of a sharded engine: min(4, nproc), so the load never
// asks for more threads than the host has.
unsigned shard_threads() {
  return std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
}

Plan make_plan(const Options& o) {
  Plan p;
  const double scale = o.seconds / 20.0;
  const auto scaled = [scale](double base, std::size_t floor) {
    return std::max<std::size_t>(floor,
                                 static_cast<std::size_t>(base * scale + 0.5));
  };
  if (o.workload == "converge-1e5") {
    p.ads = 100'000;
    p.setup_reps = 3;
    p.converge_reps = 1;
    p.queries = 2'000;
  } else if (o.workload == "converge-1e4-sharded") {
    p.sharded = true;
    p.converge_reps = scaled(12, 3);
    p.queries = scaled(4'000, 1'000);
  } else if (o.workload == "queries-1e4") {
    // Each set-up includes a cold convergence that swings with the host,
    // so the set-up median needs more samples here.
    p.setup_reps = 5;
    p.queries = scaled(4'000, 1'000);
    p.write_every = kWriteEvery;
  } else if (o.workload == "flap-storm-1e4") {
    p.setup_reps = 5;
    // An IDRP storm costs ~10x the others'; the cheap ones need more
    // samples for a steady median.
    p.storms = o.arch == "idrp" ? scaled(10, 3) : scaled(30, 3);
    p.queries = scaled(4'000, 1'000);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", o.workload.c_str());
    std::exit(2);
  }
  if (o.ads) p.ads = o.ads;
  return p;
}

// --- one stood-up design point ----------------------------------------------

struct Internet {
  std::unique_ptr<idr::ScaleProfile> profile;
  std::unique_ptr<idr::ShardPlan> plan;
  std::unique_ptr<idr::Engine> engine;
  std::unique_ptr<idr::Network> net;
  double build_s = 0.0;
  double attach_s = 0.0;
};

// Profile build + (optional) shard plan + node attach: the set-up every
// workload pays before its trigger. shards <= 1 keeps the engine
// sequential.
Internet stand_up(const std::string& arch, std::uint32_t ads,
                  std::uint32_t shards, unsigned threads) {
  Internet in;
  double t0 = now_s();
  {
    ScopedSpan span("topology.make_scale_profile");
    in.profile = std::make_unique<idr::ScaleProfile>(
        idr::make_scale_profile(ads, kProfileSeed, kBeacons));
  }
  double t1 = now_s();
  in.build_s = t1 - t0;
  {
    ScopedSpan span("core.attach");
    in.engine = std::make_unique<idr::Engine>(idr::SchedulerKind::kCalendar);
    if (shards > 1) {
      ScopedSpan shard_span("sim.enable_sharding");
      in.plan = std::make_unique<idr::ShardPlan>(
          idr::make_scale_shard_plan(*in.profile, shards));
      in.engine->enable_sharding(*in.plan, threads);
    }
    in.net = std::make_unique<idr::Network>(*in.engine, in.profile->topo);
    const auto factory = idr::make_scale_factory(arch, *in.profile);
    in.net->set_node_factory(factory);
    for (const idr::Ad& ad : in.profile->topo.ads()) {
      in.net->attach(ad.id, factory(ad.id));
    }
  }
  in.attach_s = now_s() - t1;
  return in;
}

// --- driving the engine to quiescence ----------------------------------------

// One trigger-to-drained-queue phase and the exact work it did.
struct Phase {
  double wall_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
  double sim_ms = 0.0;  // simulated time from trigger to the last delivery
  std::size_t pending_max = 0;

  Phase& operator+=(const Phase& o) {
    wall_s += o.wall_s;
    events += o.events;
    msgs += o.msgs;
    bytes += o.bytes;
    sim_ms += o.sim_ms;
    pending_max = std::max(pending_max, o.pending_max);
    return *this;
  }
};

// Run `trigger` (start_all, a link flip, a storm schedule), then drain.
// Traced passes drive a sequential engine in run_until slices and sample
// pending(); sharded engines always drain in one run() call because the
// slice boundaries would add windows. A drain that reaches kEventCap
// aborts the cell, as Engine::run does, and run.py then fails the command
// without a result line.
template <class Trigger>
Phase drive(Internet& in, bool traced, const char* span_name,
            Trigger&& trigger) {
  idr::Engine& engine = *in.engine;
  idr::Network& net = *in.net;
  Phase ph;
  const std::uint64_t ev0 = engine.events_processed();
  const idr::Counters c0 = net.total();
  const double sim0 = engine.now();
  ScopedSpan span(span_name);
  const double t0 = now_s();
  trigger();
  if (traced && !engine.sharded()) {
    ph.pending_max = engine.pending();
    while (!engine.empty()) {
      IDR_CHECK_MSG(engine.events_processed() - ev0 < kEventCap,
                    "simulation exceeded the event cap");
      ScopedSpan slice("sim.run_until");
      engine.run_until(engine.now() + kSliceMs);
      ph.pending_max = std::max(ph.pending_max, engine.pending());
    }
  } else {
    ScopedSpan run("sim.run");
    engine.run(kEventCap);
  }
  ph.wall_s = now_s() - t0;
  ph.events = engine.events_processed() - ev0;
  const idr::Counters c1 = net.total();
  ph.msgs = c1.msgs_sent - c0.msgs_sent;
  ph.bytes = c1.bytes_sent - c0.bytes_sent;
  ph.sim_ms = std::max(0.0, net.last_delivery_time() - sim0);
  return ph;
}

Phase cold_converge(Internet& in, bool traced, double* start_s) {
  return drive(in, traced, "sim.converge", [&] {
    ScopedSpan span("sim.start_all");
    const double t0 = now_s();
    in.net->start_all();
    *start_s = now_s() - t0;
  });
}

// --- query stream --------------------------------------------------------------

// Seeded flow stream: sources uniform over all ADs; half the destinations
// from a Zipf-skewed hot set (fixed by the profile), half uniform; QoS and UCI uniform. DV
// designs only carry routes to the profile's beacons, so their
// destinations are drawn from the beacons; the profile deploys ECMA with a
// single traffic class, so its flows keep the default QoS.
class FlowStream {
 public:
  FlowStream(const std::string& arch, const idr::ScaleProfile& profile,
             std::uint64_t seed)
      : prng_(seed ^ 0x9e3779b97f4a7c15ULL),
        n_(profile.topo.ad_count()),
        qos_classes_(arch == "ecma" ? 1 : idr::kQosCount) {
    const bool dv = arch == "ecma" || arch == "idrp";
    if (dv) {
      dests_ = profile.beacons;
    } else {
      for (const idr::Ad& ad : profile.topo.ads()) dests_.push_back(ad.id);
    }
    // The hot set is part of the profile, not of the stream: which ADs are
    // hot moves query cost more than the stream itself does.
    hot_ = dests_;
    idr::Prng hot_prng(kProfileSeed);
    hot_prng.shuffle(hot_);
    hot_.resize(std::min(kHotSet, hot_.size()));
    double acc = 0.0;
    for (std::size_t r = 1; r <= hot_.size(); ++r) {
      acc += 1.0 / std::pow(static_cast<double>(r), kZipfExponent);
      cdf_.push_back(acc);
    }
    for (double& c : cdf_) c /= acc;
  }

  idr::FlowSpec next() {
    idr::FlowSpec f;
    do {
      f.src = AdId{static_cast<std::uint32_t>(prng_.below(n_))};
      if (prng_.bernoulli(0.5)) {
        const double u = prng_.uniform01();
        const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
        f.dst = hot_[std::min<std::size_t>(it - cdf_.begin(), hot_.size() - 1)];
      } else {
        f.dst = prng_.pick(dests_);
      }
    } while (f.src == f.dst);
    f.qos = static_cast<idr::Qos>(prng_.below(qos_classes_));
    f.uci = static_cast<idr::UserClass>(prng_.below(idr::kUserClassCount));
    return f;
  }

  idr::Prng& prng() { return prng_; }

 private:
  idr::Prng prng_;
  std::size_t n_;
  std::uint64_t qos_classes_;
  std::vector<AdId> dests_;
  std::vector<AdId> hot_;
  std::vector<double> cdf_;
};

// Per-node decision-process counters the traced pass diffs around each
// query to classify it (cache hit vs. recomputation) and count its
// expansions. Only LS-HbH and ORWG keep them.
struct NodeWork {
  std::uint64_t computed = 0;  // path computations / synthesis calls
  std::uint64_t hits = 0;
  std::uint64_t expansions = 0;
};

NodeWork node_work(const std::string& arch, idr::Network& net, AdId ad) {
  NodeWork w;
  if (arch == "ls-hbh") {
    if (auto* n = static_cast<idr::LshhNode*>(net.node(ad))) {
      w = {n->path_computations(), n->cache_hits(), n->total_expansions()};
    }
  } else if (arch == "orwg") {
    if (auto* n = static_cast<idr::OrwgNode*>(net.node(ad))) {
      const idr::RouteServer& rs = n->route_server();
      w = {rs.synth_calls(), rs.cache_hits(), rs.total_expansions()};
    }
  }
  return w;
}

bool has_query_layer(const std::string& arch) {
  return arch == "ls-hbh" || arch == "orwg";
}

// Query results for one cell. Latencies are the timed probe calls only;
// the ground-truth check runs outside the timed call.
struct Queries {
  std::vector<double> all_us;
  std::vector<double> hit_us, miss_us, post_churn_us;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::uint64_t hops = 0, delivered = 0, expansions = 0;
  std::uint64_t digest = 0;  // order-sensitive digest of the answers
  std::vector<std::string> failures;
};

class QueryRunner {
 public:
  QueryRunner(const std::string& arch, Internet& in, bool traced)
      : arch_(arch),
        in_(in),
        traced_(traced && has_query_layer(arch)),
        probe_(idr::make_design_probe(arch, *in.net, in.profile->topo)),
        reachable_(idr::make_design_reachable(
            arch, *in.net, in.profile->topo, in.profile->policies,
            &in.profile->order)) {
    resnapshot();
  }

  // After engine work (writes, storms) every node's counters may move.
  void resnapshot() {
    if (!traced_) return;
    const std::size_t n = in_.profile->topo.ad_count();
    work_.resize(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      work_[i] = node_work(arch_, *in_.net, AdId{i});
    }
  }

  void run(const idr::FlowSpec& flow, bool post_churn, Queries& q) {
    idr::Probe p;
    double t0 = 0.0, t1 = 0.0;
    {
      ScopedSpan span("core.query");
      t0 = now_s();
      p = probe_(flow);
      t1 = now_s();
    }
    const double us = (t1 - t0) * 1e6;
    q.all_us.push_back(us);
    ++q.attempted;
    const bool delivered = p.outcome == idr::ProbeOutcome::kDelivered;
    q.digest = q.digest * 1099511628211ULL +
                  (delivered ? p.path.size() : 0) + 1;
    if (delivered) {
      ++q.delivered;
      q.hops += p.path.size() - 1;
      if (p.path.front() != flow.src || p.path.back() != flow.dst) {
        fail(q, flow, "delivered over a path with the wrong endpoints");
      }
    } else {
      ScopedSpan span("core.ground_truth");
      if (reachable_(flow.src, flow.dst)) {
        fail(q, flow, "not delivered but reachable by ground truth");
      }
    }
    if (traced_) classify(p, flow, us, post_churn, q);
  }

 private:
  void fail(Queries& q, const idr::FlowSpec& flow, const char* why) {
    ++q.failed;
    if (q.failures.size() < 8) {
      q.failures.push_back(arch_ + " query " + std::to_string(flow.src.v) +
                           "->" + std::to_string(flow.dst.v) + ": " + why);
    }
  }

  // Only the ADs on the walk (plus, for ORWG, the source's transit
  // parents, whose route server answers a stub) can have moved counters.
  void classify(const idr::Probe& p, const idr::FlowSpec& flow, double us,
                bool post_churn, Queries& q) {
    std::vector<AdId> touched = p.path;
    if (arch_ == "orwg") {
      for (const idr::Adjacency& adj :
           in_.profile->topo.neighbors(flow.src)) {
        if (in_.profile->topo.can_transit(adj.neighbor)) {
          touched.push_back(adj.neighbor);
        }
      }
    }
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    NodeWork delta;
    for (const AdId ad : touched) {
      const NodeWork now = node_work(arch_, *in_.net, ad);
      NodeWork& was = work_[ad.v];
      delta.computed += now.computed - was.computed;
      delta.hits += now.hits - was.hits;
      delta.expansions += now.expansions - was.expansions;
      was = now;
    }
    q.expansions += delta.expansions;
    (delta.computed == 0 ? q.hit_us : q.miss_us).push_back(us);
    if (post_churn) q.post_churn_us.push_back(us);
  }

  std::string arch_;
  Internet& in_;
  bool traced_;
  idr::FlowProbeFn probe_;
  idr::InvariantMonitor::ReachableFn reachable_;
  std::vector<NodeWork> work_;
};

// --- one pass of a workload ---------------------------------------------------

struct Pass {
  std::vector<double> setup_s, build_s, attach_s, start_s;
  Phase measured;                   // the timed trigger-to-drain phases
  std::vector<double> converge_s;   // one sample per timed phase
  Queries queries;
  std::size_t attempted = 0;        // exactness checks (repetitions, backends)
  std::size_t failed = 0;
  std::vector<std::string> failures;
  std::uint64_t fingerprint = 0;
  idr::ParallelStats shard_stats;
  double seq_s = 0.0, inline_s = 0.0;
  double balance_factor = 0.0, lookahead_ms = 0.0;  // shard plan
  std::size_t ads = 0, links = 0;
  double rss_mb = 0.0;  // peak RSS of one internet of the design point
  std::map<std::string, double> proto;  // proto.* counters at the end

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures.size() < 8) failures.push_back(what);
    }
  }
};

// The decision-process state and work counters of every node, summed.
void read_proto(const std::string& arch, Internet& in, Pass& pass) {
  std::map<std::string, double>& m = pass.proto;
  const auto add = [&m](const char* key, double v) { m[key] += v; };
  for (const idr::Ad& ad : in.profile->topo.ads()) {
    idr::Node* node = in.net->node(ad.id);
    if (!node) continue;
    if (arch == "ecma") {
      add("proto.ecma.fib_entries",
          static_cast<double>(static_cast<idr::EcmaNode*>(node)->fib_entries()));
    } else if (arch == "idrp") {
      auto* n = static_cast<idr::IdrpNode*>(node);
      add("proto.idrp.loc_rib_routes", static_cast<double>(n->loc_rib_routes()));
      add("proto.idrp.adj_rib_routes", static_cast<double>(n->adj_rib_routes()));
    } else if (arch == "ls-hbh") {
      auto* n = static_cast<idr::LshhNode*>(node);
      add("proto.lshh.path_computations", static_cast<double>(n->path_computations()));
      add("proto.lshh.cache_hits", static_cast<double>(n->cache_hits()));
      add("proto.lshh.expansions", static_cast<double>(n->total_expansions()));
      add("proto.lshh.cache_entries", static_cast<double>(n->cache_entries()));
    } else {
      auto* n = static_cast<idr::OrwgNode*>(node);
      const idr::RouteServer& rs = n->route_server();
      add("proto.orwg.synth_calls", static_cast<double>(rs.synth_calls()));
      add("proto.orwg.cache_hits", static_cast<double>(rs.cache_hits()));
      add("proto.orwg.revalidations", static_cast<double>(rs.revalidations()));
      add("proto.orwg.expansions", static_cast<double>(rs.total_expansions()));
      add("proto.orwg.lsdb_lsas", static_cast<double>(n->lsdb().size()));
      add("proto.orwg.lsdb_bytes", 0.0);
      n->lsdb().for_each([&](const idr::PolicyLsa& lsa) {
        add("proto.orwg.lsdb_bytes", static_cast<double>(lsa.encoded_size()));
      });
    }
  }
  const auto ratio = [&m](const char* hits, const char* computed) {
    const double total = m[hits] + m[computed];
    return total > 0 ? m[hits] / total : 0.0;
  };
  if (arch == "ls-hbh") {
    m["proto.lshh.cache_hit_ratio"] =
        ratio("proto.lshh.cache_hits", "proto.lshh.path_computations");
  } else if (arch == "orwg") {
    m["proto.orwg.cache_hit_ratio"] =
        ratio("proto.orwg.cache_hits", "proto.orwg.synth_calls");
  }
}

void note_setup(Pass& pass, const Internet& in, double extra_s = 0.0) {
  pass.ads = in.profile->topo.ad_count();
  pass.links = in.profile->topo.link_count();
  if (in.plan) {
    pass.balance_factor = in.plan->balance_factor();
    pass.lookahead_ms = in.plan->lookahead_ms;
  }
  pass.build_s.push_back(in.build_s);
  pass.attach_s.push_back(in.attach_s);
  pass.setup_s.push_back(in.build_s + in.attach_s + extra_s);
}

// Every timed repetition of the same cold convergence must do the same
// work; a difference is nondeterminism and counts as a failure.
void check_same(Pass& pass, const Phase& a, const Phase& b,
                std::uint64_t fa, std::uint64_t fb, const std::string& what) {
  pass.check(a.events == b.events && a.msgs == b.msgs && a.bytes == b.bytes &&
                 a.sim_ms == b.sim_ms && fa == fb,
             what + ": fingerprint or event count differs");
}

// The transit-transit links churned by the write and storm workloads, in a
// fixed order drawn with kChurnSeed. Single-link flap costs spread widely
// (IDRP: 4 to 10.6k events per cycle at 1e4 ADs, coefficient of variation
// 0.73), so drawing the links from the stream seed would make the work of
// a run depend on the seed; the seed drives the queries and storm phases.
std::vector<idr::LinkId> churn_links(const idr::Topology& topo) {
  std::vector<idr::LinkId> out;
  for (const idr::Link& l : topo.links()) {
    if (topo.can_transit(l.a) && topo.can_transit(l.b)) out.push_back(l.id);
  }
  IDR_CHECK_MSG(out.size() >= kStormLinks, "too few transit-transit links");
  idr::Prng prng(kChurnSeed);
  prng.shuffle(out);
  return out;
}

void probe_all(QueryRunner& runner, FlowStream& stream, std::size_t n,
               bool post_churn, Queries& q) {
  for (std::size_t i = 0; i < n; ++i) {
    runner.run(stream.next(), post_churn && i == 0, q);
  }
}

// converge-1e5 and converge-1e4-sharded: repeated cold convergence, each
// followed by its share of the post-convergence probes (so the probes
// spread over the whole run, not one stretch of it).
Pass run_converge(const Options& o, const Plan& plan, bool traced) {
  Pass pass;
  const std::uint32_t shards = plan.sharded ? kShards : 1;
  // Set-ups without a timed convergence, so the set-up median has samples.
  for (std::size_t i = plan.converge_reps; i < plan.setup_reps; ++i) {
    turn();
    note_setup(pass, stand_up(o.arch, plan.ads, shards, shard_threads()));
  }
  std::optional<FlowStream> stream;
  Phase first;
  for (std::size_t r = 0; r < plan.converge_reps; ++r) {
    turn();
    Internet in = stand_up(o.arch, plan.ads, shards, shard_threads());
    note_setup(pass, in);
    double start_s = 0.0;
    const Phase ph = cold_converge(in, traced, &start_s);
    const std::uint64_t fp = idr::counter_fingerprint(*in.net, in.profile->topo);
    pass.start_s.push_back(start_s);
    pass.converge_s.push_back(ph.wall_s);
    if (r == 0) {
      first = ph;
      pass.measured = ph;
      pass.fingerprint = fp;
    } else {
      check_same(pass, first, ph, pass.fingerprint, fp, o.arch + " repetition");
      pass.measured.pending_max = std::max(pass.measured.pending_max, ph.pending_max);
    }
    if (const idr::ParallelStats* st = in.engine->parallel_stats()) {
      pass.shard_stats = *st;
    }
    if (!stream) stream.emplace(o.arch, *in.profile, o.seed);
    QueryRunner runner(o.arch, in, traced);
    probe_all(runner, *stream, plan.queries / plan.converge_reps, false,
              pass.queries);
    if (r == 0) pass.rss_mb = peak_rss_mb();
    if (r + 1 == plan.converge_reps) read_proto(o.arch, in, pass);
  }

  if (plan.sharded) {
    // The sequential backend is the reference: same fingerprint, same
    // event count. Traced passes also time the same plan inline.
    turn();
    Internet seq = stand_up(o.arch, plan.ads, 1, 0);
    double start_s = 0.0;
    const Phase ph = cold_converge(seq, traced, &start_s);
    pass.seq_s = ph.wall_s;
    pass.measured.pending_max = ph.pending_max;
    check_same(pass, first, ph, pass.fingerprint,
               idr::counter_fingerprint(*seq.net, seq.profile->topo),
               o.arch + " sharded vs sequential");
  }
  if (plan.sharded && traced) {
    turn();
    Internet inl = stand_up(o.arch, plan.ads, shards, 0);
    double start_s = 0.0;
    const Phase ph = cold_converge(inl, traced, &start_s);
    pass.inline_s = ph.wall_s;
    check_same(pass, first, ph, pass.fingerprint,
               idr::counter_fingerprint(*inl.net, inl.profile->topo),
               o.arch + " sharded inline vs threaded");
  }
  return pass;
}

// Shared set-up of the two incremental workloads: set up and cold-converge
// `setup_reps` times, keep the last converged internet.
std::unique_ptr<Internet> converged_setups(const Options& o, const Plan& plan,
                                           bool traced, Pass& pass) {
  std::unique_ptr<Internet> in;
  for (std::size_t r = 0; r < plan.setup_reps; ++r) {
    in.reset();
    turn();
    in = std::make_unique<Internet>(stand_up(o.arch, plan.ads, 1, 0));
    double start_s = 0.0;
    const Phase ph = cold_converge(*in, traced, &start_s);
    pass.start_s.push_back(start_s);
    note_setup(pass, *in, ph.wall_s);
  }
  return in;
}

// queries-1e4: closed loop, one client. Every `write_every`-th operation
// is a write: one transit-link flip (take the next churn link down, or
// bring the downed one back), drained to quiescence and timed; the write
// drains are summed.
Pass run_queries(const Options& o, const Plan& plan, bool traced) {
  Pass pass;
  std::unique_ptr<Internet> in = converged_setups(o, plan, traced, pass);
  QueryRunner runner(o.arch, *in, traced);
  FlowStream stream(o.arch, *in->profile, o.seed);
  const std::vector<idr::LinkId> links = churn_links(in->profile->topo);
  std::size_t downs = 0;
  std::optional<idr::LinkId> down;
  bool after_write = false;
  std::size_t queries = 0;
  for (std::size_t op = 1; queries < plan.queries; ++op) {
    if (op % plan.write_every != 0) {
      runner.run(stream.next(), after_write, pass.queries);
      after_write = false;
      ++queries;
      continue;
    }
    const idr::LinkId link = down ? *down : links[downs++ % links.size()];
    const bool up = down.has_value();
    turn();
    const Phase ph = drive(*in, traced, "sim.write", [&] {
      ScopedSpan span("sim.set_link_state");
      in->net->set_link_state(link, up);
    });
    down = up ? std::nullopt : std::optional<idr::LinkId>(link);
    pass.measured += ph;
    pass.converge_s.push_back(ph.wall_s);
    runner.resnapshot();
    after_write = true;
  }
  pass.fingerprint = idr::counter_fingerprint(*in->net, in->profile->topo);
  pass.rss_mb = peak_rss_mb();
  read_proto(o.arch, *in, pass);
  return pass;
}

// flap-storm-1e4: `storms` storms of the same kStormLinks churn links
// flapping on the control stream, each link at a seeded random phase; each
// storm is timed from onset to a drained queue (mean reported) and
// followed by probes of the healed internet.
Pass run_flap_storm(const Options& o, const Plan& plan, bool traced) {
  Pass pass;
  std::unique_ptr<Internet> in = converged_setups(o, plan, traced, pass);
  QueryRunner runner(o.arch, *in, traced);
  FlowStream stream(o.arch, *in->profile, o.seed);
  const std::vector<idr::LinkId> links = churn_links(in->profile->topo);
  const std::size_t per_storm = plan.queries / plan.storms;
  for (std::size_t s = 0; s < plan.storms; ++s) {
    turn();
    const Phase ph = drive(*in, traced, "sim.storm", [&] {
      ScopedSpan span("sim.schedule_storm");
      idr::Engine& engine = *in->engine;
      idr::Network& net = *in->net;
      const double t0 = engine.now();
      for (std::size_t i = 0; i < kStormLinks; ++i) {
        const idr::LinkId link = links[i];
        const double t = t0 + kStormWindowMs *
                                  static_cast<double>(stream.prng().below(1024)) /
                                  1024.0;
        engine.at(t, [&net, link] { net.set_link_state(link, false); });
        engine.at(t + kStormDownMs, [&net, link] { net.set_link_state(link, true); });
      }
    });
    pass.measured += ph;
    pass.converge_s.push_back(ph.wall_s);
    runner.resnapshot();
    probe_all(runner, stream, per_storm, true, pass.queries);
  }
  pass.fingerprint = idr::counter_fingerprint(*in->net, in->profile->topo);
  pass.rss_mb = peak_rss_mb();
  read_proto(o.arch, *in, pass);
  return pass;
}

Pass run_pass(const Options& o, const Plan& plan, bool traced) {
  g_tracer.on = traced;
  ScopedSpan span("workload");
  if (plan.storms) return run_flap_storm(o, plan, traced);
  if (plan.write_every) return run_queries(o, plan, traced);
  return run_converge(o, plan, traced);
}

// --- output ----------------------------------------------------------------------

// Simulated duration of the timed phases, at 1 ns of simulated time: a
// traced pass leaves the clock on run_until slice boundaries, so later
// triggers sit at other absolute times and the per-phase differences
// pick up floating-point noise far below this resolution.
double sim_ms(const Pass& p) { return std::round(p.measured.sim_ms * 1e6) / 1e6; }

// The exact counters: identical across runs with the same arguments, and
// between the traced and untraced passes of one run.
std::map<std::string, double> exact_counters(const Pass& p) {
  std::map<std::string, double> m = p.proto;
  m["sim.events"] = static_cast<double>(p.measured.events);
  m["sim.msgs"] = static_cast<double>(p.measured.msgs);
  m["sim.bytes"] = static_cast<double>(p.measured.bytes);
  m["sim.sim_ms"] = sim_ms(p);
  m["sim.fingerprint"] = fold53(p.fingerprint);
  m["shard.windows"] = static_cast<double>(p.shard_stats.windows);
  m["shard.critical_path_events"] =
      static_cast<double>(p.shard_stats.critical_path_events);
  m["query.count"] = static_cast<double>(p.queries.attempted);
  m["query.delivered"] = static_cast<double>(p.queries.delivered);
  m["query.hops"] = static_cast<double>(p.queries.hops);
  m["query.answer_digest"] = fold53(p.queries.digest);
  return m;
}

void put_map(std::FILE* f, const char* key,
             const std::map<std::string, double>& m, bool last) {
  std::fprintf(f, "  \"%s\": {", key);
  std::size_t i = 0;
  for (const auto& [k, v] : m) {
    std::fprintf(f, "%s\"%s\": %.17g", i++ ? ", " : "", k.c_str(), v);
  }
  std::fprintf(f, "}%s\n", last ? "" : ",");
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

void put_list(std::FILE* f, const char* key, const std::vector<double>& v) {
  std::fprintf(f, "  \"%s\": [", key);
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::fprintf(f, "%s%.9f", i ? ", " : "", v[i]);
  }
  std::fprintf(f, "],\n");
}

// Per-layer metrics of the traced pass, named with the design point.
std::map<std::string, double> layer_metrics(const std::string& arch,
                                            const Plan& plan, const Pass& t) {
  std::map<std::string, double> layer;
  const std::string sfx = "." + arch;
  layer["topology.build_s"] = median(t.build_s);
  layer["core.attach_s"] = median(t.attach_s);
  layer["topology.ads"] = static_cast<double>(t.ads);
  layer["topology.links"] = static_cast<double>(t.links);
  layer["shard.balance_factor"] = t.balance_factor;
  layer["shard.lookahead_ms"] = t.lookahead_ms;
  layer["sim.start_s" + sfx] = median(t.start_s);
  layer["sim.events" + sfx] = static_cast<double>(t.measured.events);
  layer["sim.msgs" + sfx] = static_cast<double>(t.measured.msgs);
  layer["sim.bytes" + sfx] = static_cast<double>(t.measured.bytes);
  layer["sim.sim_ms" + sfx] = sim_ms(t);
  layer["sim.fingerprint" + sfx] = fold53(t.fingerprint);
  layer["sim.pending_max" + sfx] = static_cast<double>(t.measured.pending_max);
  // Per event of the timed phases, as traced (slices included).
  const double phase_s = plan.sharded ? t.seq_s : t.measured.wall_s;
  layer["sim.us_per_event" + sfx] =
      t.measured.events ? phase_s * 1e6 / static_cast<double>(t.measured.events)
                        : 0.0;
  layer["wire.bytes_per_msg" + sfx] =
      t.measured.msgs ? static_cast<double>(t.measured.bytes) /
                            static_cast<double>(t.measured.msgs)
                      : 0.0;
  for (const auto& [k, v] : t.proto) layer[k] = v;
  const double sharded_s = median(t.converge_s);
  layer["shard.windows" + sfx] = static_cast<double>(t.shard_stats.windows);
  layer["shard.critical_path_events" + sfx] =
      static_cast<double>(t.shard_stats.critical_path_events);
  layer["shard.cp_speedup" + sfx] =
      plan.sharded ? t.shard_stats.critical_path_speedup() : 0.0;
  layer["shard.inline_s" + sfx] = t.inline_s;
  layer["shard.seq_s" + sfx] = t.seq_s;
  layer["shard.wall_speedup" + sfx] =
      plan.sharded && sharded_s > 0 ? t.seq_s / sharded_s : 0.0;
  if (has_query_layer(arch)) {
    const Queries& q = t.queries;
    layer["query.hit_p50_us" + sfx] = percentile(q.hit_us, 0.5);
    layer["query.miss_p50_us" + sfx] = percentile(q.miss_us, 0.5);
    layer["query.post_churn_p50_us" + sfx] = percentile(q.post_churn_us, 0.5);
    layer["query.hops_mean" + sfx] =
        q.delivered ? static_cast<double>(q.hops) / static_cast<double>(q.delivered)
                    : 0.0;
    layer["query.expansions_per_query" + sfx] =
        q.attempted ? static_cast<double>(q.expansions) /
                          static_cast<double>(q.attempted)
                    : 0.0;
  }
  layer["trace.measured_s"] =
      sum(t.converge_s) + sum(t.queries.all_us) / 1e6;
  return layer;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (!v) {
      std::fprintf(stderr, "missing value for %s\n", a.c_str());
      return 2;
    }
    ++i;
    if (a == "--workload") o.workload = v;
    else if (a == "--arch") o.arch = v;
    else if (a == "--seed") o.seed = std::strtoull(v, nullptr, 10);
    else if (a == "--seconds") o.seconds = std::atof(v);
    else if (a == "--trace") o.trace = std::atoi(v) != 0;
    else if (a == "--ads") o.ads = static_cast<std::uint32_t>(std::atol(v));
    else if (a == "--run-id") o.run_id = v;
    else if (a == "--out") o.out = v;
    else if (a == "--spans") o.spans = v;
    else {
      std::fprintf(stderr, "unknown flag %s\n", a.c_str());
      return 2;
    }
  }
  if (!idr::is_design_point(o.arch) || o.out.empty()) {
    std::fprintf(stderr, "need --arch {ecma,idrp,ls-hbh,orwg} and --out\n");
    return 2;
  }
  const Plan plan = make_plan(o);

  const Pass untraced = run_pass(o, plan, false);
  std::optional<Pass> traced;
  if (o.trace) traced = run_pass(o, plan, true);

  // Failures of either pass, plus traced-vs-untraced exactness.
  std::size_t attempted = untraced.attempted + untraced.queries.attempted;
  std::size_t failed = untraced.failed + untraced.queries.failed;
  std::vector<std::string> failures = untraced.failures;
  failures.insert(failures.end(), untraced.queries.failures.begin(),
                  untraced.queries.failures.end());
  const std::map<std::string, double> exact = exact_counters(untraced);
  if (traced) {
    attempted += traced->attempted + traced->queries.attempted + 1;
    failed += traced->failed + traced->queries.failed;
    failures.insert(failures.end(), traced->failures.begin(),
                    traced->failures.end());
    for (const auto& [name, value] : exact_counters(*traced)) {
      if (exact.at(name) != value) {
        ++failed;
        failures.push_back(o.arch + ": traced " + name +
                           " differs from untraced");
      }
    }
  }

  std::map<std::string, double> e2e;
  e2e["setup_s"] = median(untraced.setup_s);
  // Repeated cold convergences do identical work: their median. Writes
  // and storms each do different work (another link, other seeded
  // phases), so a median would pick a seed-dependent one, while their
  // total moves by under 1% with the seed: the writes' sum, the storms'
  // mean.
  const double phases_s = sum(untraced.converge_s);
  e2e["converge_s"] =
      plan.write_every ? phases_s
      : plan.storms    ? phases_s / static_cast<double>(plan.storms)
                       : median(untraced.converge_s);
  e2e["peak_rss_mb"] = untraced.rss_mb;
  e2e["query_p50_us"] = percentile(untraced.queries.all_us, 0.50);
  e2e["query_p99_us"] = percentile(untraced.queries.all_us, 0.99);
  e2e["measured_s"] = sum(untraced.converge_s) + sum(untraced.queries.all_us) / 1e6;

  std::map<std::string, double> samples;
  samples["setup"] = static_cast<double>(untraced.setup_s.size());
  samples["converge"] = static_cast<double>(untraced.converge_s.size());
  samples["queries"] = static_cast<double>(untraced.queries.all_us.size());

  std::map<std::string, double> layer;
  if (traced) {
    layer = layer_metrics(o.arch, plan, *traced);
    g_tracer.write(o.spans, o.run_id, o.workload + "/" + o.arch);
  }

  std::FILE* f = std::fopen(o.out.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", o.out.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"workload\": \"%s\", \"arch\": \"%s\", \"ads\": %zu, "
               "\"links\": %zu, \"threads\": %u, \"seed\": %llu,\n",
               o.workload.c_str(), o.arch.c_str(), untraced.ads,
               untraced.links, plan.sharded ? shard_threads() : 0,
               static_cast<unsigned long long>(o.seed));
  std::fprintf(f, "  \"attempted\": %zu, \"failed\": %zu,\n", attempted, failed);
  std::fprintf(f, "  \"failures\": [");
  for (std::size_t i = 0; i < failures.size(); ++i) {
    std::fprintf(f, "%s\"%s\"", i ? ", " : "", failures[i].c_str());
  }
  std::fprintf(f, "],\n");
  put_list(f, "converge_samples_s", untraced.converge_s);
  put_list(f, "probe_s", g_probe_s);
  put_map(f, "e2e", e2e, false);
  put_map(f, "samples", samples, false);
  put_map(f, "exact", exact, false);
  put_map(f, "layer", layer, true);
  std::fprintf(f, "}\n");
  std::fclose(f);
  return failed ? 1 : 0;
}
