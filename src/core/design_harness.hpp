// The one construction and walk path for the paper's four detailed
// design points (ECMA, IDRP, LS-HbH, ORWG): everything needed to stand
// one up over an arbitrary scenario and interrogate its data plane from
// the outside.
//
// make_design_factory is the only place a design-point node is built,
// and the only place per-AD decisions are made (stub role, hybrid export
// set, beacon origination, periodic refresh, Byzantine defenses). Every
// caller goes through it: the Table 1 adapters (core/adapters.*), the
// paper-scale profile (core/scale_profile.*, which only translates its
// knobs into base configs), the chaos layer (core/chaos.*) and the
// deterministic simulation-testing subsystem (simtest/*). Likewise
// walk_probe is the one hop-by-hop forwarding walk: make_design_probe
// builds on it and so do the policy-blind baseline adapters. One path
// guarantees every caller argues about the same protocols.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "policy/database.hpp"
#include "policy/flow.hpp"
#include "proto/ecma/ecma_node.hpp"
#include "proto/ecma/partial_order.hpp"
#include "proto/idrp/idrp_node.hpp"
#include "proto/lshh/lshh_node.hpp"
#include "proto/orwg/orwg_node.hpp"
#include "sim/invariants.hpp"
#include "sim/network.hpp"
#include "topology/graph.hpp"

namespace idr {

// The four design points every adversarial driver exercises.
const std::vector<std::string>& design_point_names();
[[nodiscard]] bool is_design_point(const std::string& arch);

// Stub/multi-homed roles never transit (paper §2.1).
[[nodiscard]] bool is_stub_role(const Topology& topo, AdId ad);

// Engine backend selection shared by the differential runner and the
// scale benches: scheduler choice plus the optional sharded-parallel
// execution mode. shards <= 1 keeps the engine sequential (the
// reference backend); shards > 1 partitions the topology along the
// hierarchy and runs conservative lookahead windows -- inline on the
// driver thread when threads == 0, or on `threads` workers. Results are
// byte-identical across all of these for the same seed.
struct EngineBackend {
  SchedulerKind scheduler = SchedulerKind::kCalendar;
  std::uint32_t shards = 1;
  unsigned threads = 0;
  // Shrink the window lookahead below the topology's minimum cross-shard
  // delay (window-boundary stress in tests); 0 keeps the partitioner's
  // value. Never enlarges it.
  double lookahead_ms = 0.0;
};

// Partition `topo` and enable sharding on a freshly constructed engine
// per `backend` (no-op when shards <= 1). Must run before the Network is
// built: per-shard delivery aggregates are sized at Network construction.
void apply_engine_backend(Engine& engine, const Topology& topo,
                          const EngineBackend& backend);

struct HarnessConfig {
  // Arm the per-design-point Byzantine defenses (ECMA receiver-side
  // partial-order enforcement, IDRP clamping, LS/LSHH origin auth, ORWG
  // registry-validated synthesis).
  bool defended = false;
  // Periodic full-state refresh per node; 0 disables.
  double periodic_refresh_ms = 300.0;
  // Per-AD LSA authentication keys for the defended LS designs (see
  // make_lsa_keys); must outlive the factory. Ignored when null or not
  // defended.
  const std::vector<std::uint64_t>* lsa_keys = nullptr;
  // DV family (ECMA, IDRP): only ADs with a nonzero entry originate
  // reachability (the scale profile's beacons); null = every AD does.
  // Must outlive the factory.
  const std::vector<char>* originators = nullptr;
  // Per-protocol base configs. The factory copies the one for its design
  // point and derives the per-AD fields itself -- ECMA's stub role and
  // hybrid export set, DV origination, periodic refresh and the defenses
  // above -- overwriting whatever the base holds for them.
  EcmaConfig ecma;
  IdrpConfig idrp;
  LshhConfig lshh;
  OrwgConfig orwg;
};

// The defended LS designs' per-AD LSA authentication keys (a modeled
// shared-secret registry), one per AD, derived from `seed`; never 0.
[[nodiscard]] std::vector<std::uint64_t> make_lsa_keys(std::uint64_t seed,
                                                       std::size_t ads);

// Node factory for `arch` over (topo, policies): the only constructor of
// design-point nodes. `order` is required for "ecma" (and must outlive
// the factory), ignored otherwise. The returned factory is also suitable
// for Network::set_node_factory (cold restarts).
Network::NodeFactory make_design_factory(const std::string& arch,
                                         const Topology& topo,
                                         const PolicySet& policies,
                                         const OrderResult* order,
                                         const HarnessConfig& config);

// Hop-by-hop forwarding walk shared by every FIB-driven data plane.
// `next_fn(cur, path)` asks the node currently holding the packet for its
// successor; no forwarding choice is a black hole, a revisited AD (or a
// walk longer than the AD count) a loop. A transit AD that is quarantined
// or actively dropping traffic toward dst (Byzantine black hole /
// hijack) swallows the packet: the walk records the control plane's
// choice, the drop is the data plane's fate.
template <typename NextFn>
[[nodiscard]] Probe walk_probe(const Network& net, const Topology& topo,
                               AdId src, AdId dst, NextFn&& next_fn) {
  Probe probe;
  probe.path.push_back(src);
  std::vector<bool> seen(topo.ad_count(), false);
  seen[src.v] = true;
  AdId cur = src;
  while (cur != dst) {
    if (cur != src &&
        (net.is_quarantined(cur) || net.drops_traffic(cur, dst))) {
      probe.outcome = ProbeOutcome::kBlackHole;
      return probe;
    }
    const std::optional<AdId> next = next_fn(cur, probe.path);
    if (!next) {
      probe.outcome = ProbeOutcome::kBlackHole;
      return probe;
    }
    if (seen[next->v] || probe.path.size() > topo.ad_count()) {
      probe.outcome = ProbeOutcome::kLooped;
      return probe;
    }
    seen[next->v] = true;
    probe.path.push_back(*next);
    cur = *next;
  }
  probe.outcome = ProbeOutcome::kDelivered;
  return probe;
}

// Flow-granular forwarding-walk probe: walks `arch`'s current data plane
// for one flow (walk_probe over the FIBs, or the route server's answer
// for ORWG) and reports delivery / loop / black hole plus the hops taken.
// A quarantined or traffic-dropping AD on the way swallows the packet.
using FlowProbeFn = std::function<Probe(const FlowSpec&)>;
FlowProbeFn make_design_probe(const std::string& arch, Network& net,
                              const Topology& topo);

// The (src, dst) probe shape the InvariantMonitor wants: the flow probe
// at default traffic class.
InvariantMonitor::ProbeFn make_pair_probe(FlowProbeFn probe);

// Ground truth for ECMA: a destination is reachable only over an
// up*down*-shaped walk (paper §5.1.1) through ADs willing to transit,
// between live nodes over live links. With quarantine_only, actively
// traffic-dropping (but unquarantined) ADs still count as usable -- the
// auditor's honest-reachability view.
[[nodiscard]] bool ecma_reachable(const Network& net, const Topology& topo,
                                  const PartialOrder& order, AdId src,
                                  AdId dst, bool quarantine_only = false);

// Ground truth for the policy-term design points: a route exists iff the
// synthesis oracle finds one over the live topology and real policy
// database, avoiding crashed / quarantined / traffic-dropping ADs.
[[nodiscard]] bool policy_reachable(const Network& net, const Topology& topo,
                                    const PolicySet& policies, AdId src,
                                    AdId dst, bool quarantine_only = false);

// Per-design ground-truth reachability for the InvariantMonitor.
InvariantMonitor::ReachableFn make_design_reachable(
    const std::string& arch, const Network& net, const Topology& topo,
    const PolicySet& policies, const OrderResult* order,
    bool quarantine_only = false);

// Per-design path-compliance predicate: is this delivered src..dst path
// legal under the design's own notion of policy (the ECMA partial order /
// the Policy Term database)?
using PathComplianceFn = std::function<bool(
    AdId src, AdId dst, const std::vector<AdId>& path)>;
PathComplianceFn make_design_compliance(const std::string& arch,
                                        const Topology& topo,
                                        const PolicySet& policies,
                                        const OrderResult* order);

// FNV-1a fingerprint over every AD's message counters: two runs of the
// same seed must produce identical fingerprints (determinism gate).
[[nodiscard]] std::uint64_t counter_fingerprint(const Network& net,
                                                const Topology& topo);

}  // namespace idr
