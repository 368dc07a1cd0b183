#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <tuple>

#include "policy/generator.hpp"
#include "proto/dvsr/dvsr_node.hpp"
#include "proto/idrp/idrp_node.hpp"
#include "sim/engine.hpp"
#include "sim/network.hpp"
#include "topology/figure1.hpp"
#include "util/dense_map.hpp"
#include "util/prng.hpp"
#include "wire/codec.hpp"

namespace idr {
namespace {

TEST(HourMask, PlainAndWrappedWindows) {
  const std::uint32_t business = hour_window_mask(8, 18);
  EXPECT_TRUE(business & (1u << 8));
  EXPECT_TRUE(business & (1u << 18));
  EXPECT_FALSE(business & (1u << 7));
  const std::uint32_t night = hour_window_mask(22, 4);
  EXPECT_TRUE(night & (1u << 23));
  EXPECT_TRUE(night & (1u << 0));
  EXPECT_FALSE(night & (1u << 12));
  EXPECT_EQ(hour_window_mask(0, 23), kAllHoursMask);
}

TEST(RouteAttrs, PermitsChecksEveryDimension) {
  RouteAttrs attrs;
  attrs.sources = AdSet::of({AdId{1}});
  attrs.qos_mask = qos_bit(Qos::kDefault);
  attrs.uci_mask = uci_bit(UserClass::kResearch);
  attrs.hour_mask = hour_window_mask(8, 18);
  FlowSpec ok{AdId{1}, AdId{9}, Qos::kDefault, UserClass::kResearch, 12};
  EXPECT_TRUE(attrs.permits(ok));
  FlowSpec wrong_src = ok;
  wrong_src.src = AdId{2};
  EXPECT_FALSE(attrs.permits(wrong_src));
  FlowSpec wrong_hour = ok;
  wrong_hour.hour = 3;
  EXPECT_FALSE(attrs.permits(wrong_hour));
}

TEST(RouteAttrs, CoversIsSupersetRelation) {
  RouteAttrs wide;  // any/any/any
  RouteAttrs narrow;
  narrow.sources = AdSet::of({AdId{1}});
  narrow.qos_mask = 1;
  EXPECT_TRUE(wide.covers(narrow));
  EXPECT_FALSE(narrow.covers(wide));
  EXPECT_TRUE(wide.covers(wide));
}

TEST(RouteAttrs, UsableRejectsEmptyDimensions) {
  RouteAttrs attrs;
  EXPECT_TRUE(attrs.usable());
  attrs.qos_mask = 0;
  EXPECT_FALSE(attrs.usable());
  attrs.qos_mask = kAllQosMask;
  attrs.sources = AdSet::none();
  EXPECT_FALSE(attrs.usable());
}

class IdrpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fig_ = build_figure1();
    policies_ = make_open_policies(fig_.topo);
  }

  void run(IdrpConfig config = {}) {
    net_ = std::make_unique<Network>(engine_, fig_.topo);
    for (const Ad& ad : fig_.topo.ads()) {
      auto node = std::make_unique<IdrpNode>(&policies_, config);
      nodes_.push_back(node.get());
      net_->attach(ad.id, std::move(node));
    }
    net_->start_all();
    engine_.run();
  }

  std::optional<std::vector<AdId>> route(const FlowSpec& flow) {
    std::vector<AdId> path{flow.src};
    AdId cur = flow.src;
    std::size_t guard = 0;
    while (cur != flow.dst) {
      if (++guard > fig_.topo.ad_count()) return std::nullopt;
      const auto next = nodes_[cur.v]->forward(flow);
      if (!next) return std::nullopt;
      path.push_back(*next);
      cur = *next;
    }
    return path;
  }

  Figure1 fig_;
  PolicySet policies_;
  Engine engine_;
  std::unique_ptr<Network> net_;
  std::vector<IdrpNode*> nodes_;
};

TEST_F(IdrpTest, ConvergesAndRoutesAcrossBackbones) {
  run();
  FlowSpec flow{fig_.campus[0], fig_.campus[6]};
  const auto path = route(flow);
  ASSERT_TRUE(path.has_value());
  EXPECT_TRUE(policies_.path_is_legal(fig_.topo, flow, *path));
}

TEST_F(IdrpTest, PathsNeverContainLoops) {
  run();
  for (const Ad& src : fig_.topo.ads()) {
    for (const Ad& dst : fig_.topo.ads()) {
      if (src.id == dst.id) continue;
      FlowSpec flow{src.id, dst.id};
      const auto path = route(flow);
      if (!path) continue;
      std::set<std::uint32_t> seen;
      for (AdId ad : *path) EXPECT_TRUE(seen.insert(ad.v).second);
    }
  }
}

TEST_F(IdrpTest, StubsNeverTransit) {
  run();
  for (const Ad& src : fig_.topo.ads()) {
    for (const Ad& dst : fig_.topo.ads()) {
      if (src.id == dst.id) continue;
      const auto path = route(FlowSpec{src.id, dst.id});
      if (!path) continue;
      for (std::size_t i = 1; i + 1 < path->size(); ++i) {
        EXPECT_TRUE(fig_.topo.can_transit((*path)[i]));
      }
    }
  }
}

TEST_F(IdrpTest, AupPolicyBlocksCommercialTraffic) {
  apply_aup(policies_, fig_.backbone_west);
  apply_aup(policies_, fig_.backbone_east);
  run();
  // Research traffic crosses the backbones; commercial traffic cannot
  // (and no alternative path exists between west and east campuses).
  FlowSpec research{fig_.campus[0], fig_.campus[7], Qos::kDefault,
                    UserClass::kResearch, 12};
  FlowSpec commercial{fig_.campus[0], fig_.campus[7], Qos::kDefault,
                      UserClass::kCommercial, 12};
  EXPECT_TRUE(route(research).has_value());
  EXPECT_FALSE(route(commercial).has_value());
}

TEST_F(IdrpTest, SourceSpecificTransitRespected) {
  // BB-East only carries traffic sourced by campus0.
  policies_.clear_terms(fig_.backbone_east);
  PolicyTerm t = open_transit_term(fig_.backbone_east);
  t.sources = AdSet::of({fig_.campus[0]});
  policies_.add_term(t);
  run();
  FlowSpec allowed{fig_.campus[0], fig_.campus[7]};
  FlowSpec denied{fig_.campus[1], fig_.campus[7]};
  const auto ok = route(allowed);
  ASSERT_TRUE(ok.has_value());
  EXPECT_TRUE(policies_.path_is_legal(fig_.topo, allowed, *ok));
  // campus1 can still reach campus7? Only via BB-East... the lateral
  // campus1--campus2 link does not help (campus2 is a stub). So denied.
  EXPECT_FALSE(route(denied).has_value());
}

TEST_F(IdrpTest, ReconvergesAfterLinkFailure) {
  run();
  FlowSpec flow{fig_.campus[0], fig_.campus[6]};
  ASSERT_TRUE(route(flow).has_value());
  net_->set_link_state(
      *fig_.topo.find_link(fig_.backbone_west, fig_.backbone_east), false);
  engine_.run();
  const auto path = route(flow);
  ASSERT_TRUE(path.has_value());
  EXPECT_TRUE(policies_.path_is_legal(fig_.topo, flow, *path));
  // Must now cross the Reg-1 -- Reg-2 lateral link.
  bool lateral = false;
  for (std::size_t i = 0; i + 1 < path->size(); ++i) {
    if (((*path)[i] == fig_.regional[1] && (*path)[i + 1] == fig_.regional[2]) ||
        ((*path)[i] == fig_.regional[2] && (*path)[i + 1] == fig_.regional[1])) {
      lateral = true;
    }
  }
  EXPECT_TRUE(lateral);
}

TEST_F(IdrpTest, RoutesPerDestCapBounds) {
  IdrpConfig config;
  config.routes_per_dest = 1;
  run(config);
  for (IdrpNode* node : nodes_) {
    for (const Ad& ad : fig_.topo.ads()) {
      EXPECT_LE(node->routes_for(ad.id), 1u);
    }
  }
}

TEST_F(IdrpTest, RibCountsPositiveAfterConvergence) {
  run();
  for (IdrpNode* node : nodes_) {
    EXPECT_GT(node->loc_rib_routes(), 0u);
  }
}

class DvsrTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fig_ = build_figure1();
    policies_ = make_open_policies(fig_.topo);
    net_ = std::make_unique<Network>(engine_, fig_.topo);
    for (const Ad& ad : fig_.topo.ads()) {
      auto node = std::make_unique<DvsrNode>(&policies_);
      nodes_.push_back(node.get());
      net_->attach(ad.id, std::move(node));
    }
  }
  void converge() {
    net_->start_all();
    engine_.run();
  }

  Figure1 fig_;
  PolicySet policies_;
  Engine engine_;
  std::unique_ptr<Network> net_;
  std::vector<DvsrNode*> nodes_;
};

TEST_F(DvsrTest, ProducesLegalSourceRoutes) {
  converge();
  FlowSpec flow{fig_.campus[0], fig_.campus[6]};
  const auto path = nodes_[fig_.campus[0].v]->source_route(flow);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->front(), flow.src);
  EXPECT_EQ(path->back(), flow.dst);
  EXPECT_TRUE(policies_.path_is_legal(fig_.topo, flow, *path));
}

TEST_F(DvsrTest, HonorsPrivateAvoidList) {
  // The source refuses BB-West; hop-by-hop IDRP cannot honor this (the
  // criteria are private), but the DV+SR hybrid can -- if an advertised
  // candidate avoids it.
  policies_.source_policy(fig_.campus[0]).avoid.push_back(
      fig_.backbone_west);
  converge();
  FlowSpec flow{fig_.campus[0], fig_.campus[2]};
  const auto path = nodes_[fig_.campus[0].v]->source_route(flow);
  if (path.has_value()) {
    for (AdId ad : *path) EXPECT_NE(ad, fig_.backbone_west);
  }
}

TEST_F(DvsrTest, LimitedToAdvertisedCandidates) {
  // The paper's point (§5.5.2): the source only chooses among advertised
  // paths. With routes_per_dest = 1 the candidate set collapses and an
  // avoid-constrained source may find nothing even though a legal
  // alternative exists in the topology.
  policies_.source_policy(fig_.campus[0]).avoid.push_back(
      fig_.backbone_west);
  converge();
  FlowSpec flow{fig_.campus[0], fig_.campus[6]};
  const auto path = nodes_[fig_.campus[0].v]->source_route(flow);
  // campus0 sits under Reg-0 whose only parent is BB-West; every route
  // east must cross it, so no candidate qualifies.
  EXPECT_FALSE(path.has_value());
}


// --- History independence of the incremental decision process --------
//
// The loc-RIB is maintained incrementally (only destinations an update
// touched are reselected; selected routes are references into the
// Adj-RIBs-in). Whatever history led to a set of per-neighbor tables,
// the node must select, order and advertise exactly what a freshly
// started node fed those tables (in any neighbor order, under the same
// link states) would.

// A neighbor stand-in: records the last update it received, sends none.
class RecorderNode : public ProtoNode {
 public:
  void on_message(AdId, std::span<const std::uint8_t> bytes) override {
    last.assign(bytes.begin(), bytes.end());
  }
  std::vector<std::uint8_t> last;
};

constexpr AdId kSubject{0};
constexpr std::uint32_t kNeighbors = 5;  // ADs 1..5, each linked to 0
constexpr std::uint32_t kAds = 12;       // ADs 6..11 are remote dsts
constexpr SimTime kGraceMs = 200.0;
// Long enough for any damping penalty to decay below the reuse threshold.
constexpr SimTime kQuietMs = 60'000.0;

// The subject links to its neighbors only; every other pair of ADs is
// linked, so any path over ADs 1..11 passes the defended receiver's
// adjacency check. The subject's link delays (3, 2, 1, 3, 2 ms) rank the
// neighbors against their AD ids, with ties left for the id to break.
Topology history_topology() {
  Topology topo;
  for (std::uint32_t i = 0; i < kAds; ++i) {
    topo.add_ad(AdClass::kRegional,
                i <= kNeighbors ? AdRole::kTransit : AdRole::kStub);
  }
  for (std::uint32_t n = 1; n <= kNeighbors; ++n) {
    topo.add_link(kSubject, AdId{n}, LinkClass::kHierarchical,
                  static_cast<double>(1 + (2 * n) % 3));
  }
  for (std::uint32_t a = 1; a < kAds; ++a) {
    for (std::uint32_t b = a + 1; b < kAds; ++b) {
      topo.add_link(AdId{a}, AdId{b}, LinkClass::kHierarchical);
    }
  }
  return topo;
}

LinkId link_to(const Topology& topo, std::uint32_t n) {
  return *topo.find_link(kSubject, AdId{n});
}

// The subject's Adj-RIB-in as the test expects it, by neighbor.
using Tables = DenseMap<std::uint32_t, std::vector<IdrpRoute>>;

// The subject node under test with recorder neighbors, GR and the crash
// oracle on; `defend` turns on the receiver-side Byzantine defense (open
// policies clamp nothing, so it keeps every valid route unchanged).
struct HistoryRig {
  HistoryRig(Topology topology, const PolicySet& policies, bool damping,
             bool defend = false)
      : topo(std::move(topology)), net(engine, topo), defend(defend) {
    IdrpConfig config;
    config.routes_per_dest = 2;  // the cap and the tie-break both matter
    config.damping.enabled = damping;
    config.defend = defend;
    config.gr.enabled = true;
    config.gr.grace_ms = kGraceMs;
    net.set_graceful_restart(GrConfig{true, kGraceMs});
    net.set_crash_notifications(true);
    for (const Ad& ad : topo.ads()) {
      if (ad.id == kSubject) {
        auto node = std::make_unique<IdrpNode>(&policies, config);
        subject = node.get();
        net.attach(ad.id, std::move(node));
      } else {
        auto node = std::make_unique<RecorderNode>();
        recorders.push_back(node.get());
        net.attach(ad.id, std::move(node));
      }
    }
    net.start_all();
  }

  void feed(AdId from, const std::vector<IdrpRoute>& table) {
    subject->on_message(from, encode_update(table));
  }

  static std::vector<std::uint8_t> encode_update(
      const std::vector<IdrpRoute>& table) {
    wire::Writer w;
    w.u8(IdrpNode::kMsgUpdate);
    w.u16(static_cast<std::uint16_t>(table.size()));
    for (const IdrpRoute& route : table) route.encode(w);
    return std::move(w).take();
  }

  void advance(SimTime ms) { engine.run_until(engine.now() + ms); }

  [[nodiscard]] bool link_up(std::uint32_t n) const {
    return topo.link(link_to(topo, n)).up;
  }

  // The full table the subject advertises to `neighbor` right now.
  std::vector<std::uint8_t> next_update(AdId neighbor) {
    subject->on_link_change(neighbor, true);  // voids the sent-hash
    advance(50.0);
    return recorders[neighbor.v - 1]->last;
  }

  Topology topo;  // per rig: link state is part of the history
  Engine engine;
  Network net;
  bool defend;
  IdrpNode* subject = nullptr;
  std::vector<RecorderNode*> recorders;  // AD i at index i - 1
};

// Random route from `from` to `dst`, with a short path and few costs so
// equal-length, equal-cost ties across neighbors are common. A `valid`
// path ends at `dst` and has no AD twice in a row, so the defended
// receiver keeps it (the history topology links every such pair); the
// random draws are the same either way.
IdrpRoute random_route(Prng& rng, AdId from, AdId dst, bool valid) {
  IdrpRoute route;
  route.dst = dst;
  route.path.push_back(from);
  const std::uint64_t mids = rng.below(3);
  for (std::uint64_t m = 0; m < mids; ++m) {
    const AdId mid{
        static_cast<std::uint32_t>(rng.uniform(kNeighbors + 1, kAds - 1))};
    if (!valid || (mid != dst && mid != route.path.back())) {
      route.path.push_back(mid);
    }
  }
  if (dst != from) {
    route.path.push_back(dst);
  } else if (valid) {
    route.path.resize(1);  // an origin route: the path is the sender
  }
  route.attrs.cost = static_cast<std::uint32_t>(rng.below(2));
  if (rng.bernoulli(0.3)) {
    route.attrs.sources =
        AdSet::of({AdId{static_cast<std::uint32_t>(rng.below(kAds))},
                   AdId{static_cast<std::uint32_t>(rng.below(kAds))}});
  }
  if (rng.bernoulli(0.3)) {
    route.attrs.qos_mask = static_cast<std::uint8_t>(rng.uniform(1, 3));
  }
  return route;
}

// A run of 1-3 random routes to `dst`.
std::vector<IdrpRoute> random_run(Prng& rng, AdId from, AdId dst,
                                  bool valid) {
  std::vector<IdrpRoute> run;
  const std::uint64_t copies = rng.uniform(1, 3);
  for (std::uint64_t c = 0; c < copies; ++c) {
    run.push_back(random_route(rng, from, dst, valid));
  }
  return run;
}

// Random table from `from`: random destination subset, ascending, one
// run each.
std::vector<IdrpRoute> random_table(Prng& rng, AdId from,
                                    bool valid = false) {
  std::vector<AdId> dsts;
  for (std::uint32_t d = 1; d < kAds; ++d) {
    if (rng.bernoulli(0.6)) dsts.push_back(AdId{d});
  }
  std::vector<IdrpRoute> table;
  for (AdId dst : dsts) {
    for (IdrpRoute& route : random_run(rng, from, dst, valid)) {
      table.push_back(std::move(route));
    }
  }
  return table;
}

// [begin, end) of each destination run of `table`, in table order.
std::vector<std::pair<std::size_t, std::size_t>> runs_of(
    const std::vector<IdrpRoute>& table) {
  std::vector<std::pair<std::size_t, std::size_t>> runs;
  for (std::size_t i = 0; i < table.size(); ++i) {
    if (runs.empty() || table[runs.back().first].dst != table[i].dst) {
      runs.emplace_back(i, i);
    }
    runs.back().second = i + 1;
  }
  return runs;
}

// `table` with its destination runs `i` and `j` exchanged.
std::vector<IdrpRoute> swap_runs(const std::vector<IdrpRoute>& table,
                                 std::size_t i, std::size_t j) {
  auto runs = runs_of(table);
  std::swap(runs[i], runs[j]);
  std::vector<IdrpRoute> out;
  for (const auto& [begin, end] : runs) {
    out.insert(out.end(), table.begin() + static_cast<std::ptrdiff_t>(begin),
               table.begin() + static_cast<std::ptrdiff_t>(end));
  }
  return out;
}

std::vector<IdrpRoute> selected(const IdrpNode& node, AdId dst) {
  std::vector<IdrpRoute> out;
  for (const IdrpRoute& route : node.routes(dst)) out.push_back(route);
  return out;
}

// The documented decision, computed from scratch as a full rebuild does:
// per destination, the routes of the usable (link up) neighbors sorted by
// (path length, cost, link delay to the neighbor, neighbor AD id,
// position in its table), keeping up to routes_per_dest routes that no
// kept route covers. Destinations come in ascending order.
struct ReferenceDecision {
  std::vector<AdId> order;
  std::vector<std::vector<IdrpRoute>> routes;  // by dst id
};

ReferenceDecision reference_decision(const HistoryRig& rig,
                                     const Tables& tables) {
  using Key = std::tuple<std::size_t, std::uint32_t, double, std::uint32_t,
                         std::size_t>;
  std::vector<std::vector<std::pair<Key, const IdrpRoute*>>> candidates(kAds);
  for (const auto [n, table] : tables) {
    if (!rig.link_up(n)) continue;
    const double delay = rig.topo.link(link_to(rig.topo, n)).delay_ms;
    for (std::size_t i = 0; i < table.size(); ++i) {
      const IdrpRoute& route = table[i];
      candidates[route.dst.v].emplace_back(
          Key{route.path.size(), route.attrs.cost, delay, n, i}, &route);
    }
  }
  ReferenceDecision ref;
  ref.routes.resize(kAds);
  for (std::uint32_t dst = 0; dst < kAds; ++dst) {
    auto& cands = candidates[dst];
    std::sort(cands.begin(), cands.end());
    std::vector<IdrpRoute>& kept = ref.routes[dst];
    for (const auto& [key, cand] : cands) {
      if (kept.size() >= 2) break;  // HistoryRig's routes_per_dest
      if (std::none_of(kept.begin(), kept.end(), [&](const IdrpRoute& k) {
            return k.attrs.covers(cand->attrs);
          })) {
        kept.push_back(*cand);
      }
    }
    if (!kept.empty()) ref.order.push_back(AdId{dst});
  }
  return ref;
}

// Distinct destinations of an encoded update, in order of appearance.
std::vector<AdId> update_dsts(const std::vector<std::uint8_t>& update) {
  wire::Reader r(update);
  r.u8();
  const std::uint16_t count = r.u16();
  std::vector<AdId> dsts;
  for (std::uint16_t i = 0; i < count; ++i) {
    const auto route = IdrpRoute::decode(r);
    if (!route) break;
    if (std::find(dsts.begin(), dsts.end(), route->dst) == dsts.end()) {
      dsts.push_back(route->dst);
    }
  }
  return dsts;
}

// Checks the subject against the reference decision and against a fresh
// node fed `tables` under the same link states, in a neighbor order
// shuffled by `order_seed`. Updates are compared only when damping cannot
// make them differ: with damping off, or after a quiet period.
void expect_same_decision(HistoryRig& churned, const Tables& tables,
                          const PolicySet& policies, bool damping,
                          AdId crashed, std::uint64_t order_seed) {
  const ReferenceDecision ref = reference_decision(churned, tables);
  HistoryRig fresh(churned.topo, policies, damping, churned.defend);
  std::vector<std::uint32_t> order(tables.keys().begin(),
                                   tables.keys().end());
  Prng shuffle(order_seed);
  std::shuffle(order.begin(), order.end(), shuffle);
  for (const std::uint32_t n : order) fresh.feed(AdId{n}, *tables.find(n));
  if (damping) fresh.advance(kQuietMs);
  EXPECT_EQ(churned.subject->adj_rib_routes(),
            fresh.subject->adj_rib_routes());
  EXPECT_EQ(churned.subject->loc_rib_routes(),
            fresh.subject->loc_rib_routes());
  for (std::uint32_t d = 1; d < kAds; ++d) {
    EXPECT_EQ(selected(*churned.subject, AdId{d}), ref.routes[d])
        << "dst " << d;
    EXPECT_EQ(selected(*fresh.subject, AdId{d}), ref.routes[d])
        << "dst " << d;
  }
  for (std::uint32_t n = 1; n <= kNeighbors; ++n) {
    if (AdId{n} == crashed || !churned.link_up(n)) continue;
    const std::vector<std::uint8_t> update = churned.next_update(AdId{n});
    EXPECT_EQ(update, fresh.next_update(AdId{n})) << "update to " << n;
    // Encode order: ascending, so self (AD 0) first, then the reference
    // order (restricted to the destinations this neighbor is sent).
    const std::vector<AdId> sent = update_dsts(update);
    std::vector<AdId> expected{kSubject};
    for (AdId dst : ref.order) {
      if (std::find(sent.begin(), sent.end(), dst) != sent.end()) {
        expected.push_back(dst);
      }
    }
    EXPECT_EQ(sent, expected) << "update to " << n;
  }
}

void run_history(std::uint64_t seed, bool damping, bool defend = false) {
  const Topology topo = history_topology();
  const PolicySet policies = make_open_policies(topo);
  Prng rng(seed);
  HistoryRig churned(topo, policies, damping, defend);
  Tables tables;
  AdId crashed = kNoAd;
  SimTime flush_at = -1.0;
  for (int step = 1; step <= 300; ++step) {
    const auto n = static_cast<std::uint32_t>(rng.uniform(1, kNeighbors));
    const AdId nbr{n};
    const bool alive = nbr != crashed;
    const bool up = churned.link_up(n);
    const std::uint64_t op = rng.below(14);
    const bool has_table =
        alive && up && tables.contains(n) && !tables.find(n)->empty();
    if (op <= 3 && alive && up) {
      // A new table: grows and shrinks runs, adds and drops destinations.
      std::vector<IdrpRoute> table = random_table(rng, nbr, defend);
      churned.feed(nbr, table);
      tables[n] = std::move(table);
    } else if (op <= 5 && alive && up && tables.contains(n) &&
               !tables.find(n)->empty()) {
      // Same destination sequence, one route changed in place.
      std::vector<IdrpRoute> table = *tables.find(n);
      IdrpRoute& route = table[rng.below(table.size())];
      if (rng.bernoulli(0.5)) {
        route.attrs.cost ^= 1u;
      } else if (route.path.size() > 1) {
        const AdId mid{static_cast<std::uint32_t>(
            rng.uniform(kNeighbors + 1, kAds - 1))};
        if (mid != route.path[1]) {
          route.path.insert(route.path.begin() + 1, mid);
        }
      }
      churned.feed(nbr, table);
      tables[n] = std::move(table);
    } else if (op == 6 && alive) {
      // Link flip. With notifications off the subject keeps the table of
      // a down neighbor and only observes the flip at its next
      // reselection; with them on, link-down erases the table.
      const bool notify = rng.bernoulli(0.5);
      churned.net.set_link_notifications(notify);
      churned.net.set_link_state(link_to(churned.topo, n), !up);
      churned.net.set_link_notifications(true);
      if (notify && up) tables.erase(n);
    } else if (op == 7 && alive && up && crashed == kNoAd && step < 200) {
      // GR: the neighbor crashes into grace, its table is retained
      // stale, and nobody resyncs it, so it is flushed at expiry.
      churned.net.crash(nbr);
      crashed = nbr;
      flush_at = churned.engine.now() + kGraceMs + 0.1;
    } else if (op == 8 && alive && up && tables.contains(n)) {
      churned.feed(nbr, *tables.find(n));  // identical re-send
    } else if (op == 10 && has_table && runs_of(*tables.find(n)).size() > 1) {
      // Two destinations' runs swapped: the table descends, so it is
      // dropped as malformed and the held one stays.
      const std::vector<IdrpRoute>& table = *tables.find(n);
      const auto runs = runs_of(table);
      const std::size_t r = rng.below(runs.size());
      const std::size_t other =
          (r + 1 + rng.below(runs.size() - 1)) % runs.size();
      const std::uint64_t dropped =
          churned.net.counters(kSubject).malformed_dropped;
      churned.feed(nbr, swap_runs(table, r, other));
      EXPECT_EQ(churned.net.counters(kSubject).malformed_dropped, dropped + 1);
    } else if ((op == 9 || op == 11 || op == 12) && has_table) {
      // One destination's run edited, the rest of the table as it was:
      // later runs shift, but only the edited destinations change.
      std::vector<IdrpRoute> table = *tables.find(n);
      const auto runs = runs_of(table);
      const std::size_t r = rng.below(runs.size());
      const auto [begin, end] = runs[r];
      const auto at = [&](std::size_t i) {
        return table.begin() + static_cast<std::ptrdiff_t>(i);
      };
      if (op == 9) {
        // Grow or shrink the run in place.
        if (end - begin > 1 && rng.bernoulli(0.5)) {
          table.erase(at(begin + rng.below(end - begin)));
        } else {
          table.insert(at(begin + rng.below(end - begin + 1)),
                       random_route(rng, nbr, table[begin].dst, defend));
        }
      } else if (op == 11) {
        table.erase(at(begin), at(end));  // drop one destination
      } else {
        // Add one destination, at its ascending place.
        std::vector<AdId> absent;
        for (std::uint32_t d = 1; d < kAds; ++d) {
          if (std::none_of(table.begin(), table.end(),
                           [&](const IdrpRoute& x) { return x.dst.v == d; })) {
            absent.push_back(AdId{d});
          }
        }
        if (!absent.empty()) {
          const AdId dst = absent[rng.below(absent.size())];
          const std::vector<IdrpRoute> run =
              random_run(rng, nbr, dst, defend);
          table.insert(std::partition_point(table.begin(), table.end(),
                                            [&](const IdrpRoute& x) {
                                              return x.dst.v < dst.v;
                                            }),
                       run.begin(), run.end());
        }
      }
      churned.feed(nbr, table);
      tables[n] = std::move(table);
    }
    churned.advance(static_cast<SimTime>(rng.below(40)));
    if (flush_at >= 0.0 && churned.engine.now() >= flush_at) {
      tables.erase(crashed.v);
      flush_at = -1.0;
    }
    if (step % 30 == 0 && !damping) {
      // Checkpoint, links as they are. The check advances the subject's
      // clock (50 ms per neighbor update it asks for), so a GR flush due
      // within that span is settled first: the subject must not drop a
      // table the reference still holds halfway through the comparison.
      if (flush_at >= 0.0 &&
          flush_at < churned.engine.now() + 50.0 * kNeighbors) {
        churned.advance(flush_at - churned.engine.now());
        tables.erase(crashed.v);
        flush_at = -1.0;
      }
      // An identical re-send makes the subject reselect under the current
      // link states first.
      for (const auto [m, table] : tables) {
        if (AdId{m} == crashed) continue;
        churned.feed(AdId{m}, table);
        break;
      }
      expect_same_decision(churned, tables, policies, damping, crashed,
                           seed * 1000 + static_cast<std::uint64_t>(step));
    }
  }
  churned.advance(kGraceMs + 1.0);
  if (flush_at >= 0.0) tables.erase(crashed.v);
  // Links back up, then an identical re-send per neighbor so the subject
  // reselects with every link up.
  for (std::uint32_t n = 1; n <= kNeighbors; ++n) {
    if (!churned.link_up(n)) {
      churned.net.set_link_state(link_to(churned.topo, n), true);
    }
  }
  for (const auto [n, table] : tables) churned.feed(AdId{n}, table);
  churned.advance(kQuietMs);
  expect_same_decision(churned, tables, policies, damping, crashed,
                       seed * 1000);
}

TEST(IdrpIncremental, DecisionIsIndependentOfHistory) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    run_history(seed, /*damping=*/false);
  }
}

TEST(IdrpIncremental, DecisionIsIndependentOfHistoryWithDamping) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    run_history(seed, /*damping=*/true);
  }
}

// The defended receiver decodes through the same scratch, then keeps
// clamped copies; the decision must still be history independent.
TEST(IdrpIncremental, DecisionIsIndependentOfHistoryDefended) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    run_history(seed, /*damping=*/false, /*defend=*/true);
  }
}

// Everything a neighbor or a forwarding decision can observe of the
// subject's RIBs.
struct Observed {
  std::size_t adj_rib_routes = 0;
  std::vector<std::vector<IdrpRoute>> routes;        // by dst id
  std::vector<std::vector<std::uint8_t>> updates;    // to AD n at n - 1
  friend bool operator==(const Observed&, const Observed&) = default;
};

Observed observe(HistoryRig& rig) {
  Observed o;
  o.adj_rib_routes = rig.subject->adj_rib_routes();
  for (std::uint32_t d = 0; d < kAds; ++d) {
    o.routes.push_back(selected(*rig.subject, AdId{d}));
  }
  for (std::uint32_t n = 1; n <= kNeighbors; ++n) {
    o.updates.push_back(rig.next_update(AdId{n}));
  }
  return o;
}

// A malformed update is dropped whole: the scratch it was decoded into
// never reaches the Adj-RIB-in, whether the bad bytes come at the end or
// in the middle, whether the destinations descend, and whether the
// decoded prefix matches the held table or not.
TEST(IdrpIncremental, MalformedUpdateLeavesStateUntouched) {
  const Topology topo = history_topology();
  const PolicySet policies = make_open_policies(topo);
  for (const bool defend : {false, true}) {
    SCOPED_TRACE(defend);
    Prng rng(7);
    HistoryRig rig(topo, policies, /*damping=*/false, defend);
    for (std::uint32_t n = 1; n <= kNeighbors; ++n) {
      rig.feed(AdId{n}, random_table(rng, AdId{n}, /*valid=*/true));
    }
    const AdId from{1};
    std::vector<IdrpRoute> valid;
    while (valid.size() < 4) valid = random_table(rng, from, true);
    std::vector<IdrpRoute> other;
    while (other.size() < 4) other = random_table(rng, from, true);
    rig.feed(from, valid);
    rig.advance(50.0);
    const Observed before = observe(rig);

    // The update with its tail cut off.
    const auto truncated = [](const std::vector<IdrpRoute>& table) {
      std::vector<std::uint8_t> bytes = HistoryRig::encode_update(table);
      bytes.resize(bytes.size() - 3);
      return bytes;
    };
    // The update with the middle route's path length claiming more ADs
    // than the rest of the buffer holds.
    const auto undecodable = [](const std::vector<IdrpRoute>& table) {
      wire::Writer w;
      w.u8(IdrpNode::kMsgUpdate);
      w.u16(static_cast<std::uint16_t>(table.size()));
      for (std::size_t i = 0; i < table.size(); ++i) {
        if (i == table.size() / 2) {
          w.u32(table[i].dst.v);
          w.u16(0xffff);
          continue;
        }
        table[i].encode(w);
      }
      return std::move(w).take();
    };
    // The update with its first and last destinations exchanged: well
    // formed route by route, but the destinations descend.
    const auto descending = [](const std::vector<IdrpRoute>& table) {
      return HistoryRig::encode_update(
          swap_runs(table, 0, runs_of(table).size() - 1));
    };
    const std::vector<std::vector<std::uint8_t>> malformed = {
        truncated(valid),  undecodable(valid), descending(valid),
        truncated(other),  undecodable(other), descending(other)};
    for (std::size_t m = 0; m < malformed.size(); ++m) {
      SCOPED_TRACE(m);
      const std::uint64_t dropped =
          rig.net.counters(kSubject).malformed_dropped;
      const std::uint64_t reselected = rig.subject->reselected_dsts();
      rig.subject->on_message(from, malformed[m]);
      rig.advance(50.0);
      EXPECT_EQ(rig.net.counters(kSubject).malformed_dropped, dropped + 1);
      EXPECT_EQ(rig.subject->reselected_dsts(), reselected);
      EXPECT_EQ(observe(rig), before);
    }
    // The scratch holds the last malformed prefix; a valid update after it
    // still diffs against the held table.
    const std::uint64_t reselected = rig.subject->reselected_dsts();
    rig.feed(from, valid);
    EXPECT_EQ(rig.subject->reselected_dsts(), reselected);
    EXPECT_EQ(observe(rig), before);
  }
}

// Only the destinations an update changes are reselected, whatever it
// does to the positions of the others.
TEST(IdrpIncremental, ReselectsOnlyChangedDestinations) {
  const Topology topo = history_topology();
  const PolicySet policies = make_open_policies(topo);
  Prng rng(3);
  HistoryRig rig(topo, policies, /*damping=*/false);
  Tables tables;
  for (std::uint32_t n = 2; n <= kNeighbors; ++n) {
    tables[n] = random_table(rng, AdId{n});
    rig.feed(AdId{n}, *tables.find(n));
  }
  const AdId from{1};
  std::vector<IdrpRoute> table;
  for (std::uint32_t d = 6; d < kAds; ++d) {
    table.push_back(random_route(rng, from, AdId{d}, /*valid=*/true));
  }
  tables[from.v] = table;
  rig.feed(from, table);
  const auto expect_reselected = [&](const std::vector<IdrpRoute>& next,
                                     std::uint64_t expected) {
    const std::uint64_t before = rig.subject->reselected_dsts();
    rig.feed(from, next);
    tables[from.v] = next;
    EXPECT_EQ(rig.subject->reselected_dsts() - before, expected);
    expect_same_decision(rig, tables, policies, /*damping=*/false, kNoAd,
                         rig.subject->reselected_dsts());
  };
  // A second route for the second destination: every later run moves.
  // This used to replace the whole table and reselect all of it.
  table.insert(table.begin() + 2,
               random_route(rng, from, table[1].dst, /*valid=*/true));
  expect_reselected(table, 1);
  // The same routes in another destination order: malformed, dropped,
  // nothing reselected.
  const std::uint64_t dropped = rig.net.counters(kSubject).malformed_dropped;
  const std::uint64_t before = rig.subject->reselected_dsts();
  rig.feed(from, swap_runs(table, 0, runs_of(table).size() - 1));
  EXPECT_EQ(rig.net.counters(kSubject).malformed_dropped, dropped + 1);
  EXPECT_EQ(rig.subject->reselected_dsts(), before);
  expect_same_decision(rig, tables, policies, /*damping=*/false, kNoAd, 1);
  table.erase(table.begin());  // one destination fewer
  expect_reselected(table, 1);
  // One more, ahead of the rest.
  table.insert(table.begin(), random_route(rng, from, AdId{2}, true));
  expect_reselected(table, 1);
  expect_reselected(table, 0);  // an identical re-send
}

// Every change to the selected routes reaches the neighbors: after each
// update, what a neighbor last received is what it would be sent now.
// (A loc-RIB ordered by first appearance over the neighbors once changed
// its order alone without advertising it; with these tables that first
// happens at step 503.)
TEST(IdrpIncremental, AdvertisesEveryChange) {
  const Topology topo = history_topology();
  const PolicySet policies = make_open_policies(topo);
  Prng rng(42);
  HistoryRig rig(topo, policies, /*damping=*/false);
  for (int step = 0; step < 600; ++step) {
    const AdId nbr{static_cast<std::uint32_t>(rng.uniform(1, kNeighbors))};
    rig.feed(nbr, random_table(rng, nbr, /*valid=*/true));
    rig.advance(10.0);
    for (std::uint32_t n = 1; n <= kNeighbors; ++n) {
      const std::vector<std::uint8_t> sent = rig.recorders[n - 1]->last;
      EXPECT_EQ(sent, rig.next_update(AdId{n})) << "step " << step;
    }
  }
}

}  // namespace
}  // namespace idr
