#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "core/design_harness.hpp"
#include "policy/generator.hpp"
#include "proto/lshh/lshh_node.hpp"
#include "proto/orwg/orwg_node.hpp"
#include "sim/engine.hpp"
#include "sim/network.hpp"
#include "topology/figure1.hpp"
#include "util/prng.hpp"

namespace idr {
namespace {

TEST(PolicyLsdbUnit, InsertKeepsNewestPerOrigin) {
  PolicyLsdb db;
  PolicyLsa lsa;
  lsa.origin = AdId{3};
  lsa.seq = 5;
  EXPECT_TRUE(db.insert(lsa));
  EXPECT_EQ(db.version(), 1u);
  lsa.seq = 4;
  EXPECT_FALSE(db.insert(lsa));  // stale
  EXPECT_EQ(db.version(), 1u);
  lsa.seq = 5;
  EXPECT_FALSE(db.insert(lsa));  // duplicate
  lsa.seq = 6;
  EXPECT_TRUE(db.insert(lsa));
  EXPECT_EQ(db.version(), 2u);
  EXPECT_EQ(db.get(AdId{3})->seq, 6u);
  EXPECT_EQ(db.get(AdId{9}), nullptr);
  EXPECT_EQ(db.size(), 1u);
}

TEST(PolicyLsdbUnit, ViewRequiresBidirectionalAdjacency) {
  PolicyLsdb db;
  PolicyLsa a;
  a.origin = AdId{0};
  a.seq = 1;
  a.adjacencies.push_back(PolicyLsaAdjacency{AdId{1}, 4});
  db.insert(a);
  const LsdbView view(db, 2);
  // Only one side advertises the link: unusable.
  int seen = 0;
  view.for_each_neighbor(AdId{0}, [&](AdId, std::uint32_t) { ++seen; });
  EXPECT_EQ(seen, 0);
  PolicyLsa b;
  b.origin = AdId{1};
  b.seq = 1;
  b.adjacencies.push_back(PolicyLsaAdjacency{AdId{0}, 4});
  db.insert(b);
  view.for_each_neighbor(AdId{0}, [&](AdId n, std::uint32_t m) {
    ++seen;
    EXPECT_EQ(n, AdId{1});
    EXPECT_EQ(m, 4u);
  });
  EXPECT_EQ(seen, 1);
}

TEST(PolicyLsdbUnit, TransitCostPicksCheapestPermittingTerm) {
  PolicyLsdb db;
  PolicyLsa lsa;
  lsa.origin = AdId{2};
  lsa.seq = 1;
  PolicyTerm expensive = open_transit_term(AdId{2}, 0, 9);
  PolicyTerm cheap = open_transit_term(AdId{2}, 1, 2);
  cheap.uci_mask = uci_bit(UserClass::kResearch);
  lsa.terms = {expensive, cheap};
  db.insert(lsa);
  const LsdbView view(db, 3);
  FlowSpec research{AdId{0}, AdId{1}, Qos::kDefault, UserClass::kResearch,
                    12};
  FlowSpec commercial = research;
  commercial.uci = UserClass::kCommercial;
  EXPECT_EQ(view.transit_cost(AdId{2}, research, AdId{0}, AdId{1}), 2u);
  EXPECT_EQ(view.transit_cost(AdId{2}, commercial, AdId{0}, AdId{1}), 9u);
  EXPECT_FALSE(
      view.transit_cost(AdId{1}, research, AdId{0}, AdId{2}).has_value());
}

PolicyLsa stub_lsa(std::uint32_t origin, std::uint32_t seq,
                   std::vector<AdId> stubs) {
  PolicyLsa lsa;
  lsa.origin = AdId{origin};
  lsa.seq = seq;
  lsa.attached_stubs = std::move(stubs);
  return lsa;
}

TEST(PolicyLsdbUnit, LowestListingOriginOwnsMultiListedStub) {
  PolicyLsdb db;
  db.insert(stub_lsa(7, 1, {AdId{20}, AdId{21}}));
  EXPECT_EQ(db.attachment(AdId{20}), AdId{7});
  db.insert(stub_lsa(4, 1, {AdId{21}}));
  EXPECT_EQ(db.attachment(AdId{20}), AdId{7});
  EXPECT_EQ(db.attachment(AdId{21}), AdId{4});
  db.insert(stub_lsa(9, 1, {AdId{21}, AdId{20}}));
  EXPECT_EQ(db.attachment(AdId{20}), AdId{7});
  EXPECT_EQ(db.attachment(AdId{21}), AdId{4});
  // The owner drops the stub: the next-lowest listing origin takes over.
  db.insert(stub_lsa(4, 2, {}));
  EXPECT_EQ(db.attachment(AdId{21}), AdId{7});
  EXPECT_EQ(db.attachment(AdId{22}), kNoAd);  // listed by nobody
}

TEST(PolicyLsdbUnit, TransitAdsOwnThemselves) {
  PolicyLsdb db;
  db.insert(stub_lsa(1, 1, {AdId{2}, AdId{5}}));
  EXPECT_EQ(db.attachment(AdId{2}), AdId{1});
  // AD 2 now originates an LSA of its own: it owns itself even though a
  // lower origin still lists it.
  db.insert(stub_lsa(2, 1, {}));
  EXPECT_EQ(db.attachment(AdId{1}), AdId{1});
  EXPECT_EQ(db.attachment(AdId{2}), AdId{2});
  EXPECT_EQ(db.attachment(AdId{5}), AdId{1});
}

// Randomized churn against a from-scratch reference: after every insert
// the lazily maintained index must equal the min listing origin over the
// current LSAs (or the AD itself when it originates one).
TEST(PolicyLsdbUnit, AttachmentMatchesReferenceUnderChurn) {
  constexpr std::uint32_t kOrigins = 6;
  constexpr std::uint32_t kIds = 20;  // origins 0..5, stubs 6..19
  Prng rng(0xa77ac4ULL);
  PolicyLsdb db;
  std::map<std::uint32_t, PolicyLsa> ref;  // origin -> stored LSA

  const auto ref_owner = [&](AdId ad) {
    if (ref.count(ad.v)) return ad;
    AdId owner = kNoAd;
    for (const auto& [origin, lsa] : ref) {
      const auto& stubs = lsa.attached_stubs;
      if (std::find(stubs.begin(), stubs.end(), ad) != stubs.end() &&
          (!owner.valid() || origin < owner.v)) {
        owner = AdId{origin};
      }
    }
    return owner;
  };
  const auto random_stub = [&] {
    return AdId{kOrigins +
                static_cast<std::uint32_t>(rng.below(kIds - kOrigins))};
  };

  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (int step = 0; step < 4000; ++step) {
    const auto origin = static_cast<std::uint32_t>(rng.below(kOrigins));
    const PolicyLsa* have = db.get(AdId{origin});
    PolicyLsa lsa = have ? *have : stub_lsa(origin, 0, {});
    ++lsa.seq;
    std::vector<AdId>& stubs = lsa.attached_stubs;
    switch (rng.below(9)) {
      case 0:  // stub added
        if (const AdId s = random_stub();
            std::find(stubs.begin(), stubs.end(), s) == stubs.end()) {
          stubs.push_back(s);
        }
        break;
      case 1:  // stub removed
        if (!stubs.empty()) {
          stubs.erase(stubs.begin() +
                      static_cast<std::ptrdiff_t>(rng.below(stubs.size())));
        }
        break;
      case 2:  // stub re-homed: same list size, different member
        if (!stubs.empty()) {
          const AdId s = random_stub();
          if (std::find(stubs.begin(), stubs.end(), s) == stubs.end()) {
            stubs[rng.below(stubs.size())] = s;
          }
        }
        break;
      case 3:  // list reordered
        std::shuffle(stubs.begin(), stubs.end(), rng);
        break;
      case 4:  // adjacency-only update
        lsa.adjacencies.push_back(
            PolicyLsaAdjacency{AdId{static_cast<std::uint32_t>(
                                   rng.below(kOrigins))},
                               1});
        break;
      case 5:  // term-only update
        lsa.terms.push_back(open_transit_term(AdId{origin}));
        break;
      case 6:  // stale: an older sequence number with a different list
        if (!have) break;
        lsa.seq = have->seq - static_cast<std::uint32_t>(rng.below(2));
        stubs.push_back(random_stub());
        break;
      case 7:  // forged empty LSA for the origin, far ahead in sequence
        lsa = stub_lsa(origin, lsa.seq + 64, {});
        break;
      default:  // duplicate of the stored copy
        if (have) --lsa.seq;
        break;
    }
    const bool newer = !have || lsa.seq > have->seq;
    ASSERT_EQ(db.insert(lsa), newer) << "step " << step;
    if (newer) {
      ref[origin] = lsa;
      ++accepted;
    } else {
      ++rejected;
    }
    for (std::uint32_t id = 0; id <= kIds; ++id) {
      ASSERT_EQ(db.attachment(AdId{id}), ref_owner(AdId{id}))
          << "step " << step << " id " << id;
    }
  }
  EXPECT_GT(accepted, 1000u);
  EXPECT_GT(rejected, 300u);
}

// Hierarchical LS nodes on Figure 1: the multi-homed campus hangs off
// Reg-1 and Reg-2. Taking down its lower-id parent link re-homes it at
// every transit AD once the flood drains, and the design probe keeps
// agreeing with ground-truth reachability for every pair.
class HierarchicalLsTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    fig_ = build_figure1();
    policies_ = make_open_policies(fig_.topo);
    net_ = std::make_unique<Network>(engine_, fig_.topo);
    for (const Ad& ad : fig_.topo.ads()) {
      if (GetParam() == "ls-hbh") {
        LshhConfig config;
        config.hierarchical = true;
        net_->attach(ad.id, std::make_unique<LshhNode>(&policies_, config));
      } else {
        OrwgConfig config;
        config.hierarchical = true;
        net_->attach(ad.id, std::make_unique<OrwgNode>(&policies_, config));
      }
    }
    net_->start_all();
    engine_.run();
  }

  const PolicyLsdb& lsdb(AdId ad) {
    if (GetParam() == "ls-hbh") {
      return static_cast<LshhNode*>(net_->forwarding_node(ad))->lsdb();
    }
    return static_cast<OrwgNode*>(net_->forwarding_node(ad))->lsdb();
  }

  void expect_owner_everywhere(AdId stub, AdId owner) {
    for (const Ad& ad : fig_.topo.ads()) {
      if (!fig_.topo.can_transit(ad.id)) continue;
      EXPECT_EQ(lsdb(ad.id).attachment(stub), owner) << ad.name;
    }
  }

  void expect_probes_match_ground_truth() {
    const auto probe = make_design_probe(GetParam(), *net_, fig_.topo);
    for (const Ad& src : fig_.topo.ads()) {
      for (const Ad& dst : fig_.topo.ads()) {
        if (src.id == dst.id) continue;
        const Probe p = probe(FlowSpec{src.id, dst.id});
        EXPECT_EQ(p.outcome == ProbeOutcome::kDelivered,
                  policy_reachable(*net_, fig_.topo, policies_, src.id,
                                   dst.id))
            << src.name << " -> " << dst.name;
      }
    }
  }

  Figure1 fig_;
  PolicySet policies_;
  Engine engine_;
  std::unique_ptr<Network> net_;
};

TEST_P(HierarchicalLsTest, MultiHomedStubRehomesWhenLowerParentLinkFails) {
  const AdId low = std::min(fig_.regional[1], fig_.regional[2]);
  const AdId high = std::max(fig_.regional[1], fig_.regional[2]);
  expect_owner_everywhere(fig_.multihomed, low);
  expect_probes_match_ground_truth();

  net_->set_link_state(*fig_.topo.find_link(low, fig_.multihomed), false);
  engine_.run();
  expect_owner_everywhere(fig_.multihomed, high);
  expect_probes_match_ground_truth();
  const auto probe = make_design_probe(GetParam(), *net_, fig_.topo);
  const Probe p = probe(FlowSpec{fig_.campus[0], fig_.multihomed});
  ASSERT_EQ(p.outcome, ProbeOutcome::kDelivered);
  ASSERT_GE(p.path.size(), 2u);
  EXPECT_EQ(p.path[p.path.size() - 2], high);

  net_->set_link_state(*fig_.topo.find_link(low, fig_.multihomed), true);
  engine_.run();
  expect_owner_everywhere(fig_.multihomed, low);
  expect_probes_match_ground_truth();
}

INSTANTIATE_TEST_SUITE_P(LsDesigns, HierarchicalLsTest,
                         ::testing::Values("ls-hbh", "orwg"),
                         [](const auto& info) {
                           return info.param == "ls-hbh" ? "LsHbh" : "Orwg";
                         });

class LshhTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fig_ = build_figure1();
    policies_ = make_open_policies(fig_.topo);
  }

  void converge() {
    net_ = std::make_unique<Network>(engine_, fig_.topo);
    for (const Ad& ad : fig_.topo.ads()) {
      auto node = std::make_unique<LshhNode>(&policies_);
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
  std::vector<LshhNode*> nodes_;
};

TEST_F(LshhTest, LsdbFullyFloods) {
  converge();
  for (LshhNode* node : nodes_) {
    EXPECT_EQ(node->lsdb().size(), fig_.topo.ad_count());
  }
}

TEST_F(LshhTest, AllNodesComputeConsistentPaths) {
  converge();
  FlowSpec flow{fig_.campus[0], fig_.campus[6]};
  // Every AD on the path agrees on the successor chain: walking from the
  // source must succeed and stay legal.
  const auto path = route(flow);
  ASSERT_TRUE(path.has_value());
  EXPECT_TRUE(policies_.path_is_legal(fig_.topo, flow, *path));
}

TEST_F(LshhTest, HonorsPublishedSourcePolicy) {
  policies_.source_policy(fig_.campus[0]).avoid.push_back(
      fig_.backbone_east);
  converge();
  FlowSpec flow{fig_.campus[0], fig_.campus[4]};
  const auto path = route(flow);
  ASSERT_TRUE(path.has_value());
  for (AdId ad : *path) EXPECT_NE(ad, fig_.backbone_east);
  // The source's criteria were necessarily disclosed in its LSA: every
  // other AD can read them (the paper's privacy cost of LS hop-by-hop).
  const PolicyLsa* lsa = nodes_[fig_.campus[7].v]->lsdb().get(fig_.campus[0]);
  ASSERT_NE(lsa, nullptr);
  ASSERT_TRUE(lsa->has_source_policy);
  ASSERT_EQ(lsa->avoid.size(), 1u);
  EXPECT_EQ(lsa->avoid[0], fig_.backbone_east);
}

TEST_F(LshhTest, SourceSpecificPolicyRouting) {
  // BB-West carries only campus0-sourced traffic; campus1 must route
  // around (impossible here except via lateral campus links where legal).
  policies_.clear_terms(fig_.backbone_west);
  PolicyTerm t = open_transit_term(fig_.backbone_west);
  t.sources = AdSet::of({fig_.campus[0]});
  policies_.add_term(t);
  converge();
  const auto ok = route(FlowSpec{fig_.campus[0], fig_.campus[6]});
  ASSERT_TRUE(ok.has_value());
  // campus2's traffic may not cross BB-West. campus2 -> campus4 has the
  // Reg-1/Reg-2 lateral alternative and must use it.
  const auto alt = route(FlowSpec{fig_.campus[2], fig_.campus[4]});
  ASSERT_TRUE(alt.has_value());
  for (AdId ad : *alt) EXPECT_NE(ad, fig_.backbone_west);
}

TEST_F(LshhTest, PerFlowCacheGrowsPerSource) {
  converge();
  // Transit AD caches one entry per (source, dest, class) -- the paper's
  // state-blowup claim for hop-by-hop link state.
  LshhNode* bbw = nodes_[fig_.backbone_west.v];
  const std::size_t before = bbw->cache_entries();
  for (int c = 0; c < 4; ++c) {
    FlowSpec flow{fig_.campus[c], fig_.campus[6]};
    (void)bbw->forward(flow);
  }
  EXPECT_EQ(bbw->cache_entries(), before + 4);
  // Re-asking for a cached flow hits the cache, no new computation.
  const auto comps = bbw->path_computations();
  (void)bbw->forward(FlowSpec{fig_.campus[0], fig_.campus[6]});
  EXPECT_EQ(bbw->path_computations(), comps);
  EXPECT_GT(bbw->cache_hits(), 0u);
}

TEST_F(LshhTest, OffPathNodeDropsPacket) {
  converge();
  FlowSpec flow{fig_.campus[0], fig_.campus[1]};  // both under Reg-0
  // BB-East is nowhere near the agreed path; if a packet strayed there,
  // it must be dropped rather than re-routed inconsistently.
  EXPECT_FALSE(nodes_[fig_.backbone_east.v]->forward(flow).has_value());
}

TEST_F(LshhTest, ReconvergesAfterLinkFailure) {
  converge();
  FlowSpec flow{fig_.campus[0], fig_.campus[6]};
  ASSERT_TRUE(route(flow).has_value());
  net_->set_link_state(
      *fig_.topo.find_link(fig_.backbone_west, fig_.backbone_east), false);
  engine_.run();
  const auto path = route(flow);
  ASSERT_TRUE(path.has_value());
  EXPECT_TRUE(policies_.path_is_legal(fig_.topo, flow, *path));
}

TEST_F(LshhTest, CacheInvalidatedByNewLsa) {
  converge();
  FlowSpec flow{fig_.campus[0], fig_.campus[6]};
  LshhNode* src = nodes_[fig_.campus[0].v];
  (void)src->forward(flow);
  const auto comps = src->path_computations();
  net_->set_link_state(
      *fig_.topo.find_link(fig_.backbone_west, fig_.backbone_east), false);
  engine_.run();
  (void)src->forward(flow);
  EXPECT_GT(src->path_computations(), comps);  // cache was version-stale
}

}  // namespace
}  // namespace idr
