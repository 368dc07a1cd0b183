#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "core/adapters.hpp"
#include "core/metrics.hpp"
#include "core/oracle.hpp"
#include "core/scenario.hpp"
#include "policy/generator.hpp"
#include "topology/figure1.hpp"

namespace idr {
namespace {

class ArchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fig_ = build_figure1();
    policies_ = make_open_policies(fig_.topo);
  }
  Figure1 fig_;
  PolicySet policies_;
};

TEST_F(ArchTest, DesignPointsCoverTable1) {
  const auto archs = make_policy_architectures();
  ASSERT_EQ(archs.size(), 7u);
  // The four §5 design points must all be present.
  bool dv_hbh_topology = false, dv_hbh_terms = false;
  bool ls_hbh_terms = false, ls_sr_terms = false, dv_sr_terms = false;
  for (const auto& arch : archs) {
    const DesignPoint dp = arch->design_point();
    if (dp.algorithm == Algorithm::kDistanceVector &&
        dp.decision == Decision::kHopByHop &&
        dp.policy == PolicyExpression::kTopology) {
      dv_hbh_topology = true;
    }
    if (dp.algorithm == Algorithm::kDistanceVector &&
        dp.decision == Decision::kHopByHop &&
        dp.policy == PolicyExpression::kPolicyTerms) {
      dv_hbh_terms = true;
    }
    if (dp.algorithm == Algorithm::kLinkState &&
        dp.decision == Decision::kHopByHop &&
        dp.policy == PolicyExpression::kPolicyTerms) {
      ls_hbh_terms = true;
    }
    if (dp.algorithm == Algorithm::kLinkState &&
        dp.decision == Decision::kSourceRouting &&
        dp.policy == PolicyExpression::kPolicyTerms) {
      ls_sr_terms = true;
    }
    if (dp.algorithm == Algorithm::kDistanceVector &&
        dp.decision == Decision::kSourceRouting) {
      dv_sr_terms = true;
    }
  }
  EXPECT_TRUE(dv_hbh_topology);
  EXPECT_TRUE(dv_hbh_terms);
  EXPECT_TRUE(ls_hbh_terms);
  EXPECT_TRUE(ls_sr_terms);
  EXPECT_TRUE(dv_sr_terms);
}

TEST_F(ArchTest, EveryArchitectureRoutesOpenFigure1) {
  FlowSpec flow{fig_.campus[0], fig_.campus[6]};
  for (auto& arch : make_policy_architectures()) {
    arch->build(fig_.topo, policies_);
    const RouteTrace trace = arch->trace(flow);
    EXPECT_FALSE(trace.looped) << arch->name();
    ASSERT_TRUE(trace.path.has_value()) << arch->name();
    EXPECT_EQ(trace.path->front(), flow.src) << arch->name();
    EXPECT_EQ(trace.path->back(), flow.dst) << arch->name();
  }
}

TEST_F(ArchTest, PolicyAwareArchitecturesProduceLegalRoutes) {
  FlowSpec flow{fig_.campus[1], fig_.campus[5]};
  for (auto& arch : make_policy_architectures()) {
    const PolicyExpression pe = arch->design_point().policy;
    if (pe == PolicyExpression::kNone) continue;
    arch->build(fig_.topo, policies_);
    const RouteTrace trace = arch->trace(flow);
    ASSERT_TRUE(trace.path.has_value()) << arch->name();
    EXPECT_TRUE(policies_.path_is_legal(fig_.topo, flow, *trace.path))
        << arch->name();
  }
}

TEST_F(ArchTest, EgpRejectsCyclicTopology) {
  EgpArchitecture egp;
  EXPECT_FALSE(egp.applicable(fig_.topo));
}

TEST_F(ArchTest, EgpRunsOnTree) {
  Topology tree;
  const AdId root = tree.add_ad(AdClass::kBackbone, AdRole::kTransit);
  const AdId mid = tree.add_ad(AdClass::kRegional, AdRole::kTransit);
  const AdId leaf_a = tree.add_ad(AdClass::kCampus, AdRole::kStub);
  const AdId leaf_b = tree.add_ad(AdClass::kCampus, AdRole::kStub);
  tree.add_link(root, mid, LinkClass::kHierarchical);
  tree.add_link(mid, leaf_a, LinkClass::kHierarchical);
  tree.add_link(root, leaf_b, LinkClass::kHierarchical);
  PolicySet policies = make_open_policies(tree);
  EgpArchitecture egp;
  ASSERT_TRUE(egp.applicable(tree));
  egp.build(tree, policies);
  const RouteTrace trace = egp.trace(FlowSpec{leaf_a, leaf_b});
  ASSERT_TRUE(trace.path.has_value());
  EXPECT_EQ(trace.path->size(), 4u);
}

TEST_F(ArchTest, PerturbReportsReconvergenceCost) {
  IdrpArchitecture idrp;
  idrp.build(fig_.topo, policies_);
  const auto initial = idrp.initial_convergence();
  EXPECT_GT(initial.messages, 0u);
  const LinkId cut =
      *fig_.topo.find_link(fig_.backbone_west, fig_.backbone_east);
  // NOTE: perturb applies to the architecture's private topology copy.
  const ConvergenceStats recon = idrp.perturb(cut, false);
  EXPECT_GT(recon.messages, 0u);
  // The architecture's own copy changed, not the scenario's.
  EXPECT_TRUE(fig_.topo.link(cut).up);
  EXPECT_FALSE(idrp.topo().link(cut).up);
}

TEST_F(ArchTest, StateAndHeaderQueriesWork) {
  for (auto& arch : make_policy_architectures()) {
    arch->build(fig_.topo, policies_);
    // Lazily-computed FIBs (ls-ospf) populate on first use.
    (void)arch->trace(FlowSpec{fig_.campus[0], fig_.campus[6]});
    EXPECT_GT(arch->state_entries(), 0u) << arch->name();
    EXPECT_GT(arch->header_bytes(5), 0u) << arch->name();
  }
  // Source-route headers grow with path length; handle-based ORWG ones
  // do not.
  DvsrArchitecture dvsr;
  OrwgArchitecture orwg;
  EXPECT_GT(dvsr.header_bytes(10), dvsr.header_bytes(3));
  EXPECT_EQ(orwg.header_bytes(10), orwg.header_bytes(3));
}

TEST(Evaluate, ComparesAgainstOracleOnScenario) {
  ScenarioParams params;
  params.seed = 3;
  params.target_ads = 40;
  params.flow_count = 24;
  Scenario scenario = make_scenario(params);

  OrwgArchitecture orwg;
  const ArchEvaluation eval = evaluate_architecture(
      orwg, scenario.topo, scenario.policies, scenario.flows);
  EXPECT_EQ(eval.flows, scenario.flows.size());
  EXPECT_GT(eval.oracle_routes, 0u);
  // The paper's headline: LS + SR + PT finds a legal route whenever one
  // exists (within budget), and never produces an illegal one.
  EXPECT_EQ(eval.legal, eval.oracle_routes);
  EXPECT_EQ(eval.illegal, 0u);
  EXPECT_EQ(eval.missed, 0u);
  EXPECT_EQ(eval.looped, 0u);
  EXPECT_DOUBLE_EQ(eval.availability(), 1.0);
}

TEST(Evaluate, PolicyBlindBaselineViolatesPolicy) {
  ScenarioParams params;
  params.seed = 4;
  params.target_ads = 40;
  params.flow_count = 32;
  params.restrict_prob = 0.5;
  Scenario scenario = make_scenario(params);

  DvArchitecture dv;
  const ArchEvaluation eval = evaluate_architecture(
      dv, scenario.topo, scenario.policies, scenario.flows);
  // RIP-style routing ignores policy entirely: it forwards along
  // shortest paths straight through ADs that forbid the traffic.
  EXPECT_GT(eval.illegal, 0u);
}

// Golden values for every make_policy_architectures() entry: initial
// convergence, state and computation totals, and a digest of every
// (src, dst) trace before and after one transit link fails. Any change
// to how an adapter builds its nodes or walks its data plane moves at
// least one of these numbers; a mismatch prints the measured rows.
struct Golden {
  std::string arch;
  std::size_t events;
  std::uint64_t messages;
  std::uint64_t bytes;
  std::size_t state;
  std::uint64_t computations;
  std::uint64_t digest_before;
  std::uint64_t digest_after;
  bool operator==(const Golden&) const = default;
};

// FNV-1a over the outcome and hops of every ordered (src, dst) trace.
std::uint64_t trace_digest(RoutingArchitecture& arch) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  const std::vector<Ad>& ads = arch.topo().ads();
  for (const Ad& src : ads) {
    for (const Ad& dst : ads) {
      if (src.id == dst.id) continue;
      const RouteTrace trace = arch.trace(FlowSpec{src.id, dst.id});
      mix(trace.looped ? 1 : 0);
      mix(trace.path ? trace.path->size() : 0);
      if (trace.path) {
        for (const AdId hop : *trace.path) mix(hop.v);
      }
    }
  }
  return h;
}

// The lowest-numbered link between two transit-capable ADs.
LinkId first_transit_link(const Topology& topo) {
  for (const Link& link : topo.links()) {
    if (topo.can_transit(link.a) && topo.can_transit(link.b)) return link.id;
  }
  return LinkId{};
}

// Prints a row as the initializer that would pin it.
void PrintTo(const Golden& g, std::ostream* os) {
  *os << "{\"" << g.arch << "\", " << g.events << ", " << g.messages
      << ", " << g.bytes << ", " << g.state << ", " << g.computations
      << ", 0x" << std::hex << g.digest_before << "ULL, 0x"
      << g.digest_after << "ULL}" << std::dec;
}

Golden measure(RoutingArchitecture& arch, const Topology& topo,
               const PolicySet& policies, LinkId cut) {
  Golden got{};
  got.arch = arch.name();
  arch.build(topo, policies);
  const ConvergenceStats& conv = arch.initial_convergence();
  got.events = conv.events;
  got.messages = conv.messages;
  got.bytes = conv.bytes;
  got.digest_before = trace_digest(arch);
  got.state = arch.state_entries();
  got.computations = arch.computations();
  (void)arch.perturb(cut, false);
  got.digest_after = trace_digest(arch);
  return got;
}

void expect_golden(const Topology& topo, const PolicySet& policies,
                   const std::vector<Golden>& golden) {
  const LinkId cut = first_transit_link(topo);
  ASSERT_TRUE(cut.valid());
  std::vector<Golden> got;
  for (const auto& arch : make_policy_architectures()) {
    got.push_back(measure(*arch, topo, policies, cut));
  }
  EXPECT_EQ(got, golden);
}

TEST_F(ArchTest, GoldenAdaptersOnFigure1) {
  expect_golden(fig_.topo, policies_, {
      {"dv-rip", 1112, 1112, 49146, 256, 0, 0x3babeb062a955f21ULL,
       0x5a91851b7d33f9e7ULL},
      {"ls-ospf", 368, 368, 14536, 960, 64, 0x4337a1bb23420999ULL,
       0x5a91851b7d33f9e7ULL},
      {"ecma", 626, 626, 255446, 1240, 0, 0xe934a9d40c50930bULL,
       0xcfc87fb091d7f18bULL},
      {"idrp", 368, 368, 79358, 581, 0, 0xf06885a090e215abULL,
       0xc59004924ea847d7ULL},
      {"ls-hbh", 368, 368, 22540, 938, 682, 0x657434314abdaaadULL,
       0xc59004924ea847d7ULL},
      {"orwg", 368, 368, 19964, 496, 240, 0x657434314abdaaadULL,
       0xc59004924ea847d7ULL},
      {"dv-sr", 368, 368, 79358, 581, 0, 0xf06885a090e215abULL,
       0xc59004924ea847d7ULL},
  });
}

TEST(Golden, AdaptersOnScenarioSeed1) {
  ScenarioParams params;
  params.seed = 1;
  const Scenario scenario = make_scenario(params);
  expect_golden(scenario.topo, scenario.policies, {
      {"dv-rip", 11586, 11586, 1633356, 3844, 0, 0x6826010c6035e753ULL,
       0x6e8f7b47d61dd5f9ULL},
      {"ls-ospf", 5270, 5270, 206890, 15128, 248, 0x99b42237d3b53917ULL,
       0xf49d5417e46e6bc7ULL},
      {"ecma", 9052, 9052, 10054164, 16332, 0, 0xb27dcf54c5de541dULL,
       0xc9caf26e60805c2dULL},
      {"idrp", 4694, 4694, 42396603, 23670, 0, 0xf1e6d4ab7dd0660dULL,
       0x5ea5655d408c68fdULL},
      {"ls-hbh", 5270, 5270, 435200, 15328, 11484, 0xd77e4d9844a6976dULL,
       0xd363982f39cd6c85ULL},
      {"orwg", 5270, 5270, 396270, 7139, 3782, 0xd77e4d9844a6976dULL,
       0xd363982f39cd6c85ULL},
      {"dv-sr", 4694, 4694, 42396603, 23670, 0, 0xe026b6d004d57c64ULL,
       0x89f662a2c00989adULL},
  });
}

TEST(Scenario, DeterministicForSeed) {
  ScenarioParams params;
  params.seed = 9;
  const Scenario a = make_scenario(params);
  const Scenario b = make_scenario(params);
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    EXPECT_EQ(a.flows[i], b.flows[i]);
  }
  EXPECT_EQ(a.topo.link_count(), b.topo.link_count());
  EXPECT_EQ(a.policies.total_terms(), b.policies.total_terms());
}

TEST(Scenario, FlowsUseEndSystemAds) {
  ScenarioParams params;
  params.seed = 10;
  const Scenario scenario = make_scenario(params);
  for (const FlowSpec& flow : scenario.flows) {
    EXPECT_NE(scenario.topo.ad(flow.src).role, AdRole::kTransit);
    EXPECT_NE(scenario.topo.ad(flow.dst).role, AdRole::kTransit);
    EXPECT_NE(flow.src, flow.dst);
  }
}

}  // namespace
}  // namespace idr
