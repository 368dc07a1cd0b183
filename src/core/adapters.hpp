// Concrete RoutingArchitecture adapters, one per protocol family -- the
// executable rows of the paper's Table 1 plus the pre-policy baselines
// of §3. Each adapter maps the common harness queries (trace / state /
// computations / header cost) onto its protocol's own structures.
//
// The four detailed design points (§5.1-§5.4) do not build or walk
// anything themselves: DesignPointArchitecture attaches their nodes
// through make_design_factory (refresh off, undefended) and traces
// through make_design_probe, the same path the chaos, simtest and scale
// runs take (core/design_harness.hpp). The baselines build their own
// nodes and walk them with the harness's walk_probe.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "core/architecture.hpp"
#include "core/design_harness.hpp"
#include "proto/dv/dv_node.hpp"
#include "proto/dvsr/dvsr_node.hpp"
#include "proto/egp/egp_node.hpp"
#include "proto/ls/ls_node.hpp"

namespace idr {

// --- Pre-policy baselines (paper §3) ---

class DvArchitecture final : public RoutingArchitecture {
 public:
  explicit DvArchitecture(DvConfig config = {.split_horizon = true})
      : config_(config) {}
  [[nodiscard]] std::string name() const override {
    return config_.split_horizon ? "dv-rip" : "dv-plain";
  }
  [[nodiscard]] DesignPoint design_point() const override {
    return {Algorithm::kDistanceVector, Decision::kHopByHop,
            PolicyExpression::kNone};
  }
  [[nodiscard]] std::size_t state_entries() const override;
  [[nodiscard]] std::uint64_t computations() const override { return 0; }
  [[nodiscard]] std::size_t header_bytes(std::size_t) const override {
    return 9;  // type + src + dst
  }

 protected:
  void attach_nodes() override;
  [[nodiscard]] Probe probe(const FlowSpec& flow) override;

 private:
  DvConfig config_;
  std::vector<DvNode*> nodes_;
};

class LsArchitecture final : public RoutingArchitecture {
 public:
  [[nodiscard]] std::string name() const override { return "ls-ospf"; }
  [[nodiscard]] DesignPoint design_point() const override {
    return {Algorithm::kLinkState, Decision::kHopByHop,
            PolicyExpression::kNone};
  }
  [[nodiscard]] std::size_t state_entries() const override;
  [[nodiscard]] std::uint64_t computations() const override;
  [[nodiscard]] std::size_t header_bytes(std::size_t) const override {
    return 10;  // type + src + dst + qos
  }

 protected:
  void attach_nodes() override;
  [[nodiscard]] Probe probe(const FlowSpec& flow) override;

 private:
  std::vector<LsNode*> nodes_;
};

class EgpArchitecture final : public RoutingArchitecture {
 public:
  [[nodiscard]] std::string name() const override { return "egp"; }
  [[nodiscard]] DesignPoint design_point() const override {
    return {Algorithm::kDistanceVector, Decision::kHopByHop,
            PolicyExpression::kNone};
  }
  [[nodiscard]] bool applicable(const Topology& topo) const override;
  [[nodiscard]] std::size_t state_entries() const override;
  [[nodiscard]] std::uint64_t computations() const override { return 0; }
  [[nodiscard]] std::size_t header_bytes(std::size_t) const override {
    return 9;
  }

 protected:
  void attach_nodes() override;
  [[nodiscard]] Probe probe(const FlowSpec& flow) override;

 private:
  std::vector<EgpNode*> nodes_;
};

// --- The paper's four detailed design points (§5.1-§5.4) ---

// Shared body of the four design-point adapters: one factory-built node
// per AD and the harness probe for traces.
template <typename NodeT>
class DesignPointArchitecture : public RoutingArchitecture {
 public:
  [[nodiscard]] const std::vector<NodeT*>& nodes() const noexcept {
    return nodes_;
  }

 protected:
  void attach_nodes() override { attach_design(nullptr); }
  // Attach make_design_factory's nodes for name() over base_ (periodic
  // refresh off: build() runs to quiescence) and arm make_design_probe.
  void attach_design(const OrderResult* order) {
    base_.periodic_refresh_ms = 0.0;
    const Network::NodeFactory factory =
        make_design_factory(name(), topo_, *policies_, order, base_);
    nodes_.clear();
    for (const Ad& ad : topo_.ads()) {
      std::unique_ptr<Node> node = factory(ad.id);
      nodes_.push_back(static_cast<NodeT*>(node.get()));
      net_->attach(ad.id, std::move(node));
    }
    probe_ = make_design_probe(name(), *net_, topo_);
  }
  [[nodiscard]] Probe probe(const FlowSpec& flow) override {
    return probe_(flow);
  }

  HarnessConfig base_;  // undefended; the adapter's protocol config
  std::vector<NodeT*> nodes_;

 private:
  FlowProbeFn probe_;
};

// §5.1: distance vector, hop-by-hop, policy in topology (partial order).
class EcmaArchitecture final : public DesignPointArchitecture<EcmaNode> {
 public:
  [[nodiscard]] std::string name() const override { return "ecma"; }
  [[nodiscard]] DesignPoint design_point() const override {
    return {Algorithm::kDistanceVector, Decision::kHopByHop,
            PolicyExpression::kTopology};
  }
  [[nodiscard]] std::size_t state_entries() const override;
  [[nodiscard]] std::uint64_t computations() const override { return 0; }
  [[nodiscard]] std::size_t header_bytes(std::size_t) const override {
    return 11;  // type + src + dst + qos + gone-down marker
  }
  [[nodiscard]] const OrderResult& order_result() const noexcept {
    return order_;
  }

 protected:
  void attach_nodes() override;

 private:
  OrderResult order_;
};

// §5.2: distance vector (path vector), hop-by-hop, explicit policy terms.
class IdrpArchitecture final : public DesignPointArchitecture<IdrpNode> {
 public:
  explicit IdrpArchitecture(IdrpConfig config = {}) { base_.idrp = config; }
  [[nodiscard]] std::string name() const override { return "idrp"; }
  [[nodiscard]] DesignPoint design_point() const override {
    return {Algorithm::kDistanceVector, Decision::kHopByHop,
            PolicyExpression::kPolicyTerms};
  }
  [[nodiscard]] std::size_t state_entries() const override;
  [[nodiscard]] std::uint64_t computations() const override { return 0; }
  [[nodiscard]] std::size_t header_bytes(std::size_t) const override {
    return 16;  // type + src + dst + qos + uci + hour + attr-class id
  }
};

// §5.3: link state, hop-by-hop, explicit policy terms.
class LshhArchitecture final : public DesignPointArchitecture<LshhNode> {
 public:
  [[nodiscard]] std::string name() const override { return "ls-hbh"; }
  [[nodiscard]] DesignPoint design_point() const override {
    return {Algorithm::kLinkState, Decision::kHopByHop,
            PolicyExpression::kPolicyTerms};
  }
  [[nodiscard]] std::size_t state_entries() const override;
  [[nodiscard]] std::uint64_t computations() const override;
  [[nodiscard]] std::size_t header_bytes(std::size_t) const override {
    return 15;  // type + src + dst + qos + uci + hour
  }
};

// §5.4: link state, source routing, explicit policy terms (ORWG/IDPR).
class OrwgArchitecture final : public DesignPointArchitecture<OrwgNode> {
 public:
  explicit OrwgArchitecture(OrwgConfig config = {}) { base_.orwg = config; }
  [[nodiscard]] std::string name() const override { return "orwg"; }
  [[nodiscard]] DesignPoint design_point() const override {
    return {Algorithm::kLinkState, Decision::kSourceRouting,
            PolicyExpression::kPolicyTerms};
  }
  [[nodiscard]] std::size_t state_entries() const override;
  [[nodiscard]] std::uint64_t computations() const override;
  // Established PRs forward on an 8-byte handle, not the full route.
  [[nodiscard]] std::size_t header_bytes(std::size_t) const override {
    return 27;  // type + handle + src + seq + timestamp + length
  }
  [[nodiscard]] std::size_t setup_header_bytes(std::size_t path_len) const {
    return 22 + 4 * path_len;  // setup carries the full policy route
  }
};

// §5.5.2: distance vector + source routing hybrid.
class DvsrArchitecture final : public RoutingArchitecture {
 public:
  explicit DvsrArchitecture(IdrpConfig config = {}) : config_(config) {}
  [[nodiscard]] std::string name() const override { return "dv-sr"; }
  [[nodiscard]] DesignPoint design_point() const override {
    return {Algorithm::kDistanceVector, Decision::kSourceRouting,
            PolicyExpression::kPolicyTerms};
  }
  [[nodiscard]] std::size_t state_entries() const override;
  [[nodiscard]] std::uint64_t computations() const override { return 0; }
  [[nodiscard]] std::size_t header_bytes(std::size_t path_len) const override {
    return 15 + 4 * path_len;  // every packet carries the source route
  }

 protected:
  void attach_nodes() override;
  [[nodiscard]] Probe probe(const FlowSpec& flow) override;

 private:
  IdrpConfig config_;
  std::vector<DvsrNode*> nodes_;
};

// All seven architectures (EGP excluded: it is inapplicable on cyclic
// topologies; instantiate it explicitly where a tree is guaranteed).
std::vector<std::unique_ptr<RoutingArchitecture>> make_policy_architectures();

}  // namespace idr
