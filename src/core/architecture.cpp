#include "core/architecture.hpp"

#include <utility>

#include "util/check.hpp"

namespace idr {

const char* to_string(Algorithm a) noexcept {
  switch (a) {
    case Algorithm::kDistanceVector: return "distance-vector";
    case Algorithm::kLinkState: return "link-state";
  }
  return "?";
}

const char* to_string(Decision d) noexcept {
  switch (d) {
    case Decision::kHopByHop: return "hop-by-hop";
    case Decision::kSourceRouting: return "source-routing";
  }
  return "?";
}

const char* to_string(PolicyExpression p) noexcept {
  switch (p) {
    case PolicyExpression::kNone: return "none";
    case PolicyExpression::kTopology: return "topology";
    case PolicyExpression::kPolicyTerms: return "policy-terms";
  }
  return "?";
}

RouteTrace RoutingArchitecture::trace(const FlowSpec& flow) {
  Probe walked = probe(flow);
  RouteTrace result;
  result.looped = walked.outcome == ProbeOutcome::kLooped;
  if (walked.outcome == ProbeOutcome::kDelivered) {
    result.path = std::move(walked.path);
  }
  return result;
}

std::string DesignPoint::describe() const {
  std::string out = to_string(algorithm);
  out += " / ";
  out += to_string(decision);
  out += " / ";
  out += to_string(policy);
  return out;
}

void RoutingArchitecture::build(const Topology& topo,
                                const PolicySet& policies) {
  IDR_CHECK_MSG(!built(), "build() may only be called once");
  topo_ = topo;  // private copy: protocols flip link state independently
  policies_ = &policies;
  engine_ = std::make_unique<Engine>();
  net_ = std::make_unique<Network>(*engine_, topo_);
  attach_nodes();
  net_->start_all();
  const std::size_t events = engine_->run();
  initial_convergence_ = ConvergenceStats{
      net_->last_delivery_time(), net_->total().msgs_sent,
      net_->total().bytes_sent, events};
}

ConvergenceStats RoutingArchitecture::perturb(LinkId link, bool up) {
  IDR_CHECK(built());
  const Counters before = net_->total();
  const SimTime start = engine_->now();
  net_->set_link_state(link, up);
  const std::size_t events = engine_->run();
  const Counters after = net_->total();
  return ConvergenceStats{
      net_->last_delivery_time() > start ? net_->last_delivery_time() - start
                                         : 0.0,
      after.msgs_sent - before.msgs_sent, after.bytes_sent - before.bytes_sent,
      events};
}

}  // namespace idr
