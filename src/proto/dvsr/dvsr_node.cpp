#include "proto/dvsr/dvsr_node.hpp"

#include <algorithm>

namespace idr {

std::optional<std::vector<AdId>> DvsrNode::source_route(
    const FlowSpec& flow) const {
  const SourcePolicy& sp = policies().source_policy(self());

  const IdrpRoute* best = nullptr;
  for (const IdrpRoute& route : routes(flow.dst)) {
    if (route.path.empty()) continue;
    if (!route.attrs.permits(flow)) continue;
    if (route.path.size() + 1 > sp.max_hops) continue;
    // Apply the source's private criteria over the candidate's full path
    // (the capability hop-by-hop forwarding lacks).
    const bool avoided = std::any_of(
        route.path.begin(), route.path.end() - 1,
        [&](AdId ad) { return sp.avoids(ad); });
    if (avoided) continue;
    const auto link = topo().find_link(self(), route.path.front());
    if (!link || !topo().link(*link).up) continue;
    if (!best) {
      best = &route;
      continue;
    }
    const bool better =
        sp.prefer_min_cost
            ? (route.attrs.cost < best->attrs.cost ||
               (route.attrs.cost == best->attrs.cost &&
                route.path.size() < best->path.size()))
            : route.path.size() < best->path.size();
    if (better) best = &route;
  }
  if (!best) return std::nullopt;
  std::vector<AdId> path;
  path.reserve(best->path.size() + 1);
  path.push_back(self());
  path.insert(path.end(), best->path.begin(), best->path.end());
  return path;
}

}  // namespace idr
