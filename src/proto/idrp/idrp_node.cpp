#include "proto/idrp/idrp_node.hpp"

#include <algorithm>
#include <tuple>

#include "util/check.hpp"
#include "util/prng.hpp"

namespace idr {

std::uint32_t hour_window_mask(std::uint8_t begin, std::uint8_t end) noexcept {
  std::uint32_t mask = 0;
  for (std::uint8_t h = 0; h < 24; ++h) {
    const bool in = begin <= end ? (h >= begin && h <= end)
                                 : (h >= begin || h <= end);
    if (in) mask |= 1u << h;
  }
  return mask;
}

namespace {

AdSet intersect_sets(const AdSet& a, const AdSet& b) {
  if (a.is_any()) return b;
  if (b.is_any()) return a;
  std::vector<AdId> out;
  std::set_intersection(a.members().begin(), a.members().end(),
                        b.members().begin(), b.members().end(),
                        std::back_inserter(out));
  return AdSet::of(std::move(out));
}

bool set_covers(const AdSet& outer, const AdSet& inner) {
  if (outer.is_any()) return true;
  if (inner.is_any()) return false;
  return std::includes(outer.members().begin(), outer.members().end(),
                       inner.members().begin(), inner.members().end());
}

}  // namespace

bool RouteAttrs::permits(const FlowSpec& flow) const noexcept {
  if ((qos_mask & qos_bit(flow.qos)) == 0) return false;
  if ((uci_mask & uci_bit(flow.uci)) == 0) return false;
  if ((hour_mask & (1u << flow.hour)) == 0) return false;
  return sources.contains(flow.src);
}

bool RouteAttrs::covers(const RouteAttrs& other) const noexcept {
  if (!set_covers(sources, other.sources)) return false;
  if ((qos_mask & other.qos_mask) != other.qos_mask) return false;
  if ((uci_mask & other.uci_mask) != other.uci_mask) return false;
  if ((hour_mask & other.hour_mask) != other.hour_mask) return false;
  return true;
}

bool RouteAttrs::usable() const noexcept {
  if (qos_mask == 0 || uci_mask == 0 || hour_mask == 0) return false;
  return sources.is_any() || !sources.members().empty();
}

void RouteAttrs::encode(wire::Writer& w) const {
  sources.encode(w);
  w.u8(qos_mask);
  w.u8(uci_mask);
  w.u32(hour_mask);
  w.u32(cost);
}

void RouteAttrs::decode_into(wire::Reader& r) {
  sources.decode_into(r);
  qos_mask = r.u8();
  uci_mask = r.u8();
  hour_mask = r.u32();
  cost = r.u32();
}

void IdrpRoute::encode(wire::Writer& w) const {
  w.u32(dst.v);
  // The path is a u16-length-prefixed u32 list (Writer::u32_list layout),
  // written straight from the AdIds.
  IDR_CHECK_MSG(path.size() <= 0xffff, "path too long for u16 length prefix");
  w.u16(static_cast<std::uint16_t>(path.size()));
  for (AdId ad : path) w.u32(ad.v);
  attrs.encode(w);
}

std::optional<IdrpRoute> IdrpRoute::decode(wire::Reader& r) {
  IdrpRoute route;
  if (!route.decode_into(r)) return std::nullopt;
  return route;
}

bool IdrpRoute::decode_into(wire::Reader& r) {
  dst = AdId{r.u32()};
  const std::uint16_t len = r.u16();
  // Reserve no more than the buffer can hold: the length is wire input.
  path.clear();
  path.reserve(std::min<std::size_t>(len, r.remaining() / 4));
  for (std::uint16_t i = 0; i < len && r.ok(); ++i) {
    path.push_back(AdId{r.u32()});
  }
  attrs.decode_into(r);
  return r.ok();
}

namespace {

// Signature of one destination's selected route set (a change = one flap
// for damping, and an advertisable change for the RIB signature).
std::uint64_t dst_routes_signature(std::uint32_t dst,
                                   const IdrpNode::RouteView& routes) {
  std::uint64_t s = dst;
  for (const IdrpRoute& route : routes) {
    for (AdId ad : route.path) s = splitmix64(s) ^ ad.v;
    s = splitmix64(s) ^ route.attrs.cost;
    s = splitmix64(s) ^ route.attrs.qos_mask;
    s = splitmix64(s) ^ route.attrs.uci_mask;
    s = splitmix64(s) ^ route.attrs.hour_mask;
    s = splitmix64(s) ^
        (route.attrs.sources.is_any() ? 0xffffu
                                      : route.attrs.sources.members().size());
    for (AdId m : route.attrs.sources.members()) s = splitmix64(s) ^ m.v;
  }
  return s;
}

// A destination's term in the order-independent RIB signature.
std::uint64_t mix(std::uint64_t sig) noexcept { return splitmix64(sig); }

constexpr std::uint64_t kRibSignatureSeed = 0x9e3779b97f4a7c15ULL;

// Binary-search predicates: a loc-RIB entry resp. a route before `dst`.
constexpr auto by_dst = [](const auto& entry, std::uint32_t dst) {
  return entry.dst < dst;
};
constexpr auto route_by_dst = [](const IdrpRoute& route, std::uint32_t dst) {
  return route.dst.v < dst;
};

}  // namespace

// Destinations an event touched, plus the reselection's scratch. One per
// thread, reused: a reselection allocates nothing once it is warm.
struct IdrpNode::Touched {
  std::vector<std::uint32_t> dsts;  // sorted and deduplicated on reselection
  std::vector<std::vector<RouteRef>> cands;  // per touched dst
  std::vector<RouteRef> kept;
  std::vector<LocEntry> added;  // entries of destinations that appeared

  void add(std::uint32_t dst) { dsts.push_back(dst); }
  void add_all(const std::vector<IdrpRoute>& routes) {
    for (const IdrpRoute& route : routes) {
      if (dsts.empty() || dsts.back() != route.dst.v) add(route.dst.v);
    }
  }
};

IdrpNode::Touched& IdrpNode::begin_touch() {
  thread_local Touched touched;
  touched.dsts.clear();
  return touched;
}

// One received update, decoded, plus the run diff's scratch. One per
// thread, reused: routes past `size` keep their path capacity, so a warm
// decode allocates nothing, and the table never grows past the largest
// update this thread has decoded.
struct IdrpNode::Received {
  // A destination run: `len` consecutive routes for `dst` from `begin`.
  struct Run {
    std::uint32_t dst;
    std::uint32_t begin;
    std::uint32_t len;
  };
  std::vector<IdrpRoute> routes;  // [0, size) is the update
  std::size_t size = 0;
  IdrpRoute probe;  // defended decode: clamped copies go to `routes`
  std::vector<Run> held_runs;
  std::vector<Run> runs;  // of the update
  // Per update run: the begin of the equal held run (same destination,
  // same routes), or kNoRun.
  std::vector<std::uint32_t> match;

  static constexpr std::uint32_t kNoRun = 0xffffffffu;

  static void collect_runs(std::span<const IdrpRoute> table,
                           std::vector<Run>& out) {
    out.clear();
    for (std::size_t i = 0; i < table.size(); ++i) {
      if (out.empty() || out.back().dst != table[i].dst.v) {
        out.push_back({table[i].dst.v, static_cast<std::uint32_t>(i), 0});
      }
      ++out.back().len;
    }
  }

  [[nodiscard]] std::span<const IdrpRoute> table() const {
    return {routes.data(), size};
  }
  // The slot the next kept route is decoded or copied into; keep it with
  // ++size.
  IdrpRoute& next() {
    if (size == routes.size()) routes.emplace_back();
    return routes[size];
  }
};

IdrpNode::Received& IdrpNode::begin_receive() {
  thread_local Received rx;
  rx.size = 0;
  return rx;
}

void IdrpNode::start() {
  if (config_.originate) {
    // Originate own reachability: an empty path means "this AD".
    origin_.dst = self();
    LocEntry own{self().v, {RouteRef{RouteRef::kOrigin, 0}}};
    own.sig = dst_routes_signature(self().v, RouteView(this, own.refs));
    loc_rib_xor_ ^= mix(own.sig);
    loc_rib_.insert(std::lower_bound(loc_rib_.begin(), loc_rib_.end(),
                                     self().v, by_dst),
                    std::move(own));
    advertise();
  }
  schedule_refresh();
}

void IdrpNode::schedule_refresh() {
  if (periodic_refresh_ms_ <= 0.0) return;
  schedule_guarded(periodic_refresh_ms_, [this] {
    // Bypass the identical-update suppression: the point of the refresh
    // is to repair a neighbor that missed a triggered update.
    last_sent_hash_.clear();
    advertise(MsgClass::kRefresh);
    schedule_refresh();
  });
}

std::vector<std::uint8_t> IdrpNode::encode_for(AdId neighbor) const {
  // A Byzantine/misconfigured AD lies at this advertisement point:
  //   * route leak -- learned routes are re-advertised with wide-open
  //     attributes, skipping the Policy Term intersection entirely;
  //   * tamper     -- the path is shortened to a claimed direct
  //     adjacency with the destination (path-vector length fraud);
  //   * false origin -- a path=[self] origin claim for the victim is
  //     placed among the honest routes in ascending order.
  const Misbehavior mis = net().active_misbehavior(self());
  const SimTime now = net().engine().now();
  wire::Writer w;
  w.u8(kMsgUpdate);
  wire::Writer body;
  std::uint16_t count = 0;
  const auto own_terms = policies_->terms(self());
  // Terminating traffic needs no transit PT.
  const auto advertise_origin = [&] {
    IdrpRoute adv;
    adv.dst = self();
    adv.path = {self()};
    adv.encode(body);
    ++count;
  };
  AdId claim = kNoAd;
  if (mis == Misbehavior::kFalseOrigin) {
    const AdId victim = net().misbehavior_victim(self());
    if (victim.valid() && victim != self() && victim != neighbor) {
      claim = victim;
    }
  }
  // Emits the false-origin claim, if any, once the destinations about to
  // follow are all above the victim: the update stays ascending.
  const auto claim_before = [&](AdId next_dst) {
    if (!claim.valid() || (next_dst.valid() && next_dst.v <= claim.v)) {
      return;
    }
    IdrpRoute adv;
    adv.dst = claim;
    adv.path = {self()};  // "the victim is me" -- shortest possible claim
    adv.encode(body);
    ++count;
    claim = kNoAd;
  };
  const auto finish = [&] {
    claim_before(kNoAd);
    w.u16(count);
    w.raw(body.bytes());
    return std::move(w).take();
  };
  if (own_terms.empty() && mis != Misbehavior::kRouteLeak &&
      mis != Misbehavior::kTamper) {
    // Without a Policy Term we re-advertise no transit route, so the walk
    // below would emit our origin route (never damped or loop-suppressed)
    // and nothing else.
    if (config_.routes_per_dest > 0 && find_loc(self().v)) {
      claim_before(self());
      advertise_origin();
    }
    return finish();
  }
  for (const LocEntry& entry : loc_rib_) {
    const std::uint32_t dst_v = entry.dst;
    const AdId dst{dst_v};
    claim_before(dst);
    // A damped destination is simply left out: per-neighbor full-table
    // updates make omission an implicit withdrawal, so downstream churn
    // stops after one stable update while we keep forwarding locally.
    // Pure query only -- releases happen solely in the release timer,
    // whose re-advertisement reaches every neighbor (a mid-encode release
    // would revive the dst for some neighbors and not others).
    if (damper_.enabled() && dst != self() &&
        damper_.would_suppress(dst_v, now)) {
      continue;
    }
    std::uint32_t emitted_for_dst = 0;
    for (const IdrpRoute& route : RouteView(this, entry.refs)) {
      if (emitted_for_dst >= config_.routes_per_dest) break;
      // Sender-side loop suppression.
      if (std::find(route.path.begin(), route.path.end(), neighbor) !=
          route.path.end()) {
        continue;
      }
      if (dst == self()) {
        advertise_origin();
        ++emitted_for_dst;
        continue;
      }
      IDR_CHECK(!route.path.empty());
      if (mis == Misbehavior::kRouteLeak) {
        IdrpRoute adv;
        adv.dst = dst;
        adv.path.reserve(route.path.size() + 1);
        adv.path.push_back(self());
        adv.path.insert(adv.path.end(), route.path.begin(),
                        route.path.end());
        adv.attrs = RouteAttrs{};  // wide open: every source/QoS/UCI/hour
        adv.attrs.cost = route.attrs.cost;
        adv.encode(body);
        ++count;
        ++emitted_for_dst;
        continue;
      }
      if (mis == Misbehavior::kTamper) {
        IdrpRoute adv;
        adv.dst = dst;
        adv.path = {self(), dst};  // claims a direct adjacency
        adv.attrs = route.attrs;
        adv.encode(body);
        ++count;
        ++emitted_for_dst;
        continue;
      }
      // Transit: we may re-advertise only under our own Policy Terms that
      // accept traffic arriving from `neighbor` and departing toward the
      // route's next hop, bound for `dst`.
      const AdId next = route.path.front();
      for (const PolicyTerm& t : own_terms) {
        if (emitted_for_dst >= config_.routes_per_dest) break;
        if (!t.prev_hops.contains(neighbor)) continue;
        if (!t.next_hops.contains(next)) continue;
        if (!t.dests.contains(dst)) continue;
        RouteAttrs attrs = route.attrs;
        attrs.sources = intersect_sets(attrs.sources, t.sources);
        attrs.qos_mask &= t.qos_mask;
        attrs.uci_mask &= t.uci_mask;
        attrs.hour_mask &= hour_window_mask(t.hour_begin, t.hour_end);
        attrs.cost += t.cost;
        if (!attrs.usable()) continue;
        IdrpRoute adv;
        adv.dst = dst;
        adv.path.reserve(route.path.size() + 1);
        adv.path.push_back(self());
        adv.path.insert(adv.path.end(), route.path.begin(),
                        route.path.end());
        adv.attrs = std::move(attrs);
        adv.encode(body);
        ++count;
        ++emitted_for_dst;
      }
    }
  }
  return finish();
}

namespace {

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (std::uint8_t b : bytes) hash = (hash ^ b) * 0x100000001b3ULL;
  return hash;
}

}  // namespace

void IdrpNode::advertise(MsgClass cls) {
  // Shared fast path: with previous-hop-agnostic terms, encode_for only
  // depends on the neighbor through sender-side loop suppression, which
  // the receiver re-checks anyway (self-in-path rejection). One generic
  // encode (no suppression) then serves every neighbor.
  bool generic_ok = config_.shared_updates;
  if (generic_ok) {
    for (const PolicyTerm& t : policies_->terms(self())) {
      if (!t.prev_hops.is_any()) {
        generic_ok = false;
        break;
      }
    }
  }
  Payload shared;
  std::uint64_t shared_hash = 0;
  for (const Adjacency& adj : live_neighbors()) {
    if (generic_ok) {
      if (!shared) {
        shared = make_payload(encode_for(kNoAd));
        shared_hash = fnv1a(*shared);
      }
      auto [sent, inserted] = last_sent_hash_.try_emplace(adj.neighbor.v, 0);
      if (!inserted && sent == shared_hash) continue;
      sent = shared_hash;
      net().send(self(), adj.neighbor, shared, cls);
      continue;
    }
    std::vector<std::uint8_t> update = encode_for(adj.neighbor);
    const std::uint64_t hash = fnv1a(update);
    auto [sent, inserted] = last_sent_hash_.try_emplace(adj.neighbor.v, 0);
    if (!inserted && sent == hash) continue;  // nothing new for them
    sent = hash;
    net().send(self(), adj.neighbor, std::move(update), cls);
  }
}

void IdrpNode::trigger_advertise() {
  if (config_.mrai_ms <= 0.0) {
    advertise();
    return;
  }
  if (advertise_scheduled_) return;
  advertise_scheduled_ = true;
  schedule_guarded(config_.mrai_ms, [this] {
    advertise_scheduled_ = false;
    advertise();
  });
}

void IdrpNode::on_message(AdId from, std::span<const std::uint8_t> bytes) {
  // Parse the whole update before touching the Adj-RIB-in: a truncated
  // PDU must not masquerade as a (shorter) full-state update and
  // implicitly withdraw routes the sender still advertises. The update is
  // decoded into scratch, so a half-decoded table never reaches it.
  wire::Reader r(bytes);
  const std::uint8_t type = r.u8();
  const std::uint16_t count = r.u16();
  if (!r.ok() || type != kMsgUpdate) {
    drop_malformed();
    return;
  }
  Received& rx = begin_receive();
  std::uint32_t last_dst = 0;
  for (std::uint16_t i = 0; i < count; ++i) {
    IdrpRoute& route = config_.defend ? rx.probe : rx.next();
    // Destinations ascend; a table that descends is malformed.
    if (!route.decode_into(r) || route.dst.v < last_dst) {
      drop_malformed();
      return;
    }
    last_dst = route.dst.v;
    // Receiver-side validation: path must start at the sender, must not
    // contain us (AD loop), and must serve at least one flow.
    if (route.path.empty() || route.path.front() != from) continue;
    if (std::find(route.path.begin(), route.path.end(), self()) !=
        route.path.end()) {
      continue;
    }
    if (route.dst == self()) continue;
    if (!route.attrs.usable()) continue;
    if (config_.defend) {
      defend_and_keep(from, route, rx);
    } else {
      ++rx.size;
    }
  }
  Touched& touched = begin_touch();
  apply_update(from, rx, touched);
  stale_nbrs_.erase(from.v);  // a full-table update IS the GR resync
  reselect_and_maybe_advertise(touched);
}

// Merges the update's runs with the held ones (both ascend by
// destination) and touches every destination whose run changed, appeared
// or disappeared.
void IdrpNode::match_runs(std::span<const IdrpRoute> held, Received& rx,
                          Touched& t) {
  using Run = Received::Run;
  const std::span<const IdrpRoute> recv = rx.table();
  const std::vector<Run>& was = rx.held_runs;
  const std::vector<Run>& now = rx.runs;
  rx.match.assign(now.size(), Received::kNoRun);
  std::size_t o = 0;
  for (std::size_t k = 0; k < now.size(); ++k) {
    for (; o < was.size() && was[o].dst < now[k].dst; ++o) t.add(was[o].dst);
    if (o == was.size() || was[o].dst != now[k].dst) {
      t.add(now[k].dst);
      continue;
    }
    const Run& a = was[o++];
    const Run& b = now[k];
    if (a.len == b.len &&
        std::equal(held.begin() + a.begin, held.begin() + a.begin + a.len,
                   recv.begin() + b.begin)) {
      rx.match[k] = a.begin;
    } else {
      t.add(b.dst);
    }
  }
  for (; o < was.size(); ++o) t.add(was[o].dst);
}

namespace {

// Resizes a held table without resize()'s geometric growth: the Adj-RIBs-in
// are most of an IDRP node's memory, so capacity follows the table size.
void resize_table(std::vector<IdrpRoute>& table, std::size_t n) {
  if (n > table.capacity()) table.reserve(n);
  table.resize(n);
}

}  // namespace

void IdrpNode::apply_update(AdId from, Received& rx, Touched& t) {
  AdjRibIn& in = adj_rib_in_[from.v];
  const auto nbr =
      static_cast<std::uint32_t>(&in - adj_rib_in_.values().data());
  std::vector<IdrpRoute>& held = in.routes;
  const std::span<const IdrpRoute> recv = rx.table();
  Received::collect_runs(held, rx.held_runs);
  Received::collect_runs(recv, rx.runs);
  match_runs(held, rx, t);
  // Copy-assign every run that is not already in place (a held route
  // reuses its own capacity). An unchanged run that moved is not
  // reselected: the loc-RIB references into it are rebased instead.
  resize_table(held, recv.size());
  for (std::size_t k = 0; k < rx.runs.size(); ++k) {
    const Received::Run& run = rx.runs[k];
    if (const std::uint32_t old_begin = rx.match[k];
        old_begin != Received::kNoRun) {
      if (old_begin == run.begin) continue;
      if (LocEntry* entry = find_loc(run.dst)) {
        for (RouteRef& ref : entry->refs) {
          if (ref.nbr == nbr) ref.idx = ref.idx - old_begin + run.begin;
        }
      }
    }
    std::copy(recv.begin() + run.begin, recv.begin() + run.begin + run.len,
              held.begin() + run.begin);
  }
}

void IdrpNode::defend_and_keep(AdId from, const IdrpRoute& route,
                               Received& rx) {
  // Neighbor-consistency rejection. The path must really end at the
  // claimed destination (a false-origin path=[liar] for someone else's
  // dst fails here) and every consecutive pair on it must be statically
  // adjacent (a tampered "direct adjacency" shortcut fails here).
  if (route.path.back() != route.dst) {
    net().note_defense_rejection(self());
    return;
  }
  for (std::size_t i = 0; i + 1 < route.path.size(); ++i) {
    if (!topo().find_link(route.path[i], route.path[i + 1])) {
      net().note_defense_rejection(self());
      return;
    }
  }
  if (route.path.size() == 1) {
    rx.next() = route;  // origin route: dst == from
    ++rx.size;
    return;
  }
  // Transit route: clamp to the sender's *registered* Policy Terms,
  // mirroring what an honest `from` would have computed in encode_for.
  // An honest advertisement survives unchanged (its producing term's
  // clamp is the identity on it); a leaked wide-open one is narrowed to
  // what `from` was actually allowed to say -- and rejected outright if
  // no registered term of `from` covers this (prev=us, next, dst) at all
  // (a stub has no terms, so any transit route from it dies here).
  const AdId next = route.path[1];
  bool any = false;
  for (const PolicyTerm& t : policies_->terms(from)) {
    if (!t.prev_hops.contains(self())) continue;
    if (!t.next_hops.contains(next)) continue;
    if (!t.dests.contains(route.dst)) continue;
    RouteAttrs attrs;
    attrs.sources = intersect_sets(route.attrs.sources, t.sources);
    attrs.qos_mask = route.attrs.qos_mask & t.qos_mask;
    attrs.uci_mask = route.attrs.uci_mask & t.uci_mask;
    attrs.hour_mask =
        route.attrs.hour_mask & hour_window_mask(t.hour_begin, t.hour_end);
    attrs.cost = route.attrs.cost;
    if (!attrs.usable()) continue;
    IdrpRoute& kept = rx.next();
    kept.dst = route.dst;
    kept.path = route.path;
    kept.attrs = std::move(attrs);
    ++rx.size;
    any = true;
  }
  if (!any) net().note_defense_rejection(self());
}

void IdrpNode::on_link_change(AdId neighbor, bool up) {
  if (up) {
    // The session state is void: a fresh neighbor must receive our full
    // table even if it is byte-identical to the last one sent. With GR
    // this is the resync toward the restarted neighbor.
    last_sent_hash_.erase(neighbor.v);
    if (config_.gr.enabled) ++gr_resyncs_;
    advertise();
    return;
  }
  if (config_.gr.enabled && net().in_grace(neighbor)) {
    // Graceful restart: retain the neighbor's Adj-RIB-in and skip the
    // reselect -- no churn propagates downstream. The neighbor's resync
    // update (a full table, implicit withdrawal semantics) supersedes
    // the retained state wholesale; otherwise the flush timer erases it
    // just past grace expiry.
    if (adj_rib_in_.find(neighbor.v) &&
        stale_nbrs_.insert(neighbor.v).second) {
      schedule_guarded(config_.gr.grace_ms + 0.1,
                       [this, neighbor] { flush_stale(neighbor); });
    }
    return;
  }
  last_sent_hash_.erase(neighbor.v);
  Touched& touched = begin_touch();
  erase_neighbor(neighbor, touched);
  reselect_and_maybe_advertise(touched);
}

void IdrpNode::erase_neighbor(AdId neighbor, Touched& touched) {
  const AdjRibIn* in = adj_rib_in_.find(neighbor.v);
  if (!in) return;
  touched.add_all(in->routes);
  // erase() swap-moves the last neighbor into the hole. That voids the
  // references into it (not its rank: routes rank by AD id), so its
  // destinations are reselected too.
  touched.add_all(adj_rib_in_.values().back().routes);
  adj_rib_in_.erase(neighbor.v);
}

void IdrpNode::flush_stale(AdId neighbor) {
  if (net().in_grace(neighbor)) {
    // The neighbor crashed again and its grace window was extended;
    // retry after the extension.
    schedule_guarded(config_.gr.grace_ms + 0.1,
                     [this, neighbor] { flush_stale(neighbor); });
    return;
  }
  if (stale_nbrs_.erase(neighbor.v) == 0) return;  // resynced in time
  ++gr_stale_flushed_;
  last_sent_hash_.erase(neighbor.v);
  Touched& touched = begin_touch();
  erase_neighbor(neighbor, touched);
  reselect_and_maybe_advertise(touched);
}

void IdrpNode::reselect_and_maybe_advertise(Touched& t) {
  // Routes from unreachable neighbors are unusable. Usability is read at
  // every reselection (GR retention and link-up do not reselect), and a
  // neighbor whose usability flipped adds or removes all its routes.
  for (std::size_t j = 0; j < adj_rib_in_.size(); ++j) {
    AdjRibIn& in = adj_rib_in_.value_at(j);
    if (in.routes.empty()) continue;
    const auto link = topo().find_link(self(), AdId{adj_rib_in_.key_at(j)});
    const bool usable = link && topo().link(*link).up;
    if (usable == in.usable) continue;
    in.usable = usable;
    if (usable) in.delay_ms = topo().link(*link).delay_ms;
    t.add_all(in.routes);
  }
  std::sort(t.dsts.begin(), t.dsts.end());
  t.dsts.erase(std::unique(t.dsts.begin(), t.dsts.end()), t.dsts.end());

  reselected_dsts_ += t.dsts.size();

  // Candidates for the touched destinations: both they and every usable
  // neighbor's table ascend, so one forward binary search per destination
  // and neighbor finds its routes.
  if (t.cands.size() < t.dsts.size()) t.cands.resize(t.dsts.size());
  for (std::size_t k = 0; k < t.dsts.size(); ++k) t.cands[k].clear();
  for (std::size_t j = 0; j < adj_rib_in_.size() && !t.dsts.empty(); ++j) {
    const AdjRibIn& in = adj_rib_in_.value_at(j);
    if (!in.usable || in.routes.empty()) continue;
    const std::vector<IdrpRoute>& table = in.routes;
    auto route = table.begin();
    for (std::size_t k = 0; k < t.dsts.size(); ++k) {
      route = std::lower_bound(route, table.end(), t.dsts[k], route_by_dst);
      for (; route != table.end() && route->dst.v == t.dsts[k]; ++route) {
        t.cands[k].push_back(
            {static_cast<std::uint32_t>(j),
             static_cast<std::uint32_t>(route - table.begin())});
      }
    }
  }

  // Rank (path length, cost, link delay to the neighbor, neighbor AD id,
  // position in its table) and keep up to routes_per_dest policy-diverse
  // routes per destination. The destinations ascend, so one forward
  // search finds each entry; entries are erased and inserted afterwards.
  const auto rank = [this](RouteRef ref) {
    const IdrpRoute& route = resolve(ref);
    return std::tuple(route.path.size(), route.attrs.cost,
                      adj_rib_in_.value_at(ref.nbr).delay_ms,
                      adj_rib_in_.key_at(ref.nbr), ref.idx);
  };
  const SimTime now = net().engine().now();
  bool withdrawn = false;
  t.added.clear();
  auto pos = loc_rib_.begin();
  for (std::size_t k = 0; k < t.dsts.size(); ++k) {
    const std::uint32_t dst = t.dsts[k];
    std::vector<RouteRef>& cands = t.cands[k];
    std::sort(cands.begin(), cands.end(), [&](RouteRef a, RouteRef b) {
      return rank(a) < rank(b);
    });
    t.kept.clear();
    for (const RouteRef cand : cands) {
      if (t.kept.size() >= config_.routes_per_dest) break;
      const RouteAttrs& attrs = resolve(cand).attrs;
      const bool redundant =
          std::any_of(t.kept.begin(), t.kept.end(), [&](RouteRef k) {
            return resolve(k).attrs.covers(attrs);
          });
      if (!redundant) t.kept.push_back(cand);
    }
    pos = std::lower_bound(pos, loc_rib_.end(), dst, by_dst);
    LocEntry* entry =
        pos != loc_rib_.end() && pos->dst == dst ? &*pos : nullptr;
    if (entry) loc_rib_xor_ ^= mix(entry->sig);
    // One flap per destination whose selected route set changed (any
    // path/attr change) or disappeared, in ascending destination order; a
    // destination appearing for the first time is initial learning, not
    // a flap (RFC 2439 shape).
    if (t.kept.empty()) {
      if (!entry) continue;
      if (damper_.enabled()) damper_.note_flap(dst, now);
      entry->refs.clear();
      withdrawn = true;
      continue;
    }
    const std::uint64_t sig =
        dst_routes_signature(dst, RouteView(this, t.kept));
    loc_rib_xor_ ^= mix(sig);
    if (!entry) {
      t.added.push_back({dst, {t.kept.begin(), t.kept.end()}, sig});
      continue;
    }
    if (damper_.enabled() && entry->sig != sig) damper_.note_flap(dst, now);
    entry->refs.assign(t.kept.begin(), t.kept.end());
    entry->sig = sig;
  }
  if (withdrawn) {
    std::erase_if(loc_rib_,
                  [](const LocEntry& entry) { return entry.refs.empty(); });
  }
  if (!t.added.empty()) {
    // Merged in from the back. Growth is exact: with geometric growth the
    // spare capacity of every loc-RIB put ~15% more on the heap of a
    // converged 1e4-AD internet.
    std::size_t i = loc_rib_.size();
    std::size_t j = t.added.size();
    loc_rib_.reserve(i + j);
    loc_rib_.resize(i + j);
    for (std::size_t out = i + j; j > 0;) {
      loc_rib_[--out] = i > 0 && loc_rib_[i - 1].dst > t.added[j - 1].dst
                            ? std::move(loc_rib_[--i])
                            : std::move(t.added[--j]);
    }
  }
  if (damper_.enabled()) maybe_schedule_release_check();

  const std::uint64_t sig = rib_signature();
  if (sig != last_advertised_signature_) {
    last_advertised_signature_ = sig;
    trigger_advertise();
  }
}

std::uint64_t IdrpNode::rib_signature() const {
  if (!damper_.enabled()) return kRibSignatureSeed ^ loc_rib_xor_;
  const SimTime now = net().engine().now();
  std::uint64_t acc = kRibSignatureSeed;
  for (const LocEntry& entry : loc_rib_) {
    // Suppressed destinations are omitted from updates, so a change
    // confined to one must not look like an advertisable change -- that
    // is where damping cuts the flap cascade. (Pure query: signatures
    // must not mutate damper state.)
    if (damper_.would_suppress(entry.dst, now)) continue;
    acc ^= mix(entry.sig);  // order-independent combine across dsts
  }
  return acc;
}

void IdrpNode::maybe_schedule_release_check() {
  if (release_check_scheduled_) return;
  const SimTime now = net().engine().now();
  const SimTime eta = damper_.next_release_eta(now);
  if (eta < 0.0) return;
  // A hair past the analytic release time, so the update this timer
  // triggers observes the destination already below the reuse threshold.
  release_check_scheduled_ = true;
  schedule_guarded(std::max(eta - now, 0.0) + 0.1, [this] {
    release_check_scheduled_ = false;
    // Release directly: encode only queries destinations still in the
    // loc-RIB, so the timer must not depend on it to clear due
    // suppressions.
    if (damper_.release_due(net().engine().now()) > 0) trigger_advertise();
    maybe_schedule_release_check();
  });
}

std::optional<AdId> IdrpNode::forward(const FlowSpec& flow, AdId prev) const {
  for (const IdrpRoute& route : routes(flow.dst)) {
    if (route.path.empty()) continue;  // origin route (we are dst)
    if (!route.attrs.permits(flow)) continue;
    const auto link = topo().find_link(self(), route.path.front());
    if (!link || !topo().link(*link).up) continue;
    // Transit packets must additionally satisfy our own policy for the
    // concrete (prev, next) transition they make through us -- unless we
    // are the leaker: a route-leaking AD carries the transit traffic its
    // illegal advertisements attracted (that is what makes a leak a leak
    // rather than a black hole).
    if (self() != flow.src && prev.valid() &&
        !net().misbehaving_as(self(), Misbehavior::kRouteLeak) &&
        !policies_->transit_cost(self(), flow, prev, route.path.front())) {
      continue;
    }
    return route.path.front();
  }
  return std::nullopt;
}

const IdrpRoute* IdrpNode::select(const FlowSpec& flow) const {
  for (const IdrpRoute& route : routes(flow.dst)) {
    if (route.path.empty()) continue;  // origin route (we are dst)
    if (!route.attrs.permits(flow)) continue;
    const auto link = topo().find_link(self(), route.path.front());
    if (!link || !topo().link(*link).up) continue;
    return &route;
  }
  return nullptr;
}

IdrpNode::LocEntry* IdrpNode::find_loc(std::uint32_t dst) {
  const auto it = std::lower_bound(loc_rib_.begin(), loc_rib_.end(), dst,
                                   by_dst);
  return it != loc_rib_.end() && it->dst == dst ? &*it : nullptr;
}

const IdrpNode::LocEntry* IdrpNode::find_loc(std::uint32_t dst) const {
  return const_cast<IdrpNode*>(this)->find_loc(dst);
}

IdrpNode::RouteView IdrpNode::routes(AdId dst) const {
  const LocEntry* entry = find_loc(dst.v);
  if (!entry) return {this, {}};
  return {this, entry->refs};
}

std::size_t IdrpNode::loc_rib_routes() const noexcept {
  std::size_t n = 0;
  for (const LocEntry& entry : loc_rib_) n += entry.refs.size();
  return n;
}

std::size_t IdrpNode::adj_rib_routes() const noexcept {
  std::size_t n = 0;
  for (const auto [nbr, in] : adj_rib_in_) n += in.routes.size();
  return n;
}

std::size_t IdrpNode::routes_for(AdId dst) const {
  return routes(dst).size();
}

}  // namespace idr
