#include "proto/idrp/idrp_node.hpp"

#include <algorithm>

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

}  // namespace

// Destinations an event touched, plus the reselection's scratch. One per
// thread, reused: a reselection allocates nothing once it is warm.
struct IdrpNode::Touched {
  DenseMap<std::uint32_t, std::uint32_t> slot;  // dst -> position in dsts
  std::vector<std::uint32_t> dsts;              // first-touch order
  bool reorder = false;  // the loc-RIB encode order must be recomputed
  std::vector<std::vector<RouteRef>> cands;  // per touched dst
  std::vector<RouteRef> kept;
  // Damping flaps: (loc-RIB position, dst) of changed resp. withdrawn
  // destinations, noted in the order a full rebuild would note them.
  std::vector<std::pair<std::size_t, std::uint32_t>> changed;
  std::vector<std::pair<std::size_t, std::uint32_t>> gone;

  void add(std::uint32_t dst) {
    if (slot.try_emplace(dst, static_cast<std::uint32_t>(dsts.size()))
            .second) {
      dsts.push_back(dst);
    }
  }
  void add_all(const std::vector<IdrpRoute>& routes) {
    for (const IdrpRoute& route : routes) add(route.dst.v);
  }
};

IdrpNode::Touched& IdrpNode::begin_touch() {
  thread_local Touched touched;
  touched.slot.clear();
  touched.dsts.clear();
  touched.reorder = false;
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
  // Per update run: the equal held run (same destination, same routes),
  // or kNoRun.
  std::vector<std::uint32_t> match;
  // Destination -> held run index, or one of the markers below.
  DenseMap<std::uint32_t, std::uint32_t> where;

  static constexpr std::uint32_t kNoRun = 0xffffffffu;
  // Markers in `where`: a held run already matched, a destination the
  // held table lacks, a destination of the prefix both tables share.
  static constexpr std::uint32_t kClaimed = 0xfffffffcu;
  static constexpr std::uint32_t kAdded = 0xfffffffdu;
  static constexpr std::uint32_t kInPrefix = 0xfffffffeu;

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
    LocEntry& own = loc_rib_[self().v];
    own.refs = {RouteRef{RouteRef::kOrigin, 0}};
    own.sig = dst_routes_signature(self().v, RouteView(this, own.refs));
    loc_rib_xor_ ^= mix(own.sig);
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
  //     appended after the honest routes.
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
  // Appends the false-origin claim, if any, and frames the update.
  const auto finish = [&] {
    if (mis == Misbehavior::kFalseOrigin) {
      const AdId victim = net().misbehavior_victim(self());
      if (victim.valid() && victim != self() && victim != neighbor) {
        IdrpRoute adv;
        adv.dst = victim;
        adv.path = {self()};  // "the victim is me" -- shortest possible claim
        adv.encode(body);
        ++count;
      }
    }
    w.u16(count);
    w.raw(body.bytes());
    return std::move(w).take();
  };
  if (own_terms.empty() && mis != Misbehavior::kRouteLeak &&
      mis != Misbehavior::kTamper) {
    // Without a Policy Term we re-advertise no transit route, so the walk
    // below would emit our origin route (first in the loc-RIB, never
    // damped or loop-suppressed) and nothing else.
    if (config_.routes_per_dest > 0 && loc_rib_.contains(self().v)) {
      advertise_origin();
    }
    return finish();
  }
  for (const auto [dst_v, entry] : loc_rib_) {
    const AdId dst{dst_v};
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
  for (std::uint16_t i = 0; i < count; ++i) {
    IdrpRoute& route = config_.defend ? rx.probe : rx.next();
    if (!route.decode_into(r)) {
      drop_malformed();
      return;
    }
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

// Pairs the update's runs with the held ones and touches every
// destination whose run changed, appeared or disappeared. The two run
// lists are walked in step while they name the same destinations; only
// from the first divergence on are destinations hashed. False when a
// destination occupies two runs of the update (the held table was checked
// when it was stored), which the run-by-run diff cannot express.
bool IdrpNode::match_runs(std::span<const IdrpRoute> held, Received& rx,
                          Touched& t) {
  using Run = Received::Run;
  const std::span<const IdrpRoute> recv = rx.table();
  const std::vector<Run>& was = rx.held_runs;
  const std::vector<Run>& now = rx.runs;
  const auto same = [&](const Run& a, const Run& b) {
    return a.len == b.len &&
           std::equal(held.begin() + a.begin, held.begin() + a.begin + a.len,
                      recv.begin() + b.begin);
  };
  rx.match.assign(now.size(), Received::kNoRun);
  std::size_t k = 0;
  for (; k < was.size() && k < now.size() && was[k].dst == now[k].dst; ++k) {
    if (same(was[k], now[k])) {
      rx.match[k] = static_cast<std::uint32_t>(k);
    } else {
      t.add(now[k].dst);
    }
  }
  const std::size_t aligned = k;
  if (aligned == was.size() && aligned == now.size()) return true;
  t.reorder = true;  // the destination sequence changed
  rx.where.clear();
  rx.where.reserve(was.size() + now.size());
  for (std::size_t o = aligned; o < was.size(); ++o) {
    rx.where.try_emplace(was[o].dst, static_cast<std::uint32_t>(o));
  }
  bool prefix_hashed = false;
  for (; k < now.size(); ++k) {
    const std::uint32_t dst = now[k].dst;
    std::uint32_t* o = rx.where.find(dst);
    if (!o && !prefix_hashed) {
      // Not in the held suffix: new, or a second run of a destination
      // in the prefix both tables share.
      for (std::size_t p = 0; p < aligned; ++p) {
        rx.where.try_emplace(was[p].dst, Received::kInPrefix);
      }
      prefix_hashed = true;
      o = rx.where.find(dst);
    }
    if (!o) {
      rx.where.try_emplace(dst, Received::kAdded);
      t.add(dst);
      continue;
    }
    if (*o >= Received::kClaimed) return false;  // a second run of dst
    if (same(was[*o], now[k])) {
      rx.match[k] = *o;
    } else {
      t.add(dst);
    }
    *o = Received::kClaimed;
  }
  for (std::size_t o = aligned; o < was.size(); ++o) {
    if (*rx.where.find(was[o].dst) != Received::kClaimed) t.add(was[o].dst);
  }
  return true;
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
  if (in.split || !match_runs(held, rx, t)) {
    // A destination in two runs: replace the table wholesale. Every
    // reference into it is void; all its old and new destinations are
    // reselected.
    for (const Received::Run& run : rx.held_runs) t.add(run.dst);
    for (const Received::Run& run : rx.runs) t.add(run.dst);
    t.reorder = true;
    resize_table(held, recv.size());
    std::copy(recv.begin(), recv.end(), held.begin());
    rx.where.clear();
    in.split = false;
    for (const Received::Run& run : rx.runs) {
      in.split = in.split || !rx.where.try_emplace(run.dst, 0).second;
    }
    return;
  }
  // Copy-assign every run that is not already in place (a held route
  // reuses its own capacity). An unchanged run that moved is not
  // reselected: the loc-RIB references into it are rebased instead.
  resize_table(held, recv.size());
  for (std::size_t k = 0; k < rx.runs.size(); ++k) {
    const Received::Run& run = rx.runs[k];
    if (const std::uint32_t o = rx.match[k]; o != Received::kNoRun) {
      const std::uint32_t old_begin = rx.held_runs[o].begin;
      if (old_begin == run.begin) continue;
      if (LocEntry* entry = loc_rib_.find(run.dst)) {
        for (RouteRef& ref : entry->refs) {
          if (ref.nbr == nbr) ref.idx = ref.idx - old_begin + run.begin;
        }
      }
    }
    std::copy(recv.begin() + run.begin, recv.begin() + run.begin + run.len,
              held.begin() + run.begin);
  }
  in.split = false;
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
  // erase() swap-moves the last neighbor into the hole: that neighbor's
  // tie-break position changes and references into it are void, so its
  // destinations are reselected along with the erased neighbor's.
  touched.add_all(in->routes);
  touched.add_all(adj_rib_in_.values().back().routes);
  touched.reorder = true;
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
    t.add_all(in.routes);
    t.reorder = true;
  }

  reselected_dsts_ += t.dsts.size();

  // Candidates for the touched destinations, in tie-break order: usable
  // neighbors in Adj-RIB-in order, each neighbor's routes in order.
  if (t.cands.size() < t.dsts.size()) t.cands.resize(t.dsts.size());
  for (std::size_t k = 0; k < t.dsts.size(); ++k) t.cands[k].clear();
  if (!t.dsts.empty()) {
    for (std::size_t j = 0; j < adj_rib_in_.size(); ++j) {
      const AdjRibIn& in = adj_rib_in_.value_at(j);
      if (!in.usable) continue;
      for (std::size_t i = 0; i < in.routes.size(); ++i) {
        if (const std::uint32_t* k = t.slot.find(in.routes[i].dst.v)) {
          t.cands[*k].push_back({static_cast<std::uint32_t>(j),
                                 static_cast<std::uint32_t>(i)});
        }
      }
    }
  }

  // Keep up to routes_per_dest policy-diverse routes per destination.
  // Withdrawn destinations keep an empty entry until the reorder below,
  // so loc-RIB positions stay stable during this loop.
  t.changed.clear();
  t.gone.clear();
  for (std::size_t k = 0; k < t.dsts.size(); ++k) {
    const std::uint32_t dst = t.dsts[k];
    std::vector<RouteRef>& cands = t.cands[k];
    std::stable_sort(cands.begin(), cands.end(),
                     [this](RouteRef a, RouteRef b) {
                       const IdrpRoute& ra = resolve(a);
                       const IdrpRoute& rb = resolve(b);
                       if (ra.path.size() != rb.path.size()) {
                         return ra.path.size() < rb.path.size();
                       }
                       return ra.attrs.cost < rb.attrs.cost;
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
    LocEntry* entry = loc_rib_.find(dst);
    if (entry) loc_rib_xor_ ^= mix(entry->sig);
    if (t.kept.empty()) {
      if (!entry) continue;
      t.gone.emplace_back(entry - loc_rib_.values().data(), dst);
      entry->refs.clear();
      t.reorder = true;
      continue;
    }
    const std::uint64_t sig =
        dst_routes_signature(dst, RouteView(this, t.kept));
    if (!entry) {
      entry = &loc_rib_[dst];
      t.reorder = true;
    } else if (entry->sig != sig) {
      t.changed.emplace_back(0, dst);
    }
    entry->refs.assign(t.kept.begin(), t.kept.end());
    entry->sig = sig;
    loc_rib_xor_ ^= mix(sig);
  }
  if (t.reorder) reorder_loc_rib();

  if (damper_.enabled()) {
    // One flap per destination whose selected route set changed (any
    // path/attr change) or disappeared; a destination appearing for the
    // first time is initial learning, not a flap (RFC 2439 shape). Noted
    // in new loc-RIB order, then withdrawals in old loc-RIB order.
    const SimTime now = net().engine().now();
    for (auto& [pos, dst] : t.changed) {
      pos = loc_rib_.find(dst) - loc_rib_.values().data();
    }
    std::sort(t.changed.begin(), t.changed.end());
    std::sort(t.gone.begin(), t.gone.end());
    for (const auto& [pos, dst] : t.changed) damper_.note_flap(dst, now);
    for (const auto& [pos, dst] : t.gone) damper_.note_flap(dst, now);
    maybe_schedule_release_check();
  }

  const std::uint64_t sig = rib_signature();
  if (sig != last_advertised_signature_) {
    last_advertised_signature_ = sig;
    trigger_advertise();
  }
}

void IdrpNode::reorder_loc_rib() {
  // Encode order, as a full rebuild produces it: self first, then first
  // appearance over the usable neighbors in Adj-RIB-in order. Entries
  // move; nothing is reselected or rehashed.
  DenseMap<std::uint32_t, LocEntry> ordered;
  ordered.reserve(loc_rib_.size());
  if (LocEntry* own = loc_rib_.find(self().v)) {
    ordered.try_emplace(self().v, std::move(*own));
  }
  for (const auto [nbr, in] : adj_rib_in_) {
    if (!in.usable) continue;
    for (const IdrpRoute& route : in.routes) {
      LocEntry* entry = loc_rib_.find(route.dst.v);
      // Empty: withdrawn, or already moved (a moved-from vector is empty).
      if (!entry || entry->refs.empty()) continue;
      ordered.try_emplace(route.dst.v, std::move(*entry));
    }
  }
  loc_rib_ = std::move(ordered);
}

std::uint64_t IdrpNode::rib_signature() const {
  if (!damper_.enabled()) return kRibSignatureSeed ^ loc_rib_xor_;
  const SimTime now = net().engine().now();
  std::uint64_t acc = kRibSignatureSeed;
  for (const auto [dst, entry] : loc_rib_) {
    // Suppressed destinations are omitted from updates, so a change
    // confined to one must not look like an advertisable change -- that
    // is where damping cuts the flap cascade. (Pure query: signatures
    // must not mutate damper state.)
    if (damper_.would_suppress(dst, now)) continue;
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

IdrpNode::RouteView IdrpNode::routes(AdId dst) const {
  const LocEntry* entry = loc_rib_.find(dst.v);
  if (!entry) return {this, {}};
  return {this, entry->refs};
}

std::size_t IdrpNode::loc_rib_routes() const noexcept {
  std::size_t n = 0;
  for (const auto [dst, entry] : loc_rib_) n += entry.refs.size();
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
