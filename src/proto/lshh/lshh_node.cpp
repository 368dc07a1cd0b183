#include "proto/lshh/lshh_node.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace idr {

void LshhNode::start() {
  originate_lsa();
  schedule_refresh();
}

void LshhNode::schedule_refresh() {
  if (periodic_refresh_ms_ <= 0.0) return;
  schedule_guarded(periodic_refresh_ms_, [this] {
    originate_lsa(MsgClass::kRefresh);
    schedule_refresh();
  });
}

void LshhNode::sign_lsa(PolicyLsa& lsa) const {
  // Signed with OUR key, whatever the LSA claims as origin: a forged
  // LSA for a victim therefore carries a tag the victim's key cannot
  // verify, which is exactly what the auth defense catches.
  if (config_.lsa_keys && self().v < config_.lsa_keys->size()) {
    lsa.auth = lsa_auth_tag(lsa, (*config_.lsa_keys)[self().v]);
  }
}

void LshhNode::originate_lsa(MsgClass cls) {
  // Hierarchical mode: stubs are silent; their reachability rides on the
  // attachment listings in their transit neighbors' LSAs.
  if (config_.hierarchical && !is_transit()) return;
  PolicyLsa lsa;
  lsa.origin = self();
  lsa.seq = ++my_seq_;
  for (const Adjacency& adj : live_neighbors()) {
    if (config_.hierarchical && !topo().can_transit(adj.neighbor)) {
      lsa.attached_stubs.push_back(adj.neighbor);
      continue;
    }
    lsa.adjacencies.push_back(
        PolicyLsaAdjacency{adj.neighbor, topo().link(adj.link).metric});
  }
  const auto terms = policies_->terms(self());
  lsa.terms.assign(terms.begin(), terms.end());
  // Hop-by-hop consistency forces sources to publish their private
  // route-selection criteria (paper §5.3).
  const SourcePolicy& sp = policies_->source_policy(self());
  lsa.has_source_policy = true;
  lsa.avoid = sp.avoid;
  lsa.max_hops = sp.max_hops;
  lsa.prefer_min_cost = sp.prefer_min_cost;
  const Misbehavior mis = net().active_misbehavior(self());
  if (mis == Misbehavior::kRouteLeak) {
    // Route leak, link-state style: advertise unconditional transit in
    // place of the registered terms (999 marks the lie in dumps; cost 1
    // keeps the claim consistent with what honest cost-1 terms look
    // like, so undefended receivers take the bait).
    lsa.terms.clear();
    lsa.terms.push_back(open_transit_term(self(), 999));
  }
  sign_lsa(lsa);
  lsdb_.insert(lsa);
  flood_lsa(lsa, kNoAd, cls);
  if (mis == Misbehavior::kFalseOrigin) forge_victim_lsa();
}

void LshhNode::originate_if_changed() {
  // Hold-down re-flood scoping: a window that ends with the same link
  // view the database already describes (the link flapped down and back)
  // originates nothing -- no seq bump, no network-wide re-flood.
  if (config_.hierarchical && !is_transit()) return;
  if (const PolicyLsa* current = lsdb_.get(self())) {
    std::vector<PolicyLsaAdjacency> adjs;
    std::vector<AdId> stubs;
    for (const Adjacency& adj : live_neighbors()) {
      if (config_.hierarchical && !topo().can_transit(adj.neighbor)) {
        stubs.push_back(adj.neighbor);
        continue;
      }
      adjs.push_back(
          PolicyLsaAdjacency{adj.neighbor, topo().link(adj.link).metric});
    }
    if (adjs == current->adjacencies && stubs == current->attached_stubs) {
      ++originations_suppressed_;
      return;
    }
  }
  originate_lsa();
}

void LshhNode::forge_victim_lsa() {
  // LS origin forgery: flood an LSA claiming to BE the victim, with a
  // sequence number far ahead of the victim's real one so it wins the
  // newer-seq race at every undefended receiver. No adjacencies: the
  // victim simply vanishes from every computed path.
  const AdId victim = net().misbehavior_victim(self());
  if (!victim.valid() || victim == self()) return;
  PolicyLsa forged;
  forged.origin = victim;
  const PolicyLsa* have = lsdb_.get(victim);
  forged.seq = (have ? have->seq : 0) + 64;  // outruns origin fight-back
  forged.has_source_policy = true;
  sign_lsa(forged);  // our key, not the victim's -- detectably wrong
  lsdb_.insert(forged);
  flood_lsa(forged, kNoAd);
}

void LshhNode::flood_lsa(const PolicyLsa& lsa, AdId except, MsgClass cls) {
  wire::Writer w;
  w.u8(kMsgLsa);
  lsa.encode(w);
  if (!config_.hierarchical) {
    send_to_neighbors(w.bytes(), except, cls);
    return;
  }
  // Stub-suppressed flooding: stubs keep no database, so the flood only
  // visits the transit subgraph.
  Payload payload;
  for_each_live_neighbor([&](const Adjacency& adj) {
    if (adj.neighbor == except) return;
    if (!topo().can_transit(adj.neighbor)) return;
    if (!payload) payload = make_payload(w.bytes());
    net().send(self(), adj.neighbor, payload, cls);
  });
}

void LshhNode::on_message(AdId from, std::span<const std::uint8_t> bytes) {
  wire::Reader r(bytes);
  const std::uint8_t type = r.u8();
  if (!r.ok() || type != kMsgLsa) {
    drop_malformed();
    return;
  }
  auto lsa = PolicyLsa::decode(r);
  if (!lsa.has_value()) {
    drop_malformed();
    return;
  }
  if (config_.lsa_keys) {
    // Origin authentication: the tag must verify under the *origin's*
    // key. Kills both forged-origin LSAs (signed with the wrong key)
    // and LSAs whose content was tampered with in transit (stale tag).
    if (lsa->origin.v >= config_.lsa_keys->size() ||
        lsa->auth != lsa_auth_tag(*lsa, (*config_.lsa_keys)[lsa->origin.v])) {
      ++lsas_rejected_auth_;
      net().note_defense_rejection(self());
      return;
    }
  }
  if (lsa->origin == self()) {
    // Sequence-number recovery after a cold restart: our own pre-crash
    // LSA came back ahead of our (reset) counter. Strictly greater: an
    // echo of our current instance must not re-trigger origination.
    if (lsa->seq > my_seq_) {
      my_seq_ = lsa->seq;
      originate_lsa();
    }
    return;
  }
  if (const PolicyLsa* have = lsdb_.get(lsa->origin);
      have && lsa->seq < have->seq && from.valid()) {
    // Answer a stale copy with the newer database copy (OSPF's rule), so
    // a cold-restarted origin whose one-shot DB sync was lost keeps being
    // told its pre-crash sequence number on every refresh it emits.
    wire::Writer w;
    w.u8(kMsgLsa);
    have->encode(w);
    send_pdu(from, std::move(w));
    return;
  }
  if (lsdb_.insert(*lsa)) {
    if (net().misbehaving_as(self(), Misbehavior::kTamper) &&
        lsa->origin != self()) {
      // Path-attribute tampering at the re-flood point: strip the
      // origin's adjacencies and bump the sequence so the mutilated
      // copy beats the original downstream. The auth tag goes stale,
      // which is precisely what the origin-authentication defense
      // detects; undefended receivers eat it.
      PolicyLsa mangled = *lsa;
      mangled.adjacencies.clear();
      ++mangled.seq;
      flood_lsa(mangled, from);
      return;
    }
    flood_lsa(*lsa, from);
  }
}

void LshhNode::on_link_change(AdId neighbor, bool up) {
  // Forwarding choices consult live_neighbors() as well as the database,
  // and for stubs the database version never moves -- so every adjacency
  // liveness change must invalidate the cache itself. (During a GR grace
  // window the recomputation sees the same retained adjacency and lands
  // on the same answer; the epoch bump only costs one recompute per key.)
  ++live_epoch_;
  if (!up && config_.gr.enabled && net().in_grace(neighbor)) {
    // Graceful restart: the in-grace neighbor still counts as alive
    // (Node::neighbor_alive), so a re-origination now would change
    // nothing -- skip it entirely (no seq bump, no flood) and re-examine
    // just past grace expiry. If the neighbor resynced in time the
    // re-examination suppresses itself (identical content); if not, it
    // originates the LSA that finally withdraws the adjacency. A
    // re-crash during grace lands here again and arms a later timer, so
    // the early one fires harmlessly inside the extended window.
    ++gr_retained_;
    schedule_guarded(config_.gr.grace_ms + 0.1,
                     [this] { originate_if_changed(); });
    return;
  }
  if (up && config_.gr.enabled) ++gr_resyncs_;
  if (config_.link_holddown_ms > 0.0) {
    if (!holddown_scheduled_) {
      holddown_scheduled_ = true;
      schedule_guarded(config_.link_holddown_ms, [this] {
        holddown_scheduled_ = false;
        originate_if_changed();
      });
    }
  } else {
    originate_lsa();
  }
  if (config_.hierarchical && !topo().can_transit(neighbor)) return;
  if (up && neighbor.valid()) {
    // DB sync for a neighbor that just (re)appeared, so a cold-restarted
    // node rebuilds the full map instead of only hearing future changes.
    lsdb_.for_each([&](const PolicyLsa& lsa) {
      wire::Writer w;
      w.u8(kMsgLsa);
      lsa.encode(w);
      send_pdu(neighbor, std::move(w));
    });
  }
}

std::optional<AdId> LshhNode::forward(const FlowSpec& flow) {
  const std::uint64_t key = cache_key(flow);
  if (const CacheEntry* e = cache_.find(key)) {
    if (e->db_version == lsdb_.version() && e->live_epoch == live_epoch_) {
      ++cache_hits_;
      return e->next;
    }
    cache_.erase(key);
  }
  const std::optional<AdId> next =
      config_.hierarchical ? hierarchical_next(flow) : flat_next(flow);
  cache_[key] = CacheEntry{next, lsdb_.version(), live_epoch_};
  return next;
}

std::optional<AdId> LshhNode::flat_next(const FlowSpec& flow) {
  // Replicate the source's route computation: same database, same
  // deterministic search, same (published) source selection criteria.
  SynthesisOptions options;
  if (const PolicyLsa* src_lsa = lsdb_.get(flow.src);
      src_lsa && src_lsa->has_source_policy) {
    options.avoid = src_lsa->avoid;
    options.max_hops = src_lsa->max_hops;
    options.minimize_cost = src_lsa->prefer_min_cost;
  }
  ++path_computations_;
  const LsdbView view(lsdb_, topo().ad_count(), config_.registry);
  const SynthesisResult result = synthesize_route(view, flow, options);
  total_expansions_ += result.expansions;

  std::optional<AdId> next;
  if (result.found()) {
    const auto at =
        std::find(result.path.begin(), result.path.end(), self());
    if (at != result.path.end() && at + 1 != result.path.end()) {
      next = *(at + 1);
    }
    // If we are not on the agreed path, the packet should never have
    // reached us; drop (next stays nullopt).
  }
  return next;
}

std::optional<AdId> LshhNode::hierarchical_next(const FlowSpec& flow) {
  if (!is_transit()) {
    // Stub: deliver to an adjacent destination, else hand the packet to
    // the lowest-id live transit neighbor (the deterministic parent every
    // other AD also derives from the attachment rule).
    std::optional<AdId> parent;
    for (const Adjacency& adj : live_neighbors()) {
      if (adj.neighbor == flow.dst) return flow.dst;
      if (topo().can_transit(adj.neighbor) &&
          (!parent || adj.neighbor < *parent)) {
        parent = adj.neighbor;
      }
    }
    return parent;
  }
  const AdId owner_dst = lsdb_.attachment(flow.dst);
  if (!owner_dst.valid()) return std::nullopt;
  if (owner_dst == self()) {
    // Last transit hop: the destination is our attached stub.
    for (const Adjacency& adj : live_neighbors()) {
      if (adj.neighbor == flow.dst) return flow.dst;
    }
    return std::nullopt;
  }
  const AdId owner_src = lsdb_.attachment(flow.src);
  if (!owner_src.valid()) return std::nullopt;
  // Route between the attachments over the transit-only database; the
  // stub endpoints ride the first/last hierarchical link.
  FlowSpec synth = flow;
  synth.src = owner_src;
  synth.dst = owner_dst;
  SynthesisOptions options;
  if (const PolicyLsa* src_lsa = lsdb_.get(synth.src);
      src_lsa && src_lsa->has_source_policy) {
    options.avoid = src_lsa->avoid;
    options.max_hops = src_lsa->max_hops;
    options.minimize_cost = src_lsa->prefer_min_cost;
  }
  ++path_computations_;
  const LsdbView view(lsdb_, topo().ad_count(), config_.registry);
  const SynthesisResult result = synthesize_route(view, synth, options);
  total_expansions_ += result.expansions;
  if (!result.found()) return std::nullopt;
  if (self() == owner_src && result.path.size() == 1) {
    // Degenerate same-owner case is handled above; a one-hop path here
    // means src and dst attach to the same transit AD.
    return std::nullopt;
  }
  const auto at = std::find(result.path.begin(), result.path.end(), self());
  if (at == result.path.end() || at + 1 == result.path.end()) {
    // Not on the agreed transit path (or we ARE owner_dst, handled
    // above): inconsistency, drop.
    return std::nullopt;
  }
  return *(at + 1);
}

}  // namespace idr
