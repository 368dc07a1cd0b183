// Link state + hop-by-hop + explicit policy terms (paper §5.3).
//
// Policy LSAs flood to every AD, so any AD *can* compute a legal route
// for any (source, flow) -- but because forwarding is hop-by-hop, every
// AD along the route must repeat the source's computation and reach the
// identical answer. That imposes the two costs the paper identifies:
//   1. per-source computation/state at transit ADs (a spanning tree per
//      traffic source rather than one per destination), and
//   2. sources must publish their route-selection criteria in their LSAs
//      (otherwise other ADs cannot replicate their decision), giving up
//      the privacy that source routing would preserve.
// Both are measured by the policy-granularity bench. Consistency is
// achieved by the deterministic shared synthesis procedure; during
// database convergence, inconsistent answers (and hence transient loops
// or drops) are possible and are counted by the convergence bench.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "policy/database.hpp"
#include "proto/common/node.hpp"
#include "proto/orwg/lsdb.hpp"
#include "util/dense_map.hpp"

namespace idr {

struct LshhConfig {
  // Origin-authentication keys, indexed by AdId (nullptr = auth off).
  // With auth on, every received LSA's toy MAC is verified against the
  // *origin's* key: a forged LSA signed by the liar's own key -- or a
  // re-flooded LSA whose content was tampered with in transit -- is
  // rejected and counted (lsas_rejected_auth + note_defense_rejection).
  const std::vector<std::uint64_t>* lsa_keys = nullptr;
  // Registered ground-truth policy for transit permission during path
  // synthesis (nullptr = trust the terms advertised in LSAs). This is
  // the route-leak defense: an AD cannot widen its transit policy by
  // advertising terms it never registered.
  const PolicySet* registry = nullptr;
  // Paper-scale hierarchical mode (§2: ~1e5 ADs, ~1e2 transit ADs): only
  // transit ADs originate LSAs (listing their attached stubs), floods
  // skip stub neighbors, stubs default-route to their lowest-id live
  // transit neighbor, and transit ADs route between stub *attachments*
  // (PolicyLsdb::attachment) over the transit-only database. The
  // database and every FIB stay O(transit ADs) instead of O(all ADs).
  bool hierarchical = false;
  // Hold-down for link-change-triggered re-origination (0 = immediate,
  // the historical behavior). Link transitions within the window
  // coalesce into at most one origination, and a window that ends with
  // LSA content identical to the database copy (the link flapped down
  // and back) re-floods nothing at all -- the re-flood scoping that
  // keeps a flapping access link from re-flooding the transit core per
  // transition. Periodic refresh bypasses this (it must bump seq).
  double link_holddown_ms = 0.0;
  // Graceful restart (off by default): a neighbor that crashes into a
  // grace window stays in live_neighbors() (Node::neighbor_alive treats
  // in-grace as up), so the adjacency is *retained* -- no re-origination,
  // no network-wide re-flood -- until either the restarted neighbor's
  // link-up resync or the guarded post-grace re-examination drops it.
  GrConfig gr;
};

class LshhNode : public ProtoNode {
 public:
  explicit LshhNode(const PolicySet* policies, LshhConfig config = {})
      : policies_(policies), config_(config) {}

  void start() override;
  void on_message(AdId from, std::span<const std::uint8_t> bytes) override;
  void on_link_change(AdId neighbor, bool up) override;

  // Re-originate our LSA every `ms` (0 disables, the default). The fresh
  // sequence number re-floods network-wide, repairing any database hole a
  // lost or corrupted flood left behind. Call before attach/start.
  void set_periodic_refresh(double ms) noexcept { periodic_refresh_ms_ = ms; }

  // Hop-by-hop forwarding decision for a packet of `flow` currently at
  // this AD: recompute (or fetch from the per-flow cache) the globally
  // agreed path for the flow and return our successor on it. nullopt if
  // no legal route, or if this AD is not on the computed path (the
  // inconsistency case -- the packet is dropped).
  [[nodiscard]] std::optional<AdId> forward(const FlowSpec& flow);

  [[nodiscard]] const PolicyLsdb& lsdb() const noexcept { return lsdb_; }
  [[nodiscard]] std::uint64_t path_computations() const noexcept {
    return path_computations_;
  }
  [[nodiscard]] std::uint64_t cache_hits() const noexcept {
    return cache_hits_;
  }
  [[nodiscard]] std::size_t cache_entries() const noexcept {
    return cache_.size();
  }
  [[nodiscard]] std::uint64_t total_expansions() const noexcept {
    return total_expansions_;
  }
  [[nodiscard]] std::uint64_t lsas_rejected_auth() const noexcept {
    return lsas_rejected_auth_;
  }
  [[nodiscard]] std::uint64_t originations_suppressed() const noexcept {
    return originations_suppressed_;
  }
  // GR accounting: adjacency retentions entered on a neighbor crash resp.
  // database resyncs pushed to a recovered neighbor.
  [[nodiscard]] std::uint64_t gr_retained() const noexcept {
    return gr_retained_;
  }
  [[nodiscard]] std::uint64_t gr_resyncs() const noexcept {
    return gr_resyncs_;
  }

  static constexpr std::uint8_t kMsgLsa = 1;

 private:
  struct CacheEntry {
    std::optional<AdId> next;
    std::uint64_t db_version = 0;
    // Adjacency-liveness epoch at computation time. The database version
    // alone cannot invalidate a stub's cache: stubs keep no database, so
    // a next hop (or negative result) computed while the parent transit
    // was dead would otherwise be served forever once it returns.
    std::uint64_t live_epoch = 0;
  };

  void originate_lsa(MsgClass cls = MsgClass::kUpdate);
  void originate_if_changed();
  void forge_victim_lsa();
  void sign_lsa(PolicyLsa& lsa) const;
  void flood_lsa(const PolicyLsa& lsa, AdId except,
                 MsgClass cls = MsgClass::kUpdate);
  void schedule_refresh();
  [[nodiscard]] bool is_transit() const { return topo().can_transit(self()); }
  [[nodiscard]] std::optional<AdId> flat_next(const FlowSpec& flow);
  [[nodiscard]] std::optional<AdId> hierarchical_next(const FlowSpec& flow);
  [[nodiscard]] static std::uint64_t cache_key(const FlowSpec& flow) noexcept {
    // Source-specific key: hop-by-hop policy routing cannot collapse
    // sources (the paper's state-blowup point).
    return (static_cast<std::uint64_t>(flow.src.v) << 40) ^
           (static_cast<std::uint64_t>(flow.dst.v) << 12) ^
           traffic_class_of(flow).index();
  }

  const PolicySet* policies_;
  LshhConfig config_;
  PolicyLsdb lsdb_;
  double periodic_refresh_ms_ = 0.0;
  std::uint32_t my_seq_ = 0;
  bool holddown_scheduled_ = false;  // a hold-down window is already open
  std::uint64_t live_epoch_ = 0;     // bumped on every on_link_change
  std::uint64_t originations_suppressed_ = 0;
  std::uint64_t gr_retained_ = 0;
  std::uint64_t gr_resyncs_ = 0;
  DenseMap<std::uint64_t, CacheEntry> cache_;
  std::uint64_t path_computations_ = 0;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t total_expansions_ = 0;
  std::uint64_t lsas_rejected_auth_ = 0;
};

}  // namespace idr
