// IDRP / BGP-2 style protocol (paper §5.2, §5.2.1): distance vector
// (path vector) hop-by-hop routing with explicit policy attributes.
//
//  * Updates carry the full AD path; a receiver discards any route whose
//    path already contains it (loop suppression without a partial order).
//  * Updates carry policy attributes aggregated along the path: the set
//    of source ADs permitted to use the route, permitted QoS/UCI classes,
//    a time-of-day mask and accumulated cost. An AD re-advertising a
//    route intersects these with its own Policy Terms, possibly yielding
//    several differently-constrained routes per destination.
//  * Each AD may keep and advertise multiple routes per destination
//    (capped by routes_per_dest); the paper's scaling objection is that
//    this cap must grow with policy granularity, which the
//    policy-granularity bench measures.
//  * Per-neighbor full-table updates with implicit withdrawal (a route
//    absent from the latest update from a neighbor is gone).
//
// The decision process is incremental. Every update lists its
// destinations in ascending AD id; it is decoded into per-thread scratch
// and merged against the sender's Adj-RIB-in one destination run at a
// time, and only the destinations whose routes changed, appeared or
// disappeared are reselected. The loc-RIB holds references into the
// Adj-RIBs-in, not copies, and the RIB signature is a running XOR of
// per-destination signatures. Both the ranking and the encode order are
// canonical, so the result depends only on the routes held, never on the
// order in which they arrived (DESIGN.md, "IDRP decision process").
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_set>
#include <vector>

#include "policy/database.hpp"
#include "policy/flow.hpp"
#include "policy/term.hpp"
#include "proto/common/damping.hpp"
#include "proto/common/node.hpp"
#include "util/dense_map.hpp"

namespace idr {

// Hour-of-day bitmask helpers (bit h set = hour h permitted).
constexpr std::uint32_t kAllHoursMask = 0x00ffffffu;
std::uint32_t hour_window_mask(std::uint8_t begin, std::uint8_t end) noexcept;

// Policy attributes of an advertised route, aggregated along the path.
struct RouteAttrs {
  AdSet sources;  // source ADs permitted to use the route
  std::uint8_t qos_mask = kAllQosMask;
  std::uint8_t uci_mask = kAllUciMask;
  std::uint32_t hour_mask = kAllHoursMask;
  std::uint32_t cost = 0;

  [[nodiscard]] bool permits(const FlowSpec& flow) const noexcept;
  // True iff `this` permits every flow `other` permits (and is therefore
  // redundant if also no better in length/cost terms).
  [[nodiscard]] bool covers(const RouteAttrs& other) const noexcept;
  [[nodiscard]] bool usable() const noexcept;  // permits anything at all

  void encode(wire::Writer& w) const;
  void decode_into(wire::Reader& r);

  friend bool operator==(const RouteAttrs&, const RouteAttrs&) = default;
};

struct IdrpRoute {
  AdId dst;
  std::vector<AdId> path;  // next hop first, dst last; never contains self
  RouteAttrs attrs;

  void encode(wire::Writer& w) const;
  static std::optional<IdrpRoute> decode(wire::Reader& r);
  // Decodes into this route, reusing its path and source-set capacity;
  // false on a short read (the route is then garbage).
  bool decode_into(wire::Reader& r);

  friend bool operator==(const IdrpRoute&, const IdrpRoute&) = default;
};

struct IdrpConfig {
  // Max routes retained/advertised per destination (paper: must grow with
  // policy granularity for sources to keep finding usable routes).
  std::uint32_t routes_per_dest = 4;
  // Receiver-side Byzantine defense (self-in-path suppression is always
  // on; this adds neighbor-consistency): the path must actually end at
  // the claimed destination, every consecutive pair on it must be
  // statically adjacent, and a transit route from a neighbor is clamped
  // to that neighbor's *registered* Policy Terms (the paper's §2.3
  // assurance model: policy registration is verifiable out of band) --
  // a route no registered term of the sender could have produced is
  // rejected. Rejections are counted via note_defense_rejection.
  bool defend = false;
  // Originate reachability for this AD. At paper scale only sampled
  // beacon ADs originate (all-pairs path-vector state is infeasible at
  // 1e5 ADs); every AD still re-advertises and carries transit.
  bool originate = true;
  // Min route advertisement interval: coalesce change-triggered
  // advertisements into one update per window (0 = immediate, the
  // historical behavior).
  double mrai_ms = 0.0;
  // When our own Policy Terms are previous-hop-agnostic, every neighbor
  // off the advertised paths receives a byte-identical update; encode it
  // once and share the payload (paper scale: a regional AD has ~1e3 stub
  // neighbors). Off by default to keep per-neighbor encode exact.
  bool shared_updates = false;
  // Route-flap damping (off by default): per-destination penalty on
  // every selected-route-set change; suppressed destinations are omitted
  // from updates (implicit withdrawal) while local forwarding keeps
  // them, until the penalty decays to the reuse threshold.
  DampingConfig damping;
  // Graceful restart (off by default): when a neighbor crashes into a
  // grace window, its Adj-RIB-in is retained (no reselect, so the
  // identical-update suppression keeps downstream quiet) instead of
  // erased; a guarded timer erases it at grace expiry unless a fresh
  // full-table update from the resynced neighbor replaced it first.
  GrConfig gr;
};

class IdrpNode : public ProtoNode {
 public:
  // A selected route by reference: slot `idx` of the Adj-RIB-in at dense
  // position `nbr`, or the origin route when nbr == kOrigin.
  struct RouteRef {
    static constexpr std::uint32_t kOrigin = 0xffffffffu;
    std::uint32_t nbr;
    std::uint32_t idx;
  };

  // The selected routes for one destination, in preference order. A view
  // into the node's RIBs: valid until the node next handles an event.
  class RouteView {
   public:
    class Iterator {
     public:
      Iterator(const IdrpNode* node, const RouteRef* ref) noexcept
          : node_(node), ref_(ref) {}
      const IdrpRoute& operator*() const { return node_->resolve(*ref_); }
      const IdrpRoute* operator->() const { return &**this; }
      Iterator& operator++() noexcept {
        ++ref_;
        return *this;
      }
      bool operator==(const Iterator& o) const noexcept {
        return ref_ == o.ref_;
      }

     private:
      const IdrpNode* node_;
      const RouteRef* ref_;
    };
    RouteView(const IdrpNode* node, std::span<const RouteRef> refs) noexcept
        : node_(node), refs_(refs) {}
    [[nodiscard]] Iterator begin() const noexcept {
      return {node_, refs_.data()};
    }
    [[nodiscard]] Iterator end() const noexcept {
      return {node_, refs_.data() + refs_.size()};
    }
    [[nodiscard]] std::size_t size() const noexcept { return refs_.size(); }
    [[nodiscard]] bool empty() const noexcept { return refs_.empty(); }

   private:
    const IdrpNode* node_;
    std::span<const RouteRef> refs_;
  };

  // `policies` is the global PolicySet; each node reads ONLY its own
  // terms from it (its configured import/export policy).
  IdrpNode(const PolicySet* policies, IdrpConfig config = {})
      : policies_(policies), config_(config) {}

  void start() override;
  void on_message(AdId from, std::span<const std::uint8_t> bytes) override;
  void on_link_change(AdId neighbor, bool up) override;

  // Re-send the full Adj-RIB-out to every neighbor every `ms` (0 disables,
  // the default), bypassing the identical-update suppression: a triggered
  // update lost on the unreliable datagram service would otherwise leave
  // the neighbor stale forever. Call before attach/start.
  void set_periodic_refresh(double ms) noexcept { periodic_refresh_ms_ = ms; }

  // Forwarding: first selected route for dst whose attributes permit the
  // flow, whose next hop is reachable and -- when we are a transit AD for
  // this packet (`prev` is the adjacent AD it arrived from) -- for which
  // one of our own Policy Terms permits the actual (prev, next) pair.
  // Returns the next hop.
  [[nodiscard]] std::optional<AdId> forward(const FlowSpec& flow,
                                            AdId prev = kNoAd) const;

  // The selected route a source would use for this flow (full path view,
  // used by the DV+source-routing hybrid and by diagnostics).
  [[nodiscard]] const IdrpRoute* select(const FlowSpec& flow) const;

  // All selected routes for a destination (empty if none) -- used by the
  // DV+source-routing hybrid, which picks among them at the source.
  [[nodiscard]] RouteView routes(AdId dst) const;

  [[nodiscard]] std::size_t loc_rib_routes() const noexcept;
  [[nodiscard]] std::size_t adj_rib_routes() const noexcept;
  [[nodiscard]] std::size_t routes_for(AdId dst) const;
  [[nodiscard]] FlapDamper& damper() noexcept { return damper_; }
  // GR accounting: neighbor RIBs erased at grace expiry resp. full-table
  // resyncs advertised toward a recovered neighbor.
  [[nodiscard]] std::uint64_t gr_stale_flushed() const noexcept {
    return gr_stale_flushed_;
  }
  [[nodiscard]] std::uint64_t gr_resyncs() const noexcept {
    return gr_resyncs_;
  }
  // Work counter: destinations reselected over the node's lifetime (a
  // destination counts once per reselection that touches it).
  [[nodiscard]] std::uint64_t reselected_dsts() const noexcept {
    return reselected_dsts_;
  }

  static constexpr std::uint8_t kMsgUpdate = 1;

 protected:
  [[nodiscard]] const PolicySet& policies() const noexcept {
    return *policies_;
  }

 private:
  // One neighbor's Adj-RIB-in: its routes as received (destinations
  // ascending, one run each), whether they were usable (link up) at the
  // last reselection, and the delay of the link to the neighbor (static;
  // read when it becomes usable), which ranks its routes.
  struct AdjRibIn {
    std::vector<IdrpRoute> routes;
    bool usable = false;
    double delay_ms = 0.0;
  };
  // One loc-RIB destination: its selected routes and their signature.
  struct LocEntry {
    std::uint32_t dst;
    std::vector<RouteRef> refs;
    std::uint64_t sig = 0;
  };
  struct Touched;
  struct Received;
  // The calling thread's touched set, emptied (sharded runs execute nodes
  // on worker threads, so the scratch is per thread, never shared).
  static Touched& begin_touch();
  // The calling thread's decode scratch, emptied (same threading rule).
  static Received& begin_receive();

  [[nodiscard]] const IdrpRoute& resolve(RouteRef ref) const {
    return ref.nbr == RouteRef::kOrigin
               ? origin_
               : adj_rib_in_.value_at(ref.nbr).routes[ref.idx];
  }
  // Reselects the touched destinations (plus every destination of a
  // neighbor whose usability flipped), then advertises if the RIB
  // signature changed.
  void reselect_and_maybe_advertise(Touched& touched);
  // Brings `from`'s Adj-RIB-in to the received table, touching only the
  // destinations whose run changed, appeared or disappeared.
  void apply_update(AdId from, Received& rx, Touched& touched);
  static void match_runs(std::span<const IdrpRoute> held, Received& rx,
                         Touched& touched);
  void erase_neighbor(AdId neighbor, Touched& touched);
  // The loc-RIB entry for `dst` (binary search), or nullptr.
  [[nodiscard]] LocEntry* find_loc(std::uint32_t dst);
  [[nodiscard]] const LocEntry* find_loc(std::uint32_t dst) const;
  void advertise(MsgClass cls = MsgClass::kUpdate);
  void trigger_advertise();
  void schedule_refresh();
  void flush_stale(AdId neighbor);
  void maybe_schedule_release_check();
  // Defense filter for one received route (config_.defend only): checks
  // neighbor consistency and clamps to the sender's registered terms,
  // appending the surviving copies to `rx`.
  void defend_and_keep(AdId from, const IdrpRoute& route, Received& rx);
  // The full-table update for `neighbor`, destinations ascending. Damping
  // suppression is only queried here; releases happen solely in the
  // release timer. An honest AD without Policy Terms can re-advertise no
  // transit route, so its update is its origin route alone and the
  // loc-RIB is not walked.
  [[nodiscard]] std::vector<std::uint8_t> encode_for(AdId neighbor) const;
  [[nodiscard]] std::uint64_t rib_signature() const;

  const PolicySet* policies_;
  IdrpConfig config_;
  FlapDamper damper_{config_.damping};
  double periodic_refresh_ms_ = 0.0;
  std::uint64_t gr_stale_flushed_ = 0;
  std::uint64_t gr_resyncs_ = 0;
  std::uint64_t reselected_dsts_ = 0;
  // Neighbors whose Adj-RIB-in is graceful-restart stale (retained while
  // the neighbor restarts; awaiting a resync update or the flush timer).
  std::unordered_set<std::uint32_t> stale_nbrs_;
  // Adj-RIB-in per neighbor. A RouteRef names a neighbor by its dense
  // position here, which ranks nothing: routes rank by the neighbor's AD
  // id and link delay.
  DenseMap<std::uint32_t, AdjRibIn> adj_rib_in_;
  IdrpRoute origin_;  // our own reachability (empty path), when originating
  // loc-RIB: selected routes per destination, sorted by destination (the
  // encode order; self included when originating). An entry is inserted
  // or erased only when its destination appears or is withdrawn.
  std::vector<LocEntry> loc_rib_;
  // XOR of splitmix64(sig) over every loc-RIB entry.
  std::uint64_t loc_rib_xor_ = 0;
  std::uint64_t last_advertised_signature_ = 0;
  bool advertise_scheduled_ = false;  // an MRAI window is already open
  bool release_check_scheduled_ = false;  // a damping release timer is set
  // Per-neighbor hash of the last update actually sent; identical
  // re-advertisements are suppressed (real path-vector implementations
  // do the same, and it keeps triggered-update churn honest).
  DenseMap<std::uint32_t, std::uint64_t> last_sent_hash_;
};

}  // namespace idr
