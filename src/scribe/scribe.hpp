#pragma once

// Scribe: application-level group communication over Pastry (§II.B.2-3).
//
// Nodes sharing an attribute join the attribute's tree.  The union of the
// Pastry routes from members to the TreeId forms the spanning tree; interior
// nodes may be pure forwarders.  Supported operations:
//   * multicast — policy pushes from admins to all members (onDeliver);
//   * anycast  — distributed DFS that visits members until a handler says
//     the request is satisfied (query serving);
//   * aggregate — RBAY's extension: periodic hierarchical roll-up of a
//     composable function (count/sum/min/max) to the root.
//
// Tree repair: when enabled, parents heartbeat children; a child that
// misses beats re-joins through Pastry, converging on the new root.

#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "pastry/node.hpp"
#include "scribe/messages.hpp"

namespace rbay::scribe {

/// Upper-layer hooks for one subscribed topic.  Implemented by the RBAY
/// core node; all callbacks run on the member's node.
class TopicMember {
 public:
  virtual ~TopicMember() = default;

  /// A multicast reached this member.
  virtual void on_multicast(const TopicId& topic, const std::string& data) = 0;

  /// An anycast is visiting this member.  Mutate the payload; return true
  /// if the request is now satisfied (stops the DFS).
  virtual bool on_anycast(const TopicId& topic, AnycastPayload& payload) = 0;

  /// Local contribution to the topic's aggregate (default: membership
  /// count, i.e. 1.0 — which makes the root's aggregate the tree size).
  virtual double aggregate_contribution(const TopicId& topic) {
    (void)topic;
    return 1.0;
  }
};

double combine(AggregateKind kind, double a, double b);

struct ScribeConfig {
  /// Period of aggregation roll-up rounds; zero disables the timer.
  util::SimTime aggregation_interval = util::SimTime::zero();
  /// Parent→child heartbeat period; zero disables repair.
  util::SimTime heartbeat_interval = util::SimTime::zero();
  /// Missed-beat multiple after which a child declares its parent dead.
  int heartbeat_misses = 3;
  /// Leaf-set successors each tree root replicates rendezvous state to,
  /// every aggregation round (zero disables replication/failover).
  int root_replicas = 2;
  /// Longest a promoted root may serve a replicated aggregate snapshot as
  /// a degraded (stale-tagged) read before failing back to its live view.
  util::SimTime max_staleness = util::SimTime::seconds(5);
  /// Deadline for anycast walks and size probes; zero disables timeouts
  /// (an expired anycast is retried once from the entry node, then
  /// completed with a miss).
  util::SimTime anycast_timeout = util::SimTime::zero();
  /// Hot-tree load balancing: maximum children a tree node carries before
  /// it delegates the surplus to a leaf-set pick (D3-Tree style weight
  /// balancing).  Zero disables splitting.
  int fan_in_cap = 0;
  /// Root-set rotation: number of serving replica holders a root keeps
  /// besides itself.  Serving holders answer size probes from their
  /// replicated snapshot (staleness-bounded) and accept anycast entries,
  /// spreading a hot root's read load.  Zero disables rotation.
  int root_set = 0;
};

class Scribe final : public pastry::PastryApp {
 public:
  explicit Scribe(pastry::PastryNode& node, ScribeConfig config = {});
  ~Scribe() override;

  Scribe(const Scribe&) = delete;
  Scribe& operator=(const Scribe&) = delete;

  /// Joins `topic` as a member.  `member` must outlive the subscription.
  /// `on_joined` (optional) fires when the JOIN is absorbed upstream (or
  /// immediately if this node is the topic root).
  void subscribe(const TopicId& topic, TopicMember* member,
                 std::function<void()> on_joined = nullptr,
                 pastry::Scope scope = pastry::Scope::Global);

  void unsubscribe(const TopicId& topic);

  [[nodiscard]] bool subscribed(const TopicId& topic) const;

  /// The topics this node holds state for, in the order the periodic
  /// rounds walk them.  Contract: sorted by TopicId — a pure function of
  /// the topic set, independent of subscription/teardown history — so
  /// per-round message order (and the jitter draws / seq tie-breaks that
  /// hang off it) is deterministic.
  [[nodiscard]] std::vector<TopicId> known_topics() const;

  /// Multicasts `data` to all members via the rendezvous root.
  void multicast(const TopicId& topic, std::string data,
                 pastry::Scope scope = pastry::Scope::Global);

  /// Starts an anycast DFS over the topic tree.  The callback fires on this
  /// node with the final payload (satisfied = a member consumed it).
  using AnycastCallback =
      std::function<void(bool satisfied, int members_visited, AnycastPayload& payload)>;
  void anycast(const TopicId& topic, std::unique_ptr<AnycastPayload> payload,
               AnycastCallback callback, pastry::Scope scope = pastry::Scope::Global);

  /// Sets the aggregate function for a topic this node participates in.
  void set_aggregation(const TopicId& topic, AggregateKind kind);

  /// This node's current aggregated view of its subtree (at the root: the
  /// whole tree).  Count aggregation yields tree size.
  [[nodiscard]] double aggregate_value(const TopicId& topic) const;

  /// A root's answer to a size probe.  `stale` marks a degraded read: a
  /// freshly promoted root serving the last replicated snapshot, `age`
  /// sim-time old.  `epoch` is the root's replication epoch — it only
  /// moves forwards, across a failover too.
  struct SizeInfo {
    double value = 0.0;
    std::uint64_t epoch = 0;
    bool stale = false;
    util::SimTime age = util::SimTime::zero();
    /// Served by a non-root member of the topic's root set (always a
    /// staleness-bounded degraded read).
    bool from_root_set = false;
  };

  /// Asks the topic root for its aggregate (Fig. 7 steps 1-2).
  using SizeCallback = std::function<void(const SizeInfo& info)>;
  void probe_size(const TopicId& topic, SizeCallback callback,
                  pastry::Scope scope = pastry::Scope::Global);

  /// Reports this node's active reservation holders for inclusion in root
  /// replicas (set by the RBAY core node; may be null).
  using ReservationReporter = std::function<std::vector<std::string>()>;
  void set_reservation_reporter(ReservationReporter reporter) {
    reservation_reporter_ = std::move(reporter);
  }

  /// Fires when an anycast result arrives for a waiter that already
  /// completed (a reply racing the timeout retry).  The payload may carry
  /// member-side state — reservations taken during the walk — that the
  /// owner must reconcile; without a handler it is only counted.
  using OrphanHandler = std::function<void(const TopicId& topic, AnycastPayload& payload)>;
  void set_orphan_handler(OrphanHandler handler) { orphan_handler_ = std::move(handler); }
  [[nodiscard]] std::uint64_t anycast_orphans() const { return anycast_orphans_; }

  /// Children registered on this node for `topic` (tree introspection).
  [[nodiscard]] std::vector<NodeRef> children_of(const TopicId& topic) const;
  [[nodiscard]] std::optional<NodeRef> parent_of(const TopicId& topic) const;
  [[nodiscard]] bool is_root_of(const TopicId& topic) const;
  [[nodiscard]] std::size_t topic_count() const { return topics_.size(); }

  /// Failover introspection (invariant checkers, tests).
  [[nodiscard]] std::size_t anycast_waiter_count() const { return anycast_waiters_.size(); }
  [[nodiscard]] std::size_t size_waiter_count() const { return size_waiters_.size(); }
  [[nodiscard]] std::uint64_t root_epoch_of(const TopicId& topic) const;
  [[nodiscard]] bool is_degraded(const TopicId& topic) const;

  /// Hot-tree load-balancing introspection (scenario expects, tests).
  /// splits = overload events that initiated a delegation; delegations =
  /// children successfully re-parented to a delegate; rotations = size
  /// probes answered by a non-root root-set member on this node.
  [[nodiscard]] std::uint64_t split_count() const { return splits_; }
  [[nodiscard]] std::uint64_t delegation_count() const { return delegations_; }
  [[nodiscard]] std::uint64_t rotation_count() const { return rotations_; }

  /// Health introspection (rbay.health.* publication, docs/HEALTH.md).
  /// Largest child fan-in across every topic this node carries state for.
  [[nodiscard]] std::size_t max_fan_in() const;
  /// Age of the oldest root-state replica held on this node; zero without
  /// replicas.
  [[nodiscard]] util::SimTime max_replica_age(util::SimTime now) const;
  /// Longest time since a parent heartbeat, across subscribed topics with
  /// a parent that have seen at least one beat; zero when repair is off.
  [[nodiscard]] util::SimTime max_heartbeat_lag(util::SimTime now) const;

  /// Replicated rendezvous state held on behalf of a (possibly failed)
  /// tree root.
  struct ReplicaState {
    std::uint64_t epoch = 0;
    AggregateKind agg_kind = AggregateKind::Count;
    pastry::Scope scope = pastry::Scope::Global;
    double value = 0.0;
    util::SimTime snapshot_time = util::SimTime::zero();
    util::SimTime received_at = util::SimTime::zero();
    std::vector<NodeRef> children;
    std::vector<std::string> holders;
    /// Serving member of the topic's root set (may answer probes and
    /// accept anycast entries from this snapshot while it is fresh).
    bool serve = false;
    /// Advertised root-set roster (root first) as of this snapshot.
    std::vector<NodeRef> root_set;
  };
  [[nodiscard]] const ReplicaState* replica_of(const TopicId& topic) const;

  // PastryApp interface -----------------------------------------------------
  void deliver(const pastry::NodeId& key, pastry::AppMessage& msg, int hops) override;
  bool forward(const pastry::NodeId& key, pastry::AppMessage& msg,
               const NodeRef& next_hop) override;
  void receive(const NodeRef& from, pastry::AppMessage& msg) override;
  void neighbor_failed(const pastry::NodeId& id) override;

  /// App name Scribe registers under.
  static inline const pastry::AppId kAppName{"scribe"};

 private:
  struct ChildState {
    NodeRef ref;
    double last_report = 0.0;
    bool has_report = false;
    util::SimTime last_seen = util::SimTime::zero();
  };

  struct TopicState {
    bool member = false;
    bool root = false;
    TopicMember* handler = nullptr;
    std::optional<NodeRef> parent;
    std::vector<ChildState> children;
    AggregateKind agg_kind = AggregateKind::Count;
    pastry::Scope scope = pastry::Scope::Global;
    double own_value = 0.0;
    util::SimTime last_parent_beat = util::SimTime::zero();
    std::function<void()> on_joined;
    /// Replication epoch while root, `term << 32 | round`: the round is
    /// bumped every replication round, and promotion starts a new term, so
    /// the new root's epoch is above anything the dead root served even
    /// when its last snapshot was still in flight.  A root that learns of
    /// a newer term (a replica it holds, or a holder's ReplicaBehindMsg —
    /// a successor was promoted while it was down) starts a term above.
    std::uint64_t epoch = 0;
    /// Promoted-root repair window: serve `stale_value` (snapshotted at
    /// `stale_at`) until the subtree reports afresh or staleness exceeds
    /// the configured bound.
    bool degraded = false;
    double stale_value = 0.0;
    util::SimTime stale_at = util::SimTime::zero();
    /// Fan-in split in flight: a DelegateMsg is out and unanswered.  The
    /// timestamp lets periodic rounds retry a delegation lost to a crash.
    bool split_pending = false;
    util::SimTime split_requested_at = util::SimTime::zero();
    /// Monotone per-topic split episode, stamped into every DelegateMsg
    /// and echoed by acks/nacks: answers from any episode but the pending
    /// one (duplicated or reordered on the wire) are ignored.
    std::uint64_t split_episode = 0;
    /// Candidates that NACKed the current overload episode (skipped until
    /// the next periodic retry clears the list).
    std::vector<pastry::NodeId> split_declined;
    /// While root with root_set > 0: the serving holders picked in the
    /// last replication round (advertised, with self first, as the root
    /// set).
    std::vector<NodeRef> serve_set;
  };

  struct AnycastWaiter {
    AnycastCallback callback;
    sim::Timer deadline;
    std::unique_ptr<AnycastPayload> retry_payload;
    TopicId topic;
    pastry::Scope scope = pastry::Scope::Global;
    int timeouts = 0;
  };

  struct SizeWaiter {
    SizeCallback callback;
    sim::Timer deadline;
    /// Kept so a declined direct probe (root-set fan-out hitting a node
    /// whose replica expired) can fall back to a routed probe in place.
    TopicId topic;
    pastry::Scope scope = pastry::Scope::Global;
    /// True while the probe is in flight on the direct root-set path: a
    /// deadline then drops the (possibly dead-member) roster and retries
    /// once via routing instead of answering empty.
    bool via_root_set = false;
  };

  /// Originator-side cache of a topic's advertised root set: later size
  /// probes are fanned directly (round-robin) across the set instead of
  /// all routing to the rendezvous root.
  struct RootSetEntry {
    std::vector<NodeRef> members;
    std::uint64_t epoch = 0;
    util::SimTime learned_at = util::SimTime::zero();
    std::size_t next = 0;
  };

  TopicState& topic_state(const TopicId& topic);
  [[nodiscard]] const TopicState* find_topic(const TopicId& topic) const;
  [[nodiscard]] TopicState* find_topic(const TopicId& topic);

  void add_child(const TopicId& topic, TopicState& st, const NodeRef& child);
  void handle_join(JoinMsg& join, bool at_root);
  void handle_multicast_down(const TopicId& topic, const std::string& data);
  void continue_anycast(std::unique_ptr<AnycastMsg> msg);
  void finish_anycast(AnycastMsg& msg, bool satisfied);
  void maybe_prune(const TopicId& topic);
  void aggregation_round();
  void heartbeat_round();
  void check_parents();
  void rejoin(const TopicId& topic);
  [[nodiscard]] double subtree_value(const TopicId& topic, const TopicState& st) const;
  void replicate_roots();
  void handle_replica(const NodeRef& from, const RootReplicaMsg& msg);
  void promotion_check();
  void promote_from_replica(const TopicId& topic, ReplicaState replica);
  void on_anycast_deadline(std::uint64_t request_id);
  void on_probe_deadline(std::uint64_t request_id);
  /// Removes and returns the waiter for `request_id` (cancelling its
  /// deadline), or nullopt if it already completed.  Every anycast
  /// completion path takes the waiter through here, which is what makes
  /// completion idempotent: the map entry is gone before any callback
  /// runs, so whichever of {result, timeout, retry-result} fires second
  /// finds nothing and is handled as an orphan.
  [[nodiscard]] std::optional<AnycastWaiter> take_anycast_waiter(std::uint64_t request_id);
  void complete_anycast(std::uint64_t request_id, const TopicId& topic, bool satisfied,
                        int members_visited, AnycastPayload& payload);
  [[nodiscard]] SizeInfo probe_answer(const TopicId& topic, TopicState& st);
  void maybe_split(const TopicId& topic, TopicState& st);
  void handle_delegate(const NodeRef& from, DelegateMsg& msg);
  void handle_delegate_ack(const NodeRef& from, const DelegateAckMsg& msg);
  void handle_reparent(const NodeRef& from, const ReparentMsg& msg);
  /// Serving replica answer for a direct/intercepted size probe; nullopt
  /// when this node cannot serve (no fresh serving replica).
  [[nodiscard]] std::optional<SizeInfo> replica_answer(const TopicId& topic);
  void answer_probe_from_replica(const SizeProbeMsg& probe, const SizeInfo& info);
  void learn_root_set(const TopicId& topic, const std::vector<NodeRef>& members,
                      std::uint64_t epoch);
  void route_size_probe(const TopicId& topic, std::uint64_t request_id,
                        pastry::Scope scope);

  pastry::PastryNode& node_;
  ScribeConfig config_;
  /// Ordered by TopicId, NOT hashed: the periodic rounds (aggregation,
  /// heartbeats, parent checks, replica promotion) iterate these maps and
  /// send one message per entry, so iteration order decides per-message
  /// jitter draws and Envelope::seq tie-breaks.  A hash map's order is a
  /// function of its insertion/erase history — two nodes with the same
  /// topic set but different subscription histories would schedule
  /// differently.  Sorted order is a pure function of the key set
  /// (pinned by scribe/determinism_test.cpp).
  std::map<TopicId, TopicState> topics_;
  /// Replication epochs of torn-down topics we were root of: a rebuilt
  /// tree resumes from here instead of restarting at 0, which would make
  /// successors (whose replicas never regress) reject every new snapshot.
  std::unordered_map<TopicId, std::uint64_t, util::U128Hash> retired_epochs_;
  std::map<TopicId, ReplicaState> replicas_;
  std::unordered_map<TopicId, RootSetEntry, util::U128Hash> root_sets_;
  std::unordered_map<std::uint64_t, AnycastWaiter> anycast_waiters_;
  std::unordered_map<std::uint64_t, SizeWaiter> size_waiters_;
  ReservationReporter reservation_reporter_;
  OrphanHandler orphan_handler_;
  std::uint64_t anycast_orphans_ = 0;
  std::uint64_t splits_ = 0;
  std::uint64_t delegations_ = 0;
  std::uint64_t rotations_ = 0;
  std::uint64_t next_request_id_ = 1;
  sim::Timer agg_timer_;
  sim::Timer beat_timer_;
  sim::Timer promote_timer_;
  bool promote_pending_ = false;
};

}  // namespace rbay::scribe
