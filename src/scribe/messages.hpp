#pragma once

// Scribe wire messages (carried as Pastry AppMessages under app "scribe").

#include <memory>
#include <string>
#include <vector>

#include "pastry/messages.hpp"
#include "util/sim_time.hpp"

namespace rbay::scribe {

using TopicId = pastry::NodeId;
using pastry::NodeRef;

/// Composable aggregation functions (hierarchical computation property).
enum class AggregateKind { Count, Sum, Min, Max };

/// Mutable payload carried by an anycast as it walks the tree.  Concrete
/// payloads (e.g. the query plane's k-slot candidate buffer) subclass this;
/// member handlers mutate it in place.  `clone()` exists so the originator
/// can keep a pristine copy to retry with after an anycast timeout.
struct AnycastPayload {
  virtual ~AnycastPayload() = default;
  [[nodiscard]] virtual std::size_t wire_size() const = 0;
  [[nodiscard]] virtual std::unique_ptr<AnycastPayload> clone() const = 0;
};

/// Routed toward the TopicId; absorbed by the first tree node on the path.
struct JoinMsg final : pastry::AppMessage {
  TopicId topic;
  NodeRef child;
  pastry::Scope scope = pastry::Scope::Global;
  /// Repair joins travel all the way to the rendezvous root instead of
  /// being absorbed at the first tree node: two orphans repairing
  /// concurrently must not adopt each other and form a detached cycle.
  bool repair = false;

  [[nodiscard]] std::size_t wire_size() const override { return 16 + 24; }
  [[nodiscard]] const char* type_name() const override { return "scribe.Join"; }
  [[nodiscard]] std::unique_ptr<pastry::AppMessage> clone_msg() const override {
    return std::make_unique<JoinMsg>(*this);
  }
};

/// Parent→child acknowledgment carrying the parent's identity.
struct JoinAckMsg final : pastry::AppMessage {
  TopicId topic;

  [[nodiscard]] std::size_t wire_size() const override { return 16; }
  [[nodiscard]] const char* type_name() const override { return "scribe.JoinAck"; }
  [[nodiscard]] std::unique_ptr<pastry::AppMessage> clone_msg() const override {
    return std::make_unique<JoinAckMsg>(*this);
  }
};

/// Child→parent: drop me (and prune upward if the parent empties).
struct LeaveMsg final : pastry::AppMessage {
  TopicId topic;
  pastry::NodeId child;

  [[nodiscard]] std::size_t wire_size() const override { return 32; }
  [[nodiscard]] const char* type_name() const override { return "scribe.Leave"; }
  [[nodiscard]] std::unique_ptr<pastry::AppMessage> clone_msg() const override {
    return std::make_unique<LeaveMsg>(*this);
  }
};

/// Routed to the rendezvous root, then disseminated down the tree.
struct MulticastMsg final : pastry::AppMessage {
  TopicId topic;
  std::string data;

  [[nodiscard]] std::size_t wire_size() const override { return 16 + data.size(); }
  [[nodiscard]] const char* type_name() const override { return "scribe.Multicast"; }
  [[nodiscard]] std::unique_ptr<pastry::AppMessage> clone_msg() const override {
    return std::make_unique<MulticastMsg>(*this);
  }
};

/// Distributed depth-first search over the tree.  `visited` and `stack`
/// travel with the message; `payload` accumulates the answer.
struct AnycastMsg final : pastry::AppMessage {
  TopicId topic;
  pastry::Scope scope = pastry::Scope::Global;
  std::uint64_t request_id = 0;
  NodeRef originator;
  int members_visited = 0;
  /// Times the DFS exhausted a detached fragment and re-routed toward the
  /// rendezvous root (tree-repair windows under churn).
  int reroutes = 0;
  std::vector<pastry::NodeId> visited;
  std::vector<NodeRef> stack;
  std::unique_ptr<AnycastPayload> payload;

  [[nodiscard]] std::size_t wire_size() const override {
    return 48 + visited.size() * 16 + stack.size() * 24 + (payload ? payload->wire_size() : 0);
  }
  [[nodiscard]] const char* type_name() const override { return "scribe.Anycast"; }
  [[nodiscard]] std::unique_ptr<pastry::AppMessage> clone_msg() const override {
    auto copy = std::make_unique<AnycastMsg>();
    copy->topic = topic;
    copy->scope = scope;
    copy->request_id = request_id;
    copy->originator = originator;
    copy->members_visited = members_visited;
    copy->reroutes = reroutes;
    copy->visited = visited;
    copy->stack = stack;
    copy->payload = payload ? payload->clone() : nullptr;
    return copy;
  }
};

/// Final answer delivered directly to the anycast originator.
struct AnycastResultMsg final : pastry::AppMessage {
  TopicId topic;
  std::uint64_t request_id = 0;
  bool satisfied = false;
  int members_visited = 0;
  std::unique_ptr<AnycastPayload> payload;

  [[nodiscard]] std::size_t wire_size() const override {
    return 32 + (payload ? payload->wire_size() : 0);
  }
  [[nodiscard]] const char* type_name() const override { return "scribe.AnycastResult"; }
  [[nodiscard]] std::unique_ptr<pastry::AppMessage> clone_msg() const override {
    auto copy = std::make_unique<AnycastResultMsg>();
    copy->topic = topic;
    copy->request_id = request_id;
    copy->satisfied = satisfied;
    copy->members_visited = members_visited;
    copy->payload = payload ? payload->clone() : nullptr;
    return copy;
  }
};

/// Child→parent periodic aggregation report (the paper's `aggregate`
/// extension, §II.B.3).
struct AggReportMsg final : pastry::AppMessage {
  TopicId topic;
  pastry::NodeId child;
  double value = 0.0;

  [[nodiscard]] std::size_t wire_size() const override { return 40; }
  [[nodiscard]] const char* type_name() const override { return "scribe.AggReport"; }
  [[nodiscard]] std::unique_ptr<pastry::AppMessage> clone_msg() const override {
    return std::make_unique<AggReportMsg>(*this);
  }
};

/// Routed probe asking the root for its aggregated view (e.g. tree size —
/// Step 1/2 of the paper's query protocol, Fig. 7).
struct SizeProbeMsg final : pastry::AppMessage {
  TopicId topic;
  std::uint64_t request_id = 0;
  NodeRef originator;

  [[nodiscard]] std::size_t wire_size() const override { return 48; }
  [[nodiscard]] const char* type_name() const override { return "scribe.SizeProbe"; }
  [[nodiscard]] std::unique_ptr<pastry::AppMessage> clone_msg() const override {
    return std::make_unique<SizeProbeMsg>(*this);
  }
};

struct SizeReplyMsg final : pastry::AppMessage {
  TopicId topic;
  std::uint64_t request_id = 0;
  double size = 0.0;
  /// Replication epoch (`term << 32 | round`) of the answering root's
  /// view; monotone across failovers.
  std::uint64_t epoch = 0;
  /// Degraded read: the answer is a replicated pre-failover snapshot,
  /// `age` sim-time old (always ≤ the root's `max_staleness`).
  bool stale = false;
  util::SimTime age = util::SimTime::zero();
  /// The answer was served by a non-root member of the topic's root set
  /// (a serving replica holder) — always a degraded read.
  bool from_root_set = false;
  /// Direct probe landed on a node that can no longer serve for this
  /// topic (replica expired / state gone): the originator must drop its
  /// cached root set and fall back to a routed probe.
  bool declined = false;
  /// Advertised root set (root first, then serving replica holders) so the
  /// originator can fan later probes directly across the set.
  std::vector<NodeRef> root_set;

  [[nodiscard]] std::size_t wire_size() const override {
    return 51 + root_set.size() * 24;
  }
  [[nodiscard]] const char* type_name() const override { return "scribe.SizeReply"; }
  [[nodiscard]] std::unique_ptr<pastry::AppMessage> clone_msg() const override {
    return std::make_unique<SizeReplyMsg>(*this);
  }
};

/// Root → leaf-set successor: incremental replication of the rendezvous
/// state a warm standby needs to take over the tree on root failure — the
/// children/subscriber set, the latest aggregate snapshot (stamped with a
/// monotone epoch), and the reservation holders active at the root.
struct RootReplicaMsg final : pastry::AppMessage {
  TopicId topic;
  pastry::Scope scope = pastry::Scope::Global;
  std::uint64_t epoch = 0;
  AggregateKind agg_kind = AggregateKind::Count;
  double value = 0.0;
  util::SimTime snapshot_time = util::SimTime::zero();
  std::vector<NodeRef> children;
  std::vector<std::string> holders;
  /// Root-set rotation (`root_set` > 0): this holder is a *serving*
  /// member of the topic's root set — it may answer size probes and
  /// accept anycast entries from its replicated snapshot, spreading the
  /// rendezvous root's read load across the set.
  bool serve = false;
  /// Roster of the topic's root set (root first, then the serving
  /// holders), re-advertised by every member so originators can fan
  /// probes directly across the set.
  std::vector<NodeRef> root_set;

  [[nodiscard]] std::size_t wire_size() const override {
    std::size_t holders_bytes = 0;
    for (const auto& h : holders) holders_bytes += h.size();
    return 49 + children.size() * 24 + root_set.size() * 24 + holders_bytes;
  }
  [[nodiscard]] const char* type_name() const override { return "scribe.RootReplica"; }
  [[nodiscard]] std::unique_ptr<pastry::AppMessage> clone_msg() const override {
    return std::make_unique<RootReplicaMsg>(*this);
  }
};

/// Replica holder → a root whose snapshot it rejected as older than the
/// replica it holds.  A late copy from the root's own older round makes
/// this a no-op; a root still in an older term than the holder's replica
/// (a recovered ex-root that reclaimed the tree from a promoted successor)
/// starts a term above `epoch`.
struct ReplicaBehindMsg final : pastry::AppMessage {
  TopicId topic;
  std::uint64_t epoch = 0;

  [[nodiscard]] std::size_t wire_size() const override { return 24; }
  [[nodiscard]] const char* type_name() const override { return "scribe.ReplicaBehind"; }
  [[nodiscard]] std::unique_ptr<pastry::AppMessage> clone_msg() const override {
    return std::make_unique<ReplicaBehindMsg>(*this);
  }
};

/// Overloaded parent → delegate (leaf-set pick or lightest child): adopt
/// these children of mine for `topic` (D3-Tree style weight balancing).
/// Sent when the parent's fan-in exceeds the configured cap.
struct DelegateMsg final : pastry::AppMessage {
  TopicId topic;
  pastry::Scope scope = pastry::Scope::Global;
  AggregateKind agg_kind = AggregateKind::Count;
  /// Per-parent split episode: acks/nacks echo it, and the parent ignores
  /// answers from any episode but the pending one — duplicated or stale
  /// DelegateAcks cannot double-apply a delegation.
  std::uint64_t episode = 0;
  std::vector<NodeRef> children;

  [[nodiscard]] std::size_t wire_size() const override {
    return 18 + children.size() * 24;
  }
  [[nodiscard]] const char* type_name() const override { return "scribe.Delegate"; }
  [[nodiscard]] std::unique_ptr<pastry::AppMessage> clone_msg() const override {
    return std::make_unique<DelegateMsg>(*this);
  }
};

/// Delegate → overloaded parent: adopted these children (the parent drops
/// them and links the delegate as its single replacement child).
struct DelegateAckMsg final : pastry::AppMessage {
  TopicId topic;
  std::uint64_t episode = 0;  // echoed from the DelegateMsg
  std::vector<pastry::NodeId> accepted;

  [[nodiscard]] std::size_t wire_size() const override {
    return 16 + accepted.size() * 16;
  }
  [[nodiscard]] const char* type_name() const override { return "scribe.DelegateAck"; }
  [[nodiscard]] std::unique_ptr<pastry::AppMessage> clone_msg() const override {
    return std::make_unique<DelegateAckMsg>(*this);
  }
};

/// Delegate → overloaded parent: cannot adopt (it already has conflicting
/// tree state for the topic); the parent retries with another candidate.
struct DelegateNackMsg final : pastry::AppMessage {
  TopicId topic;
  std::uint64_t episode = 0;  // echoed from the DelegateMsg

  [[nodiscard]] std::size_t wire_size() const override { return 16; }
  [[nodiscard]] const char* type_name() const override { return "scribe.DelegateNack"; }
  [[nodiscard]] std::unique_ptr<pastry::AppMessage> clone_msg() const override {
    return std::make_unique<DelegateNackMsg>(*this);
  }
};

/// Delegate → adopted child: switch your parent pointer from `old_parent`
/// to me.  A child whose parent is no longer `old_parent` declines by
/// sending the delegate a Leave, so stale delegations cannot corrupt the
/// tree.
struct ReparentMsg final : pastry::AppMessage {
  TopicId topic;
  pastry::NodeId old_parent;

  [[nodiscard]] std::size_t wire_size() const override { return 32; }
  [[nodiscard]] const char* type_name() const override { return "scribe.Reparent"; }
  [[nodiscard]] std::unique_ptr<pastry::AppMessage> clone_msg() const override {
    return std::make_unique<ReparentMsg>(*this);
  }
};

/// Parent→child liveness beacon for tree repair.
struct HeartbeatMsg final : pastry::AppMessage {
  TopicId topic;

  [[nodiscard]] std::size_t wire_size() const override { return 16; }
  [[nodiscard]] const char* type_name() const override { return "scribe.Heartbeat"; }
  [[nodiscard]] std::unique_ptr<pastry::AppMessage> clone_msg() const override {
    return std::make_unique<HeartbeatMsg>(*this);
  }
};

/// Child→parent liveness response; lets parents prune dead children (and
/// stop counting their stale aggregate reports).
struct HeartbeatAckMsg final : pastry::AppMessage {
  TopicId topic;

  [[nodiscard]] std::size_t wire_size() const override { return 16; }
  [[nodiscard]] const char* type_name() const override { return "scribe.HeartbeatAck"; }
  [[nodiscard]] std::unique_ptr<pastry::AppMessage> clone_msg() const override {
    return std::make_unique<HeartbeatAckMsg>(*this);
  }
};

}  // namespace rbay::scribe
