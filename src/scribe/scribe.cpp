#include "scribe/scribe.hpp"

#include <algorithm>
#include <limits>

#include "obs/metrics.hpp"
#include "util/log.hpp"

namespace rbay::scribe {

namespace {

/// Epochs are `term << 32 | round` in one integer, so every comparison and
/// the wire field stay plain uint64_t.  The first epoch of the term after
/// `epoch`'s: a promoted root resumes there, strictly above every round
/// the old term reached (2^32 rounds is over a decade at 100ms).
std::uint64_t term_after(std::uint64_t epoch) {
  constexpr int kRoundBits = 32;
  return ((epoch >> kRoundBits) + 1) << kRoundBits;
}

/// A root that learns of an epoch above its own (a successor was promoted
/// while it was down) resumes in the term after that epoch's.
void catch_up_term(std::uint64_t& epoch, std::uint64_t seen) {
  if (seen > epoch) epoch = term_after(seen);
}

/// Federation scope of the engine-attached registry, or nullptr when
/// observability is off.  Scribe operations are per-query / per-round (not
/// per-message), so a map lookup at the call site is affordable and no
/// handle cache is needed.
obs::Scope* fed_metrics(pastry::PastryNode& node) {
  auto* registry = node.network().engine().metrics();
  return registry == nullptr ? nullptr : &registry->fed();
}

/// Causal log of the engine-attached registry, or nullptr when
/// observability is off.
obs::CausalLog* causal_log(pastry::PastryNode& node) {
  auto* registry = node.network().engine().metrics();
  return registry == nullptr ? nullptr : &registry->causal();
}

/// Moves an in-flight anycast out of a borrowed message reference.
std::unique_ptr<AnycastMsg> take_anycast(AnycastMsg& msg) {
  auto owned = std::make_unique<AnycastMsg>();
  owned->topic = msg.topic;
  owned->scope = msg.scope;
  owned->request_id = msg.request_id;
  owned->originator = msg.originator;
  owned->members_visited = msg.members_visited;
  owned->reroutes = msg.reroutes;
  owned->visited = std::move(msg.visited);
  owned->stack = std::move(msg.stack);
  owned->payload = std::move(msg.payload);
  return owned;
}

double identity(AggregateKind kind) {
  switch (kind) {
    case AggregateKind::Count:
    case AggregateKind::Sum: return 0.0;
    case AggregateKind::Min: return std::numeric_limits<double>::infinity();
    case AggregateKind::Max: return -std::numeric_limits<double>::infinity();
  }
  return 0.0;
}
}  // namespace

double combine(AggregateKind kind, double a, double b) {
  switch (kind) {
    case AggregateKind::Count:
    case AggregateKind::Sum: return a + b;
    case AggregateKind::Min: return std::min(a, b);
    case AggregateKind::Max: return std::max(a, b);
  }
  return a;
}

Scribe::Scribe(pastry::PastryNode& node, ScribeConfig config) : node_(node), config_(config) {
  node_.register_app(kAppName.name(), this);
  auto& engine = node_.network().engine();
  if (config_.aggregation_interval > util::SimTime::zero()) {
    agg_timer_ = engine.schedule_periodic(config_.aggregation_interval,
                                          [this]() { aggregation_round(); });
  }
  if (config_.heartbeat_interval > util::SimTime::zero()) {
    beat_timer_ = engine.schedule_periodic(config_.heartbeat_interval, [this]() {
      heartbeat_round();
      check_parents();
    });
  }
}

Scribe::~Scribe() {
  agg_timer_.cancel();
  beat_timer_.cancel();
  promote_timer_.cancel();
  for (auto& [id, waiter] : anycast_waiters_) waiter.deadline.cancel();
  for (auto& [id, waiter] : size_waiters_) waiter.deadline.cancel();
}

Scribe::TopicState& Scribe::topic_state(const TopicId& topic) {
  auto [it, inserted] = topics_.try_emplace(topic);
  if (inserted) {
    if (auto r = retired_epochs_.find(topic); r != retired_epochs_.end()) {
      it->second.epoch = r->second;
      retired_epochs_.erase(r);
    }
  }
  return it->second;
}

const Scribe::TopicState* Scribe::find_topic(const TopicId& topic) const {
  auto it = topics_.find(topic);
  return it == topics_.end() ? nullptr : &it->second;
}

Scribe::TopicState* Scribe::find_topic(const TopicId& topic) {
  auto it = topics_.find(topic);
  return it == topics_.end() ? nullptr : &it->second;
}

bool Scribe::subscribed(const TopicId& topic) const {
  const auto* st = find_topic(topic);
  return st != nullptr && st->member;
}

std::vector<TopicId> Scribe::known_topics() const {
  std::vector<TopicId> topics;
  topics.reserve(topics_.size());
  for (const auto& [topic, st] : topics_) topics.push_back(topic);
  return topics;
}

void Scribe::add_child(const TopicId& topic, TopicState& st, const NodeRef& child) {
  const auto now = node_.network().engine().now();
  for (auto& c : st.children) {
    if (c.ref.id == child.id) {
      c.last_seen = now;
      return;
    }
  }
  st.children.push_back(ChildState{child, 0.0, false, now});
  maybe_split(topic, st);
}

void Scribe::subscribe(const TopicId& topic, TopicMember* member,
                       std::function<void()> on_joined, pastry::Scope scope) {
  RBAY_REQUIRE(member != nullptr, "Scribe::subscribe: member handler required");
  if (auto* m = fed_metrics(node_)) m->counter("scribe.subscribes").inc();
  auto& st = topic_state(topic);
  st.handler = member;
  st.scope = scope;
  if (st.member || st.parent || st.root) {
    // Already attached (as member or forwarder); upgrading to member needs
    // no protocol traffic.
    st.member = true;
    if (on_joined) on_joined();
    return;
  }
  st.member = true;
  st.on_joined = std::move(on_joined);
  auto join = std::make_unique<JoinMsg>();
  join->topic = topic;
  join->child = node_.self();
  join->scope = scope;
  node_.route(topic, std::move(join), kAppName, scope);
}

void Scribe::unsubscribe(const TopicId& topic) {
  auto* st = find_topic(topic);
  if (st == nullptr || !st->member) return;
  if (auto* m = fed_metrics(node_)) m->counter("scribe.unsubscribes").inc();
  st->member = false;
  st->handler = nullptr;
  maybe_prune(topic);
}

void Scribe::maybe_prune(const TopicId& topic) {
  auto* st = find_topic(topic);
  if (st == nullptr) return;
  if (st->member || !st->children.empty()) return;
  // A freshly promoted root may be a pure forwarder until its adopted
  // children rejoin; keep it alive through the degraded window so the
  // replicated aggregate stays servable.
  if (st->degraded &&
      node_.network().engine().now() - st->stale_at <= config_.max_staleness) {
    return;
  }
  if (st->parent) {
    auto leave = std::make_unique<LeaveMsg>();
    leave->topic = topic;
    leave->child = node_.self().id;
    node_.send_direct(*st->parent, std::move(leave), kAppName);
  }
  if (st->epoch > 0) retired_epochs_[topic] = st->epoch;
  topics_.erase(topic);
}

// --- join handling ----------------------------------------------------------

bool Scribe::forward(const pastry::NodeId& /*key*/, pastry::AppMessage& msg,
                     const NodeRef& /*next_hop*/) {
  if (auto* join = dynamic_cast<JoinMsg*>(&msg)) {
    if (join->child.id == node_.self().id) return true;  // our own fresh join
    if (join->repair) return true;  // repair joins attach only at the root
    topic_state(join->topic).scope = join->scope;
    handle_join(*join, /*at_root=*/false);
    auto* st = find_topic(join->topic);
    if (st != nullptr && (st->parent || st->root || st->member)) {
      // Already attached upstream (or the root): absorb the join here.
      return false;
    }
    // Newly created forwarder: keep routing so we get attached ourselves.
    join->child = node_.self();
    return true;
  }
  if (auto* anycast = dynamic_cast<AnycastMsg*>(&msg)) {
    const bool already_visited =
        std::find(anycast->visited.begin(), anycast->visited.end(), node_.self().id) !=
        anycast->visited.end();
    if (!already_visited && find_topic(anycast->topic) != nullptr) {
      // First tree node on the path: start the DFS here (anycast reaches a
      // member near the sender thanks to Pastry route convergence).
      // Already-visited nodes let rerouted anycasts pass toward the root.
      continue_anycast(take_anycast(*anycast));
      return false;
    }
    if (!already_visited && anycast->reroutes == 0) {
      // Serving root-set holder with no tree state of its own: divert the
      // walk into one of the replicated child subtrees instead of letting
      // it converge on the rendezvous root.  Rerouted walks (repair
      // windows) pass through untouched.
      if (auto it = replicas_.find(anycast->topic);
          it != replicas_.end() && it->second.serve && !it->second.children.empty() &&
          config_.root_set > 0 && config_.max_staleness > util::SimTime::zero() &&
          node_.network().engine().now() - it->second.snapshot_time <=
              config_.max_staleness) {
        const auto& children = it->second.children;
        const auto& target = children[anycast->request_id % children.size()];
        if (target.id != node_.self().id && target.id != anycast->originator.id) {
          node_.send_direct(target, take_anycast(*anycast), kAppName);
          return false;
        }
      }
    }
    return true;
  }
  if (auto* probe = dynamic_cast<SizeProbeMsg*>(&msg)) {
    // Serving root-set holder on the routing path: answer the probe here
    // (staleness-bounded) and advertise the roster, so the originator
    // fans later probes directly across the set — the rendezvous root
    // never sees them.
    if (probe->originator.id != node_.self().id) {
      if (auto info = replica_answer(probe->topic)) {
        answer_probe_from_replica(*probe, *info);
        return false;
      }
    }
    return true;
  }
  return true;
}

void Scribe::handle_join(JoinMsg& join, bool at_root) {
  auto& st = topic_state(join.topic);
  if (join.child.id == node_.self().id) {
    // Our own join delivered back to us: we are the rendezvous root.
    st.root = true;
    if (st.on_joined) {
      auto cb = std::move(st.on_joined);
      st.on_joined = nullptr;
      cb();
    }
    return;
  }
  add_child(join.topic, st, join.child);
  if (at_root && !st.parent) st.root = true;
  auto ack = std::make_unique<JoinAckMsg>();
  ack->topic = join.topic;
  node_.send_direct(join.child, std::move(ack), kAppName);
}

// --- multicast ---------------------------------------------------------------

void Scribe::multicast(const TopicId& topic, std::string data, pastry::Scope scope) {
  if (auto* m = fed_metrics(node_)) m->counter("scribe.multicasts").inc();
  auto msg = std::make_unique<MulticastMsg>();
  msg->topic = topic;
  msg->data = std::move(data);
  node_.route(topic, std::move(msg), kAppName, scope);
}

void Scribe::handle_multicast_down(const TopicId& topic, const std::string& data) {
  auto* st = find_topic(topic);
  if (st == nullptr) return;
  // Snapshot the children before the local delivery: the handler may react by
  // unsubscribing, which can prune the topic and invalidate `st`.
  std::vector<pastry::NodeRef> children;
  children.reserve(st->children.size());
  for (const auto& child : st->children) children.push_back(child.ref);
  if (st->member && st->handler != nullptr) st->handler->on_multicast(topic, data);
  for (const auto& ref : children) {
    auto msg = std::make_unique<MulticastMsg>();
    msg->topic = topic;
    msg->data = data;
    node_.send_direct(ref, std::move(msg), kAppName);
  }
}

// --- anycast -----------------------------------------------------------------


void Scribe::anycast(const TopicId& topic, std::unique_ptr<AnycastPayload> payload,
                     AnycastCallback callback, pastry::Scope scope) {
  RBAY_REQUIRE(payload != nullptr, "Scribe::anycast: payload required");
  if (auto* m = fed_metrics(node_)) m->counter("scribe.anycasts").inc();
  const auto id = next_request_id_++;
  auto& waiter = anycast_waiters_[id];
  waiter.callback = std::move(callback);
  waiter.topic = topic;
  waiter.scope = scope;
  if (config_.anycast_timeout > util::SimTime::zero()) {
    // Keep a pristine payload so an expired walk can restart from here,
    // and arm the deadline that makes a dead walk observable at all.
    waiter.retry_payload = payload->clone();
    waiter.deadline = node_.network().engine().schedule(
        config_.anycast_timeout, [this, id]() { on_anycast_deadline(id); });
  }
  auto msg = std::make_unique<AnycastMsg>();
  msg->topic = topic;
  msg->scope = scope;
  msg->request_id = id;
  msg->originator = node_.self();
  msg->payload = std::move(payload);
  node_.route(topic, std::move(msg), kAppName, scope);
}

void Scribe::continue_anycast(std::unique_ptr<AnycastMsg> msg) {
  // Once the anycast reaches the tree, every hop of the DFS walk belongs to
  // the MemberSearch phase: remap the ambient context so the causal log
  // attributes this walk's sends and visits correctly.
  auto* causal = causal_log(node_);
  obs::TraceContext walk_ctx = causal != nullptr ? causal->current() : obs::TraceContext{};
  if (walk_ctx.active() &&
      walk_ctx.phase == static_cast<std::uint8_t>(obs::Phase::kAnycast)) {
    walk_ctx.phase = static_cast<std::uint8_t>(obs::Phase::kMemberSearch);
  }
  obs::ContextScope walk_scope(causal, walk_ctx);

  auto* st = find_topic(msg->topic);
  if (st == nullptr) {
    // Entry node has no tree state: the topic has no members.
    finish_anycast(*msg, /*satisfied=*/false);
    return;
  }

  const auto& self_id = node_.self().id;
  const bool fresh =
      std::find(msg->visited.begin(), msg->visited.end(), self_id) == msg->visited.end();
  if (fresh) {
    msg->visited.push_back(self_id);
    msg->stack.push_back(node_.self());
    if (st->member && st->handler != nullptr) {
      ++msg->members_visited;
      if (auto* m = fed_metrics(node_)) m->counter("scribe.anycast_visits").inc();
      bool taken = false;
      {
        // The member's on_anycast (slot fill, reservation) runs as a child
        // of the recorded visit, so its causal points hang off this walk.
        obs::ContextScope visit_scope(
            causal,
            causal != nullptr
                ? causal->local(node_.network().site_of(node_.self().endpoint),
                                node_.self().endpoint, "scribe.member_visit",
                                node_.network().engine().now(),
                                static_cast<int>(obs::Phase::kMemberSearch))
                : obs::TraceContext{});
        taken = st->handler->on_anycast(msg->topic, *msg->payload);
      }
      if (taken) {
        finish_anycast(*msg, /*satisfied=*/true);
        return;
      }
    }
  }

  // Depth-first: nearest unvisited tree neighbor (children, then parent).
  std::optional<NodeRef> next;
  std::int64_t best_delay = 0;
  auto consider = [&](const NodeRef& r) {
    if (std::find(msg->visited.begin(), msg->visited.end(), r.id) != msg->visited.end()) return;
    const auto d =
        node_.network().expected_delay(node_.self().endpoint, r.endpoint).as_micros();
    if (!next || d < best_delay) {
      next = r;
      best_delay = d;
    }
  };
  for (const auto& child : st->children) consider(child.ref);
  if (st->parent) consider(*st->parent);

  if (next) {
    node_.send_direct(*next, std::move(msg), kAppName);
    return;
  }

  // Dead end: backtrack along the stack.
  if (!msg->stack.empty() && msg->stack.back().id == self_id) msg->stack.pop_back();
  if (!msg->stack.empty()) {
    const NodeRef back = msg->stack.back();
    node_.send_direct(back, std::move(msg), kAppName);
    return;
  }
  // Fragment exhausted.  During tree-repair windows the entry fragment may
  // be detached from the main tree; keep routing toward the rendezvous
  // root (visited nodes pass the message through instead of intercepting).
  const auto onward = node_.next_hop(msg->topic, msg->scope);
  if (onward && msg->reroutes < 4) {
    ++msg->reroutes;
    const auto topic = msg->topic;
    const auto scope = msg->scope;
    node_.route(topic, std::move(msg), kAppName, scope);
    return;
  }
  finish_anycast(*msg, /*satisfied=*/false);
}

void Scribe::finish_anycast(AnycastMsg& msg, bool satisfied) {
  auto result = std::make_unique<AnycastResultMsg>();
  result->topic = msg.topic;
  result->request_id = msg.request_id;
  result->satisfied = satisfied;
  result->members_visited = msg.members_visited;
  result->payload = std::move(msg.payload);
  if (msg.originator.id == node_.self().id) {
    // Local shortcut: complete without a network round-trip.
    complete_anycast(result->request_id, result->topic, result->satisfied,
                     result->members_visited, *result->payload);
    return;
  }
  node_.send_direct(msg.originator, std::move(result), kAppName);
}

std::optional<Scribe::AnycastWaiter> Scribe::take_anycast_waiter(std::uint64_t request_id) {
  auto it = anycast_waiters_.find(request_id);
  if (it == anycast_waiters_.end()) return std::nullopt;
  auto waiter = std::move(it->second);
  anycast_waiters_.erase(it);
  waiter.deadline.cancel();
  return waiter;
}

void Scribe::complete_anycast(std::uint64_t request_id, const TopicId& topic, bool satisfied,
                              int members_visited, AnycastPayload& payload) {
  auto waiter = take_anycast_waiter(request_id);
  if (!waiter) {
    // The waiter already completed — this reply raced the timeout path (or
    // its retry).  Don't drop it on the floor: a satisfied result may carry
    // member-side reservations taken during the walk, which the owner must
    // release or they leak until the hold expires.
    ++anycast_orphans_;
    if (auto* m = fed_metrics(node_)) m->counter("scribe.anycast_orphans").inc();
    if (orphan_handler_) orphan_handler_(topic, payload);
    return;
  }
  waiter->callback(satisfied, members_visited, payload);
}

void Scribe::on_anycast_deadline(std::uint64_t request_id) {
  auto it = anycast_waiters_.find(request_id);
  if (it == anycast_waiters_.end()) return;
  auto& waiter = it->second;
  if (auto* m = fed_metrics(node_)) m->counter("scribe.anycast_timeouts").inc();
  if (waiter.timeouts++ == 0 && waiter.retry_payload != nullptr) {
    // First expiry: the walk died on a dead link (node crashed mid-DFS).
    // Retry once from the entry node — by now the tree has usually been
    // repaired around the failure — under a fresh deadline.
    if (auto* m = fed_metrics(node_)) m->counter("scribe.anycast_retries").inc();
    auto msg = std::make_unique<AnycastMsg>();
    msg->topic = waiter.topic;
    msg->scope = waiter.scope;
    msg->request_id = request_id;
    msg->originator = node_.self();
    msg->payload = waiter.retry_payload->clone();
    waiter.deadline = node_.network().engine().schedule(
        config_.anycast_timeout, [this, request_id]() { on_anycast_deadline(request_id); });
    node_.route(waiter.topic, std::move(msg), kAppName, waiter.scope);
    return;
  }
  // Second expiry: complete with a miss so the caller's backoff machinery
  // takes over.  Take the waiter through the single choke point: the map
  // entry is gone before the callback runs, so the original (or retried)
  // result landing later is handled as an orphan, never a double-complete.
  auto taken = take_anycast_waiter(request_id);
  auto payload = std::move(taken->retry_payload);
  auto cb = std::move(taken->callback);
  cb(false, 0, *payload);
}

// --- aggregation ---------------------------------------------------------------

void Scribe::set_aggregation(const TopicId& topic, AggregateKind kind) {
  topic_state(topic).agg_kind = kind;
}

double Scribe::subtree_value(const TopicId& topic, const TopicState& st) const {
  double acc = identity(st.agg_kind);
  if (st.member) {
    const double own =
        st.handler != nullptr ? st.handler->aggregate_contribution(topic) : 1.0;
    acc = combine(st.agg_kind, acc, own);
  }
  for (const auto& child : st.children) {
    if (child.has_report) acc = combine(st.agg_kind, acc, child.last_report);
  }
  return acc;
}

double Scribe::aggregate_value(const TopicId& topic) const {
  const auto* st = find_topic(topic);
  return st == nullptr ? 0.0 : subtree_value(topic, *st);
}

void Scribe::aggregation_round() {
  const auto now = node_.network().engine().now();
  for (auto& [topic, st] : topics_) {
    // A promoted root exits the degraded window once every adopted child
    // has reported into the live view, or the snapshot aged past the
    // staleness bound (probes then fall back to the partial live view).
    if (st.degraded) {
      const bool all_reported =
          std::all_of(st.children.begin(), st.children.end(),
                      [](const ChildState& c) { return c.has_report; });
      if ((all_reported && (st.member || !st.children.empty())) ||
          now - st.stale_at > config_.max_staleness) {
        st.degraded = false;
      }
    }
    // Fan-in enforcement is retried from here: a delegation lost to a
    // crash (or a fully NACKed episode) is cleared after two rounds and
    // attempted again with a fresh candidate slate.
    if (config_.fan_in_cap > 0 &&
        st.children.size() > static_cast<std::size_t>(config_.fan_in_cap)) {
      const auto retry_after = config_.aggregation_interval * std::int64_t{2};
      if (st.split_pending && now - st.split_requested_at > retry_after) {
        st.split_pending = false;
        st.split_declined.clear();
      }
      maybe_split(topic, st);
    }
    if (!st.parent) continue;
    if (auto* m = fed_metrics(node_)) m->counter("scribe.agg_reports").inc();
    auto report = std::make_unique<AggReportMsg>();
    report->topic = topic;
    report->child = node_.self().id;
    report->value = subtree_value(topic, st);
    node_.send_direct(*st.parent, std::move(report), kAppName);
  }
  replicate_roots();
}

void Scribe::replicate_roots() {
  if (config_.root_replicas <= 0 && config_.root_set <= 0) return;
  // Root-set rotation needs at least `root_set` replicated holders.
  const int replicas_wanted = std::max(config_.root_replicas, config_.root_set);
  const auto now = node_.network().engine().now();
  for (auto& [topic, st] : topics_) {
    if (!st.root || (!st.member && st.children.empty())) continue;
    if (auto r = replicas_.find(topic); r != replicas_.end()) {
      catch_up_term(st.epoch, r->second.epoch);
    }
    ++st.epoch;
    // While degraded, replicate the snapshot we are actually serving so a
    // chained failover inherits the same (value, age) view.
    const bool window = st.degraded && now - st.stale_at <= config_.max_staleness;

    // Alternate successor/predecessor so copies straddle the root on the
    // id ring: whichever neighbor inherits the TreeId holds one.
    const auto& leaves =
        st.scope == pastry::Scope::Site ? node_.site_leaf_set() : node_.leaf_set();
    std::vector<NodeRef> targets;
    const auto& cw = leaves.clockwise();
    const auto& ccw = leaves.counter_clockwise();
    for (std::size_t i = 0; i < std::max(cw.size(), ccw.size()); ++i) {
      if (i < cw.size()) targets.push_back(cw[i]);
      if (i < ccw.size()) targets.push_back(ccw[i]);
    }
    std::vector<NodeRef> picked;
    for (const auto& target : targets) {
      if (static_cast<int>(picked.size()) >= replicas_wanted) break;
      if (target.id == node_.self().id) continue;
      const bool dup = std::any_of(picked.begin(), picked.end(),
                                   [&](const NodeRef& p) { return p.id == target.id; });
      if (!dup) picked.push_back(target);
    }
    if (picked.empty()) continue;

    // The first `root_set` picks become serving members: they may answer
    // probes and accept anycast entries from the replicated snapshot.
    // The roster (self first) is advertised in probe replies so
    // originators fan later probes directly across the set.
    const std::size_t serve_n =
        config_.root_set > 0
            ? std::min(picked.size(), static_cast<std::size_t>(config_.root_set))
            : 0;
    st.serve_set.assign(picked.begin(),
                        picked.begin() + static_cast<std::ptrdiff_t>(serve_n));

    auto proto = std::make_unique<RootReplicaMsg>();
    proto->topic = topic;
    proto->scope = st.scope;
    proto->epoch = st.epoch;
    proto->agg_kind = st.agg_kind;
    proto->value = window ? st.stale_value : subtree_value(topic, st);
    proto->snapshot_time = window ? st.stale_at : now;
    proto->children.reserve(st.children.size());
    for (const auto& child : st.children) proto->children.push_back(child.ref);
    if (reservation_reporter_) proto->holders = reservation_reporter_();
    if (serve_n > 0) {
      proto->root_set.reserve(serve_n + 1);
      proto->root_set.push_back(node_.self());
      for (const auto& s : st.serve_set) proto->root_set.push_back(s);
    }
    for (std::size_t i = 0; i < picked.size(); ++i) {
      auto msg = std::make_unique<RootReplicaMsg>(*proto);
      msg->serve = i < serve_n;
      if (auto* m = fed_metrics(node_)) m->counter("scribe.root_replications").inc();
      node_.send_direct(picked[i], std::move(msg), kAppName);
    }
  }
}

void Scribe::handle_replica(const NodeRef& from, const RootReplicaMsg& msg) {
  auto& rep = replicas_[msg.topic];
  if (msg.epoch < rep.epoch) {
    // A late copy from an older round, or a root in an older term than
    // this replica's: tell the sender, which starts a new term if behind.
    auto behind = std::make_unique<ReplicaBehindMsg>();
    behind->topic = msg.topic;
    behind->epoch = rep.epoch;
    node_.send_direct(from, std::move(behind), kAppName);
    return;
  }
  rep.epoch = msg.epoch;
  rep.agg_kind = msg.agg_kind;
  rep.scope = msg.scope;
  rep.value = msg.value;
  rep.snapshot_time = msg.snapshot_time;
  rep.received_at = node_.network().engine().now();
  rep.children = msg.children;
  rep.holders = msg.holders;
  rep.serve = msg.serve;
  rep.root_set = msg.root_set;
}

void Scribe::neighbor_failed(const pastry::NodeId& /*id*/) {
  if (replicas_.empty() || promote_pending_) return;
  // Deferred by one (same-instant) event: the leaf-set notification can
  // arrive mid-rejoin with a TopicState reference live upstack, and
  // promotion mutates topics_.
  promote_pending_ = true;
  promote_timer_ = node_.network().engine().schedule(util::SimTime::zero(), [this]() {
    promote_pending_ = false;
    promotion_check();
  });
}

void Scribe::promotion_check() {
  std::vector<std::pair<TopicId, ReplicaState>> to_promote;
  for (auto& [topic, rep] : replicas_) {
    const auto* st = find_topic(topic);
    if (st != nullptr && st->root) continue;  // already own the TreeId
    // Ownership test: with the dead root purged from routing state, a null
    // next hop means this node is now numerically closest to the TreeId.
    if (node_.next_hop(topic, rep.scope).has_value()) continue;
    to_promote.emplace_back(topic, rep);
  }
  for (auto& [topic, rep] : to_promote) {
    replicas_.erase(topic);
    promote_from_replica(topic, std::move(rep));
  }
}

void Scribe::promote_from_replica(const TopicId& topic, ReplicaState replica) {
  auto& st = topic_state(topic);
  st.root = true;
  st.parent.reset();
  st.scope = replica.scope;
  st.agg_kind = replica.agg_kind;
  // A new term: the dead root may have served rounds past the replica's
  // (its last snapshot still in flight), and answer caches reject any
  // epoch below one they hold.
  st.epoch = term_after(std::max(st.epoch, replica.epoch));
  st.degraded = true;
  st.stale_value = replica.value;
  st.stale_at = replica.snapshot_time;
  for (const auto& child : replica.children) {
    if (child.id == node_.self().id) continue;
    add_child(topic, st, child);
  }
  if (auto* m = fed_metrics(node_)) m->counter("scribe.root_failovers").inc();
  if (auto* causal = causal_log(node_)) {
    causal->local(node_.network().site_of(node_.self().endpoint), node_.self().endpoint,
                  "root.failover", node_.network().engine().now());
  }
}

Scribe::SizeInfo Scribe::probe_answer(const TopicId& topic, TopicState& st) {
  SizeInfo info;
  info.epoch = st.epoch;
  if (st.degraded) {
    const auto age = node_.network().engine().now() - st.stale_at;
    if (age <= config_.max_staleness) {
      info.value = st.stale_value;
      info.stale = true;
      info.age = age;
      if (auto* m = fed_metrics(node_)) m->counter("scribe.stale_reads").inc();
      return info;
    }
    st.degraded = false;  // bound exceeded: serve the (partial) live view
  }
  info.value = subtree_value(topic, st);
  return info;
}

void Scribe::probe_size(const TopicId& topic, SizeCallback callback, pastry::Scope scope) {
  if (auto* m = fed_metrics(node_)) m->counter("scribe.size_probes").inc();
  const auto id = next_request_id_++;
  auto& waiter = size_waiters_[id];
  waiter.callback = std::move(callback);
  waiter.topic = topic;
  waiter.scope = scope;
  if (config_.anycast_timeout > util::SimTime::zero()) {
    waiter.deadline = node_.network().engine().schedule(
        config_.anycast_timeout, [this, id]() { on_probe_deadline(id); });
  }
  // Root-set fan-out: with a fresh advertised roster, probe a member of
  // the root set directly (round-robin) instead of converging every probe
  // on the rendezvous root through the same last-hop forwarders.  A
  // member that can no longer serve declines, which falls back to the
  // routed path below.
  if (config_.root_set > 0 && config_.max_staleness > util::SimTime::zero()) {
    auto it = root_sets_.find(topic);
    if (it != root_sets_.end()) {
      auto& entry = it->second;
      const auto now = node_.network().engine().now();
      if (!entry.members.empty() && now - entry.learned_at <= config_.max_staleness) {
        for (std::size_t i = 0; i < entry.members.size(); ++i) {
          const auto& target = entry.members[entry.next++ % entry.members.size()];
          if (target.id == node_.self().id) continue;
          auto probe = std::make_unique<SizeProbeMsg>();
          probe->topic = topic;
          probe->request_id = id;
          probe->originator = node_.self();
          if (auto* m = fed_metrics(node_)) m->counter("scribe.rootset_probes").inc();
          waiter.via_root_set = true;
          node_.send_direct(target, std::move(probe), kAppName);
          return;
        }
      } else {
        root_sets_.erase(it);  // expired roster
      }
    }
  }
  route_size_probe(topic, id, scope);
}

void Scribe::route_size_probe(const TopicId& topic, std::uint64_t request_id,
                              pastry::Scope scope) {
  auto probe = std::make_unique<SizeProbeMsg>();
  probe->topic = topic;
  probe->request_id = request_id;
  probe->originator = node_.self();
  node_.route(topic, std::move(probe), kAppName, scope);
}

std::optional<Scribe::SizeInfo> Scribe::replica_answer(const TopicId& topic) {
  if (config_.root_set <= 0 || config_.max_staleness <= util::SimTime::zero()) {
    return std::nullopt;
  }
  auto it = replicas_.find(topic);
  if (it == replicas_.end() || !it->second.serve) return std::nullopt;
  const auto age = node_.network().engine().now() - it->second.snapshot_time;
  if (age > config_.max_staleness) return std::nullopt;
  SizeInfo info;
  info.value = it->second.value;
  info.epoch = it->second.epoch;
  info.stale = true;
  info.age = age;
  info.from_root_set = true;
  return info;
}

void Scribe::answer_probe_from_replica(const SizeProbeMsg& probe, const SizeInfo& info) {
  ++rotations_;
  if (auto* m = fed_metrics(node_)) m->counter("scribe.rotations").inc();
  auto reply = std::make_unique<SizeReplyMsg>();
  reply->topic = probe.topic;
  reply->request_id = probe.request_id;
  reply->size = info.value;
  reply->epoch = info.epoch;
  reply->stale = info.stale;
  reply->age = info.age;
  reply->from_root_set = true;
  if (auto it = replicas_.find(probe.topic); it != replicas_.end()) {
    reply->root_set = it->second.root_set;
  }
  node_.send_direct(probe.originator, std::move(reply), kAppName);
}

void Scribe::learn_root_set(const TopicId& topic, const std::vector<NodeRef>& members,
                            std::uint64_t epoch) {
  if (config_.root_set <= 0 || members.empty()) return;
  auto& entry = root_sets_[topic];
  if (epoch < entry.epoch) return;  // never regress to an older roster
  entry.members = members;
  entry.epoch = epoch;
  entry.learned_at = node_.network().engine().now();
}

// --- hot-tree splitting (fan-in caps, D3-Tree style weight balancing) -------

void Scribe::maybe_split(const TopicId& topic, TopicState& st) {
  if (config_.fan_in_cap <= 0) return;
  const auto cap = static_cast<std::size_t>(config_.fan_in_cap);
  if (st.children.size() <= cap) return;
  if (st.split_pending) return;
  // A freshly promoted root is mid-repair: its adopted children have not
  // re-confirmed their parent pointers, so a delegation now would race the
  // rejoin storm.  The periodic retry picks it up after the window.
  if (st.degraded) return;

  const auto now = node_.network().engine().now();
  const auto is_child = [&](const pastry::NodeId& id) {
    return std::any_of(st.children.begin(), st.children.end(),
                       [&](const ChildState& c) { return c.ref.id == id; });
  };
  const auto declined = [&](const pastry::NodeId& id) {
    return std::find(st.split_declined.begin(), st.split_declined.end(), id) !=
           st.split_declined.end();
  };

  // Delegate choice: alternate clockwise/counter-clockwise leaf-set picks
  // (same straddling order replication uses), skipping ourselves, current
  // children, our parent, and this episode's NACKers.
  const auto& leaves =
      st.scope == pastry::Scope::Site ? node_.site_leaf_set() : node_.leaf_set();
  std::optional<NodeRef> delegate;
  const auto& cw = leaves.clockwise();
  const auto& ccw = leaves.counter_clockwise();
  for (std::size_t i = 0; i < std::max(cw.size(), ccw.size()) && !delegate; ++i) {
    for (const auto* side : {i < cw.size() ? &cw[i] : nullptr,
                             i < ccw.size() ? &ccw[i] : nullptr}) {
      if (side == nullptr) continue;
      if (side->id == node_.self().id) continue;
      if (is_child(side->id)) continue;
      if (st.parent && st.parent->id == side->id) continue;
      if (declined(side->id)) continue;
      delegate = *side;
      break;
    }
  }
  // Fallback: the lightest current child.  A live child's parent is us, so
  // it always accepts — the cap is enforceable even on a sparse ring.
  bool delegate_is_child = false;
  if (!delegate) {
    const ChildState* best = nullptr;
    for (const auto& c : st.children) {
      if (declined(c.ref.id)) continue;
      if (best == nullptr || c.last_report < best->last_report ||
          (c.last_report == best->last_report && c.ref.id < best->ref.id)) {
        best = &c;
      }
    }
    if (best == nullptr) return;  // everyone NACKed: periodic retry re-opens
    delegate = best->ref;
    delegate_is_child = true;
  }

  // Move the lightest surplus children (weight = last aggregate report),
  // never the delegate itself.  Enough must move that the post-split
  // fan-in is back at the cap, counting the delegate link we keep/add.
  std::vector<const ChildState*> movable;
  movable.reserve(st.children.size());
  for (const auto& c : st.children) {
    if (c.ref.id != delegate->id) movable.push_back(&c);
  }
  std::sort(movable.begin(), movable.end(), [](const ChildState* a, const ChildState* b) {
    if (a->last_report != b->last_report) return a->last_report < b->last_report;
    return a->ref.id < b->ref.id;
  });
  const std::size_t need = st.children.size() - cap + (delegate_is_child ? 0 : 1);

  auto msg = std::make_unique<DelegateMsg>();
  msg->topic = topic;
  msg->scope = st.scope;
  msg->agg_kind = st.agg_kind;
  msg->episode = ++st.split_episode;
  msg->children.reserve(need);
  for (std::size_t i = 0; i < need && i < movable.size(); ++i) {
    msg->children.push_back(movable[i]->ref);
  }
  st.split_pending = true;
  st.split_requested_at = now;
  ++splits_;
  if (auto* m = fed_metrics(node_)) m->counter("scribe.splits").inc();
  node_.send_direct(*delegate, std::move(msg), kAppName);
}

void Scribe::handle_delegate(const NodeRef& from, DelegateMsg& msg) {
  auto* existing = find_topic(msg.topic);
  // Acceptable only when provably acyclic: we have no tree state for the
  // topic (we attach under the delegator), or the delegator is already our
  // parent.  Anything else — we are the root, or a child of someone else —
  // could fold an ancestor under its own descendant.
  const bool acceptable =
      existing == nullptr ||
      (!existing->root && existing->parent && existing->parent->id == from.id);
  if (!acceptable) {
    auto nack = std::make_unique<DelegateNackMsg>();
    nack->topic = msg.topic;
    nack->episode = msg.episode;
    node_.send_direct(from, std::move(nack), kAppName);
    return;
  }
  auto& st = topic_state(msg.topic);
  st.scope = msg.scope;
  st.agg_kind = msg.agg_kind;
  if (!st.parent && !st.root) {
    st.parent = from;
    st.last_parent_beat = node_.network().engine().now();
  }
  auto ack = std::make_unique<DelegateAckMsg>();
  ack->topic = msg.topic;
  ack->episode = msg.episode;
  for (const auto& child : msg.children) {
    if (child.id == node_.self().id) continue;
    add_child(msg.topic, st, child);
    ack->accepted.push_back(child.id);
    auto reparent = std::make_unique<ReparentMsg>();
    reparent->topic = msg.topic;
    reparent->old_parent = from.id;
    node_.send_direct(child, std::move(reparent), kAppName);
  }
  node_.send_direct(from, std::move(ack), kAppName);
}

void Scribe::handle_delegate_ack(const NodeRef& from, const DelegateAckMsg& msg) {
  auto* st = find_topic(msg.topic);
  if (st == nullptr) return;
  if (!st->split_pending || msg.episode != st->split_episode) {
    // Duplicated on the wire (the first copy already applied and cleared
    // the pending flag) or an answer to a superseded episode: applying it
    // again would double-count the delegation and re-link the delegate.
    if (auto* m = fed_metrics(node_)) m->counter("scribe.dup_suppressed").inc();
    return;
  }
  st->split_pending = false;
  st->split_declined.clear();
  std::size_t moved = 0;
  for (const auto& id : msg.accepted) {
    moved += std::erase_if(st->children,
                           [&](const ChildState& c) { return c.ref.id == id; });
  }
  delegations_ += moved;
  if (auto* m = fed_metrics(node_)) m->counter("scribe.delegations").inc(moved);
  // Link the delegate as the surplus children's new upstream; if it is
  // still over the cap afterwards, add_child's trigger splits again.
  add_child(msg.topic, *st, from);
  maybe_split(msg.topic, *st);
}

void Scribe::handle_reparent(const NodeRef& from, const ReparentMsg& msg) {
  auto* st = find_topic(msg.topic);
  if (st != nullptr && !st->root && st->parent && st->parent->id == msg.old_parent) {
    st->parent = from;
    st->last_parent_beat = node_.network().engine().now();
    return;
  }
  if (st != nullptr && !st->root && st->parent && st->parent->id == from.id) {
    // Duplicate of a reparent we already applied: the sender is our parent
    // now.  Declining with a Leave would detach us from the live tree.
    st->last_parent_beat = node_.network().engine().now();
    if (auto* m = fed_metrics(node_)) m->counter("scribe.dup_suppressed").inc();
    return;
  }
  // Stale delegation (we already re-attached elsewhere): decline so the
  // delegate drops the phantom child instead of double-counting us.
  auto leave = std::make_unique<LeaveMsg>();
  leave->topic = msg.topic;
  leave->child = node_.self().id;
  node_.send_direct(from, std::move(leave), kAppName);
}

void Scribe::on_probe_deadline(std::uint64_t request_id) {
  auto it = size_waiters_.find(request_id);
  if (it == size_waiters_.end()) return;
  auto& waiter = it->second;
  if (waiter.via_root_set) {
    // The direct probe died (roster member crashed between advertisements).
    // Drop the stale roster and retry once through routing — Pastry steers
    // around failed nodes, so the routed probe reaches a live root.
    waiter.via_root_set = false;
    root_sets_.erase(waiter.topic);
    if (config_.anycast_timeout > util::SimTime::zero()) {
      waiter.deadline = node_.network().engine().schedule(
          config_.anycast_timeout, [this, request_id]() { on_probe_deadline(request_id); });
    }
    if (auto* m = fed_metrics(node_)) m->counter("scribe.rootset_probe_retries").inc();
    route_size_probe(waiter.topic, request_id, waiter.scope);
    return;
  }
  auto cb = std::move(waiter.callback);
  size_waiters_.erase(it);
  if (auto* m = fed_metrics(node_)) m->counter("scribe.size_probe_timeouts").inc();
  cb(SizeInfo{});  // value 0: the caller treats an unreachable tree as empty
}

// --- repair ---------------------------------------------------------------------

void Scribe::heartbeat_round() {
  const auto now = node_.network().engine().now();
  const auto limit =
      config_.heartbeat_interval * static_cast<std::int64_t>(config_.heartbeat_misses + 1);
  std::vector<TopicId> emptied;
  for (auto& [topic, st] : topics_) {
    // Prune children that stopped acking: they died or re-attached
    // elsewhere; keeping them would poison multicast and the aggregate.
    // `last_seen` is stamped at attach, so the same miss budget covers a
    // child that never acked at all (JoinAck or first report lost) —
    // including one attached at virtual time zero, whose stamp is 0.
    std::erase_if(st.children, [&](const ChildState& c) {
      return now - c.last_seen > limit;
    });
    if (!st.member && st.children.empty()) emptied.push_back(topic);
    for (const auto& child : st.children) {
      if (auto* m = fed_metrics(node_)) m->counter("scribe.heartbeats").inc();
      auto beat = std::make_unique<HeartbeatMsg>();
      beat->topic = topic;
      node_.send_direct(child.ref, std::move(beat), kAppName);
    }
  }
  for (const auto& topic : emptied) maybe_prune(topic);
  // Replicas stop refreshing when their root died (promotion consumes
  // them) or when this node fell out of the root's leaf set; either way
  // a copy several staleness windows old is garbage.  With staleness
  // disabled (zero) the retention window would also be zero and every
  // replica would be erased each round, silently breaking failover
  // promotion — keep copies indefinitely in that case.
  if (config_.max_staleness > util::SimTime::zero()) {
    std::erase_if(replicas_, [&](const auto& entry) {
      return now - entry.second.received_at > config_.max_staleness * std::int64_t{4};
    });
  }
}

void Scribe::check_parents() {
  const auto now = node_.network().engine().now();
  const auto limit =
      config_.heartbeat_interval * static_cast<std::int64_t>(config_.heartbeat_misses);
  std::vector<TopicId> to_rejoin;
  for (auto& [topic, st] : topics_) {
    if (!st.parent) {
      if (st.root) {
        // Split-brain guard: a node that believes it is the rendezvous
        // root must verify it still is.  A recovered ex-root (or a root
        // beaten by a newly joined closer node) re-attaches, bringing its
        // subtree.
        if (node_.next_hop(topic, st.scope).has_value()) {
          st.root = false;
          to_rejoin.push_back(topic);
        }
        continue;
      }
      // Disconnected non-root state (lost JOIN, recovery from downtime):
      // keep retrying the join, throttled to the repair window.
      if ((st.member || !st.children.empty()) &&
          (st.last_parent_beat == util::SimTime::zero() ||
           now - st.last_parent_beat > limit)) {
        to_rejoin.push_back(topic);
      }
      continue;
    }
    if (st.last_parent_beat == util::SimTime::zero()) {
      st.last_parent_beat = now;  // grace period from repair activation
      continue;
    }
    if (now - st.last_parent_beat > limit) to_rejoin.push_back(topic);
  }
  for (const auto& topic : to_rejoin) rejoin(topic);
}

void Scribe::rejoin(const TopicId& topic) {
  auto* st = find_topic(topic);
  if (st == nullptr) return;
  if (st->parent) node_.forget(st->parent->id);
  st->parent.reset();
  // Marks the join attempt time: if no JoinAck resets this, check_parents
  // retries after the repair window.
  st->last_parent_beat = node_.network().engine().now();
  if (!st->member && st->children.empty()) {
    if (st->epoch > 0) retired_epochs_[topic] = st->epoch;
    topics_.erase(topic);
    return;
  }
  if (auto* m = fed_metrics(node_)) m->counter("scribe.rejoins").inc();
  auto join = std::make_unique<JoinMsg>();
  join->topic = topic;
  join->child = node_.self();
  join->scope = st->scope;
  join->repair = true;
  node_.route(topic, std::move(join), kAppName, st->scope);
}

// --- Pastry callbacks -------------------------------------------------------------

void Scribe::deliver(const pastry::NodeId& key, pastry::AppMessage& msg, int /*hops*/) {
  if (auto* join = dynamic_cast<JoinMsg*>(&msg)) {
    topic_state(join->topic).scope = join->scope;
    handle_join(*join, /*at_root=*/true);
    auto* st = find_topic(join->topic);
    if (st != nullptr && !st->parent) st->root = true;
    return;
  }
  if (auto* mc = dynamic_cast<MulticastMsg*>(&msg)) {
    // Rendezvous root: disseminate down the tree.
    handle_multicast_down(mc->topic, mc->data);
    return;
  }
  if (auto* anycast = dynamic_cast<AnycastMsg*>(&msg)) {
    continue_anycast(take_anycast(*anycast));
    return;
  }
  if (auto* probe = dynamic_cast<SizeProbeMsg*>(&msg)) {
    SizeInfo info;
    if (auto* st = find_topic(probe->topic)) info = probe_answer(probe->topic, *st);
    if (probe->originator.id == node_.self().id) {
      auto it = size_waiters_.find(probe->request_id);
      if (it != size_waiters_.end()) {
        auto waiter = std::move(it->second);
        size_waiters_.erase(it);
        waiter.deadline.cancel();
        waiter.callback(info);
      }
      return;
    }
    auto reply = std::make_unique<SizeReplyMsg>();
    reply->topic = probe->topic;
    reply->request_id = probe->request_id;
    reply->size = info.value;
    reply->epoch = info.epoch;
    reply->stale = info.stale;
    reply->age = info.age;
    if (config_.root_set > 0) {
      if (auto* st = find_topic(probe->topic); st != nullptr && st->root) {
        reply->root_set.push_back(node_.self());
        for (const auto& s : st->serve_set) reply->root_set.push_back(s);
      }
    }
    node_.send_direct(probe->originator, std::move(reply), kAppName);
    return;
  }
  RBAY_WARN("scribe", "unhandled delivered message " << msg.type_name() << " at key "
                                                     << key.to_hex());
}

void Scribe::receive(const NodeRef& from, pastry::AppMessage& msg) {
  if (auto* ack = dynamic_cast<JoinAckMsg*>(&msg)) {
    auto& st = topic_state(ack->topic);
    if (st.root || (st.parent && st.parent->id != from.id)) {
      // Stale or duplicated ack: we were promoted to root in the meantime,
      // or a later (re)join already attached us under a different parent.
      // Overwriting would detach us from the tree we actually live in.
      if (auto* m = fed_metrics(node_)) m->counter("scribe.dup_suppressed").inc();
      return;
    }
    st.parent = from;
    st.root = false;
    st.last_parent_beat = node_.network().engine().now();
    if (st.on_joined) {
      auto cb = std::move(st.on_joined);
      st.on_joined = nullptr;
      cb();
    }
    return;
  }
  if (auto* leave = dynamic_cast<LeaveMsg*>(&msg)) {
    if (auto* st = find_topic(leave->topic)) {
      std::erase_if(st->children, [&](const ChildState& c) { return c.ref.id == leave->child; });
      maybe_prune(leave->topic);
    }
    return;
  }
  if (auto* mc = dynamic_cast<MulticastMsg*>(&msg)) {
    handle_multicast_down(mc->topic, mc->data);
    return;
  }
  if (auto* anycast = dynamic_cast<AnycastMsg*>(&msg)) {
    continue_anycast(take_anycast(*anycast));
    return;
  }
  if (auto* result = dynamic_cast<AnycastResultMsg*>(&msg)) {
    // A result landing after the deadline completed the waiter is an
    // orphan: complete_anycast counts it and hands the payload to the
    // orphan handler so member-side reservations it carries get released.
    complete_anycast(result->request_id, result->topic, result->satisfied,
                     result->members_visited, *result->payload);
    return;
  }
  if (auto* report = dynamic_cast<AggReportMsg*>(&msg)) {
    if (auto* st = find_topic(report->topic)) {
      for (auto& child : st->children) {
        if (child.ref.id == report->child) {
          child.last_report = report->value;
          child.has_report = true;
          break;
        }
      }
    }
    return;
  }
  if (auto* beat = dynamic_cast<HeartbeatMsg*>(&msg)) {
    if (auto* st = find_topic(beat->topic)) {
      if (st->parent && st->parent->id == from.id) {
        st->last_parent_beat = node_.network().engine().now();
        auto ack = std::make_unique<HeartbeatAckMsg>();
        ack->topic = beat->topic;
        node_.send_direct(from, std::move(ack), kAppName);
      }
    }
    return;
  }
  if (auto* hback = dynamic_cast<HeartbeatAckMsg*>(&msg)) {
    if (auto* st = find_topic(hback->topic)) {
      for (auto& child : st->children) {
        if (child.ref.id == from.id) {
          child.last_seen = node_.network().engine().now();
          break;
        }
      }
    }
    return;
  }
  if (auto* probe = dynamic_cast<SizeProbeMsg*>(&msg)) {
    // Direct root-set probe (originator-side fan-out).  Answer as the
    // root, as a serving replica holder, or decline so the originator
    // drops its roster and falls back to a routed probe.
    if (auto* st = find_topic(probe->topic); st != nullptr && st->root) {
      const auto info = probe_answer(probe->topic, *st);
      auto reply = std::make_unique<SizeReplyMsg>();
      reply->topic = probe->topic;
      reply->request_id = probe->request_id;
      reply->size = info.value;
      reply->epoch = info.epoch;
      reply->stale = info.stale;
      reply->age = info.age;
      if (config_.root_set > 0) {
        reply->root_set.push_back(node_.self());
        for (const auto& s : st->serve_set) reply->root_set.push_back(s);
      }
      node_.send_direct(probe->originator, std::move(reply), kAppName);
      return;
    }
    if (auto info = replica_answer(probe->topic)) {
      answer_probe_from_replica(*probe, *info);
      return;
    }
    auto reply = std::make_unique<SizeReplyMsg>();
    reply->topic = probe->topic;
    reply->request_id = probe->request_id;
    reply->declined = true;
    node_.send_direct(probe->originator, std::move(reply), kAppName);
    return;
  }
  if (auto* reply = dynamic_cast<SizeReplyMsg*>(&msg)) {
    if (!reply->root_set.empty()) {
      learn_root_set(reply->topic, reply->root_set, reply->epoch);
    }
    auto it = size_waiters_.find(reply->request_id);
    if (it == size_waiters_.end()) return;
    if (reply->declined) {
      if (!it->second.via_root_set) {
        // Duplicated decline: the first copy already re-routed this waiter;
        // a second routed probe would double the traffic for nothing.
        if (auto* m = fed_metrics(node_)) m->counter("scribe.dup_suppressed").inc();
        return;
      }
      // The fanned-out member can no longer serve: forget the roster and
      // fall back to routing, under the same waiter (and deadline).
      root_sets_.erase(reply->topic);
      it->second.via_root_set = false;
      route_size_probe(it->second.topic, reply->request_id, it->second.scope);
      return;
    }
    auto waiter = std::move(it->second);
    size_waiters_.erase(it);
    waiter.deadline.cancel();
    SizeInfo info;
    info.value = reply->size;
    info.epoch = reply->epoch;
    info.stale = reply->stale;
    info.age = reply->age;
    info.from_root_set = reply->from_root_set;
    waiter.callback(info);
    return;
  }
  if (auto* replica = dynamic_cast<RootReplicaMsg*>(&msg)) {
    handle_replica(from, *replica);
    return;
  }
  if (auto* behind = dynamic_cast<ReplicaBehindMsg*>(&msg)) {
    auto* st = find_topic(behind->topic);
    if (st != nullptr && st->root) catch_up_term(st->epoch, behind->epoch);
    return;
  }
  if (auto* delegate = dynamic_cast<DelegateMsg*>(&msg)) {
    handle_delegate(from, *delegate);
    return;
  }
  if (auto* dack = dynamic_cast<DelegateAckMsg*>(&msg)) {
    handle_delegate_ack(from, *dack);
    return;
  }
  if (auto* dnack = dynamic_cast<DelegateNackMsg*>(&msg)) {
    if (auto* st = find_topic(dnack->topic)) {
      if (!st->split_pending || dnack->episode != st->split_episode) {
        // Duplicated or superseded nack: acting on it would abort a later
        // episode's in-flight delegation (or retry one already resolved).
        if (auto* m = fed_metrics(node_)) m->counter("scribe.dup_suppressed").inc();
        return;
      }
      st->split_pending = false;
      st->split_declined.push_back(from.id);
      maybe_split(dnack->topic, *st);  // retry with the next candidate
    }
    return;
  }
  if (auto* reparent = dynamic_cast<ReparentMsg*>(&msg)) {
    handle_reparent(from, *reparent);
    return;
  }
  RBAY_WARN("scribe", "unhandled direct message " << msg.type_name());
}

std::vector<NodeRef> Scribe::children_of(const TopicId& topic) const {
  std::vector<NodeRef> out;
  if (const auto* st = find_topic(topic)) {
    out.reserve(st->children.size());
    for (const auto& c : st->children) out.push_back(c.ref);
  }
  return out;
}

std::optional<NodeRef> Scribe::parent_of(const TopicId& topic) const {
  const auto* st = find_topic(topic);
  return st == nullptr ? std::nullopt : st->parent;
}

bool Scribe::is_root_of(const TopicId& topic) const {
  const auto* st = find_topic(topic);
  return st != nullptr && st->root;
}

std::uint64_t Scribe::root_epoch_of(const TopicId& topic) const {
  const auto* st = find_topic(topic);
  return st == nullptr ? 0 : st->epoch;
}

bool Scribe::is_degraded(const TopicId& topic) const {
  const auto* st = find_topic(topic);
  return st != nullptr && st->degraded;
}

const Scribe::ReplicaState* Scribe::replica_of(const TopicId& topic) const {
  auto it = replicas_.find(topic);
  return it == replicas_.end() ? nullptr : &it->second;
}

std::size_t Scribe::max_fan_in() const {
  std::size_t fan_in = 0;
  for (const auto& [topic, st] : topics_) {
    fan_in = std::max(fan_in, st.children.size());
  }
  return fan_in;
}

util::SimTime Scribe::max_replica_age(util::SimTime now) const {
  util::SimTime age = util::SimTime::zero();
  for (const auto& [topic, replica] : replicas_) {
    age = std::max(age, now - replica.received_at);
  }
  return age;
}

util::SimTime Scribe::max_heartbeat_lag(util::SimTime now) const {
  if (config_.heartbeat_interval <= util::SimTime::zero()) return util::SimTime::zero();
  util::SimTime lag = util::SimTime::zero();
  for (const auto& [topic, st] : topics_) {
    // Only members that have heard at least one beat: a freshly joined
    // child has nothing to lag behind yet.
    if (!st.member || !st.parent.has_value()) continue;
    if (st.last_parent_beat == util::SimTime::zero()) continue;
    lag = std::max(lag, now - st.last_parent_beat);
  }
  return lag;
}

}  // namespace rbay::scribe
