#pragma once

// Query tracing: per-query span records for the five-step composite query
// protocol (paper Fig. 7).
//
//   Probe        steps 1-2: size-probe every predicate tree
//   Anycast      step 3:    dispatch the k-slot buffer into the smallest tree
//   MemberSearch step 4a:   the DFS walk visiting tree members
//   SlotFill     step 4b:   members reserving themselves and filling slots
//   Commit       step 5:    assigning the k best / releasing the surplus
//
// Spans carry sim-time start/end and a hop count (messages or member visits
// attributed to the phase).  Free-form events ("conflict", "backoff_retry")
// record protocol incidents between spans.  Everything is keyed by the
// query id the QueryInterface mints, so gateway-side site queries land in
// the same trace as the originating interface's spans.
//
// Determinism contract: all timestamps are the engine's virtual clock and
// every container is ordered, so two same-seed runs serialize to identical
// JSON (the replay test pins this).

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/sim_time.hpp"
#include "util/striped_map.hpp"

namespace rbay::obs {

enum class Phase : std::uint8_t {
  kProbe = 0,
  kAnycast = 1,
  kMemberSearch = 2,
  kSlotFill = 3,
  kCommit = 4,
};

inline constexpr int kPhaseCount = 5;

[[nodiscard]] const char* phase_name(Phase phase);

struct Span {
  Phase phase = Phase::kProbe;
  int attempt = 1;
  util::SimTime start = util::SimTime::zero();
  util::SimTime end = util::SimTime::zero();
  /// Network legs / member visits attributed to the phase: trees probed,
  /// anycast dispatches, members visited, slots filled, nodes committed.
  int hops = 0;
  /// Execution slot that recorded the span (obs/exec_slot.hpp).  Serial
  /// engine: always 0.  Sharded: begin/end pair per slot, and the snapshot
  /// orders spans by (start, slot) so the JSON is a pure function of the
  /// schedule, never of worker interleaving.
  std::uint32_t slot = 0;

  [[nodiscard]] util::SimTime latency() const { return end - start; }
};

struct TraceEvent {
  util::SimTime at = util::SimTime::zero();
  int attempt = 1;
  std::string what;
  std::uint32_t slot = 0;  ///< recording execution slot (see Span::slot)
};

struct QueryTrace {
  std::string query_id;
  util::SimTime started = util::SimTime::zero();
  util::SimTime finished = util::SimTime::zero();
  bool done = false;
  bool satisfied = false;
  int attempts = 0;
  std::vector<Span> spans;    // append order; sharded snapshots re-order
  std::vector<TraceEvent> events;  //   by (start/at, slot) — see Tracer doc

  [[nodiscard]] bool has_phase(Phase phase) const;
  [[nodiscard]] const Span* first_span(Phase phase) const;
  [[nodiscard]] bool has_event(const std::string& what) const;
};

/// Collects QueryTraces by query id.  Bounded: past kMaxTraces, new queries
/// are counted in dropped() instead of recorded, so long bench runs cannot
/// grow memory without bound.
///
/// Sharded engine: a cross-site query's trace is written from *several*
/// shards — the origin gateway records probe/commit spans while every
/// remote gateway's site query records its anycast/member-search spans
/// into the same id — so every mutation runs under the stripe lock of the
/// lock-striped table (util/striped_map.hpp).  Determinism is restored at
/// the edges rather than by locking order (which is interleaving-
/// dependent): spans/events are tagged with their execution slot,
/// begin/end pairing and finish-time closing are per-slot, and
/// write_json() orders each trace's spans by (start, slot, per-slot
/// append order) whenever set_slots() declared several slots.  Without
/// set_slots(), single-slot traces serialize in plain append order.  One
/// visible several-slot difference: a span abandoned on a *remote* slot (site
/// timed out mid-anycast) stays open and renders zero-length instead of
/// being force-closed at finish time — closing it from the origin shard
/// would be a cross-slot last-writer race.
class Tracer {
 public:
  static constexpr std::size_t kMaxTraces = 4096;

  /// Declares the execution-slot count of a run (site shards + control).
  /// Never called: one slot.
  void set_slots(std::uint32_t slots) { sharded_ = slots > 1; }

  void begin_query(const std::string& query_id, util::SimTime now);
  void begin_span(const std::string& query_id, Phase phase, int attempt, util::SimTime now);
  /// Closes the most recent open span of `phase`; no-op if none is open.
  void end_span(const std::string& query_id, Phase phase, util::SimTime now, int hops);
  /// Records an already-closed span in one call.
  void add_span(const std::string& query_id, Phase phase, int attempt, util::SimTime start,
                util::SimTime end, int hops);
  void event(const std::string& query_id, std::string what, int attempt, util::SimTime now);
  void finish_query(const std::string& query_id, util::SimTime now, bool satisfied,
                    int attempts);

  [[nodiscard]] const QueryTrace* find(const std::string& query_id) const;
  [[nodiscard]] std::size_t size() const { return count_.load(std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  /// Snapshot-time only (merges the stripes in key order).
  void write_json(std::string& out) const;

 private:
  util::StripedMap<std::string, QueryTrace> traces_;
  std::atomic<std::size_t> count_{0};
  std::atomic<std::uint64_t> dropped_{0};
  bool sharded_ = false;
};

}  // namespace rbay::obs
