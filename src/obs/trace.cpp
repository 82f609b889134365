#include "obs/trace.hpp"

#include <algorithm>

#include "obs/exec_slot.hpp"
#include "obs/json.hpp"

namespace rbay::obs {

namespace {
// Sentinel marking a span whose end_span() has not arrived yet.
constexpr auto kOpenEnd = util::SimTime::micros(-1);
}  // namespace

const char* phase_name(Phase phase) {
  switch (phase) {
    case Phase::kProbe: return "probe";
    case Phase::kAnycast: return "anycast";
    case Phase::kMemberSearch: return "member_search";
    case Phase::kSlotFill: return "slot_fill";
    case Phase::kCommit: return "commit";
  }
  return "unknown";
}

// --- QueryTrace -------------------------------------------------------------

bool QueryTrace::has_phase(Phase phase) const { return first_span(phase) != nullptr; }

const Span* QueryTrace::first_span(Phase phase) const {
  const auto it = std::find_if(spans.begin(), spans.end(),
                               [phase](const Span& s) { return s.phase == phase; });
  return it == spans.end() ? nullptr : &*it;
}

bool QueryTrace::has_event(const std::string& what) const {
  return std::any_of(events.begin(), events.end(),
                     [&what](const TraceEvent& e) { return e.what == what; });
}

// --- Tracer -----------------------------------------------------------------

const QueryTrace* Tracer::find(const std::string& query_id) const {
  return traces_.find(query_id);
}

void Tracer::begin_query(const std::string& query_id, util::SimTime now) {
  if (count_.load(std::memory_order_relaxed) >= kMaxTraces &&
      traces_.find(query_id) == nullptr) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  auto acc = traces_.get_or_create(query_id);
  if (acc.ref.query_id.empty()) count_.fetch_add(1, std::memory_order_relaxed);
  acc.ref.query_id = query_id;
  acc.ref.started = now;
}

void Tracer::begin_span(const std::string& query_id, Phase phase, int attempt,
                        util::SimTime now) {
  const std::uint32_t slot = exec_slot().index;
  traces_.with(query_id, [&](QueryTrace& trace) {
    trace.spans.push_back(Span{phase, attempt, now, kOpenEnd, 0, slot});
  });
}

void Tracer::end_span(const std::string& query_id, Phase phase, util::SimTime now, int hops) {
  const std::uint32_t slot = exec_slot().index;
  traces_.with(query_id, [&](QueryTrace& trace) {
    // Pair with the calling slot's own open span: several site gateways
    // trace into one query id concurrently, and "most recent" across slots
    // would depend on append interleaving.  With one slot this is the
    // plain most-recent-open rule.
    for (auto it = trace.spans.rbegin(); it != trace.spans.rend(); ++it) {
      if (it->phase == phase && it->end == kOpenEnd && it->slot == slot) {
        it->end = now;
        it->hops = hops;
        return;
      }
    }
  });
}

void Tracer::add_span(const std::string& query_id, Phase phase, int attempt,
                      util::SimTime start, util::SimTime end, int hops) {
  const std::uint32_t slot = exec_slot().index;
  traces_.with(query_id, [&](QueryTrace& trace) {
    trace.spans.push_back(Span{phase, attempt, start, end, hops, slot});
  });
}

void Tracer::event(const std::string& query_id, std::string what, int attempt,
                   util::SimTime now) {
  const std::uint32_t slot = exec_slot().index;
  traces_.with(query_id, [&](QueryTrace& trace) {
    trace.events.push_back(TraceEvent{now, attempt, std::move(what), slot});
  });
}

void Tracer::finish_query(const std::string& query_id, util::SimTime now, bool satisfied,
                          int attempts) {
  const std::uint32_t slot = exec_slot().index;
  traces_.with(query_id, [&](QueryTrace& trace) {
    trace.finished = now;
    trace.done = true;
    trace.satisfied = satisfied;
    trace.attempts = attempts;
    // Close any span the query abandoned (e.g. a site that timed out while
    // its probes were still in flight) — but only the finishing slot's own
    // spans.  A remote slot may still be running its abandoned anycast in
    // this very window; whether its end_span or this force-close "won"
    // would be a wall-clock race, so remote spans keep their owner as the
    // single writer and render zero-length if never closed.  Serial
    // engine: everything is slot 0, the historical close-all behavior.
    for (auto& span : trace.spans) {
      if (span.end == kOpenEnd && span.slot == slot) span.end = now;
    }
  });
}

void Tracer::write_json(std::string& out) const {
  out += '[';
  json::Comma trace_comma;
  traces_.for_each_ordered([&](const std::string& /*id*/, const QueryTrace& trace) {
    trace_comma.next(out);
    out += '{';
    json::append_key(out, "query_id");
    json::append_string(out, trace.query_id);
    out += ',';
    json::append_key(out, "started_us");
    json::append_int(out, trace.started.as_micros());
    out += ',';
    json::append_key(out, "finished_us");
    json::append_int(out, (trace.done ? trace.finished : trace.started).as_micros());
    out += ',';
    json::append_key(out, "done");
    out += trace.done ? "true" : "false";
    out += ',';
    json::append_key(out, "satisfied");
    out += trace.satisfied ? "true" : "false";
    out += ',';
    json::append_key(out, "attempts");
    json::append_int(out, trace.attempts);
    out += ',';
    json::append_key(out, "spans");
    out += '[';
    // Sharded runs append from several shards, so the vector's order is
    // worker-interleaving-dependent; (start, slot) with a stable sort —
    // which keeps each slot's own appends in order — is a pure function of
    // the schedule.  Serial runs skip the sort: plain append order,
    // byte-identical to the classic tracer.
    std::vector<Span> spans = trace.spans;
    if (sharded_) {
      std::stable_sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
        if (a.start != b.start) return a.start < b.start;
        return a.slot < b.slot;
      });
    }
    json::Comma span_comma;
    for (const auto& span : spans) {
      span_comma.next(out);
      out += '{';
      json::append_key(out, "phase");
      json::append_string(out, phase_name(span.phase));
      out += ',';
      json::append_key(out, "attempt");
      json::append_int(out, span.attempt);
      out += ',';
      json::append_key(out, "start_us");
      json::append_int(out, span.start.as_micros());
      out += ',';
      json::append_key(out, "end_us");
      json::append_int(out, (span.end == kOpenEnd ? span.start : span.end).as_micros());
      out += ',';
      json::append_key(out, "hops");
      json::append_int(out, span.hops);
      out += '}';
    }
    out += ']';
    out += ',';
    json::append_key(out, "events");
    out += '[';
    std::vector<TraceEvent> events = trace.events;
    if (sharded_) {
      std::stable_sort(events.begin(), events.end(),
                       [](const TraceEvent& a, const TraceEvent& b) {
                         if (a.at != b.at) return a.at < b.at;
                         return a.slot < b.slot;
                       });
    }
    json::Comma event_comma;
    for (const auto& event : events) {
      event_comma.next(out);
      out += '{';
      json::append_key(out, "at_us");
      json::append_int(out, event.at.as_micros());
      out += ',';
      json::append_key(out, "attempt");
      json::append_int(out, event.attempt);
      out += ',';
      json::append_key(out, "what");
      json::append_string(out, event.what);
      out += '}';
    }
    out += ']';
    out += '}';
  });
  out += ']';
}

}  // namespace rbay::obs
