#include "obs/causal.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/contract.hpp"

namespace rbay::obs {

const char* causal_kind_name(CausalKind kind) {
  switch (kind) {
    case CausalKind::kSend: return "send";
    case CausalKind::kRecv: return "recv";
    case CausalKind::kDrop: return "drop";
    case CausalKind::kLocal: return "local";
  }
  return "?";
}

const char* phase_label(std::uint8_t phase) {
  if (phase < static_cast<std::uint8_t>(kPhaseCount)) {
    return phase_name(static_cast<Phase>(phase));
  }
  return "none";
}

void CausalLog::set_slots(std::uint32_t slots) {
  RBAY_REQUIRE(slots >= 1 && slots <= kMaxExecSlots,
               "CausalLog::set_slots: slot count out of range (raise kMaxExecSlots)");
  if (slots == slots_.size()) return;
  RBAY_REQUIRE(slots_.size() == 1, "CausalLog::set_slots: slot count already fixed");
  RBAY_REQUIRE(slots_[0].next_trace == 0 && slots_[0].next_span == 0,
               "CausalLog::set_slots: ids already minted under stride 1");
  slots_.resize(slots);
  stride_ = slots;
}

void CausalLog::reserve_rings(std::size_t endpoint_count) {
  if (rings_.size() < endpoint_count) rings_.resize(endpoint_count);
}

TraceContext CausalLog::begin_trace(const std::string& query_id, std::uint32_t site,
                                    std::uint32_t endpoint, util::SimTime at) {
  if (trace_count_.load(std::memory_order_relaxed) >= kMaxTraces) return TraceContext{};
  TraceContext ctx;
  ctx.trace_id = mint_trace();
  ctx.span_id = mint_span();
  ctx.parent_span_id = 0;

  TraceMeta meta;
  meta.query_id = query_id;
  meta.root_span = ctx.span_id;
  meta.started = at;
  traces_.get_or_create(ctx.trace_id).ref = std::move(meta);
  by_query_.get_or_create(query_id).ref = ctx.trace_id;
  trace_count_.fetch_add(1, std::memory_order_relaxed);

  CausalEvent ev;
  ev.kind = CausalKind::kLocal;
  ev.site = site;
  ev.endpoint = endpoint;
  ev.trace_id = ctx.trace_id;
  ev.span_id = ctx.span_id;
  ev.parent_span_id = 0;
  ev.at = at;
  ev.what = "query.start";
  record(std::move(ev));
  return ctx;
}

void CausalLog::finish_trace(const TraceContext& fallback, std::uint32_t site,
                             std::uint32_t endpoint, util::SimTime at) {
  const TraceContext& ambient = current();
  const TraceContext& parent =
      (ambient.active() && ambient.trace_id == fallback.trace_id) ? ambient : fallback;
  if (!parent.active()) return;

  CausalEvent ev;
  ev.kind = CausalKind::kLocal;
  ev.phase = kPhaseNone;
  ev.attempt = parent.attempt;
  ev.site = site;
  ev.endpoint = endpoint;
  ev.trace_id = parent.trace_id;
  ev.span_id = mint_span();
  ev.parent_span_id = parent.span_id;
  ev.at = at;
  ev.what = "query.finish";

  traces_.with(parent.trace_id, [&](TraceMeta& meta) {
    meta.terminus_span = ev.span_id;
    meta.finished = at;
    meta.done = true;
  });
  record(std::move(ev));
}

const TraceMeta* CausalLog::find_trace(std::uint64_t trace_id) const {
  return traces_.find(trace_id);
}

std::uint64_t CausalLog::trace_id_for(const std::string& query_id) const {
  const std::uint64_t* id = by_query_.find(query_id);
  return id == nullptr ? 0 : *id;
}

TraceContext CausalLog::on_send(std::uint32_t site, std::uint32_t endpoint, const char* what,
                                util::SimTime at) {
  TraceContext ctx = current();
  if (ctx.active()) {
    ctx.parent_span_id = ctx.span_id;
    ctx.span_id = mint_span();
  }
  CausalEvent ev;
  ev.kind = CausalKind::kSend;
  ev.phase = ctx.phase;
  ev.attempt = ctx.attempt;
  ev.site = site;
  ev.endpoint = endpoint;
  ev.trace_id = ctx.trace_id;
  ev.span_id = ctx.span_id;
  ev.parent_span_id = ctx.parent_span_id;
  ev.at = at;
  ev.what = what;
  record(std::move(ev));
  return ctx;
}

void CausalLog::on_recv(const TraceContext& ctx, std::uint32_t site, std::uint32_t endpoint,
                        const char* what, util::SimTime at) {
  CausalEvent ev;
  ev.kind = CausalKind::kRecv;
  ev.phase = ctx.phase;
  ev.attempt = ctx.attempt;
  ev.site = site;
  ev.endpoint = endpoint;
  ev.trace_id = ctx.trace_id;
  ev.span_id = ctx.span_id;
  ev.parent_span_id = ctx.parent_span_id;
  ev.at = at;
  ev.what = what;
  record(std::move(ev));
}

void CausalLog::on_drop(const TraceContext& ctx, std::uint32_t site, std::uint32_t endpoint,
                        const char* what, util::SimTime at) {
  CausalEvent ev;
  ev.kind = CausalKind::kDrop;
  ev.phase = ctx.phase;
  ev.attempt = ctx.attempt;
  ev.site = site;
  ev.endpoint = endpoint;
  ev.trace_id = ctx.trace_id;
  ev.span_id = ctx.span_id;
  ev.parent_span_id = ctx.parent_span_id;
  ev.at = at;
  ev.what = what;
  record(std::move(ev));
}

TraceContext CausalLog::local(std::uint32_t site, std::uint32_t endpoint, const char* what,
                              util::SimTime at, int phase_override) {
  TraceContext ctx = current();
  if (ctx.active()) {
    ctx.parent_span_id = ctx.span_id;
    ctx.span_id = mint_span();
  }
  if (phase_override >= 0) ctx.phase = static_cast<std::uint8_t>(phase_override);
  CausalEvent ev;
  ev.kind = CausalKind::kLocal;
  ev.phase = ctx.phase;
  ev.attempt = ctx.attempt;
  ev.site = site;
  ev.endpoint = endpoint;
  ev.trace_id = ctx.trace_id;
  ev.span_id = ctx.span_id;
  ev.parent_span_id = ctx.parent_span_id;
  ev.at = at;
  ev.what = what;
  record(std::move(ev));
  return ctx;
}

void CausalLog::set_flight_capacity(std::size_t capacity) {
  flight_capacity_ = capacity == 0 ? 1 : capacity;
  // Existing rings keep their contents up to the new capacity; simplest
  // deterministic behavior is to restart them.  (A sharded engine's
  // run-start hook re-reserves the ring vector afterwards.)
  rings_.clear();
}

std::vector<CausalEvent> CausalLog::flight_events(std::uint32_t endpoint) const {
  std::vector<CausalEvent> out;
  if (endpoint >= rings_.size()) return out;
  const FlightRing& ring = rings_[endpoint];
  const std::size_t n = ring.slots.size();
  out.reserve(n);
  // When the ring has wrapped, `next` points at the oldest slot.
  const std::size_t start = (ring.total > n) ? ring.next : 0;
  for (std::size_t i = 0; i < n; ++i) out.push_back(ring.slots[(start + i) % n]);
  return out;
}

std::string CausalLog::dump_flight(std::uint32_t endpoint) const {
  std::string out;
  const auto evs = flight_events(endpoint);
  const std::uint64_t total = endpoint < rings_.size() ? rings_[endpoint].total : 0;
  out += "flight recorder endpoint " + std::to_string(endpoint) + " (last " +
         std::to_string(evs.size()) + " of " + std::to_string(total) + " events)\n";
  for (const CausalEvent& ev : evs) {
    out += "  t=" + std::to_string(ev.at.as_micros()) + "us " + causal_kind_name(ev.kind) +
           " " + ev.what + " site=" + std::to_string(ev.site) +
           " trace=" + std::to_string(ev.trace_id) + " span=" + std::to_string(ev.span_id) +
           " parent=" + std::to_string(ev.parent_span_id) + " phase=" + phase_label(ev.phase) +
           " attempt=" + std::to_string(ev.attempt) + "\n";
  }
  return out;
}

const std::vector<CausalEvent>& CausalLog::events() const {
  if (stride_ == 1) return slots_[0].events;
  std::size_t total = 0;
  for (const SlotState& s : slots_) total += s.events.size();
  if (total != merged_from_) {
    merged_.clear();
    merged_.reserve(total);
    for (const SlotState& s : slots_) {
      merged_.insert(merged_.end(), s.events.begin(), s.events.end());
    }
    // Appending in slot order then stable-sorting by time yields the
    // canonical (at, slot, intra-slot index) order.
    std::stable_sort(merged_.begin(), merged_.end(),
                     [](const CausalEvent& a, const CausalEvent& b) { return a.at < b.at; });
    merged_from_ = total;
  }
  return merged_;
}

std::vector<const CausalEvent*> CausalLog::trace_events(std::uint64_t trace_id) const {
  std::vector<const CausalEvent*> out;
  for (const CausalEvent& ev : events()) {
    if (ev.trace_id == trace_id) out.push_back(&ev);
  }
  return out;
}

std::uint64_t CausalLog::dropped() const {
  std::uint64_t n = 0;
  for (const SlotState& s : slots_) n += s.dropped;
  return n;
}

void CausalLog::bind_counters(Counter* events, Counter* dropped) {
  events_counter_ = events;
  dropped_counter_ = dropped;
}

void CausalLog::record(CausalEvent ev) {
  SlotState& s = slot();
  // Flight ring first: it sees every event, traced or not.
  bool ring_ok = ev.endpoint < rings_.size();
  if (!ring_ok && stride_ == 1) {
    rings_.resize(ev.endpoint + 1);  // one slot: grow on demand
    ring_ok = true;
  }
  if (ring_ok) {
    FlightRing& ring = rings_[ev.endpoint];
    ++ring.total;
    const bool wrapped = ring.slots.size() >= flight_capacity_;
    if (wrapped) {
      ring.slots[ring.next] = ev;
      ring.next = (ring.next + 1) % flight_capacity_;
      ++s.dropped;
      if (dropped_counter_ != nullptr) dropped_counter_->inc();
    } else {
      ring.slots.push_back(ev);
      ring.next = ring.slots.size() % flight_capacity_;
    }
  }

  if (ev.trace_id == 0) return;
  if (s.events.size() >= kMaxEvents / stride_) {
    ++s.dropped;
    if (dropped_counter_ != nullptr) dropped_counter_->inc();
    return;
  }
  s.events.push_back(std::move(ev));
  if (events_counter_ != nullptr) events_counter_->inc();
}

}  // namespace rbay::obs
