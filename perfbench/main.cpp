// One repetition of the end-to-end wall-clock benchmark of the RBAY
// federation (run.py repeats it and reports medians):
//
//   rbay_perfbench --workload <count_hot|select_reserve|build_40k>
//                  --seed N --workers K --traced <0|1>
//
// Builds the paper's 8-site EC2 federation (§IV.A trees, attributes and
// the password onGet handler), warms aggregation up for 3 sim-s, then
// drives an open-loop query stream on the virtual clock until it drains,
// checking every answer against a god view of the node attributes.  Prints
// one JSON object: wall-clock phase times, sim-time results, an answer
// digest and the check verdict; with --traced 1 also registry-counter
// deltas over the query phase, per-call timings of the layer entry points
// the benchmark calls itself, and allocation counts.
//
// The engine is pinned explicitly to the sharded schedule (RBAY_SIM_* is
// not read), which does not depend on the worker count: the 1- and
// 2-worker digests must match.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "alloc_count.hpp"
#include "core/cluster.hpp"
#include "core/naming.hpp"
#include "obs/json.hpp"
#include "qplane/workload_driver.hpp"
#include "query/sql.hpp"
#include "util/stats.hpp"

using namespace rbay;
using perfbench::CallTimer;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- workloads ----------------------------------------------------------------

struct Workload {
  const char* name;
  std::size_t per_site;
  double rate_qps;     // sim-time arrivals per second, summed over the 8 origins
  double query_sim_s;  // arrival horizon; the phase then drains to quiescence
  bool select;         // SELECT 2 ... WITH "rbay" (reserve + release) vs site COUNT
  bool monitors;       // RandomWalk on CPU_utilization at 1 s ticks on every node
  bool answer_cache;   // cache_ttl = aggregation period, probe batching on
};

// Why these three: count_hot loads the query front end (parse, tree naming,
// admission, answer cache, batcher) and engine dispatch; select_reserve
// loads the 5-step protocol (anycast, onGet, reservation conflicts,
// cross-site traffic) under subscription churn and bypasses the cache;
// build_40k is dominated by setup and memory (static Pastry build, Scribe
// join drain, attribute posting) while the query layers idle.
constexpr std::array<Workload, 3> kWorkloads = {{
    {"count_hot", 1250, 12000.0, 10.0, false, false, true},
    {"select_reserve", 1250, 1000.0, 10.0, true, true, false},
    {"build_40k", 5000, 1000.0, 2.0, false, false, false},
}};

constexpr int kSelectK = 2;
constexpr double kWarmupSimS = 3.0;

/// The 23 EC2 instance types of §IV.A; Zipf rank r queries type r, so the
/// hottest queries hit the edge (scarcest) types of the Gaussian placement.
const std::vector<std::string>& instance_types() {
  static const std::vector<std::string> kTypes = {
      "t2.micro",   "t2.small",   "t2.medium",  "m3.medium",  "m3.large",  "m3.xlarge",
      "m3.2xlarge", "c3.large",   "c3.xlarge",  "c3.2xlarge", "c3.4xlarge", "c3.8xlarge",
      "g2.2xlarge", "r3.large",   "r3.xlarge",  "r3.2xlarge", "r3.4xlarge", "r3.8xlarge",
      "i2.xlarge",  "i2.2xlarge", "i2.4xlarge", "i2.8xlarge", "hs1.8xlarge"};
  return kTypes;
}

/// Gaussian-weighted type index ("the tree size follows a Gaussian
/// distribution", §IV.A).
std::size_t gaussian_type(util::Rng& rng) {
  const auto n = static_cast<double>(instance_types().size());
  for (;;) {
    const auto idx = static_cast<long>(rng.gaussian((n - 1.0) / 2.0, n / 5.0) + 0.5);
    if (idx >= 0 && idx < static_cast<long>(n)) return static_cast<std::size_t>(idx);
  }
}

/// The §IV.A onGet handler: only checks the password.
constexpr const char* kHandler = R"(
AA = {Password = "rbay"}
function onGet(caller, payload)
  if payload == AA.Password then return true end
  return nil
end)";
constexpr const char* kPassword = "rbay";

// --- god view and answer collection ----------------------------------------------

/// Static attributes of every node, captured after posting: what a correct
/// answer must agree with.
struct GodView {
  std::vector<net::SiteId> site;
  std::vector<std::size_t> type;
  std::vector<std::string> matlab;
  std::vector<std::vector<std::uint64_t>> count;  // [site][type] members
};

struct Answer {
  std::uint64_t seq = 0;
  bool satisfied = false;
  bool error = false;
  int attempts = 0;
  double count = 0.0;
  std::int64_t latency_us = 0;
  std::vector<std::size_t> nodes;
};

/// One per origin site.  Completion callbacks run on the origin's site
/// shard, concurrently with other sites, so nothing here is shared.
struct SiteCollector {
  std::vector<Answer> answers;
  std::uint64_t wrong = 0;
  std::string first_wrong;

  void flag(const std::string& what) {
    if (wrong++ == 0) first_wrong = what;
  }
};

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// --- one repetition ---------------------------------------------------------------

struct Counters {
  std::map<std::string, std::uint64_t> values;

  static Counters read(const obs::Registry* registry) {
    static const char* const kNames[] = {
        "net.messages_sent",  "net.bytes_sent",      "pastry.forwards",
        "scribe.agg_reports", "scribe.anycast_visits", "scribe.subscribes",
        "scribe.unsubscribes", "query.attempts",     "qplane.cache_hits",
        "qplane.cache_misses", "qplane.probe_walks"};
    Counters c;
    for (const char* name : kNames) {
      const auto* counter = registry == nullptr ? nullptr : registry->fed().find_counter(name);
      c.values[name] = counter == nullptr ? 0 : counter->value();
    }
    return c;
  }
};

struct Rep {
  bool traced = false;
  unsigned workers = 1;
  // wall clock (s)
  double setup_s = 0, populate_s = 0, post_s = 0, finalize_s = 0, warmup_s = 0;
  double build_static_s = 0;  // traced only: standalone overlay
  double query_wall_s = 0, query_cpu_s = 0;
  // sim time
  double query_sim_s = 0;
  std::uint64_t offered = 0, completed = 0, satisfied = 0, failed = 0;
  std::uint64_t events = 0;
  double p50_us = 0, p99_us = 0, mean_us = 0;
  std::uint64_t digest = 0;
  std::string first_wrong;
  // traced only
  Counters before, after;
  CallTimer parse, tree_id, execute_sql, on_get;
  std::uint64_t allocs_setup = 0, allocs_query = 0;
  std::size_t nodes = 0;
  double live_heap_kb_per_node = 0;
};

double live_heap_bytes() {
  const auto info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd);
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

core::ClusterConfig make_config(const Workload& w, std::uint64_t seed, unsigned workers,
                                bool traced) {
  core::ClusterConfig config;
  config.topology = net::Topology::ec2_eight_sites();
  config.seed = seed;
  config.engine = sim::EngineConfig{};
  config.engine.threads = workers;
  config.engine.shard_by_site = true;
  config.node.scribe.aggregation_interval = util::SimTime::millis(250);
  config.node.query.max_attempts = 4;
  if (w.answer_cache) {
    config.node.query.qplane.cache_ttl = config.node.scribe.aggregation_interval;
    config.node.query.qplane.batch_probes = true;
  }
  config.metrics = traced;
  return config;
}

/// Static Pastry build of a bare overlay with the workload's topology, size
/// and seed: the share of finalize() that belongs to the pastry layer.
double time_build_static(const Workload& w, std::uint64_t seed, unsigned workers) {
  const auto config = make_config(w, seed, workers, false);
  sim::Engine engine(seed, config.engine);
  pastry::Overlay overlay(engine, config.topology, config.pastry);
  overlay.populate(w.per_site);
  const auto start = Clock::now();
  overlay.build_static();
  return seconds_since(start);
}

Rep run_rep(const Workload& w, std::uint64_t seed, unsigned workers, bool traced) {
  Rep rep;
  rep.traced = traced;
  rep.workers = workers;
  if (traced) rep.build_static_s = time_build_static(w, seed, workers);
  perfbench::alloc::set_counting(traced);

  // ---- setup: construction to the end of warm-up
  const double heap0 = live_heap_bytes();
  const auto allocs0 = perfbench::alloc::count();
  const auto setup_start = Clock::now();
  auto cluster = std::make_unique<core::RBayCluster>(make_config(w, seed, workers, traced));
  const auto& types = instance_types();
  for (const auto& type : types) {
    cluster->add_tree_spec(core::TreeSpec::from_predicate(
        {"instance", query::CompareOp::Eq, store::AttributeValue{type}}));
  }
  cluster->add_tree_spec(core::TreeSpec::from_predicate(
      {"CPU_utilization", query::CompareOp::Less, store::AttributeValue{0.1}}));
  cluster->add_tree_spec(core::TreeSpec::from_predicate(
      {"GPU", query::CompareOp::Eq, store::AttributeValue{true}}));

  auto t = Clock::now();
  cluster->populate(w.per_site);
  rep.populate_s = seconds_since(t);

  const std::size_t n = cluster->size();
  rep.nodes = n;
  const std::size_t sites = cluster->config().topology.site_count();
  GodView god;
  god.site.resize(n);
  god.type.resize(n);
  god.matlab.resize(n);
  god.count.assign(sites, std::vector<std::uint64_t>(types.size(), 0));
  std::vector<double> cpu(n);
  t = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    auto& rng = cluster->engine().rng();
    auto& node = cluster->node(i);
    god.type[i] = gaussian_type(rng);
    cpu[i] = rng.uniform_double();
    const bool gpu = rng.chance(0.3);
    god.matlab[i] = rng.chance(0.5) ? "9.0" : "8.0";
    bool ok = node.post("instance", types[god.type[i]], kHandler).ok();
    ok = node.post("CPU_utilization", cpu[i]).ok() && ok;
    ok = node.post("GPU", gpu).ok() && ok;
    ok = node.post("Matlab", god.matlab[i]).ok() && ok;
    if (!ok) {
      std::fprintf(stderr, "perfbench: posting an attribute failed on node %zu\n", i);
      std::exit(1);
    }
  }
  rep.post_s = seconds_since(t);

  t = Clock::now();
  cluster->finalize();
  rep.finalize_s = seconds_since(t);
  if (w.monitors) {
    for (std::size_t i = 0; i < n; ++i) {
      cluster->node(i).enable_monitor(
          {{"CPU_utilization", monitor::RandomWalk{cpu[i], 0.0, 1.0, 0.05}}},
          util::SimTime::seconds(1));
    }
  }
  t = Clock::now();
  cluster->run_for(util::SimTime::seconds(kWarmupSimS));
  rep.warmup_s = seconds_since(t);
  rep.setup_s = seconds_since(setup_start);
  rep.allocs_setup = perfbench::alloc::count() - allocs0;
  rep.live_heap_kb_per_node = (live_heap_bytes() - heap0) / 1024.0 / static_cast<double>(n);

  // The god view reads back what the nodes hold, not what was posted
  // (instance and Matlab never change after posting).
  for (std::size_t i = 0; i < n; ++i) {
    const auto& node = cluster->node(i);
    const auto* instance = node.attributes().find("instance");
    const auto it = std::find(types.begin(), types.end(), instance->value().as_string());
    god.site[i] = node.site();
    god.type[i] = static_cast<std::size_t>(it - types.begin());
    god.matlab[i] = node.attributes().find("Matlab")->value().as_string();
    ++god.count[god.site[i]][god.type[i]];
  }

  // ---- query phase inputs: one origin per site, SQL precomputed per rank
  const auto& names = cluster->directory().site_names;
  std::vector<std::size_t> origins(sites);
  std::vector<std::vector<std::string>> sql(sites);
  std::vector<std::vector<net::SiteId>> second(sites);
  for (net::SiteId s = 0; s < sites; ++s) {
    origins[s] = cluster->nodes_in_site(s)[1];
    for (std::size_t r = 0; r < types.size(); ++r) {
      const auto other = static_cast<net::SiteId>((s + 1 + r % (sites - 1)) % sites);
      second[s].push_back(other);
      sql[s].push_back(w.select ? "SELECT " + std::to_string(kSelectK) + " FROM " + names[s] +
                                      ", " + names[other] + " WHERE instance = '" + types[r] +
                                      "' AND CPU_utilization < 0.95 AND Matlab != 'none' WITH \"" +
                                      kPassword + "\""
                                : "SELECT COUNT FROM " + names[s] + " WHERE instance = '" +
                                      types[r] + "'");
    }
  }

  std::vector<SiteCollector> collectors(sites);
  std::uint64_t next_seq = 0;
  core::RBayCluster& c = *cluster;
  const auto on_answer = [&c, &god, &w, &names, &second, &collectors](
                             net::SiteId s, std::size_t origin, std::size_t rank,
                             std::uint64_t seq, const core::QueryOutcome& o) {
    auto& col = collectors[s];
    Answer a;
    a.seq = seq;
    a.satisfied = o.satisfied;
    a.error = !o.error.empty();
    a.attempts = o.attempts;
    a.count = o.count;
    a.latency_us = o.latency().as_micros();
    const auto where = [&] { return names[s] + " rank " + std::to_string(rank); };
    if (a.error) col.flag("query error at " + where() + ": " + o.error);
    if (w.select) {
      if (o.satisfied) {
        for (const auto& cand : o.nodes) a.nodes.push_back(c.index_of(cand.node.id));
        auto sorted = a.nodes;
        std::sort(sorted.begin(), sorted.end());
        if (sorted.size() != static_cast<std::size_t>(kSelectK) ||
            std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
          col.flag("SELECT at " + where() + " returned " + std::to_string(sorted.size()) +
                   " nodes, not " + std::to_string(kSelectK) + " distinct");
        }
        for (const auto i : a.nodes) {
          if ((god.site[i] != s && god.site[i] != second[s][rank]) || god.type[i] != rank ||
              god.matlab[i] == "none") {
            col.flag("SELECT at " + where() + " returned non-matching node " +
                     std::to_string(i));
          }
        }
        c.node(origin).query().release(o);
      }
    } else if (!o.satisfied || a.count != static_cast<double>(god.count[s][rank])) {
      col.flag("COUNT at " + where() + (o.satisfied ? "" : " unsatisfied") + " = " +
               std::to_string(a.count) + ", god view " + std::to_string(god.count[s][rank]));
    }
    col.answers.push_back(std::move(a));
  };

  std::vector<std::unique_ptr<qplane::OpenLoopDriver>> drivers;
  for (net::SiteId s = 0; s < sites; ++s) {
    qplane::ArrivalShape shape;
    shape.rate_qps = w.rate_qps / static_cast<double>(sites);
    shape.zipf_skew = 1.0;
    drivers.push_back(std::make_unique<qplane::OpenLoopDriver>(
        c.engine(), shape, types.size(),
        [&c, &w, &rep, &sql, &names, &second, &next_seq, &on_answer, traced, s,
         origin = origins[s]](std::size_t rank) {
          const auto seq = next_seq++;
          const std::string& text = sql[s][rank];
          if (traced) {
            const auto parsed = rep.parse.time([&] { return query::parse_query(text); });
            if (!parsed.ok()) {
              std::fprintf(stderr, "perfbench: workload SQL does not parse: %s\n", text.c_str());
              std::exit(1);
            }
            for (const auto& pred : parsed.value().predicates) {
              const auto canonical = pred.canonical();
              rep.tree_id.time([&] { return core::site_topic(canonical, names[s]); });
              if (w.select) {
                rep.tree_id.time(
                    [&] { return core::site_topic(canonical, names[second[s][rank]]); });
              }
            }
          }
          auto callback = [&on_answer, s, origin, rank, seq](const core::QueryOutcome& o) {
            on_answer(s, origin, rank, seq, o);
          };
          if (traced) {
            rep.execute_sql.time(
                [&] { c.node(origin).query().execute_sql(text, std::move(callback)); });
          } else {
            c.node(origin).query().execute_sql(text, std::move(callback));
          }
        }));
  }

  // ---- query phase: arrivals over the horizon, then drain to quiescence
  rep.before = Counters::read(c.metrics());
  const auto events0 = c.engine().executed();
  const auto sim0 = c.engine().now();
  const auto allocs_q0 = perfbench::alloc::count();
  const double cpu0 = cpu_seconds();
  const auto query_start = Clock::now();
  for (auto& d : drivers) d->run(util::SimTime::seconds(w.query_sim_s));
  c.run_for(util::SimTime::seconds(w.query_sim_s));
  c.run();
  rep.query_wall_s = seconds_since(query_start);
  rep.query_cpu_s = cpu_seconds() - cpu0;
  rep.allocs_query = perfbench::alloc::count() - allocs_q0;
  rep.query_sim_s = (c.engine().now() - sim0).as_seconds();
  rep.events = c.engine().executed() - events0;
  rep.after = Counters::read(c.metrics());
  perfbench::alloc::set_counting(false);

  // ---- merge the per-site collectors and check what is left behind
  std::vector<Answer> answers;
  for (auto& col : collectors) {
    rep.failed += col.wrong;
    if (rep.first_wrong.empty()) rep.first_wrong = col.first_wrong;
    for (auto& a : col.answers) answers.push_back(std::move(a));
  }
  std::sort(answers.begin(), answers.end(),
            [](const Answer& a, const Answer& b) { return a.seq < b.seq; });
  rep.offered = next_seq;
  rep.completed = answers.size();
  if (rep.completed != rep.offered) {
    ++rep.failed;
    rep.first_wrong = std::to_string(rep.offered - rep.completed) + " queries never completed";
  }
  const auto now = c.engine().now();
  for (std::size_t i = 0; i < n; ++i) {
    auto& lock = c.node(i).lock();
    if (lock.reserved(now) || lock.committed(now)) {
      ++rep.failed;
      if (rep.first_wrong.empty()) {
        rep.first_wrong = "node " + std::to_string(i) + " still locked by " + lock.holder();
      }
    }
  }

  util::Samples latency_us;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& a : answers) {
    if (a.satisfied) {
      ++rep.satisfied;
      latency_us.add(static_cast<double>(a.latency_us));
    }
    h = fnv(h, a.seq);
    h = fnv(h, (a.satisfied ? 1U : 0U) | (a.error ? 2U : 0U));
    h = fnv(h, static_cast<std::uint64_t>(a.attempts));
    h = fnv(h, static_cast<std::uint64_t>(std::llround(a.count)));
    h = fnv(h, static_cast<std::uint64_t>(a.latency_us));
    for (const auto i : a.nodes) h = fnv(h, i);
  }
  rep.digest = h;
  if (!latency_us.empty()) {
    rep.p50_us = latency_us.percentile(50);
    rep.p99_us = latency_us.percentile(99);
    rep.mean_us = latency_us.mean();
  }

  if (traced) {
    // onGet with the workload's handler and payload, on a live attribute.
    auto* attr = c.node(origins[0]).attributes().find("instance");
    const auto caller = c.node(origins[1]).self().id.to_hex();
    for (int i = 0; i < 2000; ++i) {
      const auto result =
          rep.on_get.time([&] { return attr->on_get(caller, aal::Value::string(kPassword)); });
      if (!result.ok() || result.value().is_nil()) {
        std::fprintf(stderr, "perfbench: onGet denied the workload password\n");
        std::exit(1);
      }
    }
  }
  return rep;
}

// --- output -------------------------------------------------------------------

double status_kb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) return std::strtod(line.c_str() + std::strlen(key), nullptr);
  }
  return 0.0;
}

class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return raw(key, buf);
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    std::string quoted;
    obs::json::append_string(quoted, v);
    return raw(key, quoted);
  }
  JsonObject& raw(const std::string& key, const std::string& json) {
    comma_.next(out_);
    obs::json::append_key(out_, key);
    out_ += json;
    return *this;
  }
  [[nodiscard]] std::string done() const { return out_ + "}"; }

 private:
  std::string out_ = "{";
  obs::json::Comma comma_;
};

std::string call_summary(const CallTimer& timer) {
  std::vector<std::int64_t> ns = timer.self_ns();
  std::sort(ns.begin(), ns.end());
  double total = 0;
  double slow = 0;
  for (const auto x : ns) {
    total += static_cast<double>(x);
    if (x > 1'000'000) ++slow;
  }
  const double median =
      ns.empty() ? 0.0
                 : (ns.size() % 2 == 1 ? static_cast<double>(ns[ns.size() / 2])
                                       : (static_cast<double>(ns[ns.size() / 2 - 1]) +
                                          static_cast<double>(ns[ns.size() / 2])) /
                                             2.0);
  return JsonObject{}
      .num("calls", static_cast<double>(ns.size()))
      .num("median_ns", median)
      .num("total_ms", total / 1e6)
      .num("over_1ms", slow)
      .num("alloc_ms", static_cast<double>(timer.alloc_ns()) / 1e6)
      .done();
}

std::string to_json(const Workload& w, const Rep& r) {
  char digest[17];
  std::snprintf(digest, sizeof(digest), "%016llx", static_cast<unsigned long long>(r.digest));
  JsonObject o;
  o.str("workload", w.name)
      .num("traced", r.traced ? 1 : 0)
      .num("workers", r.workers)
      .str("compiler", std::string("g++ ") + __VERSION__)
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .num("nodes", static_cast<double>(r.nodes))
      .num("setup_s", r.setup_s)
      .num("populate_s", r.populate_s)
      .num("post_s", r.post_s)
      .num("finalize_s", r.finalize_s)
      .num("warmup_s", r.warmup_s)
      .num("build_static_s", r.build_static_s)
      .num("query_wall_s", r.query_wall_s)
      .num("query_cpu_s", r.query_cpu_s)
      .num("query_sim_s", r.query_sim_s)
      .num("offered", static_cast<double>(r.offered))
      .num("completed", static_cast<double>(r.completed))
      .num("satisfied", static_cast<double>(r.satisfied))
      .num("failed", static_cast<double>(r.failed))
      .str("first_wrong", r.first_wrong)
      .num("events", static_cast<double>(r.events))
      .num("p50_us", r.p50_us)
      .num("p99_us", r.p99_us)
      .num("mean_us", r.mean_us)
      .str("digest", digest)
      .num("peak_rss_mb", status_kb("VmHWM:") / 1024.0);
  if (r.traced) {
    JsonObject counters;
    for (const auto& [name, value] : r.after.values) {
      counters.num(name, static_cast<double>(value - r.before.values.at(name)));
    }
    o.raw("counters", counters.done())
        .raw("calls", JsonObject{}
                          .raw("query.parse", call_summary(r.parse))
                          .raw("query.tree_id", call_summary(r.tree_id))
                          .raw("core.execute_sql", call_summary(r.execute_sql))
                          .raw("aal.on_get", call_summary(r.on_get))
                          .done())
        .num("allocs_setup", static_cast<double>(r.allocs_setup))
        .num("allocs_query", static_cast<double>(r.allocs_query))
        .num("live_heap_kb_per_node", r.live_heap_kb_per_node);
  }
  return o.done();
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: rbay_perfbench --workload <count_hot|select_reserve|build_40k> "
               "--seed N --workers K --traced <0|1>\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  long workers = 0;
  int traced = -1;
  if (argc % 2 == 0) usage();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      for (const auto& w : kWorkloads) {
        if (std::strcmp(w.name, value) == 0) workload = &w;
      }
    } else if (key == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--workers") {
      workers = std::strtol(value, nullptr, 10);
    } else if (key == "--traced") {
      traced = std::atoi(value);
    } else {
      usage();
    }
  }
  if (workload == nullptr || workers < 1 || workers > 64 || (traced != 0 && traced != 1)) {
    usage();
  }
  const auto rep = run_rep(*workload, seed, static_cast<unsigned>(workers), traced == 1);
  std::printf("%s\n", to_json(*workload, rep).c_str());
  return 0;
}
