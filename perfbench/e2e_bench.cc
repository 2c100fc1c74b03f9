// End-to-end discovery-session benchmark.
//
// Runs discovery sessions (one SqDbSky / RqDbSky / PqDbSky / MqDbSky call
// with its own base filter) through the library's public stack, assembled
// from outside the way hdsky_discover assembles it, and prints one JSON
// result line. Every session's skyline is checked against the local
// ground truth and its query cost against an in-process reference run.
//
//   hdsky_e2e_bench --workload local|remote|paged --seed N
//                   --seconds S --trace 0|1 --work-dir DIR
//                   [--scale F] [--spans-out FILE] [--commit C]
//                   [--corrupt-skyline]
//
// Workloads (closed loops: a client starts its next session only after
// its last one returned; at most 4 threads in total, server included):
//   local    in process over the in-memory engine, 1 client. The session
//            list: RQ-DB-SKY over Blue Nile (one session per shape),
//            MQ-DB-SKY over the flights generator (one per carrier),
//            SQ-DB-SKY over a synthetic SQ table, PQ-DB-SKY over a
//            synthetic PQ table. core and interface do all the work.
//   remote   the same list over loopback against an EventDrivenServer
//            (1 loop, 1 worker, shared cache on); two clients each run the
//            whole list, so the shared cache answers about half of the
//            served queries. The round trip dominates.
//   paged    the Blue Nile sessions in process over a packed format-v2
//            .hdb on the pread path, buffer pool capped at 1/8 of the
//            logical data bytes. The data layer is nearly all the time.
//
// A run sets up the deployment several times (setup_s is the median) and
// keeps the last one, computes ground truth and reference costs, then
// repeats whole passes over the session list until --seconds have
// elapsed. With --trace 0 every pass is untraced and the end-to-end
// metrics are printed, each timing from the run's best pass. With
// --trace 1 untraced and traced passes alternate; the traced passes
// record spans at every layer boundary (trace.h) and the per-layer
// metrics are printed, normalised per pass.
// Remote workloads restart the server between groups of sessions so that
// every pass starts with a cold shared cache; those restarts are not
// timed.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/discovery.h"
#include "core/mq_db_sky.h"
#include "core/pq_db_sky.h"
#include "core/rq_db_sky.h"
#include "core/sq_db_sky.h"
#include "data/block_file.h"
#include "data/paged_table.h"
#include "data/table.h"
#include "dataset/blue_nile.h"
#include "dataset/flights_on_time.h"
#include "dataset/pack.h"
#include "dataset/synthetic.h"
#include "interface/ranking.h"
#include "interface/top_k_interface.h"
#include "service/event_server.h"
#include "service/remote_database.h"
#include "skyline/compute.h"
#include "trace.h"

#ifndef HDSKY_BENCH_BUILD_TYPE
#define HDSKY_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef HDSKY_BENCH_COMPILER
#define HDSKY_BENCH_COMPILER "unknown"
#endif

namespace hdsky {
namespace perfbench {
namespace {

namespace fs = std::filesystem;
using interface::HiddenDatabase;
using interface::Query;

enum class Workload { kLocal, kRemote, kPaged };
enum class Algo { kSq, kRq, kPq, kMq };

struct Config {
  Workload workload = Workload::kLocal;
  std::string workload_name;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Multiplies every generated table size; the self-tests run at 0.05.
  double scale = 1.0;
  std::string work_dir;
  std::string spans_out;
  std::string commit = "unknown";
  /// Self-test hook: drops one tuple from the first session's skyline
  /// before it is checked, so the correctness gate must fire.
  bool corrupt_skyline = false;
};

// ---------------------------------------------------------------------------
// Inputs. Every table is generated from the run's seed; the sizes are the
// benchmark's, chosen so that one pass takes a fraction of a run.

constexpr int64_t kBlueNileRows = 10000;
constexpr int kBlueNileShapes = 10;
constexpr int64_t kFlightsRows = 20000;
constexpr int kFlightsCarriers = 8;
constexpr int64_t kSqRows = 20000;
constexpr int64_t kPqRows = 3000;
constexpr int kSetupRepeats = 31;
/// Page size of every interface; every source ranks by attribute sum.
constexpr int kK = 10;

struct SourceSpec {
  std::string name;
  std::function<common::Result<data::Table>(uint64_t seed, double scale)>
      generate;
};

int64_t ScaledRows(int64_t n, double scale) {
  return std::max<int64_t>(50, static_cast<int64_t>(
                                   static_cast<double>(n) * scale));
}

SourceSpec BlueNileSpec() {
  return {"bluenile",
          [](uint64_t seed, double scale) {
            dataset::BlueNileOptions o;
            o.num_tuples = ScaledRows(kBlueNileRows, scale);
            o.seed = seed;
            return dataset::GenerateBlueNile(o);
          }};
}

SourceSpec FlightsSpec() {
  return {"flights",
          [](uint64_t seed, double scale) -> common::Result<data::Table> {
            dataset::FlightsOptions o;
            o.num_tuples = ScaledRows(kFlightsRows, scale);
            o.seed = seed;
            HDSKY_ASSIGN_OR_RETURN(data::Table full,
                                   dataset::GenerateFlightsOnTime(o));
            // 3 range + 1 point ranking attributes and the Carrier filter
            // the sessions split on. With this mix MQ-DB-SKY runs both of
            // its phases, and its cost varies little from seed to seed.
            using A = dataset::FlightsAttrs;
            const int carrier = full.schema().num_attributes() - 2;
            return full.Project({A::kDepDelay, A::kTaxiOut,
                                 A::kActualElapsed, A::kDistanceGroup,
                                 carrier});
          }};
}

SourceSpec SqSpec() {
  return {"synthetic-sq",
          [](uint64_t seed, double scale) {
            dataset::SyntheticOptions o;
            o.num_tuples = ScaledRows(kSqRows, scale);
            o.num_attributes = 3;
            o.domain_size = 10000;
            o.distribution = dataset::Distribution::kIndependent;
            o.iface = data::InterfaceType::kSQ;
            o.seed = seed;
            return dataset::GenerateSynthetic(o);
          }};
}

SourceSpec PqSpec() {
  return {"synthetic-pq",
          [](uint64_t seed, double scale) {
            dataset::SyntheticOptions o;
            o.num_tuples = ScaledRows(kPqRows, scale);
            o.num_attributes = 3;
            o.domain_size = 30;
            o.distribution = dataset::Distribution::kAntiCorrelated;
            o.iface = data::InterfaceType::kPQ;
            o.seed = seed;
            return dataset::GenerateSynthetic(o);
          }};
}

/// One generated table with its engine and, for remote workloads, the
/// server currently fronting it.
struct Source {
  SourceSpec spec;
  data::Table table;
  std::unique_ptr<interface::TopKInterface> memory;  // in-memory engine
  std::unique_ptr<data::PagedTable> paged;
  std::unique_ptr<interface::TopKInterface> paged_engine;
  std::unique_ptr<service::EventDrivenServer> server;

  interface::TopKInterface* engine() const {
    return paged_engine != nullptr ? paged_engine.get() : memory.get();
  }
};

struct Session {
  Algo algo = Algo::kRq;
  size_t source = 0;
  Query filter;
  std::string label;
  std::vector<data::Tuple> truth;  // distinct skyline values
  int64_t ref_cost = 0;
};

/// Component times of one set-up, in seconds.
struct SetupTimes {
  double generate = 0, build = 0, pack = 0, open = 0, start = 0;
  double total() const { return generate + build + pack + open + start; }
};

struct Deployment {
  std::vector<Source> sources;
  std::vector<Session> sessions;
};

/// Builds the in-memory engine over s->table, which must stay in place.
common::Status MakeEngine(Source* s) {
  interface::TopKOptions topk;
  topk.k = kK;
  HDSKY_ASSIGN_OR_RETURN(s->memory,
                         interface::TopKInterface::Create(
                             &s->table, interface::MakeSumRanking(), topk));
  return common::Status::OK();
}

service::EventDrivenServer::Options ServerOptions() {
  service::EventDrivenServer::Options o;
  o.num_loops = 1;
  o.num_workers = 1;
  o.shared_cache = true;
  return o;
}

/// Generates every table, builds the engines, packs and opens the paged
/// file, and starts (then stops) each server, timing every step.
common::Result<Deployment> SetUp(const Config& cfg, SetupTimes* times) {
  std::vector<SourceSpec> specs = {BlueNileSpec()};
  if (cfg.workload == Workload::kLocal || cfg.workload == Workload::kRemote) {
    specs.push_back(FlightsSpec());
    specs.push_back(SqSpec());
    specs.push_back(PqSpec());
  }
  Deployment d;
  // Engines point into their source's table: no reallocation after this.
  d.sources.reserve(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    Source& s = d.sources.emplace_back();
    s.spec = specs[i];
    int64_t t = NowNs();
    HDSKY_ASSIGN_OR_RETURN(s.table, s.spec.generate(cfg.seed + i, cfg.scale));
    times->generate += (NowNs() - t) * 1e-9;
    if (cfg.workload == Workload::kPaged) {
      const std::string path = cfg.work_dir + "/" + s.spec.name + ".hdb";
      data::BlockFileOptions bopts;
      bopts.rows_per_block = 1024;
      bopts.compression = data::Compression::kAuto;
      t = NowNs();
      HDSKY_RETURN_IF_ERROR(
          dataset::PackTable(s.table, interface::MakeSumRanking(), path,
                             bopts)
              .status());
      times->pack += (NowNs() - t) * 1e-9;
      t = NowNs();
      data::PagedTableOptions popts;
      // Logical data bytes: (attributes + id) * 8 per row.
      popts.buffer_pool_bytes = static_cast<size_t>(
          s.table.num_rows() * (s.table.schema().num_attributes() + 1) *
          static_cast<int64_t>(sizeof(data::Value)) / 8);
      popts.read_path = data::ReadPathKind::kPread;
      HDSKY_ASSIGN_OR_RETURN(s.paged, data::PagedTable::Open(path, popts));
      times->open += (NowNs() - t) * 1e-9;
      t = NowNs();
      interface::TopKOptions topk;
      topk.k = kK;
      HDSKY_ASSIGN_OR_RETURN(
          s.paged_engine,
          interface::TopKInterface::CreatePaged(s.paged.get(), topk));
      times->build += (NowNs() - t) * 1e-9;
    } else {
      t = NowNs();
      HDSKY_RETURN_IF_ERROR(MakeEngine(&s));
      times->build += (NowNs() - t) * 1e-9;
    }
    if (cfg.workload == Workload::kRemote) {
      t = NowNs();
      HDSKY_ASSIGN_OR_RETURN(
          s.server,
          service::EventDrivenServer::Start(s.engine(), ServerOptions()));
      times->start += (NowNs() - t) * 1e-9;
      // Passes start a fresh server per group (cold shared cache), and
      // only one server runs at a time to stay within the thread budget.
      s.server->Stop();
      s.server.reset();
    }
  }
  return d;
}

/// The session list: every workload runs the Blue Nile RQ sessions; the
/// local and remote workloads add the MQ, SQ and PQ groups.
void AddSessions(Deployment* d) {
  for (int shape = 0; shape < kBlueNileShapes; ++shape) {
    Session s;
    s.algo = Algo::kRq;
    s.source = 0;
    s.filter = Query(d->sources[0].table.schema().num_attributes());
    s.filter.AddEquals(dataset::BlueNileAttrs::kShape, shape);
    s.label = "rq/bluenile/shape=" + std::to_string(shape);
    d->sessions.push_back(std::move(s));
  }
  if (d->sources.size() == 1) return;
  const int flights_attrs = d->sources[1].table.schema().num_attributes();
  for (int c = 0; c < kFlightsCarriers; ++c) {
    Session s;
    s.algo = Algo::kMq;
    s.source = 1;
    s.filter = Query(flights_attrs);
    s.filter.AddEquals(flights_attrs - 1, c);
    s.label = "mq/flights/carrier=" + std::to_string(c);
    d->sessions.push_back(std::move(s));
  }
  for (int64_t bound : {9999, 7499, 4999, 2499}) {
    Session s;
    s.algo = Algo::kSq;
    s.source = 2;
    s.filter = Query(3);
    s.filter.AddAtMost(0, bound);
    s.label = "sq/synthetic/A0<=" + std::to_string(bound);
    d->sessions.push_back(std::move(s));
  }
  // PQ-DB-SKY puts point predicates on every ranking attribute and the
  // table has no filtering attribute: one unfiltered session.
  Session pq;
  pq.algo = Algo::kPq;
  pq.source = 3;
  pq.filter = Query(d->sources[3].table.schema().num_attributes());
  pq.label = "pq/synthetic";
  d->sessions.push_back(std::move(pq));
}

common::Result<core::DiscoveryResult> RunAlgo(Algo algo, HiddenDatabase* db,
                                              const Query& filter) {
  switch (algo) {
    case Algo::kSq: {
      core::SqDbSkyOptions o;
      o.common.base_filter = filter;
      return core::SqDbSky(db, o);
    }
    case Algo::kRq: {
      core::RqDbSkyOptions o;
      o.common.base_filter = filter;
      return core::RqDbSky(db, o);
    }
    case Algo::kPq: {
      core::PqDbSkyOptions o;
      o.common.base_filter = filter;
      return core::PqDbSky(db, o);
    }
    case Algo::kMq: {
      core::MqDbSkyOptions o;
      o.common.base_filter = filter;
      return core::MqDbSky(db, o);
    }
  }
  return common::Status::Internal("unknown algorithm");
}

/// Distinct ranking-value combinations, sorted: the granularity at which
/// a top-k interface can reveal a skyline.
std::vector<data::Tuple> DiscoveredValues(const core::DiscoveryResult& r,
                                          const data::Schema& schema) {
  std::vector<data::Tuple> values;
  values.reserve(r.skyline.size());
  for (const data::Tuple& t : r.skyline) {
    data::Tuple v;
    for (int attr : schema.ranking_attributes()) {
      v.push_back(t[static_cast<size_t>(attr)]);
    }
    values.push_back(std::move(v));
  }
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return values;
}

/// Ground truth (skyline of the base-filtered table) and the in-process
/// reference cost of every session. The reference runs over a plain
/// in-memory engine; for the paged workload that engine is built here,
/// outside the timed set-up, and freed afterwards together with the rows
/// of the in-memory table, so that the paged run holds only its pool.
common::Status PrepareReference(Deployment* d) {
  for (Source& s : d->sources) {
    if (s.memory == nullptr) HDSKY_RETURN_IF_ERROR(MakeEngine(&s));
  }
  for (Session& session : d->sessions) {
    const Source& src = d->sources[session.source];
    const data::Table stratum = src.table.FilterRows(
        [&](data::TupleId r) { return session.filter.MatchesRow(src.table, r); });
    session.truth = skyline::DistinctSkylineValues(stratum);
    auto ref_run = RunAlgo(session.algo, src.memory.get(), session.filter);
    if (!ref_run.ok()) {
      return common::Status::Internal("reference run of " + session.label +
                                      ": " + ref_run.status().ToString());
    }
    const core::DiscoveryResult& ref = *ref_run;
    if (!ref.complete ||
        DiscoveredValues(ref, src.table.schema()) != session.truth) {
      return common::Status::Internal("reference run of " + session.label +
                                      " does not match the ground truth");
    }
    session.ref_cost = ref.query_cost;
    std::fprintf(stderr, "session %-28s skyline %5zu  query_cost %6lld\n",
                 session.label.c_str(), session.truth.size(),
                 static_cast<long long>(session.ref_cost));
  }
  for (Source& s : d->sources) {
    if (s.paged_engine == nullptr) continue;
    s.memory.reset();
    s.table = data::Table(s.table.schema());
  }
  return common::Status::OK();
}

// ---------------------------------------------------------------------------
// Passes.

constexpr const char* kSessionRoot = "core.session";

/// Name and layer of the span around the algorithm's calls into the top
/// of the stack.
std::pair<const char*, Layer> TopBoundary(Workload w) {
  switch (w) {
    case Workload::kLocal: return {"interface.execute", Layer::kInterface};
    case Workload::kPaged: return {"data.execute", Layer::kData};
    case Workload::kRemote: return {"service.execute", Layer::kService};
  }
  return {"", Layer::kCore};
}

/// What one client thread observed during one group of sessions.
struct ClientLog {
  SpanRecorder recorder;
  int64_t paid = 0;
  int64_t sessions = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;
  // service
  int64_t remote_queries = 0, retries = 0, wire_bytes = 0;
};

/// q-quantile of the sorted `v`, interpolated between closest ranks.
double SortedQuantile(const std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  return SortedQuantile(v, q);
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

class Runner {
 public:
  Runner(const Config& cfg, Deployment* d) : cfg_(cfg), d_(d) {}

  /// Timings and latency samples of one pass (all groups, all clients).
  struct Pass {
    double wall_s = 0;          // wall clock of the timed groups
    double session_wall_s = 0;  // summed over every client's sessions
    double cpu_s = 0;
    int64_t paid = 0, sessions = 0, failed = 0;
    std::vector<double> query_us;
    /// Queries client 0 paid for each source's sessions.
    std::vector<int64_t> cost_by_source;
  };

  /// Per-layer observations summed over every traced pass.
  struct LayerTotals {
    int passes = 0;
    double session_wall_s = 0;
    std::array<double, kNumLayers> self_s{};
    std::vector<double> interface_us, rtt_us;
    int64_t remote_queries = 0, retries = 0, wire_bytes = 0;
    int64_t served = 0, cache_answers = 0, backend_executions = 0;
    int64_t busy_rejections = 0;
    interface::AccessStats access{};
    data::BufferPool::Stats pool{};
    std::vector<Span> spans;  // the first traced pass, for the span dump
  };

  common::Result<Pass> RunPass(bool traced, int pass_index) {
    Pass pass;
    const interface::AccessStats access0 = AccessTotals();
    const data::BufferPool::Stats pool0 = PoolTotals();
    for (size_t g = 0; g < d_->sources.size(); ++g) {
      HDSKY_RETURN_IF_ERROR(RunGroup(g, traced, pass_index, &pass));
    }
    if (traced) {
      ++layers_.passes;
      layers_.session_wall_s += pass.session_wall_s;
      const interface::AccessStats a = AccessTotals();
      layers_.access.queries_issued += a.queries_issued - access0.queries_issued;
      layers_.access.tuples_returned +=
          a.tuples_returned - access0.tuples_returned;
      layers_.access.overflowed_queries +=
          a.overflowed_queries - access0.overflowed_queries;
      const data::BufferPool::Stats p = PoolTotals();
      layers_.pool.hits += p.hits - pool0.hits;
      layers_.pool.misses += p.misses - pool0.misses;
      layers_.pool.loads += p.loads - pool0.loads;
      layers_.pool.evictions += p.evictions - pool0.evictions;
      layers_.pool.prefetch_loads += p.prefetch_loads - pool0.prefetch_loads;
      layers_.pool.prefetch_hits += p.prefetch_hits - pool0.prefetch_hits;
      layers_.pool.bytes_read += p.bytes_read - pool0.bytes_read;
    }
    return pass;
  }

  const LayerTotals& layers() const { return layers_; }

 private:
  interface::AccessStats AccessTotals() const {
    interface::AccessStats t;
    for (const Source& s : d_->sources) {
      const interface::AccessStats a = s.engine()->stats();
      t.queries_issued += a.queries_issued;
      t.tuples_returned += a.tuples_returned;
      t.overflowed_queries += a.overflowed_queries;
    }
    return t;
  }

  data::BufferPool::Stats PoolTotals() const {
    data::BufferPool::Stats t;
    for (const Source& s : d_->sources) {
      if (s.paged == nullptr) continue;
      const data::BufferPool::Stats p = s.paged->pool_stats();
      t.hits += p.hits;
      t.misses += p.misses;
      t.loads += p.loads;
      t.evictions += p.evictions;
      t.prefetch_loads += p.prefetch_loads;
      t.prefetch_hits += p.prefetch_hits;
      t.bytes_read += p.bytes_read;
    }
    return t;
  }

  /// Runs every session of source `g` on each client, timed as a group.
  common::Status RunGroup(size_t g, bool traced, int pass_index,
                          Pass* pass) {
    Source& src = d_->sources[g];
    DetachedSink backend_spans;
    std::unique_ptr<TimedDatabase> timed_backend;
    if (cfg_.workload == Workload::kRemote) {
      HiddenDatabase* backend = src.engine();
      if (traced) {
        timed_backend = std::make_unique<TimedDatabase>(
            backend, "interface.execute", Layer::kInterface, &backend_spans);
        backend = timed_backend.get();
      }
      HDSKY_ASSIGN_OR_RETURN(
          src.server, service::EventDrivenServer::Start(backend,
                                                        ServerOptions()));
    }
    const int clients = cfg_.workload == Workload::kRemote ? 2 : 1;
    std::vector<ClientLog> logs(static_cast<size_t>(clients));
    rusage ru0{};
    getrusage(RUSAGE_SELF, &ru0);
    const int64_t t0 = NowNs();
    {
      std::vector<std::jthread> others;
      for (int c = 1; c < clients; ++c) {
        others.emplace_back([&, c] {
          RunClient(g, pass_index, c, &logs[static_cast<size_t>(c)]);
        });
      }
      RunClient(g, pass_index, 0, &logs[0]);
    }
    const int64_t t1 = NowNs();
    rusage ru1{};
    getrusage(RUSAGE_SELF, &ru1);
    if (src.server != nullptr) {
      const service::EventDrivenServer::Stats st = src.server->stats();
      src.server->Stop();
      src.server.reset();
      if (traced) {
        layers_.served += st.queries_served;
        layers_.cache_answers += st.cache_hits + st.singleflight_joins;
        layers_.backend_executions += st.backend_executions;
        layers_.busy_rejections += st.busy_rejections;
      }
    }
    pass->wall_s += (t1 - t0) * 1e-9;
    pass->cpu_s += CpuSeconds(ru1) - CpuSeconds(ru0);

    pass->cost_by_source.push_back(logs[0].paid);

    const char* top = TopBoundary(cfg_.workload).first;
    // Spans of the first traced pass are kept for the span dump.
    const bool dump = traced && layers_.passes == 0;
    double backend_busy = 0;
    for (const Span& s : backend_spans.Take()) {
      const double us = (s.end_ns - s.start_ns) * 1e-3;
      backend_busy += us * 1e-6;
      layers_.interface_us.push_back(us);
      if (dump) layers_.spans.push_back(s);
    }
    for (size_t c = 0; c < logs.size(); ++c) {
      ClientLog& log = logs[c];
      pass->paid += log.paid;
      pass->sessions += log.sessions;
      pass->failed += log.failed;
      for (const std::string& e : log.errors) {
        std::fprintf(stderr, "FAIL %s\n", e.c_str());
      }
      const std::vector<Span>& spans = log.recorder.spans();
      for (const Span& s : spans) {
        if (s.parent < 0) {
          if (std::strcmp(s.name, kSessionRoot) == 0) {
            pass->session_wall_s += (s.end_ns - s.start_ns) * 1e-9;
          }
          continue;
        }
        const Span& p = spans[static_cast<size_t>(s.parent)];
        const double us = (s.end_ns - s.start_ns) * 1e-3;
        const bool query = p.parent < 0 && std::strcmp(s.name, top) == 0;
        if (query && std::strcmp(p.name, kSessionRoot) == 0) {
          pass->query_us.push_back(us);
        }
        if (!traced) continue;
        if (std::strcmp(s.name, "service.execute") == 0) {
          layers_.rtt_us.push_back(us);
        } else if (std::strcmp(s.name, "interface.execute") == 0) {
          layers_.interface_us.push_back(us);
        }
      }
      if (traced) {
        const std::array<double, kNumLayers> self =
            SelfTimeByLayer(spans, kSessionRoot);
        for (size_t l = 0; l < kNumLayers; ++l) layers_.self_s[l] += self[l];
        layers_.remote_queries += log.remote_queries;
        layers_.retries += log.retries;
        layers_.wire_bytes += log.wire_bytes;
        if (dump) {
          // Parent indices become indices into the dump.
          const int32_t base = static_cast<int32_t>(layers_.spans.size());
          for (Span s : spans) {
            if (s.parent >= 0) s.parent += base;
            layers_.spans.push_back(s);
          }
        }
      }
    }
    if (traced) {
      // Server-side backend time is spent while some client waits in the
      // service layer: move it from service to interface.
      layers_.self_s[static_cast<size_t>(Layer::kService)] -= backend_busy;
      layers_.self_s[static_cast<size_t>(Layer::kInterface)] += backend_busy;
    }
    return common::Status::OK();
  }

  static double CpuSeconds(const rusage& ru) {
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
               1e-6;
  }

  void RunClient(size_t g, int pass_index, int client, ClientLog* log) {
    ScopedRecorder install(&log->recorder);
    for (size_t i = 0; i < d_->sessions.size(); ++i) {
      if (d_->sessions[i].source != g) continue;
      const uint64_t id = (static_cast<uint64_t>(pass_index) << 16) |
                          (static_cast<uint64_t>(client) << 12) | i;
      RunSession(d_->sessions[i], id, log);
    }
  }

  void Fail(ClientLog* log, const Session& s, const std::string& why) {
    ++log->failed;
    if (log->errors.size() < 8) log->errors.push_back(s.label + ": " + why);
  }

  /// One discovery session through the workload's stack, checked.
  void RunSession(const Session& session, uint64_t id, ClientLog* log) {
    Source& src = d_->sources[session.source];
    const auto [top_name, top_layer] = TopBoundary(cfg_.workload);
    ++log->sessions;
    log->recorder.BeginSession(id);
    std::optional<common::Result<core::DiscoveryResult>> result;
    std::unique_ptr<service::RemoteHiddenDatabase> remote;
    common::Status status;
    {
      // The session's wall time is the duration of this root span.
      ScopedSpan root(kSessionRoot, Layer::kCore);
      HiddenDatabase* below = src.engine();
      if (cfg_.workload == Workload::kRemote) {
        ScopedSpan connect("service.connect", Layer::kService);
        auto r = service::RemoteHiddenDatabase::Connect(
            "127.0.0.1", src.server->port(),
            service::RemoteHiddenDatabase::Options());
        if (!r.ok()) {
          status = r.status();
        } else {
          remote = std::move(r).value();
          below = remote.get();
        }
      }
      if (status.ok()) {
        TimedDatabase timed(below, top_name, top_layer);
        result = RunAlgo(session.algo, &timed, session.filter);
      }
    }

    if (!status.ok()) {
      Fail(log, session, status.ToString());
    } else if (!result->ok()) {
      Fail(log, session, result->status().ToString());
    } else {
      core::DiscoveryResult& r = result->value();
      log->paid += r.query_cost;
      if (cfg_.corrupt_skyline && id == 0 && !r.skyline.empty()) {
        r.skyline.pop_back();
      }
      if (!r.complete) {
        Fail(log, session, "incomplete result");
      } else if (DiscoveredValues(r, src.table.schema()) != session.truth) {
        Fail(log, session, "skyline differs from the ground truth");
      } else if (r.query_cost != session.ref_cost) {
        Fail(log, session,
             "query_cost " + std::to_string(r.query_cost) +
                 " != in-process reference " +
                 std::to_string(session.ref_cost));
      }
    }
    if (remote != nullptr) {
      const auto& rs = remote->stats();
      log->remote_queries += rs.remote_queries;
      log->retries += rs.retries;
      log->wire_bytes += rs.bytes_sent + rs.bytes_received;
    }
  }

  const Config& cfg_;
  Deployment* d_;
  LayerTotals layers_;
};

// ---------------------------------------------------------------------------
// Reporting.


struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  char buf[128];
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return;
  out << "name\tparent\ttrace_id\tstart_ns\tend_ns\n";
  for (const Span& s : spans) {
    out << s.name << '\t' << s.parent << '\t' << s.trace_id << '\t'
        << s.start_ns << '\t' << s.end_ns << '\n';
  }
}

/// Resets the process's peak resident set size (VmHWM) to its current one.
bool ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool written = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && written;
}

/// Peak resident set size since the last ResetPeakRss, in MB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // reported in kB
    }
  }
  return 0;
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "hdsky_e2e_bench: %s\nusage: hdsky_e2e_bench --workload "
               "local|remote|paged --seed N --seconds S --trace 0|1 "
               "--work-dir DIR [--scale F] [--spans-out FILE] [--commit C] "
               "[--corrupt-skyline]\n",
               msg);
  return 64;
}

int Main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-skyline") {
      cfg.corrupt_skyline = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      cfg.workload_name = value;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      cfg.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      cfg.trace = value == "1";
    } else if (flag == "--scale") {
      cfg.scale = std::atof(value.c_str());
    } else if (flag == "--work-dir") {
      cfg.work_dir = value;
    } else if (flag == "--spans-out") {
      cfg.spans_out = value;
    } else if (flag == "--commit") {
      cfg.commit = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  static const std::map<std::string, Workload> kWorkloads = {
      {"local", Workload::kLocal},
      {"remote", Workload::kRemote},
      {"paged", Workload::kPaged}};
  const auto w = kWorkloads.find(cfg.workload_name);
  if (w == kWorkloads.end()) return Usage("unknown --workload");
  cfg.workload = w->second;
  if (cfg.work_dir.empty()) return Usage("--work-dir is required");
  if (!(cfg.seconds > 0) || !(cfg.scale > 0 && cfg.scale <= 1)) {
    return Usage("--seconds must be > 0 and --scale in (0, 1]");
  }
  std::error_code ec;
  fs::create_directories(cfg.work_dir, ec);
  if (ec) return Usage(("cannot create --work-dir: " + ec.message()).c_str());

  // kSetupRepeats set-ups back to back, each freeing its predecessor
  // first; setup_s is their median and the last one is measured.
  std::vector<SetupTimes> setups;
  Deployment d;
  for (int i = 0; i < kSetupRepeats; ++i) {
    d = Deployment();
    SetupTimes t;
    auto setup = SetUp(cfg, &t);
    if (!setup.ok()) {
      std::fprintf(stderr, "setup: %s\n", setup.status().ToString().c_str());
      return 1;
    }
    d = std::move(setup).value();
    setups.push_back(t);
  }
  AddSessions(&d);
  const common::Status ref = PrepareReference(&d);
  if (!ref.ok()) {
    std::fprintf(stderr, "reference: %s\n", ref.ToString().c_str());
    return 1;
  }
  // peak_rss_mb is the peak of the passes over the ready deployment, not
  // of the set-ups and reference runs before them.
  malloc_trim(0);
  if (!ResetPeakRss()) {
    std::fprintf(stderr, "cannot reset the peak RSS (/proc/self/clear_refs)\n");
    return 1;
  }

  // Whole passes until the next one would end after --seconds; at least
  // one pass, and with --trace 1 at least one untraced and one traced.
  Runner runner(cfg, &d);
  // End-to-end timings of every untraced pass; every pass does the same
  // work.
  std::vector<double> rate, cpu, session_mean, query_p50, query_p90;
  int64_t attempted = 0, failed = 0, samples = 0;
  double untraced_wall = 0;  // session wall summed over untraced passes
  std::vector<int64_t> cost_by_source;  // measured in the first pass
  const int64_t start = NowNs();
  for (int index = 0;; ++index) {
    const bool traced = cfg.trace && index % 2 == 1;
    const int64_t pass_start = NowNs();
    auto pass = runner.RunPass(traced, index);
    if (!pass.ok()) {
      std::fprintf(stderr, "pass: %s\n", pass.status().ToString().c_str());
      return 1;
    }
    if (index == 0) cost_by_source = pass->cost_by_source;
    attempted += pass->sessions;
    failed += pass->failed;
    if (!traced) {
      const double paid = static_cast<double>(pass->paid);
      untraced_wall += pass->session_wall_s;
      rate.push_back(Ratio(paid, pass->wall_s));
      cpu.push_back(Ratio(pass->cpu_s * 1e6, paid));
      session_mean.push_back(Ratio(pass->session_wall_s,
                                   static_cast<double>(pass->sessions)));
      std::sort(pass->query_us.begin(), pass->query_us.end());
      query_p50.push_back(SortedQuantile(pass->query_us, 0.5));
      query_p90.push_back(SortedQuantile(pass->query_us, 0.9));
      samples += static_cast<int64_t>(pass->query_us.size());
    }
    const double elapsed = (2 * NowNs() - pass_start - start) * 1e-9;
    if (elapsed > cfg.seconds && index + 1 >= (cfg.trace ? 2 : 1)) break;
  }
  const int untraced = static_cast<int>(rate.size());

  // Run description; the per-source query costs, as measured through this
  // workload's stack, let runs of different workloads be compared session
  // group by session group.
  std::string costs;
  int64_t query_cost = 0;
  for (size_t i = 0; i < d.sources.size(); ++i) {
    query_cost += cost_by_source[i];
    costs += (i ? ", \"" : "\"") + d.sources[i].spec.name +
             "\": " + std::to_string(cost_by_source[i]);
  }
  std::printf(
      "{\"run_info\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": "
      "%g, \"trace\": %d, \"scale\": %g, \"nproc\": %u, \"build_type\": "
      "\"%s\", \"compiler\": \"%s\", \"commit\": \"%s\", "
      "\"query_cost_by_source\": {%s}}}\n",
      cfg.workload_name.c_str(), static_cast<unsigned long long>(cfg.seed),
      cfg.seconds, cfg.trace ? 1 : 0, cfg.scale,
      std::thread::hardware_concurrency(), HDSKY_BENCH_BUILD_TYPE,
      HDSKY_BENCH_COMPILER, JsonEscape(cfg.commit).c_str(), costs.c_str());

  const bool correct = failed == 0;
  std::vector<Metric> metrics;
  auto setup_median = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& t : setups) v.push_back(t.*field);
    return Median(v);
  };

  if (!cfg.trace) {
    // Load from outside the benchmark only ever slows a pass down, on a
    // shared machine by a third and more for stretches of many seconds.
    // Each timing is therefore taken from the best pass of the run: the
    // lowest time, the highest rate.
    std::vector<double> setup_totals;
    for (const SetupTimes& t : setups) setup_totals.push_back(t.total());
    metrics = {
        {"query_cost", static_cast<double>(query_cost), "count"},
        {"queries_per_s", Quantile(rate, 1), "1/s"},
        {"session_s_mean", Quantile(session_mean, 0), "s"},
        {"query_us_p50", Quantile(query_p50, 0), "us"},
        {"query_us_p90", Quantile(query_p90, 0), "us"},
        {"cpu_us_per_query", Quantile(cpu, 0), "us"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
        {"setup_s", Median(setup_totals), "s"},
        {"sessions_ok_frac",
         Ratio(static_cast<double>(attempted - failed),
               static_cast<double>(attempted)),
         "fraction"},
    };
    std::fprintf(stderr,
                 "%s seed=%llu: %d passes, %lld sessions, "
                 "%lld latency samples\n",
                 cfg.workload_name.c_str(),
                 static_cast<unsigned long long>(cfg.seed), untraced,
                 static_cast<long long>(attempted),
                 static_cast<long long>(samples));
  } else {
    untraced_wall /= untraced;  // mean session wall of an untraced pass
    const Runner::LayerTotals& t = runner.layers();
    if (!cfg.spans_out.empty()) WriteSpans(cfg.spans_out, t.spans);
    const double n = t.passes;
    const double queries = static_cast<double>(t.access.queries_issued);
    auto self = [&](Layer l) { return t.self_s[static_cast<size_t>(l)]; };
    // The decomposition must account for the traced session wall, and no
    // layer may come out negative (the server-side backend time must fit
    // inside the client-side service time that waited for it).
    const double self_sum =
        std::accumulate(t.self_s.begin(), t.self_s.end(), 0.0);
    bool consistent =
        std::abs(self_sum - t.session_wall_s) <= 1e-6 * t.session_wall_s;
    for (double s : t.self_s) consistent &= s >= -1e-3 * t.session_wall_s;
    if (!consistent) {
      std::fprintf(stderr, "trace: layer self times are inconsistent\n");
      return 1;
    }
    const double pool_pins =
        static_cast<double>(t.pool.hits + t.pool.misses);
    metrics = {
        {"core.self_s", self(Layer::kCore) / n, "s"},
        {"core.self_share", Ratio(self(Layer::kCore), t.session_wall_s),
         "fraction"},
        {"interface.busy_s", self(Layer::kInterface) / n, "s"},
        {"interface.execute_us_p50", Median(t.interface_us), "us"},
        {"interface.tuples_per_query",
         Ratio(static_cast<double>(t.access.tuples_returned), queries),
         "count"},
        {"interface.overflow_frac",
         Ratio(static_cast<double>(t.access.overflowed_queries), queries),
         "fraction"},
        {"data.busy_s", self(Layer::kData) / n, "s"},
        {"data.pool_hit_ratio",
         Ratio(static_cast<double>(t.pool.hits), pool_pins), "fraction"},
        {"data.loads_per_query",
         Ratio(static_cast<double>(t.pool.loads), queries), "count"},
        {"data.bytes_read_per_query",
         Ratio(static_cast<double>(t.pool.bytes_read), queries), "B"},
        {"data.evictions", static_cast<double>(t.pool.evictions) / n,
         "count"},
        {"data.prefetch_hit_ratio",
         Ratio(static_cast<double>(t.pool.prefetch_hits),
               static_cast<double>(t.pool.prefetch_loads)),
         "fraction"},
        {"service.rtt_us_p50", Quantile(t.rtt_us, 0.5), "us"},
        {"service.rtt_us_p99", Quantile(t.rtt_us, 0.99), "us"},
        {"service.wire_self_s", self(Layer::kService) / n, "s"},
        {"service.bytes_per_query",
         Ratio(static_cast<double>(t.wire_bytes),
               static_cast<double>(t.remote_queries)),
         "B"},
        {"service.cache_answer_ratio",
         Ratio(static_cast<double>(t.cache_answers),
               static_cast<double>(t.served)),
         "fraction"},
        {"service.backend_executions",
         static_cast<double>(t.backend_executions) / n, "count"},
        {"service.retries", static_cast<double>(t.retries) / n, "count"},
        {"service.busy_rejections",
         static_cast<double>(t.busy_rejections) / n, "count"},
        {"dataset.generate_s", setup_median(&SetupTimes::generate), "s"},
        {"dataset.pack_s", setup_median(&SetupTimes::pack), "s"},
        {"interface.build_s", setup_median(&SetupTimes::build), "s"},
        {"data.open_s", setup_median(&SetupTimes::open), "s"},
        {"service.start_s", setup_median(&SetupTimes::start), "s"},
        {"trace.session_wall_s", untraced_wall, "s"},
        {"trace.overhead_frac", (t.session_wall_s / n) / untraced_wall - 1.0,
         "fraction"},
    };
  }
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-28s %14.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  PrintResult(correct, attempted, failed, metrics);
  fs::remove_all(cfg.work_dir, ec);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace hdsky

int main(int argc, char** argv) { return hdsky::perfbench::Main(argc, argv); }
