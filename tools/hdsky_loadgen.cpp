// hdsky_loadgen — drive thousands of concurrent pipelined discovery
// sessions against the event-driven hidden-database service and report
// latency percentiles plus the cross-session queries-deduped ratio.
//
// By default it is self-contained: it generates a synthetic dataset,
// starts an in-process EventDrivenServer on an ephemeral loopback port,
// and unleashes the LoadDriver on it. With --connect it targets an
// already-running server instead (the server must answer kStatsRequest
// for the dedup ratio to be reported).
//
//   hdsky_loadgen --sessions 1000 --queries 32 --json BENCH_service.json
//   hdsky_loadgen --connect 127.0.0.1:7447 --sessions 200
//
// Flags are listed by Usage() below. --probe pre-flights a single
// RemoteHiddenDatabase client before the load and reports its wire
// counters (handshake bytes, retries, backoff) to stderr.
//
// $HDSKY_SCALE (a float, default 1) multiplies --sessions and --queries,
// the same knob the bench suite uses, so CI can run a reduced-scale
// smoke of the exact same binary.
//
// Exit status: 0 when the run completed (all sessions served inside the
// deadline), 1 otherwise — CI treats a nonzero exit as a load failure.

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "net/socket.h"
#include "service/event_server.h"
#include "service/load_driver.h"
#include "session/stack.h"
#include "tools/cli.h"

namespace {

using namespace hdsky;

struct Args {
  int64_t sessions = 1000;
  int64_t queries = 32;
  int64_t pipeline = 8;
  int64_t loops = 0;
  int64_t server_loops = 0;
  int64_t workers = 0;
  int64_t n = 20000;
  int64_t m = 3;
  int64_t k = 10;
  bool shared_cache = true;
  int64_t max_pending = 1024;
  int64_t timeout_ms = 120000;
  int64_t seed = 42;
  std::string connect;
  bool probe = false;
  std::string json;
};

void Usage() {
  std::fprintf(
      stderr,
      "usage: hdsky_loadgen [options]\n"
      "  --sessions N        concurrent sessions (default 1000)\n"
      "  --queries Q         queries per session (default 32)\n"
      "  --pipeline D        pipelined queries per connection (default 8)\n"
      "  --loops L           client event loops (0 = auto)\n"
      "  --server-loops L    server event loops (0 = auto)\n"
      "  --workers W         server backend workers (0 = auto)\n"
      "  --n N               synthetic dataset size (default 20000)\n"
      "  --m M               synthetic attributes (default 3)\n"
      "  --k K               interface page size (default 10)\n"
      "  --no-shared-cache   disable the cross-session cache\n"
      "  --max-pending P     server admission limit (default 1024)\n"
      "  --timeout-ms T      whole-run deadline (default 120000)\n"
      "  --seed S            workload seed (default 42)\n"
      "  --connect HOST:PORT target an external server\n"
      "  --probe             pre-flight one client, report wire counters\n"
      "  --json PATH         write a google-benchmark-shaped JSON report\n");
}

bool ParseArgs(int argc, char** argv, Args* args) {
  tools::FlagReader r(argc, argv);
  while (r.Next()) {
    const std::string& flag = r.flag();
    if (r.Is("--connect", &args->connect) || r.Is("--json", &args->json)) {
      continue;
    }
    if (flag == "--sessions") {
      if (!r.Int(1, 1000000, &args->sessions)) return false;
    } else if (flag == "--queries") {
      if (!r.Int(1, 1000000, &args->queries)) return false;
    } else if (flag == "--pipeline") {
      if (!r.Int(1, 4096, &args->pipeline)) return false;
    } else if (flag == "--loops") {
      if (!r.Int(0, 256, &args->loops)) return false;
    } else if (flag == "--server-loops") {
      if (!r.Int(0, 256, &args->server_loops)) return false;
    } else if (flag == "--workers") {
      if (!r.Int(0, 256, &args->workers)) return false;
    } else if (flag == "--n") {
      if (!r.Int(1, INT64_MAX, &args->n)) return false;
    } else if (flag == "--m") {
      if (!r.Int(2, 64, &args->m)) return false;
    } else if (flag == "--k") {
      if (!r.Int(1, 1000000, &args->k)) return false;
    } else if (flag == "--no-shared-cache") {
      args->shared_cache = false;
    } else if (flag == "--max-pending") {
      if (!r.Int(0, 1000000, &args->max_pending)) return false;
    } else if (flag == "--timeout-ms") {
      if (!r.Int(1, INT64_MAX, &args->timeout_ms)) return false;
    } else if (flag == "--seed") {
      if (!r.Int(0, INT64_MAX, &args->seed)) return false;
    } else if (flag == "--probe") {
      args->probe = true;
    } else {
      return r.Unknown();
    }
  }
  return true;
}

/// $HDSKY_SCALE scales session/query counts with a floor of 1, mirroring
/// bench::Scale without dragging google-benchmark into a tool.
double ScaleFactor() {
  const char* env = std::getenv("HDSKY_SCALE");
  if (env == nullptr || *env == '\0') return 1.0;
  char* end = nullptr;
  const double v = std::strtod(env, &end);
  if (end == env || v <= 0.0) return 1.0;
  return v;
}

int64_t Scaled(int64_t n, double factor) {
  const int64_t s = static_cast<int64_t>(static_cast<double>(n) * factor);
  return s < 1 ? 1 : s;
}

void WriteJson(const std::string& path, const Args& args,
               const service::LoadReport& report) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s: %s\n", path.c_str(),
                 std::strerror(errno));
    return;
  }
  // google-benchmark report shape: counters are flat keys on each
  // benchmark entry, which is what scripts/compare_bench.py consumes.
  std::fprintf(f,
               "{\n"
               "  \"context\": {\n"
               "    \"executable\": \"hdsky_loadgen\",\n"
               "    \"caches\": []\n"
               "  },\n"
               "  \"benchmarks\": [\n"
               "    {\n"
               "      \"name\": \"loadgen/sessions:%" PRId64
               "/queries:%" PRId64 "\",\n"
               "      \"run_name\": \"loadgen/sessions:%" PRId64
               "/queries:%" PRId64 "\",\n"
               "      \"run_type\": \"iteration\",\n"
               "      \"repetitions\": 1,\n"
               "      \"repetition_index\": 0,\n"
               "      \"threads\": 1,\n"
               "      \"iterations\": 1,\n"
               "      \"real_time\": %.3f,\n"
               "      \"cpu_time\": %.3f,\n"
               "      \"time_unit\": \"ms\",\n"
               "      \"sessions\": %d,\n"
               "      \"sessions_failed\": %d,\n"
               "      \"queries_completed\": %" PRId64 ",\n"
               "      \"busy_retries\": %" PRId64 ",\n"
               "      \"qps\": %.1f,\n"
               "      \"p50_us\": %.1f,\n"
               "      \"p99_us\": %.1f,\n"
               "      \"mean_us\": %.1f,\n"
               "      \"backend_executions\": %" PRId64 ",\n"
               "      \"dedup_ratio\": %.6f\n"
               "    }\n"
               "  ]\n"
               "}\n",
               args.sessions, args.queries, args.sessions, args.queries,
               report.elapsed_ms, report.elapsed_ms,
               report.sessions_completed, report.sessions_failed,
               report.queries_completed, report.busy_retries, report.qps,
               report.latency_p50_us, report.latency_p99_us,
               report.latency_mean_us,
               report.server_stats_valid ? report.server.backend_executions
                                         : -1,
               report.dedup_ratio);
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 64;
  }
  const double scale = ScaleFactor();
  args.sessions = Scaled(args.sessions, scale);
  args.queries = Scaled(args.queries, scale);

  // In-process server unless --connect points elsewhere.
  session::Engine engine;
  std::unique_ptr<service::EventDrivenServer> server;
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  if (args.connect.empty()) {
    dataset::SyntheticOptions synth;
    synth.num_tuples = args.n;
    synth.num_attributes = static_cast<int>(args.m);
    synth.seed = static_cast<uint64_t>(args.seed);
    if (auto failed = engine.OpenSynthetic(synth)) {
      std::fprintf(stderr, "dataset: %s\n",
                   failed->status.ToString().c_str());
      return 1;
    }
    session::SourceConfig topk;
    topk.k = args.k;
    if (auto failed = engine.Build(topk)) return tools::Exit(*failed);

    service::EventDrivenServer::Options opts;
    opts.num_loops = static_cast<int>(args.server_loops);
    opts.num_workers = static_cast<int>(args.workers);
    opts.max_connections = static_cast<int>(args.sessions) + 16;
    opts.shared_cache = args.shared_cache;
    opts.max_pending_queries = static_cast<int>(args.max_pending);
    auto server_result =
        service::EventDrivenServer::Start(engine.iface.get(), opts);
    if (!server_result.ok()) {
      std::fprintf(stderr, "serve: %s\n",
                   server_result.status().ToString().c_str());
      return 1;
    }
    server = std::move(server_result).value();
    port = server->port();
  } else {
    auto parse = net::ParseHostPort(args.connect, &host, &port);
    if (!parse.ok()) {
      std::fprintf(stderr, "--connect: %s\n", parse.ToString().c_str());
      return 64;
    }
  }

  if (args.probe) {
    // A single real client ahead of the storm: proves the server answers
    // the full handshake and surfaces the wire cost of connecting (the
    // per-connection counters every RemoteHiddenDatabase now keeps).
    session::StackConfig config;
    config.endpoint = host + ":" + std::to_string(port);
    session::Stack probe(config);
    if (auto failed = probe.Connect({}, nullptr)) {
      std::fprintf(stderr, "probe    : %s%s\n",
                   failed->status.ToString().c_str(),
                   failed->status.IsUnavailable()
                       ? " (server shedding load)"
                       : "");
      return 1;
    }
    const service::RemoteHiddenDatabase::Stats& ps = probe.remote->stats();
    std::fprintf(stderr,
                 "probe    : %s k=%d, handshake %" PRId64 " B out / %"
                 PRId64 " B in, %" PRId64 " retries, %" PRId64
                 " ms backoff\n",
                 probe.remote->schema().ToString().c_str(),
                 probe.remote->k(), ps.bytes_sent, ps.bytes_received,
                 ps.retries, ps.backoff_ms);
  }

  service::LoadOptions load;
  load.host = host;
  load.port = port;
  load.sessions = static_cast<int>(args.sessions);
  load.queries_per_session = static_cast<int>(args.queries);
  load.pipeline_depth = static_cast<int>(args.pipeline);
  load.num_loops = static_cast<int>(args.loops);
  load.total_timeout_ms = static_cast<int>(args.timeout_ms);
  load.workload_seed = static_cast<uint64_t>(args.seed);
  auto run = service::RunLoad(load);
  if (!run.ok()) {
    std::fprintf(stderr, "load: %s\n", run.status().ToString().c_str());
    return 1;
  }
  const service::LoadReport report = std::move(run).value();
  if (server != nullptr) server->Stop();

  std::fprintf(stderr,
               "sessions : %d completed, %d failed (of %" PRId64 ")\n",
               report.sessions_completed, report.sessions_failed,
               args.sessions);
  std::fprintf(stderr,
               "queries  : %" PRId64 " answered in %.1f ms (%.0f qps, "
               "%" PRId64 " busy retries)\n",
               report.queries_completed, report.elapsed_ms, report.qps,
               report.busy_retries);
  std::fprintf(stderr, "latency  : p50 %.0f us, p99 %.0f us, mean %.0f us\n",
               report.latency_p50_us, report.latency_p99_us,
               report.latency_mean_us);
  if (report.server_stats_valid) {
    std::fprintf(stderr,
                 "dedup    : %.4f (%" PRId64 " backend executions for "
                 "%" PRId64 " served; %" PRId64 " cache hits, %" PRId64
                 " single-flight joins)\n",
                 report.dedup_ratio, report.server.backend_executions,
                 report.server.queries_served, report.server.cache_hits,
                 report.server.singleflight_joins);
  } else {
    std::fprintf(stderr, "dedup    : server stats unavailable\n");
  }

  if (!args.json.empty()) WriteJson(args.json, args, report);

  if (!report.complete) {
    std::fprintf(stderr, "load run incomplete%s\n",
                 report.sessions_failed > 0 ? " (sessions failed)"
                                            : " (timed out)");
    return 1;
  }
  return 0;
}
