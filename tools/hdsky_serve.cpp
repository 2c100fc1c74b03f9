// hdsky_serve — expose a hidden database over the hdsky wire protocol.
//
// Loads a dataset (CSV or one of the built-in simulators), wraps it in a
// TopKInterface with the chosen ranking/page-size/budget, and serves it on
// a TCP port so hdsky_discover --connect (or any RemoteHiddenDatabase
// client) can run discovery against a genuinely remote interface.
//
//   hdsky_serve --demo bluenile --n 100000 --k 50 --port 7447
//   hdsky_serve --data listings.csv --k 10 --port 0        # ephemeral port
//   hdsky_serve --demo flights --client-budget 500         # per-session cap
//
// Flags are listed by Usage() below, printed with every usage error. A
// packed --dataset-file is served out of core through the buffer pool;
// its rank order was fixed at pack time, so --ranking, --n and --seed are
// rejected with it.
//
// Prints exactly one "listening on ADDR:PORT" line to stdout once ready
// (scripts parse it to learn an ephemeral port), then serves until
// SIGINT/SIGTERM, finally printing access statistics to stderr.

#include <cstdio>
#include <memory>
#include <string>

#include "service/event_server.h"
#include "session/engine.h"
#include "tools/cli.h"

namespace {

using namespace hdsky;

struct Args {
  session::SourceConfig source;
  int64_t client_budget = 0;
  int64_t port = 0;
  std::string bind = "127.0.0.1";
  int64_t max_connections = 4096;
  int64_t loops = 0;
  int64_t workers = 0;
  bool shared_cache = true;
  int64_t max_pending = 1024;
  int64_t idle_timeout_ms = 60000;
};

void Usage() {
  std::fprintf(
      stderr,
      "usage: hdsky_serve (--data PATH | --demo NAME | --dataset-file "
      "FILE) [options]\n"
      "  --demo NAME          flights | bluenile | autos | route\n"
      "  --dataset-file FILE  packed block file (hdsky_pack); serves "
      "out-of-core\n"
      "  --buffer-pool-bytes N\n"
      "                       resident budget for --dataset-file "
      "(default 256 MiB)\n"
      "  --read-path P        mmap | pread page fetch for --dataset-file "
      "(default mmap)\n"
      "  --readahead-pages N  pread readahead depth, 0 disables "
      "(default 8)\n"
      "  --n N                demo dataset size\n"
      "  --k K                interface page size (default 10)\n"
      "  --ranking R          sum | lex:<attr_name>\n"
      "  --budget B           backend query budget (0 = unlimited)\n"
      "  --client-budget B    per-client-session budget (0 = unlimited)\n"
      "  --seed S             demo generator seed\n"
      "  --port P             TCP port, 0 = ephemeral (default 0)\n"
      "  --bind ADDR          IPv4 bind address (default 127.0.0.1)\n"
      "  --max-connections C  concurrent connections (default 4096)\n"
      "  --loops L            event-loop threads (0 = auto)\n"
      "  --workers W          backend workers (0 = auto)\n"
      "  --no-shared-cache    disable the cross-session query cache\n"
      "  --max-pending P      backend admission limit (default 1024)\n"
      "  --idle-timeout-ms T  idle eviction, 0 = never (default 60000)\n");
}

bool ParseArgs(int argc, char** argv, Args* args) {
  tools::FlagReader r(argc, argv);
  while (r.Next()) {
    const std::string& flag = r.flag();
    const tools::FlagMatch source = tools::ReadSourceFlag(&r, &args->source);
    if (source == tools::FlagMatch::kInvalid) return false;
    if (source == tools::FlagMatch::kRead || r.Is("--bind", &args->bind)) {
      continue;
    }
    if (flag == "--client-budget") {
      if (!r.Int(0, INT64_MAX, &args->client_budget)) return false;
    } else if (flag == "--port") {
      if (!r.Int(0, 65535, &args->port)) return false;
    } else if (flag == "--max-connections") {
      if (!r.Int(1, 65536, &args->max_connections)) return false;
    } else if (flag == "--loops") {
      if (!r.Int(0, 256, &args->loops)) return false;
    } else if (flag == "--workers") {
      if (!r.Int(0, 256, &args->workers)) return false;
    } else if (flag == "--no-shared-cache") {
      args->shared_cache = false;
    } else if (flag == "--max-pending") {
      if (!r.Int(0, 1000000, &args->max_pending)) return false;
    } else if (flag == "--idle-timeout-ms") {
      if (!r.Int(0, INT64_MAX, &args->idle_timeout_ms)) return false;
    } else {
      return r.Unknown();
    }
  }
  return tools::ValidateSource(r, args->source, nullptr, {});
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 64;
  }

  session::Engine engine;
  if (auto failed = engine.OpenData(args.source, stderr)) {
    return tools::Exit(*failed);
  }
  if (auto failed = engine.Build(args.source)) return tools::Exit(*failed);

  // TopKInterface with a static-order ranking is thread-safe (see
  // docs/concurrency.md); both built-in rankings qualify, so connections
  // may hit the backend concurrently.
  service::EventDrivenServer::Options server_options;
  server_options.bind_address = args.bind;
  server_options.port = static_cast<uint16_t>(args.port);
  server_options.max_connections = static_cast<int>(args.max_connections);
  server_options.per_client_query_budget = args.client_budget;
  server_options.num_loops = static_cast<int>(args.loops);
  server_options.num_workers = static_cast<int>(args.workers);
  server_options.shared_cache = args.shared_cache;
  server_options.max_pending_queries = static_cast<int>(args.max_pending);
  server_options.idle_timeout_ms = static_cast<int>(args.idle_timeout_ms);
  auto server_result =
      service::EventDrivenServer::Start(engine.iface.get(), server_options);
  if (!server_result.ok()) {
    std::fprintf(stderr, "serve: %s\n",
                 server_result.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<service::EventDrivenServer> server =
      std::move(server_result).value();

  std::fputs(engine.Describe(/*read_path=*/false).c_str(), stderr);
  std::printf("listening on %s:%u\n", args.bind.c_str(), server->port());
  std::fflush(stdout);

  tools::WaitForSignal();

  server->Stop();
  const service::EventDrivenServer::Stats stats = server->stats();
  std::fprintf(stderr,
               "served  : %lld queries (%lld replayed, %lld budget "
               "rejections, %lld busy) over %lld connections "
               "(%lld rejected, %lld shed)\n",
               static_cast<long long>(stats.queries_served),
               static_cast<long long>(stats.queries_replayed),
               static_cast<long long>(stats.budget_rejections),
               static_cast<long long>(stats.busy_rejections),
               static_cast<long long>(stats.connections_accepted),
               static_cast<long long>(stats.connections_rejected),
               static_cast<long long>(stats.connections_shed));
  std::fprintf(stderr,
               "cache   : %lld hits, %lld single-flight joins, %lld "
               "backend executions\n",
               static_cast<long long>(stats.cache_hits),
               static_cast<long long>(stats.singleflight_joins),
               static_cast<long long>(stats.backend_executions));
  const interface::AccessStats access = engine.iface->stats();
  std::fprintf(stderr, "backend : %lld queries issued, %lld tuples returned\n",
               static_cast<long long>(access.queries_issued),
               static_cast<long long>(access.tuples_returned));
  if (engine.paged) {
    std::fputs(session::PoolReport(*engine.paged).c_str(), stderr);
  }
  return 0;
}
