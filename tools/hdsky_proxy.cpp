// hdsky_proxy — a deterministic adversarial network in front of a
// hdsky_serve instance.
//
// Wraps service::FaultInjectingProxy as a standalone process so smoke
// tests (and curious humans) can put frame drops, truncations, spurious
// rate limits, and delays between any client and any server — including
// one backend of a federation, which is exactly how the CI federation
// smoke exercises degraded-backend behaviour.
//
//   hdsky_proxy --upstream 127.0.0.1:7447 --drop 0.05 --rate-limit 0.1
//
// Flags are listed by Usage() below. --blackout-after N with
// --blackout-queries M is a deterministic kill/revive schedule: client
// queries with arrival index [N, N+M) (counted across connections,
// retries included) kill the connection as if the backend died, and the
// proxy recovers afterwards.
//
// Prints exactly one "listening on ADDR:PORT" line to stdout once ready
// (the same contract as hdsky_serve, so scripts parse both the same
// way), then proxies until SIGINT/SIGTERM, finally printing fault
// statistics to stderr.

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "net/socket.h"
#include "service/fault_proxy.h"
#include "tools/cli.h"

namespace {

using namespace hdsky;

struct Args {
  std::string upstream;
  int64_t port = 0;
  std::string bind = "127.0.0.1";
  uint64_t seed = 1;
  double drop = 0.0;
  double truncate = 0.0;
  double rate_limit = 0.0;
  double delay = 0.0;
  int64_t delay_ms = 20;
  int64_t blackout_after = -1;
  int64_t blackout_queries = 0;
  int64_t io_timeout_ms = 30000;
};

void Usage() {
  std::fprintf(
      stderr,
      "usage: hdsky_proxy --upstream HOST:PORT [options]\n"
      "  --port P            TCP port, 0 = ephemeral (default 0)\n"
      "  --bind ADDR         IPv4 bind address (default 127.0.0.1)\n"
      "  --seed S            fault-decision seed (default 1)\n"
      "  --drop P            frame drop probability [0,1]\n"
      "  --truncate P        frame truncation probability [0,1]\n"
      "  --rate-limit P      spurious BUSY probability [0,1]\n"
      "  --delay P           frame delay probability [0,1]\n"
      "  --delay-ms MS       delay length (default 20)\n"
      "  --blackout-after N  kill queries [N, N+M) then recover; -1 "
      "disables\n"
      "  --blackout-queries M\n"
      "                      blackout window length (default 0)\n"
      "  --io-timeout-ms MS  per-connection I/O backstop (default "
      "30000)\n");
}

/// Strict probability parse: a float in [0, 1].
bool ParseProb(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s.c_str(), &end);
  if (errno != 0 || end == s.c_str() || *end != '\0') return false;
  if (!(v >= 0.0 && v <= 1.0)) return false;
  *out = v;
  return true;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  tools::FlagReader r(argc, argv);
  while (r.Next()) {
    const std::string& flag = r.flag();
    auto prob_flag = [&](double* dst) {
      std::string value;
      if (!r.Value(&value) || !ParseProb(value, dst)) {
        std::fprintf(stderr, "invalid probability for %s\n", flag.c_str());
        return false;
      }
      return true;
    };
    if (r.Is("--upstream", &args->upstream) || r.Is("--bind", &args->bind)) {
      continue;
    }
    if (flag == "--port") {
      if (!r.Int(0, 65535, &args->port)) return false;
    } else if (flag == "--seed") {
      if (!r.Seed(&args->seed)) return false;
    } else if (flag == "--drop") {
      if (!prob_flag(&args->drop)) return false;
    } else if (flag == "--truncate") {
      if (!prob_flag(&args->truncate)) return false;
    } else if (flag == "--rate-limit") {
      if (!prob_flag(&args->rate_limit)) return false;
    } else if (flag == "--delay") {
      if (!prob_flag(&args->delay)) return false;
    } else if (flag == "--delay-ms") {
      if (!r.Int(0, 60000, &args->delay_ms)) return false;
    } else if (flag == "--blackout-after") {
      if (!r.Int(-1, INT64_MAX, &args->blackout_after)) return false;
    } else if (flag == "--blackout-queries") {
      if (!r.Int(0, INT64_MAX, &args->blackout_queries)) return false;
    } else if (flag == "--io-timeout-ms") {
      if (!r.Int(1, INT64_MAX, &args->io_timeout_ms)) return false;
    } else {
      return r.Unknown();
    }
  }
  if (args->upstream.empty()) {
    std::fprintf(stderr, "--upstream is required\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 64;
  }

  std::string upstream_host;
  uint16_t upstream_port = 0;
  const common::Status parsed =
      net::ParseHostPort(args.upstream, &upstream_host, &upstream_port);
  if (!parsed.ok()) {
    std::fprintf(stderr, "upstream: %s\n", parsed.ToString().c_str());
    return 64;
  }

  service::FaultInjectingProxy::Policy policy;
  policy.seed = args.seed;
  policy.drop_prob = args.drop;
  policy.truncate_prob = args.truncate;
  policy.rate_limit_prob = args.rate_limit;
  policy.delay_prob = args.delay;
  policy.delay_ms = static_cast<int>(args.delay_ms);
  policy.blackout_after_queries = args.blackout_after;
  policy.blackout_queries = args.blackout_queries;

  service::FaultInjectingProxy::Options options;
  options.bind_address = args.bind;
  options.port = static_cast<uint16_t>(args.port);
  options.io_timeout_ms = static_cast<int>(args.io_timeout_ms);

  auto proxy_result = service::FaultInjectingProxy::Start(
      upstream_host, upstream_port, policy, options);
  if (!proxy_result.ok()) {
    std::fprintf(stderr, "proxy: %s\n",
                 proxy_result.status().ToString().c_str());
    return 1;
  }
  auto proxy = std::move(proxy_result).value();

  std::fprintf(stderr,
               "upstream: %s (drop %.3f, truncate %.3f, rate-limit %.3f, "
               "delay %.3f x %lld ms, seed %llu)\n",
               args.upstream.c_str(), args.drop, args.truncate,
               args.rate_limit, args.delay,
               static_cast<long long>(args.delay_ms),
               static_cast<unsigned long long>(args.seed));
  std::printf("listening on %s:%u\n", args.bind.c_str(), proxy->port());
  std::fflush(stdout);

  tools::WaitForSignal();

  proxy->Stop();
  const service::FaultInjectingProxy::Stats stats = proxy->stats();
  std::fprintf(stderr,
               "proxied : %lld connections, %lld frames forwarded "
               "(%lld dropped, %lld truncated, %lld rate-limited, %lld "
               "delayed, %lld blacked out)\n",
               static_cast<long long>(stats.connections),
               static_cast<long long>(stats.frames_forwarded),
               static_cast<long long>(stats.frames_dropped),
               static_cast<long long>(stats.frames_truncated),
               static_cast<long long>(stats.rate_limits_injected),
               static_cast<long long>(stats.delays_injected),
               static_cast<long long>(stats.queries_blacked_out));
  return 0;
}
