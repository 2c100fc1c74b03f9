// hdsky_discover — command-line skyline / sky-band discovery.
//
// Runs the paper's algorithms against a dataset loaded from a
// self-describing CSV (see dataset/csv.h), one of the built-in
// simulators, or a remote hdsky_serve instance. Prints a summary and
// optionally writes the discovered tuples as CSV.
//
//   hdsky_discover --data listings.csv --algorithm mq --k 50
//   hdsky_discover --demo bluenile --k 50 --out skyline.csv
//   hdsky_discover --demo flights --n 100000 --algorithm rq --budget 500
//   hdsky_discover --demo autos --band 2
//   hdsky_discover --connect 127.0.0.1:7447 --algorithm sq --cache
//   hdsky_discover --connect h1:7447,h2:7447,h3:7447 --federate union
//
// Flags are listed by Usage() below, printed with every usage error.
// What its one-line summaries leave out:
//   --dataset-file      discovery runs out of core through the buffer
//                       pool; ranking and order are baked into the file,
//                       so the local-generation flags are rejected
//   --connect A,B,...   more than one endpoint requires --federate, which
//                       drives sq/rq only (src/federation)
//   --probe-attempts N  re-probes a transiently failed (DEGRADED) backend
//                       gets before it is declared DEAD and dropped (0
//                       drops on the first failure); --probe-backoff is
//                       the base wait in rounds, doubled per failed probe
//   --federation-json   gated in CI by scripts/compare_bench.py
//   --dump-data         exports a local source's dataset and exits (the
//                       smokes build their ground truth with it)
//   --journal DIR       re-running with the same DIR resumes a crashed or
//                       interrupted run with zero re-charged queries
//                       (docs/robustness.md); under --federate DIR holds
//                       one journal per backend plus the coordinator's
//                       round-barrier state (docs/federation.md)
//   --crash-point SPEC  testing only; see src/recovery/crash_point.h
//
// The remote interface's page size, ranking, and budget are fixed by the
// server, so --k/--ranking/--budget (and the local-generation flags) are
// rejected alongside --connect instead of being silently ignored. Under
// --federate, --budget and --threads come back: they configure the
// federation coordinator (total query budget, fan-out workers), not the
// remote interfaces.
//
// Exit codes: 0 success (including anytime-partial results), 64 usage,
// 69 (EX_UNAVAILABLE) the backend is unreachable right now but nothing
// is broken — the server is shedding load, or a durable session being
// RESUMED cannot reach a backend it must replay against (retry later;
// the journal keeps every paid answer) — and 1 for everything else
// (protocol failure, bad data, I/O).
//
// SIGINT/SIGTERM interrupt the discovery cooperatively: the run unwinds
// as an anytime partial result, the journal (if any) takes a final
// checkpoint, and the partial skyline/outputs are still written.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common/fs_util.h"
#include "dataset/csv.h"
#include "federation/federated_discovery.h"
#include "net/socket.h"
#include "recovery/crash_point.h"
#include "recovery/federation_state.h"
#include "runtime/parallel_for.h"
#include "runtime/thread_pool.h"
#include "session/stack.h"
#include "tools/cli.h"

namespace {

using namespace hdsky;

struct Args {
  session::SourceConfig source;
  /// Journal, cache and algorithm; the endpoint is set per site.
  session::StackConfig stack;
  std::string connect;
  std::vector<std::string> connects;  // --connect split on commas
  std::string federate;               // "" | "union" | "join"
  std::string join_attr;
  int64_t round_budget = 0;
  int64_t probe_attempts = 3;
  int64_t probe_backoff = 2;
  std::string federation_json;
  std::string dump_data;
  std::string trace;
  std::string crash_point;
  std::string out;
  int64_t trials = 1;
  int64_t threads = 0;  // 0 = take $HDSKY_THREADS
};

void Usage() {
  std::fprintf(
      stderr,
      "usage: hdsky_discover (--data PATH | --demo NAME | --dataset-file "
      "FILE | --connect HOST:PORT[,...]) [options]\n"
      "  --demo NAME         flights | bluenile | autos | route\n"
      "  --dataset-file FILE packed block file (hdsky_pack); runs "
      "out-of-core\n"
      "  --buffer-pool-bytes N\n"
      "                      resident budget for --dataset-file (default "
      "256 MiB)\n"
      "  --read-path P       mmap | pread page fetch for --dataset-file "
      "(default mmap)\n"
      "  --readahead-pages N pread readahead depth, 0 disables (default "
      "8)\n"
      "  --connect HOST:PORT[,HOST:PORT...]\n"
      "                      discover against remote hdsky_serve(s)\n"
      "  --federate MODE     union | join over every --connect endpoint\n"
      "  --join-attr NAME    entity key for --federate join\n"
      "  --round-budget N    paid queries per federation round (0 = "
      "auto)\n"
      "  --probe-attempts N  re-probes before a failed backend is "
      "dropped (default 3)\n"
      "  --probe-backoff N   rounds before the first re-probe "
      "(default 2)\n"
      "  --federation-json PATH  write the federation benchmark JSON\n"
      "  --dump-data PATH    write the local dataset as CSV and exit\n"
      "  --n N               demo dataset size\n"
      "  --algorithm A       auto | sq | rq | pq | mq | baseline\n"
      "  --k K               interface page size (default 10)\n"
      "  --ranking R         sum | lex:<attr_name>\n"
      "  --budget B          query budget (0 = unlimited)\n"
      "  --band H            discover the top-H sky band (RQ/PQ)\n"
      "  --cache             stack a concurrent query cache\n"
      "  --cache-file PATH   persist the cache across runs (implies "
      "--cache)\n"
      "  --journal DIR       durable session: journal + checkpoints; "
      "rerun to resume\n"
      "  --sync-every N      journal group-fsync interval (default 1)\n"
      "  --checkpoint-every N  paid queries between checkpoints "
      "(default 256)\n"
      "  --trace PATH        write the anytime progress trace as CSV\n"
      "  --crash-point SPEC  die at a named recovery boundary (testing)\n"
      "  --out PATH          write discovered tuples as CSV\n"
      "  --seed S            demo generator seed\n"
      "  --trials T          independent trials, seeds S..S+T-1 (--demo)\n"
      "  --threads W         workers for --trials (default "
      "$HDSKY_THREADS)\n");
}

bool ParseArgs(int argc, char** argv, Args* args) {
  tools::FlagReader r(argc, argv);
  while (r.Next()) {
    const std::string& flag = r.flag();
    const tools::FlagMatch source = tools::ReadSourceFlag(&r, &args->source);
    if (source == tools::FlagMatch::kInvalid) return false;
    if (source == tools::FlagMatch::kRead ||
        r.Is("--join-attr", &args->join_attr) ||
        r.Is("--federation-json", &args->federation_json) ||
        r.Is("--dump-data", &args->dump_data) ||
        r.Is("--algorithm", &args->stack.algorithm) ||
        r.Is("--journal", &args->stack.journal) ||
        r.Is("--trace", &args->trace) ||
        r.Is("--crash-point", &args->crash_point) ||
        r.Is("--out", &args->out)) {
      continue;
    }
    std::string value;
    if (r.Is("--connect", &value)) {
      args->connect = value;
      args->connects.clear();
      // Comma-separated endpoints; each must parse as HOST:PORT.
      std::string rest = value;
      while (!rest.empty()) {
        const size_t comma = rest.find(',');
        const std::string endpoint = rest.substr(0, comma);
        rest = comma == std::string::npos ? "" : rest.substr(comma + 1);
        std::string host;
        uint16_t port = 0;
        const common::Status s =
            net::ParseHostPort(endpoint, &host, &port);
        if (!s.ok()) {
          std::fprintf(stderr, "invalid --connect endpoint '%s': %s\n",
                       endpoint.c_str(), s.ToString().c_str());
          return false;
        }
        args->connects.push_back(endpoint);
      }
      if (args->connects.empty()) {
        std::fprintf(stderr, "empty --connect\n");
        return false;
      }
    } else if (r.Is("--federate", &value)) {
      if (value != "union" && value != "join") {
        std::fprintf(stderr, "--federate takes union | join\n");
        return false;
      }
      args->federate = value;
    } else if (flag == "--round-budget") {
      if (!r.Int(0, INT64_MAX, &args->round_budget)) return false;
    } else if (flag == "--probe-attempts") {
      if (!r.Int(0, INT64_MAX, &args->probe_attempts)) return false;
    } else if (flag == "--probe-backoff") {
      if (!r.Int(1, 1 << 20, &args->probe_backoff)) return false;
    } else if (flag == "--band") {
      if (!r.Int(1, 1000000, &args->stack.band)) return false;
    } else if (flag == "--cache") {
      args->stack.cache = true;
    } else if (r.Is("--cache-file", &args->stack.cache_file)) {
      args->stack.cache = true;
    } else if (flag == "--sync-every") {
      if (!r.Int(1, 1000000, &args->stack.sync_every)) return false;
    } else if (flag == "--checkpoint-every") {
      if (!r.Int(1, INT64_MAX, &args->stack.checkpoint_every)) return false;
    } else if (flag == "--trials") {
      if (!r.Int(1, 1000000, &args->trials)) return false;
    } else if (flag == "--threads") {
      if (!r.Int(1, 4096, &args->threads)) return false;
    } else {
      return r.Unknown();
    }
  }
  if (!tools::ValidateSource(r, args->source, "--connect",
                             {"--trials", "--dump-data"})) {
    return false;
  }
  if (!args->federate.empty() && args->connect.empty()) {
    std::fprintf(stderr, "--federate requires --connect\n");
    return false;
  }
  if (args->connects.size() > 1 && args->federate.empty()) {
    std::fprintf(stderr,
                 "multiple --connect endpoints need --federate "
                 "union|join\n");
    return false;
  }
  if (!args->federate.empty()) {
    if (args->federate == "join" && args->join_attr.empty()) {
      std::fprintf(stderr, "--federate join needs --join-attr\n");
      return false;
    }
    if (args->federate == "union" && !args->join_attr.empty()) {
      std::fprintf(stderr, "--join-attr only applies to --federate "
                           "join\n");
      return false;
    }
    if (args->stack.algorithm != "auto" && args->stack.algorithm != "sq" &&
        args->stack.algorithm != "rq") {
      std::fprintf(stderr,
                   "--federate drives the checkpointable sq/rq "
                   "algorithms only (got --algorithm %s)\n",
                   args->stack.algorithm.c_str());
      return false;
    }
    if (!r.NoneSeen({"--band", "--cache", "--cache-file", "--trace"},
                    "%s is a single-site feature; it cannot be combined "
                    "with --federate\n")) {
      return false;
    }
  } else if (!r.NoneSeen({"--round-budget", "--federation-json",
                          "--probe-attempts", "--probe-backoff"},
                         "%s requires --federate\n")) {
    return false;
  }
  if (!args->connect.empty()) {
    // The server controls the interface; under --federate, --budget and
    // --threads configure the coordinator instead and stay legal.
    const char* local_only =
        "%s configures a local interface; the server controls it under "
        "--connect\n";
    if (!r.NoneSeen({"--n", "--k", "--ranking", "--seed", "--trials"},
                    local_only) ||
        (args->federate.empty() &&
         !r.NoneSeen({"--budget", "--threads"}, local_only))) {
      return false;
    }
    if (r.seen("--dump-data")) {
      std::fprintf(stderr,
                   "--dump-data exports a locally generated dataset; it "
                   "cannot be combined with --connect\n");
      return false;
    }
  }
  if (args->trials > 1 && args->source.demo.empty()) {
    std::fprintf(stderr, "--trials needs --demo (seeds vary per trial)\n");
    return false;
  }
  if (args->trials > 1 &&
      !r.NoneSeen({"--journal", "--cache-file", "--trace", "--dump-data"},
                  "%s describes one durable run; it cannot be combined "
                  "with --trials\n")) {
    return false;
  }
  return !args->stack.journal.empty() ||
         r.NoneSeen({"--sync-every", "--checkpoint-every"},
                    "%s requires --journal\n");
}

// Fans --trials independent discoveries (seed, seed+1, ...) across
// --threads workers. Each trial owns its table, ranking, and interface,
// so the per-trial numbers are identical at every worker count.
int RunTrials(const Args& args) {
  const int threads = args.threads > 0 ? static_cast<int>(args.threads)
                                       : runtime::EnvThreadCount();
  std::vector<common::Result<core::DiscoveryResult>> trials(
      static_cast<size_t>(args.trials), common::Status::Internal("not run"));
  runtime::ParallelFor(threads, 0, args.trials, [&](int64_t i) {
    session::SourceConfig source = args.source;
    source.seed += static_cast<uint64_t>(i);
    session::Engine engine;
    auto failed = engine.OpenData(source, nullptr);
    if (!failed) failed = engine.Build(source);
    core::DiscoveryOptions common;
    common.interrupt = [] { return tools::g_signaled.load(); };
    trials[static_cast<size_t>(i)] =
        failed ? failed->status
               : session::Discover(args.stack.algorithm, args.stack.band,
                                   engine.iface.get(), common);
  });

  int64_t total_cost = 0;
  for (int64_t i = 0; i < args.trials; ++i) {
    const common::Result<core::DiscoveryResult>& t =
        trials[static_cast<size_t>(i)];
    const auto seed = static_cast<unsigned long long>(
        args.source.seed + static_cast<uint64_t>(i));
    if (!t.ok()) {
      std::fprintf(stderr, "trial %lld (seed %llu): %s\n",
                   static_cast<long long>(i), seed,
                   t.status().ToString().c_str());
      return 1;
    }
    std::printf("trial %lld: seed %llu  found %zu  queries %lld%s\n",
                static_cast<long long>(i), seed, t->skyline.size(),
                static_cast<long long>(t->query_cost),
                t->complete ? "" : "  (partial)");
    total_cost += t->query_cost;
  }
  // stdout stays byte-identical at every worker count; the worker note
  // goes to stderr.
  std::printf("mean queries over %lld trials: %.2f\n",
              static_cast<long long>(args.trials),
              static_cast<double>(total_cost) /
                  static_cast<double>(args.trials));
  std::fprintf(stderr, "(ran on %d worker%s)\n", threads,
               threads == 1 ? "" : "s");
  return 0;
}

/// Writes the anytime progress trace ("queries,skyline" per line).
common::Status WriteTrace(const core::ProgressTrace& trace,
                          const std::string& path) {
  std::string csv = "queries,skyline\n";
  for (const core::ProgressPoint& p : trace) {
    csv += std::to_string(p.queries_issued) + "," +
           std::to_string(p.skyline_discovered) + "\n";
  }
  return common::AtomicWriteFile(path, csv);
}

/// Writes the discovered tuples as CSV to `path`; the exit code.
int WriteOut(const data::Schema& schema, const std::vector<data::Tuple>& tuples,
             const std::string& path) {
  data::Table out(schema);
  out.Reserve(static_cast<int64_t>(tuples.size()));
  for (const data::Tuple& t : tuples) {
    const common::Status s = out.Append(t);
    if (!s.ok()) {
      std::fprintf(stderr, "collect: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  const common::Status s = dataset::WriteCsv(out, path);
  if (!s.ok()) {
    std::fprintf(stderr, "write: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wrote   : %s\n", path.c_str());
  return 0;
}

/// Federation summary in google-benchmark JSON shape, so
/// scripts/compare_bench.py can gate the prune ratio and coverage in CI.
common::Status WriteFederationJson(const Args& args,
                                   const federation::FederatedResult& fr,
                                   double elapsed_ms) {
  const int64_t skyline_size =
      args.federate == "join" ? static_cast<int64_t>(fr.joined.size())
                              : static_cast<int64_t>(fr.skyline.size());
  const double denom =
      static_cast<double>(fr.total_paid + fr.total_pruned);
  const double prune_ratio =
      denom > 0 ? static_cast<double>(fr.total_pruned) / denom : 0.0;
  char buf[2048];
  std::snprintf(
      buf, sizeof(buf),
      "{\n"
      "  \"context\": {\"executable\": \"hdsky_discover\"},\n"
      "  \"benchmarks\": [\n"
      "    {\n"
      "      \"name\": \"federation/%s/backends:%zu\",\n"
      "      \"run_type\": \"iteration\",\n"
      "      \"iterations\": 1,\n"
      "      \"real_time\": %.3f,\n"
      "      \"cpu_time\": %.3f,\n"
      "      \"time_unit\": \"ms\",\n"
      "      \"backends\": %zu,\n"
      "      \"paid_queries\": %lld,\n"
      "      \"pruned_queries\": %lld,\n"
      "      \"prune_ratio\": %.6f,\n"
      "      \"probe_queries\": %lld,\n"
      "      \"skyline_size\": %lld,\n"
      "      \"rounds\": %lld,\n"
      "      \"complete\": %d,\n"
      "      \"partial_coverage\": %d\n"
      "    }\n"
      "  ]\n"
      "}\n",
      args.federate.c_str(), fr.backends.size(), elapsed_ms, elapsed_ms,
      fr.backends.size(), static_cast<long long>(fr.total_paid),
      static_cast<long long>(fr.total_pruned), prune_ratio,
      static_cast<long long>(fr.probe_queries),
      static_cast<long long>(skyline_size),
      static_cast<long long>(fr.rounds), fr.complete ? 1 : 0,
      fr.partial_coverage ? 1 : 0);
  return common::AtomicWriteFile(args.federation_json, buf);
}

/// Federated discovery over every --connect endpoint: connect to each,
/// run the round-scheduled coordinator, report, and write the optional
/// benchmark JSON / skyline CSV. Under --journal the session is durable:
/// DIR/backend-<i> holds each backend's write-ahead journal (plus the
/// persisted session id the server's replay cache is keyed by) and
/// DIR/STATE the coordinator's latest round-barrier checkpoint, so a
/// killed run resumed with the same flags replays its paid prefix for
/// free and produces byte-identical outputs.
int RunFederation(const Args& args) {
  const bool durable = !args.stack.journal.empty();
  // A coordinator checkpoint on disk: this run resumes a paid session.
  const bool resuming =
      durable && session::Resuming(args.stack.journal, true);

  std::vector<std::unique_ptr<session::Stack>> sites;
  std::vector<interface::HiddenDatabase*> backends;
  for (size_t i = 0; i < args.connects.size(); ++i) {
    session::StackConfig config = args.stack;
    config.endpoint = args.connects[i];
    config.backend = static_cast<int>(i);
    auto site = std::make_unique<session::Stack>(config);
    auto failed = site->Connect({}, stderr);
    // Between queries every point is consistent for pure replay; the
    // coordinator's own frontier state lives in DIR/STATE, not here.
    if (!failed && durable) failed = site->OpenJournal(true, stderr);
    if (failed) return tools::Exit(*failed);
    backends.push_back(site->top());
    sites.push_back(std::move(site));
  }

  federation::FederationOptions fopts;
  fopts.mode = args.federate == "join"
                   ? federation::FederationOptions::Mode::kJoin
                   : federation::FederationOptions::Mode::kUnion;
  fopts.total_budget = args.source.budget;
  fopts.round_budget = args.round_budget;
  fopts.num_threads = static_cast<int>(args.threads);
  fopts.algorithm = args.stack.algorithm;
  fopts.join_attr = args.join_attr;
  fopts.max_probe_attempts = args.probe_attempts;
  fopts.probe_backoff_rounds = args.probe_backoff;
  fopts.interrupt = [] { return tools::g_signaled.load(); };

  recovery::FederationSessionState restored;
  if (durable) {
    if (resuming) {
      auto loaded = recovery::LoadFederationState(args.stack.journal);
      if (!loaded.ok()) {
        std::fprintf(stderr, "journal: %s\n",
                     loaded.status().ToString().c_str());
        return 1;
      }
      restored = std::move(loaded).value();
      fopts.resume_state = &restored;
      std::fprintf(stderr,
                   "journal : resuming federated session at round %lld\n",
                   static_cast<long long>(restored.rounds));
    }
    fopts.on_round_checkpoint =
        [&args, &sites](const recovery::FederationSessionState& s)
        -> common::Status {
      // The backend journals must be durable before the coordinator
      // state that presumes their payments (a no-op at --sync-every 1).
      for (auto& site : sites) HDSKY_RETURN_IF_ERROR(site->journal->Sync());
      return recovery::SaveFederationState(args.stack.journal, s);
    };
    fopts.on_backend_reprobe = [&sites](size_t i) {
      return sites[i]->journal->ResolvePending();
    };
  }

  const auto start = std::chrono::steady_clock::now();
  auto result =
      federation::RunFederatedDiscovery(backends, fopts, args.connects);
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  const bool interrupted = tools::g_signaled.load();
  // Final compaction, on success AND on interrupt/failure: every paid
  // answer (torn-round payments included) folds into each backend's
  // snapshot, and the last consistent round barrier in DIR/STATE is what
  // a rerun resumes from.
  for (auto& site : sites) site->FinishJournal(stderr);
  if (!result.ok()) {
    return tools::Exit(session::ServerFailure(result.status(), "federation"));
  }
  const federation::FederatedResult& fr = *result;

  std::printf("federate: %s over %zu backends\n", args.federate.c_str(),
              backends.size());
  if (args.federate == "join") {
    std::printf("found   : %zu joined skyline entities%s\n",
                fr.joined.size(),
                fr.join_exact ? "" : "  (approximate: a probe overflowed)");
  } else {
    std::printf("found   : %zu skyline groups\n", fr.skyline.size());
  }
  std::printf("queries : %lld paid, %lld answered free from the shared "
              "index, %lld rounds\n",
              static_cast<long long>(fr.total_paid),
              static_cast<long long>(fr.total_pruned),
              static_cast<long long>(fr.rounds));
  if (fr.probe_queries > 0) {
    std::printf("probes  : %lld join probes (included in paid)\n",
                static_cast<long long>(fr.probe_queries));
  }
  if (fr.partial_coverage) {
    std::printf("coverage: PARTIAL — a backend failed or ran out of "
                "budget; tuples only it holds may be missing\n");
  }
  for (size_t i = 0; i < fr.backends.size(); ++i) {
    const federation::BackendReport& r = fr.backends[i];
    std::fprintf(stderr,
                 "backend : %s  paid %lld  pruned %lld  confirmed %lld  "
                 "rounds %lld  health %s  recovered %lld  %s%s\n",
                 r.name.c_str(), static_cast<long long>(r.paid_queries),
                 static_cast<long long>(r.pruned_queries),
                 static_cast<long long>(r.confirmed),
                 static_cast<long long>(r.rounds),
                 federation::BackendHealthName(r.health),
                 static_cast<long long>(r.recoveries),
                 r.failed ? "FAILED: " : (r.complete ? "complete" : "stopped"),
                 r.failed ? r.error.c_str() : "");
    std::fputs(sites[i]->NetworkReport().c_str(), stderr);
    if (sites[i]->journal) {
      std::fputs(sites[i]->JournalReport().c_str(), stderr);
    }
  }
  if (interrupted && durable) {
    std::fprintf(stderr,
                 "interrupted: rerun with --journal %s to resume\n",
                 args.stack.journal.c_str());
  }

  if (!args.federation_json.empty()) {
    // A durable session's outputs must be byte-identical between an
    // uninterrupted run and a crash-then-resume (the chaos smoke diffs
    // them), so the one nondeterministic field is pinned under --journal.
    const common::Status s =
        WriteFederationJson(args, fr, durable ? 0.0 : elapsed_ms);
    if (!s.ok()) {
      std::fprintf(stderr, "federation-json: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("json    : %s\n", args.federation_json.c_str());
  }

  if (!args.out.empty()) {
    if (args.federate == "join") {
      std::fprintf(stderr,
                   "--out writes union-mode representative tuples; join "
                   "mode has no full tuples to write\n");
      return 64;
    }
    // Representatives are full tuples of their source backend, so one CSV
    // needs every backend to share the full schema.
    const data::Schema& schema = sites[0]->remote->schema();
    for (size_t i = 1; i < sites.size(); ++i) {
      if (sites[i]->remote->schema().ToString() != schema.ToString()) {
        std::fprintf(stderr,
                     "--out needs identical backend schemas (%s differs "
                     "from %s)\n",
                     args.connects[i].c_str(), args.connects[0].c_str());
        return 1;
      }
    }
    std::vector<data::Tuple> representatives;
    for (const federation::UnionGroup& g : fr.skyline) {
      representatives.push_back(g.representative);
    }
    return WriteOut(schema, representatives, args.out);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 64;
  }

  // SIGINT/SIGTERM are polled through DiscoveryOptions::interrupt: the
  // run unwinds as an anytime partial result instead of dying mid-query.
  tools::InstallSignalHandlers();
  recovery::ArmCrashPointFromEnv();
  if (!args.crash_point.empty()) recovery::ArmCrashPoint(args.crash_point);

  if (args.trials > 1) return RunTrials(args);
  if (!args.federate.empty()) return RunFederation(args);

  args.stack.endpoint = args.connect;
  session::Stack stack(args.stack);
  if (!args.connect.empty()) {
    if (auto failed = stack.Connect({}, stderr)) return tools::Exit(*failed);
  } else {
    session::Engine& engine = stack.engine;
    if (auto failed = engine.OpenData(args.source, stderr)) {
      return tools::Exit(*failed);
    }
    std::fputs(engine.Describe(/*read_path=*/true).c_str(), stdout);
    if (!args.dump_data.empty()) {
      // Pure data export — the smoke harness uses it to build a merged
      // ground-truth table from the per-backend generator seeds.
      const common::Status s = dataset::WriteCsv(engine.table, args.dump_data);
      if (!s.ok()) {
        std::fprintf(stderr, "dump-data: %s\n", s.ToString().c_str());
        return 1;
      }
      std::printf("dumped  : %s\n", args.dump_data.c_str());
      return 0;
    }
    if (auto failed = engine.Build(args.source)) return tools::Exit(*failed);
  }

  // --journal makes the session durable and resumable; --cache memoizes
  // repeat queries above it.
  if (auto failed = stack.Open(stderr)) return tools::Exit(*failed);
  auto result = stack.Run([] { return tools::g_signaled.load(); }, stderr);
  const bool interrupted = tools::g_signaled.load();
  if (!result.ok()) {
    return tools::Exit(session::ServerFailure(result.status(), "discovery"));
  }

  std::printf("found   : %zu %s tuples\n", result->skyline.size(),
              args.stack.band > 0 ? "sky-band" : "skyline");
  std::printf("queries : %lld%s\n",
              static_cast<long long>(result->query_cost),
              result->complete   ? ""
              : interrupted      ? "  (interrupted: partial)"
                                 : "  (budget exhausted: partial)");
  if (!result->skyline.empty()) {
    std::printf("cost per tuple: %.2f\n",
                static_cast<double>(result->query_cost) /
                    static_cast<double>(result->skyline.size()));
  }
  if (const interface::CachingDatabase* cache = stack.cache.get()) {
    std::fprintf(stderr, "cache   : %lld hits, %lld misses, %lld errors\n",
                 static_cast<long long>(cache->hits()),
                 static_cast<long long>(cache->misses()),
                 static_cast<long long>(cache->errors()));
  }
  if (stack.journal) std::fputs(stack.JournalReport().c_str(), stderr);
  if (stack.engine.paged) {
    std::fputs(session::PoolReport(*stack.engine.paged).c_str(), stderr);
  }
  if (stack.remote) std::fputs(stack.NetworkReport().c_str(), stderr);
  if (interrupted && !args.stack.journal.empty()) {
    std::fprintf(stderr,
                 "interrupted: rerun with --journal %s to resume\n",
                 args.stack.journal.c_str());
  }

  if (!args.trace.empty()) {
    const common::Status s = WriteTrace(result->trace, args.trace);
    if (!s.ok()) {
      std::fprintf(stderr, "trace: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("trace   : %s\n", args.trace.c_str());
  }

  if (!args.out.empty()) {
    if (int code = WriteOut(stack.top()->schema(), result->skyline, args.out)) {
      return code;
    }
  }

  if (auto failed = stack.SaveCache(stderr)) return tools::Exit(*failed);
  return 0;
}
