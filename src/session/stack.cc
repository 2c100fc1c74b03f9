#include "session/stack.h"

#include <sys/stat.h>

#include <cerrno>

#include "common/fs_util.h"
#include "core/baseline_crawler.h"
#include "core/mq_db_sky.h"
#include "core/pq_db_sky.h"
#include "core/rq_db_sky.h"
#include "core/skyband_discovery.h"
#include "core/sq_db_sky.h"
#include "net/socket.h"
#include "recovery/checkpoint.h"
#include "recovery/federation_state.h"

namespace hdsky {
namespace session {

namespace {

bool Exists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

/// The state blob of a run without a frontier: just the algorithm.
std::string AlgorithmOnly(const std::string& algorithm) {
  recovery::SessionState state;
  state.algorithm = algorithm;
  return recovery::EncodeSessionState(state);
}

template <typename Options, typename Algorithm>
common::Result<core::DiscoveryResult> RunWith(
    Algorithm algorithm, interface::HiddenDatabase* db,
    const core::DiscoveryOptions& common) {
  Options options;
  options.common = common;
  return algorithm(db, options);
}

/// The algorithm a run dispatches to, as a stable name for journal state:
/// "auto" is "mq"; a sky band (`band` > 0) is "band-rq" or "band-pq" by
/// the schema's interface mix.
std::string ResolveAlgorithm(const std::string& algorithm, int64_t band,
                             const data::Schema& schema) {
  if (band > 0) {
    const bool any_range =
        !schema.RankingAttributesWithInterface(data::InterfaceType::kRQ)
             .empty();
    return any_range ? "band-rq" : "band-pq";
  }
  return algorithm == "auto" ? "mq" : algorithm;
}

/// Only SQ/RQ/PQ expose checkpointable frontiers; the other algorithms
/// resume by full replay through the journal (free but linear).
bool FrontierCapable(const std::string& resolved_algorithm) {
  return resolved_algorithm == "sq" || resolved_algorithm == "rq" ||
         resolved_algorithm == "pq";
}

}  // namespace

Failure ServerFailure(const common::Status& status, const std::string& what) {
  Failure f = Failed(what, status);
  if (status.IsUnavailable()) {
    f.exit_code = 69;
    f.text += what +
              ": the server is shedding load (rate limited / at capacity), "
              "not failing; retry later\n";
  }
  return f;
}

common::Result<uint64_t> LoadOrCreateSessionId(const std::string& dir) {
  const std::string path = dir + "/SESSION";
  auto existing = common::ReadFileToString(path);
  if (existing.ok()) {
    std::string text = std::move(existing).value();
    while (!text.empty() && (text.back() == '\n' || text.back() == '\r')) {
      text.pop_back();
    }
    char* end = nullptr;
    errno = 0;
    const unsigned long long id = std::strtoull(text.c_str(), &end, 10);
    if (errno != 0 || end == text.c_str() || *end != '\0' || id == 0) {
      return common::Status::IOError(path + ": malformed session id");
    }
    return static_cast<uint64_t>(id);
  }
  if (!existing.status().IsNotFound()) return existing.status();
  const uint64_t id = service::RandomSessionId();
  HDSKY_RETURN_IF_ERROR(
      common::AtomicWriteFile(path, std::to_string(id) + "\n"));
  return id;
}

bool Resuming(const std::string& journal, bool federated) {
  return Exists(journal + "/" +
                (federated ? recovery::kFederationStateFileName
                           : recovery::kManifestFileName));
}

common::Result<core::DiscoveryResult> Discover(
    const std::string& algorithm, int64_t band, interface::HiddenDatabase* db,
    const core::DiscoveryOptions& options) {
  using namespace core;
  const std::string a = ResolveAlgorithm(algorithm, band, db->schema());
  if (band > 0) {
    SkybandOptions opts;
    opts.common = options;
    opts.band = static_cast<int>(band);
    return a == "band-rq" ? RqDbSkyband(db, opts) : PqDbSkyband(db, opts);
  }
  if (a == "mq") return RunWith<MqDbSkyOptions>(MqDbSky, db, options);
  if (a == "sq") return RunWith<SqDbSkyOptions>(SqDbSky, db, options);
  if (a == "rq") return RunWith<RqDbSkyOptions>(RqDbSky, db, options);
  if (a == "pq") return RunWith<PqDbSkyOptions>(PqDbSky, db, options);
  if (a == "baseline") {
    return RunWith<CrawlOptions>(BaselineSkyline, db, options);
  }
  return common::Status::InvalidArgument("unknown algorithm '" + a + "'");
}

interface::HiddenDatabase* Stack::source() const {
  if (remote) return remote.get();
  return engine.iface.get();
}

interface::HiddenDatabase* Stack::top() const {
  if (cache) return cache.get();
  if (journal) return journal.get();
  return source();
}

std::string Stack::dir() const {
  if (!federated()) return config_.journal;
  return config_.journal + "/backend-" + std::to_string(config_.backend);
}

std::string Stack::JournalLabel() const {
  return federated() ? "journal: " + config_.endpoint : "journal";
}

std::optional<Failure> Stack::Connect(
    service::RemoteHiddenDatabase::Options options, std::FILE* log) {
  const std::string what =
      federated() ? "connect " + config_.endpoint : "connect";
  std::string host;
  uint16_t port = 0;
  const common::Status parsed =
      net::ParseHostPort(config_.endpoint, &host, &port);
  if (!parsed.ok()) {  // the tools validate endpoints before this
    Failure f = Failed("connect", parsed);
    f.exit_code = 64;
    return f;
  }
  const bool durable = !config_.journal.empty();
  if (durable) {
    // The session id keys the server's budget and replay cache, which is
    // what makes re-sent journaled queries free: persist it next to the
    // journal before connecting, and present the same one on every run.
    for (const std::string& d : {config_.journal, dir()}) {
      const common::Status s = common::MakeDir(d);
      if (!s.ok()) return Failure{1, "journal: " + s.message() + "\n", s};
    }
    auto id = LoadOrCreateSessionId(dir());
    if (!id.ok()) return Failed("journal", id.status());
    options.session_id = *id;
  }
  auto connected = service::RemoteHiddenDatabase::Connect(host, port, options);
  if (!connected.ok()) {
    const common::Status s = connected.status();
    if (durable && (s.IsIOError() || s.IsUnavailable()) &&
        Resuming(config_.journal, federated())) {
      // An earlier run paid for answers this one would replay: the
      // backend being down is "retry later", exactly like live-run load
      // shedding — nothing is lost and nothing is broken.
      Failure f = Failed(what, s);
      f.exit_code = 69;
      f.text += what + ": backend unreachable while resuming a durable " +
                (federated() ? "federated session; the journals keep"
                             : "session; the journal keeps") +
                " every paid answer — retry when the backend is back\n";
      return f;
    }
    return ServerFailure(s, what);
  }
  remote = std::move(connected).value();
  if (log != nullptr) {
    std::fprintf(log, "remote  : %s, %s, k=%d\n", config_.endpoint.c_str(),
                 remote->schema().ToString().c_str(), remote->k());
  }
  return std::nullopt;
}

std::optional<Failure> Stack::OpenJournal(bool auto_checkpoint,
                                          std::FILE* log) {
  recovery::JournalingDatabase::Options options;
  options.sync_every = static_cast<int>(config_.sync_every);
  options.checkpoint_every = config_.checkpoint_every;
  options.auto_checkpoint = auto_checkpoint;
  options.auto_checkpoint_state = AlgorithmOnly(algorithm_);
  service::RemoteHiddenDatabase* r = remote.get();
  if (r != nullptr) options.seq_provider = [r] { return r->next_seq(); };
  auto opened = recovery::JournalingDatabase::Open(source(), dir(), options);
  if (!opened.ok()) return Failed(JournalLabel(), opened.status());
  journal = std::move(opened).value();
  // Continue the wire sequence where the journal left off; a dangling
  // intent re-sends under its original number and hits the server's
  // replay cache instead of the budget.
  if (r != nullptr) r->set_next_seq(journal->next_wire_seq());
  if (log != nullptr && journal->resumed()) {
    const std::string what = federated() ? config_.endpoint + " resuming"
                                         : "resuming " + config_.journal;
    std::fprintf(log, "journal : %s (%lld journaled answers, epoch %lld)\n",
                 what.c_str(), static_cast<long long>(journal->entries()),
                 static_cast<long long>(journal->epoch()));
  }
  return std::nullopt;
}

void Stack::FinishJournal(std::FILE* log) {
  if (!journal) return;
  const common::Status s = journal->Finish(AlgorithmOnly(algorithm_));
  if (!s.ok() && log != nullptr) {
    std::fprintf(log, "%s: final checkpoint: %s\n", JournalLabel().c_str(),
                 s.ToString().c_str());
  }
}

std::optional<Failure> Stack::Open(std::FILE* log) {
  algorithm_ = ResolveAlgorithm(config_.algorithm, config_.band,
                                source()->schema());
  const bool frontier = config_.band == 0 && FrontierCapable(algorithm_);
  if (!config_.journal.empty()) {
    // Frontier-capable algorithms checkpoint from their own consistent
    // boundaries (on_checkpoint below); the rest let the journal compact
    // itself between queries — any point is consistent for pure replay.
    if (auto failed = OpenJournal(!frontier, log)) return failed;
  }
  if (config_.cache) {
    // Over the journal, a hit costs not even a journal lookup; over a
    // remote source it never touches the network.
    cache = std::make_unique<interface::CachingDatabase>(
        journal ? journal.get() : source());
    if (!config_.cache_file.empty() && Exists(config_.cache_file)) {
      const common::Status s = cache->LoadFromFile(config_.cache_file);
      if (!s.ok()) return Failed("cache", s);
      if (log != nullptr) {
        std::fprintf(log, "cache   : loaded %lld entries from %s\n",
                     static_cast<long long>(cache->size()),
                     config_.cache_file.c_str());
      }
    }
  }
  if (!journal) return std::nullopt;
  if (frontier) {
    recovery::JournalingDatabase* j = journal.get();
    options_.on_checkpoint = [j, algorithm = algorithm_, log](
                                 core::DiscoveryRun& run,
                                 const core::FrontierSaver& save_frontier) {
      if (!j->checkpoint_due()) return;
      recovery::SessionState state;
      state.algorithm = algorithm;
      run.SaveState(&state.run_state);
      save_frontier(&state.frontier);
      const common::Status s =
          j->Checkpoint(recovery::EncodeSessionState(state));
      // A failed checkpoint loses nothing: the session keeps appending
      // to the current epoch and will try again.
      if (!s.ok() && log != nullptr) {
        std::fprintf(log, "checkpoint: %s\n", s.ToString().c_str());
      }
    };
  }
  if (!journal->resumed() || journal->restored_state().empty()) {
    return std::nullopt;
  }
  auto decoded = recovery::DecodeSessionState(journal->restored_state());
  if (!decoded.ok()) return Failed("journal", decoded.status());
  const recovery::SessionState& state = *decoded;
  if (!state.algorithm.empty() && state.algorithm != algorithm_) {
    const common::Status s = common::Status::InvalidArgument(Format(
        "journal: %s belongs to algorithm '%s'; resuming it with '%s' "
        "would diverge from the journaled queries (rerun with --algorithm "
        "%s, or a fresh --journal directory)\n",
        config_.journal.c_str(), state.algorithm.c_str(), algorithm_.c_str(),
        state.algorithm.c_str()));
    return Failure{1, s.message(), s};
  }
  if (frontier && !state.frontier.empty()) {
    // Fast-forward from the checkpointed frontier. Without one the run
    // restarts from the root and replays its paid prefix through the
    // journal — slower to walk, but equally free and equally correct.
    options_.resume_run_state = state.run_state;
    options_.resume_frontier = state.frontier;
  }
  return std::nullopt;
}

common::Result<core::DiscoveryResult> Stack::Run(
    std::function<bool()> interrupt, std::FILE* log) {
  options_.interrupt = std::move(interrupt);
  auto result = Discover(config_.algorithm, config_.band, top(), options_);
  // On success AND on interrupt/failure: everything journaled so far
  // compacts into a snapshot a later run resumes from.
  FinishJournal(log);
  return result;
}

std::optional<Failure> Stack::SaveCache(std::FILE* log) const {
  if (!cache || config_.cache_file.empty()) return std::nullopt;
  const common::Status s = cache->SaveToFile(config_.cache_file);
  if (!s.ok()) return Failed("cache", s);
  if (log != nullptr) {
    std::fprintf(log, "cache   : saved %lld entries to %s\n",
                 static_cast<long long>(cache->size()),
                 config_.cache_file.c_str());
  }
  return std::nullopt;
}

std::string Stack::NetworkReport() const {
  const service::RemoteHiddenDatabase::Stats& t = remote->stats();
  // A federated backend's line is named and counts its failed queries,
  // which feed the coordinator's health machine.
  const std::string name = federated() ? config_.endpoint + "  " : "";
  const std::string failed =
      federated() ? Format("%lld failed, ",
                           static_cast<long long>(t.failed_queries))
                  : "";
  return Format(
      "network : %s%lld remote queries, %lld retries, %lld reconnects, %lld "
      "rate-limited, %s%lld B out, %lld B in, %lld ms backoff\n",
      name.c_str(), static_cast<long long>(t.remote_queries),
      static_cast<long long>(t.retries), static_cast<long long>(t.reconnects),
      static_cast<long long>(t.rate_limited), failed.c_str(),
      static_cast<long long>(t.bytes_sent),
      static_cast<long long>(t.bytes_received),
      static_cast<long long>(t.backoff_ms));
}

std::string Stack::JournalReport() const {
  const recovery::JournalingDatabase::Stats& js = journal->stats();
  const std::string name = federated() ? config_.endpoint + "  " : "";
  return Format(
      "journal : %s%lld replayed, %lld paid, %lld errors, epoch %lld\n",
      name.c_str(), static_cast<long long>(js.replayed),
      static_cast<long long>(js.paid), static_cast<long long>(js.errors),
      static_cast<long long>(journal->epoch()));
}

}  // namespace session
}  // namespace hdsky
