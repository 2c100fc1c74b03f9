// Session building, part two: the layers a discovery session runs
// through, bottom up —
//
//   source      Engine (session/engine.h) or RemoteHiddenDatabase
//   journal     --journal: write-ahead, resumable (JournalingDatabase)
//   cache       --cache: a repeat query never leaves (CachingDatabase)
//   algorithm   with the checkpoint and resume hooks installed
//
// A single-site hdsky_discover run is one Stack; a federated run is one
// Stack (remote + journal) per backend. The durable rules live here once:
// a durable remote presents the session id persisted in <dir>/SESSION on
// every run, the journal records each intent's wire sequence number, and
// the client continues the wire sequence where the journal left off, so a
// re-sent query hits the server's replay cache instead of its budget.
//
// Progress lines ("remote  :", "journal : resuming", "cache   : loaded",
// failed checkpoints) go to the `log` each step takes; nullptr is quiet.

#ifndef HDSKY_SESSION_STACK_H_
#define HDSKY_SESSION_STACK_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "core/discovery.h"
#include "interface/caching_database.h"
#include "recovery/journaling_database.h"
#include "service/remote_database.h"
#include "session/engine.h"

namespace hdsky {
namespace session {

/// A failed connect or discovery: "<what>: <status>", and exit 69
/// (EX_UNAVAILABLE) with a retry note when the server is shedding load —
/// nothing is broken — else exit 1.
Failure ServerFailure(const common::Status& status, const std::string& what);

/// Loads (or mints and persists) the id in <dir>/SESSION. A malformed
/// file is an IOError and is left as it is.
common::Result<uint64_t> LoadOrCreateSessionId(const std::string& dir);

/// True when the session directory `journal` holds a session an earlier
/// run paid for: a MANIFEST for a single site, the coordinator's STATE
/// for a federation.
bool Resuming(const std::string& journal, bool federated);

/// Runs `algorithm` (auto | sq | rq | pq | mq | baseline), or the top-
/// `band` sky band, over `db` — local, journaled, cached or remote alike.
common::Result<core::DiscoveryResult> Discover(
    const std::string& algorithm, int64_t band, interface::HiddenDatabase* db,
    const core::DiscoveryOptions& options);

struct StackConfig {
  std::string endpoint;            ///< HOST:PORT of a remote source
  std::string journal;             ///< session directory; "" = not durable
  int64_t sync_every = 1;          ///< journal group-fsync interval
  int64_t checkpoint_every = 256;  ///< paid queries between checkpoints
  /// Index among federated backends, journaled in <journal>/backend-<i>
  /// and named by `endpoint` in reports; -1 = a single site.
  int backend = -1;
  std::string algorithm = "auto";
  int64_t band = 0;
  bool cache = false;
  std::string cache_file;  ///< loaded at Open when it exists
};

/// One site's layers. Not copyable: the layers point at each other.
class Stack {
 public:
  explicit Stack(StackConfig config)
      : config_(std::move(config)), algorithm_(config_.algorithm) {}
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  Engine engine;                                          ///< local source
  std::unique_ptr<service::RemoteHiddenDatabase> remote;  ///< remote source
  std::unique_ptr<recovery::JournalingDatabase> journal;
  std::unique_ptr<interface::CachingDatabase> cache;

  /// The layer queries enter.
  interface::HiddenDatabase* top() const;

  /// Connects `remote` to the endpoint (under a journal, with the
  /// persisted session id). A connect that fails while resuming a durable
  /// session exits 69: the journal keeps every paid answer.
  std::optional<Failure> Connect(service::RemoteHiddenDatabase::Options options,
                                 std::FILE* log);
  /// Stacks the write-ahead journal over the source.
  std::optional<Failure> OpenJournal(bool auto_checkpoint, std::FILE* log);
  /// Takes the final checkpoint; a failure is logged, not fatal.
  void FinishJournal(std::FILE* log);

  /// A single site over an opened source: journal (under a session
  /// directory) and cache, then the resumed run's checkpointed frontier.
  std::optional<Failure> Open(std::FILE* log);
  /// Runs the algorithm over top(), then FinishJournal.
  common::Result<core::DiscoveryResult> Run(std::function<bool()> interrupt,
                                            std::FILE* log);
  /// Writes the cache to `cache_file`, when both exist.
  std::optional<Failure> SaveCache(std::FILE* log) const;

  /// The "network :" and "journal :" report lines.
  std::string NetworkReport() const;
  std::string JournalReport() const;

 private:
  interface::HiddenDatabase* source() const;  ///< remote, else engine
  bool federated() const { return config_.backend >= 0; }
  std::string dir() const;  ///< this site's journal directory
  /// "journal", or "journal: <endpoint>" for a federated backend.
  std::string JournalLabel() const;

  StackConfig config_;
  std::string algorithm_;  ///< resolved by Open
  core::DiscoveryOptions options_;
};

}  // namespace session
}  // namespace hdsky

#endif  // HDSKY_SESSION_STACK_H_
