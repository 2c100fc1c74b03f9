// Client-side answer cache as a HiddenDatabase decorator.
//
// A real discovery client caches the web responses it has paid for:
// re-issuing an identical query costs no API quota. CachingDatabase
// wraps ANY backend (the simulator, a CallbackDatabase over a real HTTP
// client, a RemoteHiddenDatabase, ...) and serves repeated queries from
// a SharedQueryCache (shared_cache.h) keyed by the query's predicate
// signature. Nothing is ever evicted: an answer paid for once is never
// paid for again.
//
// Combined with the algorithms' determinism this yields RESUMABLE
// discovery across rate-limit windows and even across processes: persist
// the cache with Save, reload it with Load in the next session, re-run
// the algorithm — the cached prefix replays for free and only new
// queries reach the backend. examples/flight_search.cpp demonstrates the
// daily-quota workflow.
//
// Thread safety: one cache may serve any number of threads. A miss makes
// the caller the query's flight owner, which fetches under one backend
// mutex (the backend need not be thread-safe); concurrent callers of the
// same query wait for the owner's answer. Backend accounting therefore
// matches a serial run exactly (docs/concurrency.md).

#ifndef HDSKY_INTERFACE_CACHING_DATABASE_H_
#define HDSKY_INTERFACE_CACHING_DATABASE_H_

#include <atomic>
#include <iosfwd>
#include <mutex>
#include <string>

#include "interface/hidden_database.h"
#include "interface/shared_cache.h"

namespace hdsky {
namespace interface {

class CachingDatabase : public HiddenDatabase {
 public:
  /// Wraps `backend`, which must outlive this object.
  explicit CachingDatabase(HiddenDatabase* backend);

  /// Thread-safe; callable concurrently from any number of threads.
  using HiddenDatabase::Execute;
  common::Result<QueryResult> Execute(const Query& q) override;

  const data::Schema& schema() const override {
    return backend_->schema();
  }
  int k() const override { return backend_->k(); }
  common::Status ValidateQuery(const Query& q) const override {
    return backend_->ValidateQuery(q);
  }

  /// Accounting invariant: hits() + misses() + errors() equals the number
  /// of Execute calls that passed validation. A miss is counted only when
  /// the backend produced an answer; failed fetches (rate limits,
  /// transport errors) count as errors and cache nothing, so a later
  /// retry of the same query still reaches the backend. A caller that
  /// joined another caller's fetch counts as a hit if that fetch
  /// succeeded and as an error if it failed.
  int64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  int64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  int64_t errors() const {
    return errors_.load(std::memory_order_relaxed);
  }
  int64_t size() const { return static_cast<int64_t>(cache_.size()); }

  /// Persists the cache in the hdsky-cache-v1 format (cache_io.h). Takes
  /// every shard lock, so concurrent Execute calls briefly stall.
  common::Status Save(std::ostream& out) const;
  /// Replaces `path` atomically: a failed save never destroys the
  /// previous file, which holds paid answers.
  common::Status SaveToFile(const std::string& path) const;

  /// Merges previously saved entries into the cache. Fails (and loads
  /// nothing) on a malformed stream.
  common::Status Load(std::istream& in);
  common::Status LoadFromFile(const std::string& path);

 private:
  HiddenDatabase* backend_;
  SharedQueryCache cache_;
  std::mutex backend_mu_;
  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> errors_{0};
};

}  // namespace interface
}  // namespace hdsky

#endif  // HDSKY_INTERFACE_CACHING_DATABASE_H_
