#include "interface/caching_database.h"

#include <condition_variable>
#include <fstream>
#include <sstream>

#include "common/fs_util.h"
#include "interface/cache_io.h"

namespace hdsky {
namespace interface {

using common::Result;
using common::Status;

namespace {

/// Where a joiner waits for the owner's Complete. It lives on the
/// joiner's stack: the joiner cannot return before `done` is set, and the
/// owner touches it only inside the completion callback.
struct Flight {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  Status status;
  std::shared_ptr<const QueryResult> result;
};

}  // namespace

// max_entries = 0: a paid answer is never evicted, so never re-paid.
CachingDatabase::CachingDatabase(HiddenDatabase* backend)
    : backend_(backend),
      cache_(SharedQueryCache::Options{.max_entries = 0}) {}

Result<QueryResult> CachingDatabase::Execute(const Query& q) {
  // Only legal queries are cacheable (and the legality check is free).
  HDSKY_RETURN_IF_ERROR(ValidateQuery(q));
  const std::string key = q.Signature();
  Flight flight;
  std::shared_ptr<const QueryResult> ready;
  const SharedQueryCache::Lookup lookup = cache_.StartLookup(
      key, &ready,
      [&flight](const Status& status,
                const std::shared_ptr<const QueryResult>& result) {
        std::lock_guard<std::mutex> lock(flight.mu);
        flight.status = status;
        flight.result = result;
        flight.done = true;
        flight.cv.notify_all();
      });

  switch (lookup) {
    case SharedQueryCache::Lookup::kHit:
      hits_.fetch_add(1, std::memory_order_relaxed);
      return *ready;
    case SharedQueryCache::Lookup::kWait: {
      std::unique_lock<std::mutex> lock(flight.mu);
      flight.cv.wait(lock, [&flight] { return flight.done; });
      if (!flight.status.ok()) {
        errors_.fetch_add(1, std::memory_order_relaxed);
        return flight.status;
      }
      hits_.fetch_add(1, std::memory_order_relaxed);
      return *flight.result;
    }
    case SharedQueryCache::Lookup::kOwner:
      break;
  }

  // Count the miss only once the backend actually produced an answer: a
  // failed fetch (rate limit, transport error) caches nothing and must
  // not skew the hit ratio — it is tallied separately so that
  // hits + misses + errors always equals the accepted Execute calls.
  Result<QueryResult> fetched = [&] {
    std::lock_guard<std::mutex> lock(backend_mu_);
    return backend_->Execute(q);
  }();
  if (!fetched.ok()) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    cache_.Complete(key, fetched.status(), nullptr);
    return fetched.status();
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  auto result =
      std::make_shared<const QueryResult>(std::move(fetched).value());
  cache_.Complete(key, Status::OK(), result);
  return *result;
}

Status CachingDatabase::Save(std::ostream& out) const {
  const auto entries = cache_.ReadySnapshot();
  cache_io::WriteHeader(out, entries.size());
  for (const auto& [key, result] : entries) {
    cache_io::WriteEntry(out, key, *result);
  }
  return cache_io::FinishWrite(out);
}

Status CachingDatabase::SaveToFile(const std::string& path) const {
  std::ostringstream out;
  HDSKY_RETURN_IF_ERROR(Save(out));
  return common::AtomicWriteFile(path, out.str());
}

Status CachingDatabase::Load(std::istream& in) {
  HDSKY_ASSIGN_OR_RETURN(auto loaded,
                         cache_io::ReadAll(in, schema().num_attributes()));
  for (auto& [key, result] : loaded) {
    cache_.InsertReady(key,
                       std::make_shared<const QueryResult>(std::move(result)));
  }
  return Status::OK();
}

Status CachingDatabase::LoadFromFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);
  return Load(in);
}

}  // namespace interface
}  // namespace hdsky
