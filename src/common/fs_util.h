// Durable filesystem primitives shared by the persistence layers (the
// client answer caches and the src/recovery journal/checkpoint stack).
//
// The core discipline is write-temp + fsync + rename + fsync-directory:
// POSIX rename(2) is atomic within a filesystem, so a reader (or a
// process restarted after a crash) observes either the complete previous
// file or the complete new one — never a torn mixture, and never a
// destroyed previous version. The directory fsync makes the rename itself
// durable across power loss.

#ifndef HDSKY_COMMON_FS_UTIL_H_
#define HDSKY_COMMON_FS_UTIL_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"

namespace hdsky {
namespace common {

/// Replaces the file at `path` with `contents` atomically: the bytes are
/// written to a sibling temporary file, fsync'd, renamed over `path`, and
/// the parent directory is fsync'd. A crash at any point leaves either
/// the old complete file or the new complete file (plus, at worst, an
/// orphaned "<path>.tmp.<pid>" that RemoveStaleTempFiles cleans up).
Status AtomicWriteFile(const std::string& path, const std::string& contents);

/// Creates directory `dir` (mode 0755); an existing one is fine.
Status MakeDir(const std::string& dir);

/// Reads a whole file into a string. NotFound when it does not exist.
Result<std::string> ReadFileToString(const std::string& path);

/// fsync(2) on a directory, making completed renames/creates in it
/// durable. A no-op error-wise on filesystems that reject directory
/// fsync.
Status SyncDir(const std::string& dir);

/// Deletes "*.tmp.*" siblings left behind by interrupted AtomicWriteFile
/// calls in `dir`. Best-effort; never fails on individual unlink errors.
void RemoveStaleTempFiles(const std::string& dir);

/// Streaming variant of AtomicWriteFile for files too large to hold in
/// one string (the paged block files). Bytes accumulate in a sibling
/// "<path>.tmp.<pid>" via Append (sequential) and WriteAt (back-patching
/// an already-reserved region, e.g. a header written last); Commit then
/// runs the same fsync + rename + fsync-directory dance. Destroying an
/// uncommitted writer unlinks the temporary, so a failed bulk load never
/// leaves a torn file under the target name.
class AtomicFileWriter {
 public:
  /// Opens the temporary. Fails if the sibling cannot be created.
  static Result<std::unique_ptr<AtomicFileWriter>> Create(
      const std::string& path);
  ~AtomicFileWriter();

  AtomicFileWriter(const AtomicFileWriter&) = delete;
  AtomicFileWriter& operator=(const AtomicFileWriter&) = delete;

  /// Appends `len` bytes at the current end of the temporary.
  Status Append(const void* data, size_t len);

  /// Overwrites `len` bytes at absolute `offset` (pwrite; does not move
  /// the append position). The region must already have been appended.
  Status WriteAt(uint64_t offset, const void* data, size_t len);

  /// Bytes appended so far (== the next Append offset).
  uint64_t bytes_appended() const { return appended_; }

  /// fsync + close + rename over the target + fsync parent directory.
  /// After Commit (success or failure) the writer is inert.
  Status Commit();

 private:
  AtomicFileWriter(std::string path, std::string tmp, int fd)
      : path_(std::move(path)), tmp_(std::move(tmp)), fd_(fd) {}

  std::string path_;
  std::string tmp_;
  int fd_;
  uint64_t appended_ = 0;
  bool done_ = false;
};

}  // namespace common
}  // namespace hdsky

#endif  // HDSKY_COMMON_FS_UTIL_H_
