#include "recovery/journaling_database.h"

#include <algorithm>
#include <cstring>

#include <unistd.h>

#include "common/fs_util.h"
#include "recovery/crash_point.h"

namespace hdsky {
namespace recovery {

using common::Result;
using common::Status;

Result<std::unique_ptr<JournalingDatabase>> JournalingDatabase::Open(
    interface::HiddenDatabase* backend, const std::string& dir,
    const Options& options) {
  std::unique_ptr<JournalingDatabase> db(
      new JournalingDatabase(backend, dir, options));
  HDSKY_RETURN_IF_ERROR(db->OpenImpl());
  return db;
}

JournalingDatabase::~JournalingDatabase() = default;

Status JournalingDatabase::OpenImpl() {
  HDSKY_RETURN_IF_ERROR(common::MakeDir(dir_));
  common::RemoveStaleTempFiles(dir_);
  const int width = backend_->schema().num_attributes();
  const JournalWriter::Options wopts{options_.sync_every};

  auto manifest = ReadManifest(dir_);
  if (!manifest.ok()) {
    if (!manifest.status().IsNotFound()) return manifest.status();
    // Fresh directory. A journal file without a manifest is debris from a
    // crash before the very first manifest write — nothing was ever
    // recoverable from it, so clear the slate (epoch 0 keeps nothing).
    RemoveOtherEpochFiles(dir_, 0);
    HDSKY_ASSIGN_OR_RETURN(
        writer_,
        JournalWriter::Create(dir_ + "/" + JournalFileName(1), width, wopts));
    HDSKY_RETURN_IF_ERROR(WriteManifest(dir_, Manifest{1, false}));
    epoch_ = 1;
    return Status::OK();
  }

  // Resuming: the manifest names the one live epoch; files of any other
  // epoch are crash debris (half-built next epoch, or a previous epoch
  // whose cleanup never ran).
  resumed_ = true;
  epoch_ = manifest->epoch;
  RemoveOtherEpochFiles(dir_, epoch_);

  if (manifest->has_snapshot) {
    Snapshot snap;
    HDSKY_ASSIGN_OR_RETURN(
        snap,
        ReadSnapshot(dir_ + "/" + SnapshotFileName(epoch_), width));
    last_seq_ = snap.last_seq;
    restored_state_ = std::move(snap.state_blob);
    for (SnapshotEntry& e : snap.entries) {
      Insert(e.signature, std::move(e.result));
    }
  }

  const std::string journal_path = dir_ + "/" + JournalFileName(epoch_);
  auto contents = ReadJournalFile(journal_path);
  if (!contents.ok()) {
    if (contents.status().IsNotFound()) {
      return Status::IOError(dir_ + ": manifest names epoch " +
                             std::to_string(epoch_) +
                             " but its journal file is missing");
    }
    return contents.status();
  }
  if (contents->payloads.empty()) {
    // Created but died before the header reached the disk: an empty file
    // holds nothing, so recreate it whole.
    ::unlink(journal_path.c_str());
    HDSKY_ASSIGN_OR_RETURN(writer_,
                           JournalWriter::Create(journal_path, width, wopts));
    return Status::OK();
  }
  int journal_width = 0;
  HDSKY_ASSIGN_OR_RETURN(journal_width,
                         DecodeHeaderRecord(contents->payloads[0]));
  if (journal_width != width) {
    return Status::IOError(journal_path + ": journal width " +
                           std::to_string(journal_width) +
                           " does not match schema width " +
                           std::to_string(width));
  }
  for (size_t i = 1; i < contents->payloads.size(); ++i) {
    JournalRecord rec;
    HDSKY_ASSIGN_OR_RETURN(rec, DecodeRecord(contents->payloads[i], width));
    last_seq_ = std::max(last_seq_, rec.seq);
    if (rec.type == RecordType::kIntent) {
      pending_signature_ = rec.signature;
      pending_seq_ = rec.seq;
    } else {
      Insert(rec.signature, std::move(rec.result));
      pending_signature_.reset();
      pending_seq_.reset();
    }
  }
  HDSKY_ASSIGN_OR_RETURN(
      writer_,
      JournalWriter::OpenForAppend(journal_path, contents->valid_bytes,
                                   wopts));
  return Status::OK();
}

void JournalingDatabase::Insert(const std::string& signature,
                                interface::QueryResult result) {
  const auto [it, inserted] = replay_.emplace(signature, std::move(result));
  (void)it;
  if (inserted) order_.push_back(signature);
}

Status JournalingDatabase::AppendRecord(const std::string& payload) {
  return writer_->Append(payload);
}

Result<interface::QueryResult> JournalingDatabase::Execute(
    const interface::Query& q) {
  HDSKY_RETURN_IF_ERROR(ValidateQuery(q));
  if (options_.auto_checkpoint && checkpoint_due_) {
    // Between queries every point is consistent for pure-replay resume.
    // A failed checkpoint loses nothing: the current epoch keeps growing
    // and the next Execute retries.
    (void)Checkpoint(options_.auto_checkpoint_state);
  }
  const std::string signature = q.Signature();
  const auto hit = replay_.find(signature);
  if (hit != replay_.end()) {
    ++stats_.replayed;
    return hit->second;
  }

  // Fresh query: journal the intent (with the wire seq it will be sent
  // under) before the backend can charge for it.
  const bool resend_of_pending =
      pending_signature_.has_value() && *pending_signature_ == signature;
  uint64_t seq = 0;
  if (resend_of_pending) {
    // The intent is already durable from a previous attempt (same process
    // retry after an error, or a resumed session finishing a query its
    // predecessor died inside). Re-use its sequence number so the server
    // replays instead of re-charging.
    seq = *pending_seq_;
  } else if (pending_signature_.has_value()) {
    return Status::Internal(
        "resumed run diverged from its journal: the journal ends in an "
        "unresolved intent for a different query (was the session restarted "
        "with different flags?)");
  } else {
    seq = options_.seq_provider ? options_.seq_provider() : last_seq_ + 1;
    HDSKY_RETURN_IF_ERROR(AppendRecord(EncodeIntentRecord(seq, signature)));
    pending_signature_ = signature;
    pending_seq_ = seq;
  }

  auto answer = backend_->Execute(q);
  last_seq_ = std::max(last_seq_, seq);
  if (!answer.ok()) {
    // The intent stays journaled: a retry (this process or the next one)
    // re-sends under the same seq, keeping accounting exact.
    ++stats_.errors;
    return answer.status();
  }
  ++stats_.paid;
  HDSKY_RETURN_IF_ERROR(
      AppendRecord(EncodeResultRecord(seq, signature, answer.value())));
  Insert(signature, answer.value());
  pending_signature_.reset();
  pending_seq_.reset();
  if (++paid_since_checkpoint_ >= options_.checkpoint_every) {
    checkpoint_due_ = true;
  }
  return answer;
}

Status JournalingDatabase::ResolvePending() {
  if (!pending_signature_.has_value()) return Status::OK();
  // Rebuild the query from its journaled signature (one {lower, upper}
  // Value pair per attribute — Query::Signature is injective over
  // intervals) and push it through Execute: the resend-of-pending path
  // re-sends it under the original wire seq, so the server replays or
  // charges exactly once and the intent clears.
  const std::string signature = *pending_signature_;
  const int width = backend_->schema().num_attributes();
  if (signature.size() !=
      static_cast<size_t>(width) * 2 * sizeof(data::Value)) {
    return Status::Internal(
        "journaled intent signature does not match the schema width");
  }
  interface::Query q(width);
  const char* p = signature.data();
  for (int attr = 0; attr < width; ++attr) {
    data::Value lo = 0;
    data::Value hi = 0;
    std::memcpy(&lo, p, sizeof(lo));
    p += sizeof(lo);
    std::memcpy(&hi, p, sizeof(hi));
    p += sizeof(hi);
    if (lo != interface::Interval::kMin) q.AddAtLeast(attr, lo);
    if (hi != interface::Interval::kMax) q.AddAtMost(attr, hi);
  }
  if (q.Signature() != signature) {
    return Status::Internal("journaled intent signature failed to roundtrip");
  }
  return Execute(q).status();
}

Status JournalingDatabase::Checkpoint(const std::string& state_blob) {
  CrashPointHit("checkpoint.pre_snapshot");
  HDSKY_RETURN_IF_ERROR(writer_->Sync());
  const int width = backend_->schema().num_attributes();
  const int64_t next_epoch = epoch_ + 1;
  const std::string snapshot_path =
      dir_ + "/" + SnapshotFileName(next_epoch);
  const std::string journal_path = dir_ + "/" + JournalFileName(next_epoch);

  Snapshot snap;
  snap.last_seq = last_seq_;
  snap.state_blob = state_blob;
  snap.entries.reserve(order_.size());
  for (const std::string& sig : order_) {
    snap.entries.push_back(SnapshotEntry{sig, replay_.at(sig)});
  }
  HDSKY_RETURN_IF_ERROR(WriteSnapshot(snapshot_path, width, snap));

  // A failed earlier checkpoint attempt may have left next-epoch debris.
  ::unlink(journal_path.c_str());
  std::unique_ptr<JournalWriter> next_writer;
  HDSKY_ASSIGN_OR_RETURN(
      next_writer,
      JournalWriter::Create(journal_path, width,
                            JournalWriter::Options{options_.sync_every}));
  if (pending_signature_.has_value()) {
    // Carry the unresolved intent across the rotation: compaction must not
    // forget that a query may already be charged server-side.
    HDSKY_RETURN_IF_ERROR(next_writer->Append(
        EncodeIntentRecord(*pending_seq_, *pending_signature_)));
    HDSKY_RETURN_IF_ERROR(next_writer->Sync());
  }

  CrashPointHit("checkpoint.pre_manifest");
  // The commit point: after this rename recovery reads epoch e+1; before
  // it, epoch e (the files written above are then deleted as debris).
  HDSKY_RETURN_IF_ERROR(WriteManifest(dir_, Manifest{next_epoch, true}));
  CrashPointHit("checkpoint.pre_cleanup");

  writer_ = std::move(next_writer);
  epoch_ = next_epoch;
  RemoveOtherEpochFiles(dir_, epoch_);
  paid_since_checkpoint_ = 0;
  checkpoint_due_ = false;
  return Status::OK();
}

Status JournalingDatabase::Finish(const std::string& state_blob) {
  return Checkpoint(state_blob);
}

Status JournalingDatabase::Sync() { return writer_->Sync(); }

uint64_t JournalingDatabase::next_wire_seq() const {
  return pending_seq_.has_value() ? *pending_seq_ : last_seq_ + 1;
}

}  // namespace recovery
}  // namespace hdsky
