// Span recording and timing decorators for the end-to-end benchmark.
//
// A TimedDatabase sits at one layer boundary of the discovery stack and
// records a span around every call into the layer below it. Client-side
// spans go to the calling thread's SpanRecorder (installed with
// ScopedRecorder), which links each span to the one that caused it, so a
// session's spans form a tree rooted at its "core.session" span. The
// server-side backend boundary runs on the server's worker thread; until
// the wire carries a trace id those spans cannot be linked to the client
// span that caused them, so they go to a shared detached recorder and are
// attributed in aggregate.
//
// A layer's self time is the duration of its spans minus the part covered
// by their child spans (SelfTimeByLayer).

#ifndef HDSKY_PERFBENCH_TRACE_H_
#define HDSKY_PERFBENCH_TRACE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <utility>
#include <vector>

#include "interface/hidden_database.h"

namespace hdsky {
namespace perfbench {

/// Layers of the stack, named after the repository's modules.
enum class Layer : uint8_t {
  kCore = 0,   // algorithm drivers + SkylineCollector
  kInterface,  // in-memory k-d / vector engine
  kData,       // paged engine over the buffer pool and block file
  kService,    // remote client, wire, epoll server, shared cache
};
inline constexpr size_t kNumLayers = 4;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  // static string, e.g. "service.execute"
  Layer layer = Layer::kCore;
  int32_t parent = -1;  // index in the same recorder; -1 for a root
  /// (session << 32) | query seq within the session; a query's spans
  /// share it. 0 for detached (server-side) spans.
  uint64_t trace_id = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Spans of one thread, kept in memory until the benchmark reads them.
class SpanRecorder {
 public:
  /// Starts a session: following root spans and their queries carry
  /// `session` in their trace ids.
  void BeginSession(uint64_t session) {
    session_ = session;
    seq_ = 0;
  }

  /// Opens a span as a child of the innermost open span.
  int32_t Begin(const char* name, Layer layer) {
    Span s;
    s.name = name;
    s.layer = layer;
    if (!open_.empty()) {
      s.parent = open_.back();
      const Span& p = spans_[static_cast<size_t>(s.parent)];
      // Direct children of a root are the session's queries.
      s.trace_id = p.parent < 0 ? (session_ << 32) | ++seq_ : p.trace_id;
    } else {
      s.trace_id = session_ << 32;
    }
    s.start_ns = NowNs();
    const int32_t index = static_cast<int32_t>(spans_.size());
    spans_.push_back(s);
    open_.push_back(index);
    return index;
  }

  void End(int32_t index) {
    spans_[static_cast<size_t>(index)].end_ns = NowNs();
    open_.pop_back();
  }

  /// Records an already-timed span with no parent.
  void AddDetached(const char* name, Layer layer, int64_t start_ns,
                   int64_t end_ns) {
    spans_.push_back(Span{name, layer, -1, 0, start_ns, end_ns});
  }

  const std::vector<Span>& spans() const { return spans_; }
  void Clear() {
    spans_.clear();
    open_.clear();
  }

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  uint64_t session_ = 0;
  uint64_t seq_ = 0;
};

inline SpanRecorder*& CurrentRecorder() {
  thread_local SpanRecorder* recorder = nullptr;
  return recorder;
}

/// Installs `recorder` as the calling thread's recorder for its lifetime.
class ScopedRecorder {
 public:
  explicit ScopedRecorder(SpanRecorder* recorder)
      : previous_(std::exchange(CurrentRecorder(), recorder)) {}
  ~ScopedRecorder() { CurrentRecorder() = previous_; }
  ScopedRecorder(const ScopedRecorder&) = delete;
  ScopedRecorder& operator=(const ScopedRecorder&) = delete;

 private:
  SpanRecorder* previous_;
};

/// RAII span on the calling thread's recorder (no-op without one).
class ScopedSpan {
 public:
  ScopedSpan(const char* name, Layer layer) : recorder_(CurrentRecorder()) {
    if (recorder_ != nullptr) index_ = recorder_->Begin(name, layer);
  }
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int32_t index_ = -1;
};

/// Shared recorder for spans recorded on threads the benchmark does not
/// own (the server's backend executor).
class DetachedSink {
 public:
  void Add(const char* name, Layer layer, int64_t start_ns, int64_t end_ns) {
    std::lock_guard<std::mutex> lock(mu_);
    recorder_.AddDetached(name, layer, start_ns, end_ns);
  }
  /// Returns the recorded spans and clears the sink; call after the
  /// recording threads have been joined.
  std::vector<Span> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Span> out = recorder_.spans();
    recorder_.Clear();
    return out;
  }

 private:
  std::mutex mu_;
  SpanRecorder recorder_;
};

/// Timing decorator at one layer boundary. Forwards both Execute
/// overloads, so the allocation-free Execute(q, out) path the discovery
/// drivers use stays in the measured stack, and forwards ValidateQuery.
class TimedDatabase : public interface::HiddenDatabase {
 public:
  /// Records into the calling thread's recorder.
  TimedDatabase(interface::HiddenDatabase* inner, const char* name,
                Layer layer)
      : inner_(inner), name_(name), layer_(layer) {}
  /// Records detached spans into `sink` (server-side boundary).
  TimedDatabase(interface::HiddenDatabase* inner, const char* name,
                Layer layer, DetachedSink* sink)
      : inner_(inner), name_(name), layer_(layer), sink_(sink) {}

  common::Result<interface::QueryResult> Execute(
      const interface::Query& q) override {
    return Timed([&] { return inner_->Execute(q); });
  }
  common::Status Execute(const interface::Query& q,
                         interface::QueryResult* out) override {
    return Timed([&] { return inner_->Execute(q, out); });
  }
  common::Status ValidateQuery(const interface::Query& q) const override {
    return inner_->ValidateQuery(q);
  }
  const data::Schema& schema() const override { return inner_->schema(); }
  int k() const override { return inner_->k(); }

 private:
  template <typename Fn>
  auto Timed(Fn&& fn) -> decltype(fn()) {
    if (sink_ != nullptr) {
      const int64_t start = NowNs();
      auto result = fn();
      sink_->Add(name_, layer_, start, NowNs());
      return result;
    }
    ScopedSpan span(name_, layer_);
    return fn();
  }

  interface::HiddenDatabase* inner_;
  const char* name_;
  Layer layer_;
  DetachedSink* sink_ = nullptr;
};

/// Per-layer self time in seconds over the span trees rooted at spans
/// named `root` (other trees, e.g. replay runs, are skipped). Children of
/// one span never overlap: each thread records one call stack.
inline std::array<double, kNumLayers> SelfTimeByLayer(
    const std::vector<Span>& spans, const char* root) {
  std::vector<int64_t> child_ns(spans.size(), 0);
  std::vector<char> counted(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    counted[i] = s.parent < 0 ? (std::strcmp(s.name, root) == 0)
                              : counted[static_cast<size_t>(s.parent)];
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::array<double, kNumLayers> self{};
  for (size_t i = 0; i < spans.size(); ++i) {
    if (!counted[i]) continue;
    const Span& s = spans[i];
    self[static_cast<size_t>(s.layer)] +=
        static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-9;
  }
  return self;
}

}  // namespace perfbench
}  // namespace hdsky

#endif  // HDSKY_PERFBENCH_TRACE_H_
