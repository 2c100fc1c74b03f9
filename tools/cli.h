// Command-line plumbing shared by the hdsky_* tools: a strict integer
// parser, a reader that walks argv one flag at a time, the source flag
// group (--data, --demo, --dataset-file, generation, ranking, page size,
// budget and buffer-pool flags) that hdsky_discover and hdsky_serve both
// accept and validate the same way, and SIGINT/SIGTERM handling.

#ifndef HDSKY_TOOLS_CLI_H_
#define HDSKY_TOOLS_CLI_H_

#include <signal.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <set>
#include <string>
#include <thread>

#include "data/read_path.h"
#include "session/engine.h"

namespace hdsky {
namespace tools {

/// Strict integer parse: the whole token must be a base-10 number in
/// [min, max]. "12x", "", " 3", and out-of-range values all fail.
inline bool ParseInt(const std::string& s, int64_t min, int64_t max,
                     int64_t* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (errno != 0 || end == s.c_str() || *end != '\0') return false;
  if (v < min || v > max) return false;
  *out = v;
  return true;
}

/// Walks argv one flag at a time and remembers every flag it has seen.
class FlagReader {
 public:
  FlagReader(int argc, char** argv) : argc_(argc), argv_(argv) {}

  /// Advances to the next flag; false once argv is exhausted.
  bool Next() {
    if (++i_ >= argc_) return false;
    flag_ = argv_[i_];
    seen_.insert(flag_);
    return true;
  }
  const std::string& flag() const { return flag_; }
  bool seen(const std::string& flag) const { return seen_.count(flag) > 0; }

  /// Consumes the flag's value; false when the flag ends the line.
  bool Value(std::string* dst) {
    if (i_ + 1 >= argc_) return false;
    *dst = argv_[++i_];
    return true;
  }
  /// True when the flag is `name` and its value was consumed into `dst`.
  bool Is(const char* name, std::string* dst) {
    return flag_ == name && Value(dst);
  }
  /// Consumes an integer value in [min, max]; reports a bad one.
  bool Int(int64_t min, int64_t max, int64_t* dst) {
    std::string value;
    if (!Value(&value) || !ParseInt(value, min, max, dst)) {
      std::fprintf(stderr, "invalid value for %s\n", flag_.c_str());
      return false;
    }
    return true;
  }
  bool Seed(uint64_t* dst) {
    int64_t seed;
    if (!Int(0, INT64_MAX, &seed)) return false;
    *dst = static_cast<uint64_t>(seed);
    return true;
  }
  /// Reports the first of `flags` seen with `message`, whose %s is the
  /// flag; true when none was seen.
  bool NoneSeen(std::initializer_list<const char*> flags,
                const char* message) const {
    for (const char* flag : flags) {
      if (seen(flag)) {
        std::fprintf(stderr, message, flag);
        return false;
      }
    }
    return true;
  }
  /// Reports the current flag as unknown (or missing its value); false.
  bool Unknown() const {
    std::fprintf(stderr, "unknown or incomplete flag: %s\n", flag_.c_str());
    return false;
  }

 private:
  int argc_;
  char** argv_;
  int i_ = 0;
  std::string flag_;
  std::set<std::string> seen_;
};

enum class FlagMatch { kOther, kRead, kInvalid };

/// Reads the current flag into `config` if it belongs to the source
/// group; kInvalid after reporting a bad value.
inline FlagMatch ReadSourceFlag(FlagReader* r, session::SourceConfig* config) {
  auto read = [](bool ok) {
    return ok ? FlagMatch::kRead : FlagMatch::kInvalid;
  };
  const std::string& flag = r->flag();
  std::string value;
  if (r->Is("--data", &config->data) || r->Is("--demo", &config->demo) ||
      r->Is("--dataset-file", &config->dataset_file) ||
      r->Is("--ranking", &config->ranking)) {
    return FlagMatch::kRead;
  }
  if (flag == "--n") return read(r->Int(1, INT64_MAX, &config->n));
  if (flag == "--seed") return read(r->Seed(&config->seed));
  if (flag == "--k") return read(r->Int(1, 1000000, &config->k));
  if (flag == "--budget") return read(r->Int(0, INT64_MAX, &config->budget));
  if (flag == "--buffer-pool-bytes") {
    return read(r->Int(1, INT64_MAX, &config->buffer_pool_bytes));
  }
  if (flag == "--readahead-pages") {
    return read(r->Int(0, 1 << 16, &config->readahead_pages));
  }
  if (r->Is("--read-path", &value)) {
    data::ReadPathKind kind;
    if (!data::ParseReadPathKind(value, &kind)) {
      std::fprintf(stderr, "invalid value for --read-path: %s\n",
                   value.c_str());
      return FlagMatch::kInvalid;
    }
    config->read_path = value;
    return FlagMatch::kRead;
  }
  return FlagMatch::kOther;
}

/// Validates the source group once every flag is read: exactly one source
/// (`other_source`, when set, names the tool's own extra source flag),
/// the pool flags only with --dataset-file, and no generation or ranking
/// flag — nor any of `also_baked` — alongside a packed --dataset-file,
/// which fixed them at pack time. Reports the first violation.
inline bool ValidateSource(const FlagReader& r,
                           const session::SourceConfig& config,
                           const char* other_source,
                           std::initializer_list<const char*> also_baked) {
  const bool other = other_source != nullptr && r.seen(other_source);
  const int sources = (!config.data.empty() ? 1 : 0) +
                      (!config.demo.empty() ? 1 : 0) +
                      (!config.dataset_file.empty() ? 1 : 0) + (other ? 1 : 0);
  if (sources != 1) {
    std::fprintf(stderr,
                 "exactly one of --data / --demo / --dataset-file%s%s is "
                 "required\n",
                 other_source != nullptr ? " / " : "",
                 other_source != nullptr ? other_source : "");
    return false;
  }
  if (config.dataset_file.empty()) {
    return r.NoneSeen(
        {"--buffer-pool-bytes", "--read-path", "--readahead-pages"},
        "%s requires --dataset-file\n");
  }
  const char* baked =
      "%s configures local generation/ranking; a packed --dataset-file "
      "fixes these at pack time\n";
  return r.NoneSeen({"--n", "--seed", "--ranking"}, baked) &&
         r.NoneSeen(also_baked, baked);
}

/// Prints a failed build step and returns its exit code.
inline int Exit(const session::Failure& failure) {
  std::fputs(failure.text.c_str(), stderr);
  return failure.exit_code;
}

/// Set by SIGINT or SIGTERM once InstallSignalHandlers has run.
inline std::atomic<bool> g_signaled{false};

/// Routes SIGINT and SIGTERM to g_signaled instead of ending the process.
inline void InstallSignalHandlers() {
  struct sigaction sa = {};
  sa.sa_handler = [](int) { g_signaled.store(true); };
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
}

/// Blocks until SIGINT or SIGTERM; the serving tools run until then.
inline void WaitForSignal() {
  InstallSignalHandlers();
  while (!g_signaled.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
}

}  // namespace tools
}  // namespace hdsky

#endif  // HDSKY_TOOLS_CLI_H_
