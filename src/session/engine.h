// Session building, part one: the local engine. Loads a dataset (a
// --data CSV or a --demo generator), binds a ranking, and builds the
// top-k interface over it, in memory or paged over a packed
// --dataset-file. session/stack.h builds the other layers on top.

#ifndef HDSKY_SESSION_ENGINE_H_
#define HDSKY_SESSION_ENGINE_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>

#include "common/status.h"
#include "data/paged_table.h"
#include "data/table.h"
#include "dataset/synthetic.h"
#include "interface/ranking.h"
#include "interface/top_k_interface.h"

namespace hdsky {
namespace session {

/// A failed build step, worded as every tool prints it: `text` is the
/// whole stderr message, `exit_code` the process exit status.
struct Failure {
  int exit_code = 1;
  std::string text;
  common::Status status;
};

/// "<stage>: <status>\n", exit 1.
Failure Failed(const std::string& stage, const common::Status& status);

/// printf into a std::string.
std::string Format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// The source flags hdsky_discover and hdsky_serve share.
struct SourceConfig {
  std::string data;          ///< CSV path
  std::string demo;          ///< flights | bluenile | autos | route
  std::string dataset_file;  ///< packed block file: the paged engine
  int64_t n = 0;             ///< demo size; 0 = the generator's default
  uint64_t seed = 42;
  std::string ranking = "sum";  ///< sum | lex:<attr_name>
  int64_t k = 10;
  int64_t budget = 0;             ///< query budget; 0 = unlimited
  int64_t buffer_pool_bytes = 0;  ///< 0 = the PagedTableOptions default
  std::string read_path = "mmap";
  int64_t readahead_pages = 8;
};

/// Parses a ranking spec: "sum" or "lex:<attr_name>".
common::Result<std::shared_ptr<interface::RankingPolicy>> MakeRanking(
    const std::string& spec, const data::Schema& schema);

/// A top-k interface and the data it serves: `table` in memory, or
/// `paged` for a packed file.
struct Engine {
  /// Loads the table, or opens the packed file; a pool budget below one
  /// page is raised to one, with a warning on `log` (nullptr: quiet).
  std::optional<Failure> OpenData(const SourceConfig& config,
                                  std::FILE* log);
  /// Generates a synthetic in-memory table (hdsky_loadgen's data).
  std::optional<Failure> OpenSynthetic(
      const dataset::SyntheticOptions& options);
  /// Builds `iface` over the opened data; in memory it binds
  /// `config.ranking` first, a packed file carries its own.
  std::optional<Failure> Build(const SourceConfig& config);
  /// The "dataset :" line: rows, schema, and how a packed file is paged
  /// (`read_path` names the pool's page fetch too).
  std::string Describe(bool read_path) const;

  data::Table table;
  std::unique_ptr<data::PagedTable> paged;
  std::unique_ptr<interface::TopKInterface> iface;
};

/// The "pool    :" report line of a paged table's buffer pool.
std::string PoolReport(const data::PagedTable& paged);

}  // namespace session
}  // namespace hdsky

#endif  // HDSKY_SESSION_ENGINE_H_
