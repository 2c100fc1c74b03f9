#include "session/engine.h"

#include <cstdarg>

#include "dataset/blue_nile.h"
#include "dataset/csv.h"
#include "dataset/flights_on_time.h"
#include "dataset/google_flights.h"
#include "dataset/yahoo_autos.h"

namespace hdsky {
namespace session {

Failure Failed(const std::string& stage, const common::Status& status) {
  return Failure{1, stage + ": " + status.ToString() + "\n", status};
}

std::string Format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list sizing;
  va_copy(sizing, args);
  std::string out(static_cast<size_t>(std::vsnprintf(nullptr, 0, fmt, sizing)),
                  '\0');
  va_end(sizing);
  std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  va_end(args);
  return out;
}

namespace {

/// A generator's options with `size` set from --n (0 keeps the default)
/// and the seed from --seed.
template <typename Options>
Options Sized(const SourceConfig& config, int64_t Options::*size) {
  Options options;
  if (config.n > 0) options.*size = config.n;
  options.seed = config.seed;
  return options;
}

/// Reads `config.data` or generates `config.demo`.
common::Result<data::Table> LoadTable(const SourceConfig& config) {
  using namespace dataset;
  if (!config.data.empty()) return ReadCsv(config.data);
  if (config.demo == "flights") {
    return GenerateFlightsOnTime(Sized(config, &FlightsOptions::num_tuples));
  }
  if (config.demo == "bluenile") {
    return GenerateBlueNile(Sized(config, &BlueNileOptions::num_tuples));
  }
  if (config.demo == "autos") {
    return GenerateYahooAutos(Sized(config, &YahooAutosOptions::num_tuples));
  }
  if (config.demo == "route") {
    return GenerateRoute(Sized(config, &GoogleFlightsOptions::num_flights));
  }
  return common::Status::InvalidArgument("unknown demo '" + config.demo +
                                         "'");
}

}  // namespace

common::Result<std::shared_ptr<interface::RankingPolicy>> MakeRanking(
    const std::string& spec, const data::Schema& schema) {
  if (spec == "sum") return interface::MakeSumRanking();
  if (spec.rfind("lex:", 0) == 0) {
    HDSKY_ASSIGN_OR_RETURN(const int attr, schema.IndexOf(spec.substr(4)));
    return interface::MakeLexicographicRanking({attr});
  }
  return common::Status::InvalidArgument("unknown ranking '" + spec + "'");
}

std::optional<Failure> Engine::OpenData(const SourceConfig& config,
                                        std::FILE* log) {
  if (config.dataset_file.empty()) {
    auto loaded = LoadTable(config);
    if (!loaded.ok()) return Failed("load", loaded.status());
    table = std::move(loaded).value();
    return std::nullopt;
  }
  data::PagedTableOptions options;
  if (config.buffer_pool_bytes > 0) {
    options.buffer_pool_bytes = static_cast<size_t>(config.buffer_pool_bytes);
  }
  data::ParseReadPathKind(config.read_path, &options.read_path);
  options.readahead_pages = static_cast<int>(config.readahead_pages);
  auto opened = data::Table::OpenPaged(config.dataset_file, options);
  if (!opened.ok()) return Failed("load", opened.status());
  paged = std::move(opened).value();
  const data::BufferPool& pool = *paged->pool();
  if (log != nullptr && pool.budget_was_clamped()) {
    std::fprintf(log,
                 "warning: --buffer-pool-bytes %llu below one page; "
                 "effective budget %llu bytes\n",
                 static_cast<unsigned long long>(
                     pool.requested_budget_bytes()),
                 static_cast<unsigned long long>(pool.budget_bytes()));
  }
  return std::nullopt;
}

std::optional<Failure> Engine::OpenSynthetic(
    const dataset::SyntheticOptions& options) {
  auto generated = dataset::GenerateSynthetic(options);
  if (!generated.ok()) return Failed("load", generated.status());
  table = std::move(generated).value();
  return std::nullopt;
}

std::optional<Failure> Engine::Build(const SourceConfig& config) {
  interface::TopKOptions topk;
  topk.k = static_cast<int>(config.k);
  topk.query_budget = config.budget;
  std::shared_ptr<interface::RankingPolicy> ranking;
  if (!paged) {  // a packed file carries the ranking it was packed with
    auto made = MakeRanking(config.ranking, table.schema());
    if (!made.ok()) return Failed("ranking", made.status());
    ranking = std::move(made).value();
  }
  auto built =
      paged ? interface::TopKInterface::CreatePaged(paged.get(), topk)
            : interface::TopKInterface::Create(&table, std::move(ranking),
                                               topk);
  if (!built.ok()) return Failed("interface", built.status());
  iface = std::move(built).value();
  return std::nullopt;
}

std::string Engine::Describe(bool read_path) const {
  if (!paged) {
    return Format("dataset : %lld tuples, %s\n",
                  static_cast<long long>(table.num_rows()),
                  table.schema().ToString().c_str());
  }
  return Format("dataset : %lld tuples (paged%s%s, ranking %s, pool %lld "
                "bytes), %s\n",
                static_cast<long long>(paged->num_rows()),
                read_path ? " " : "",
                read_path ? paged->pool()->read_path_name() : "",
                paged->ranking_name().c_str(),
                static_cast<long long>(paged->pool()->budget_bytes()),
                paged->schema().ToString().c_str());
}

std::string PoolReport(const data::PagedTable& paged) {
  const data::BufferPool::Stats s = paged.pool_stats();
  return Format(
      "pool    : %s path, %llu hits, %llu misses, %llu loads, %llu "
      "evictions, %llu prefetched (%llu hit), %llu bytes read, %llu "
      "resident bytes\n",
      paged.pool()->read_path_name(),
      static_cast<unsigned long long>(s.hits),
      static_cast<unsigned long long>(s.misses),
      static_cast<unsigned long long>(s.loads),
      static_cast<unsigned long long>(s.evictions),
      static_cast<unsigned long long>(s.prefetch_loads),
      static_cast<unsigned long long>(s.prefetch_hits),
      static_cast<unsigned long long>(s.bytes_read),
      static_cast<unsigned long long>(s.resident_bytes));
}

}  // namespace session
}  // namespace hdsky
