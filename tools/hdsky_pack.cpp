// hdsky_pack — streaming STR bulk load of a dataset into a paged block
// file (data/block_file.h) that hdsky_serve / hdsky_discover can open
// out-of-core via --dataset-file.
//
// Loads a dataset (CSV or a built-in simulator), binds the chosen
// static-order ranking, and writes the table in rank order — header,
// PAX data pages, zone-map index levels — through the atomic
// temp+fsync+rename path, so a crash never leaves a half-written file.
//
//   hdsky_pack --demo bluenile --n 1000000 --out bluenile.hdb
//   hdsky_pack --data listings.csv --ranking lex:price --out listings.hdb
//
// Flags are listed by Usage() below. --compress auto writes format v2
// (per-run FOR/delta/dict encoding), off writes format v1 raw pages;
// --stats adds pages, zone-map levels, bytes/row and per-attribute
// compression ratios to the report.
//
// Prints one summary line to stderr and exits 0 on success; exit 64 on
// usage errors (including --compress with a value type the encoders do
// not support), 1 on load/pack failures.

#include <cstdio>
#include <memory>
#include <string>

#include "data/block_file.h"
#include "dataset/pack.h"
#include "session/engine.h"
#include "tools/cli.h"

namespace {

using namespace hdsky;

struct Args {
  session::SourceConfig source;  // --data | --demo, --n, --seed, --ranking
  std::string out;
  int64_t rows_per_block = 4096;
  std::string compress = "auto";
  bool stats = false;
};

void Usage() {
  std::fprintf(
      stderr,
      "usage: hdsky_pack (--data PATH | --demo NAME) --out FILE [options]\n"
      "  --demo NAME         flights | bluenile | autos | route\n"
      "  --out FILE          output block file (required)\n"
      "  --n N               demo dataset size\n"
      "  --seed S            demo generator seed\n"
      "  --ranking R         sum | lex:<attr_name>   (default sum)\n"
      "  --rows-per-block B  rows per data page (default 4096)\n"
      "  --compress MODE     auto (format v2, default) | off (format v1)\n"
      "  --stats             print page/level/compression stats\n");
}

bool ParseArgs(int argc, char** argv, Args* args) {
  tools::FlagReader r(argc, argv);
  session::SourceConfig& source = args->source;
  while (r.Next()) {
    const std::string& flag = r.flag();
    std::string value;
    if (r.Is("--data", &source.data) || r.Is("--demo", &source.demo) ||
        r.Is("--out", &args->out) || r.Is("--ranking", &source.ranking)) {
      continue;
    }
    if (flag == "--n") {
      if (!r.Int(1, INT64_MAX, &source.n)) return false;
    } else if (flag == "--seed") {
      if (!r.Seed(&source.seed)) return false;
    } else if (flag == "--rows-per-block") {
      if (!r.Int(1, 1 << 20, &args->rows_per_block)) return false;
    } else if (r.Is("--compress", &value)) {
      if (value != "auto" && value != "off") {
        std::fprintf(stderr, "invalid value for --compress: %s\n",
                     value.c_str());
        return false;
      }
      args->compress = value;
    } else if (flag == "--stats") {
      args->stats = true;
    } else {
      return r.Unknown();
    }
  }
  if (source.data.empty() == source.demo.empty()) {
    std::fprintf(stderr, "exactly one of --data / --demo is required\n");
    return false;
  }
  if (args->out.empty()) {
    std::fprintf(stderr, "--out is required\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 64;
  }

  session::Engine engine;  // only its data: packing needs no interface
  if (auto failed = engine.OpenData(args.source, nullptr)) {
    return tools::Exit(*failed);
  }
  const data::Table& table = engine.table;

  auto ranking_result =
      session::MakeRanking(args.source.ranking, table.schema());
  if (!ranking_result.ok()) {
    std::fprintf(stderr, "ranking: %s\n",
                 ranking_result.status().ToString().c_str());
    return 1;
  }

  data::BlockFileOptions options;
  options.rows_per_block = args.rows_per_block;
  options.compression = args.compress == "off" ? data::Compression::kOff
                                               : data::Compression::kAuto;
  if (options.compression == data::Compression::kAuto) {
    // The per-run encoders operate on bounded int64 rank codes; an
    // attribute with an inverted domain has no representable value
    // range and cannot be compressed.
    for (int a = 0; a < table.schema().num_attributes(); ++a) {
      const data::AttributeSpec& spec = table.schema().attribute(a);
      if (spec.domain_min > spec.domain_max) {
        std::fprintf(stderr,
                     "--compress=auto: attribute %s has an unsupported "
                     "value type (inverted domain); use --compress=off\n",
                     spec.name.c_str());
        return 64;
      }
    }
  }
  data::BlockFileWriteStats stats;
  auto packed = dataset::PackTable(table, std::move(ranking_result).value(),
                                   args.out, options, &stats);
  if (!packed.ok()) {
    std::fprintf(stderr, "pack: %s\n",
                 packed.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "packed  : %lld rows (%s, ranking %s) -> %s\n",
               static_cast<long long>(packed.value()),
               table.schema().ToString().c_str(), args.source.ranking.c_str(),
               args.out.c_str());
  if (args.stats) {
    const double rows = stats.rows > 0 ? static_cast<double>(stats.rows)
                                       : 1.0;
    std::fprintf(stderr,
                 "stats   : %lld data pages + %lld index pages, %d "
                 "zone-map levels, %.1f bytes/row on disk (%.1f logical)\n",
                 static_cast<long long>(stats.data_pages),
                 static_cast<long long>(stats.index_pages),
                 stats.num_index_levels,
                 static_cast<double>(stats.file_bytes) / rows,
                 static_cast<double>(stats.raw_payload_bytes()) / rows);
    for (size_t c = 0; c < stats.columns.size(); ++c) {
      const auto& col = stats.columns[c];
      const char* name =
          c == 0 ? "<tuple id>"
                 : table.schema()
                       .attribute(static_cast<int>(c) - 1)
                       .name.c_str();
      const double ratio =
          col.encoded_bytes > 0
              ? static_cast<double>(col.raw_bytes) /
                    static_cast<double>(col.encoded_bytes)
              : 1.0;
      std::fprintf(stderr,
                   "stats   :   %-12s %10llu B -> %10llu B (%.2fx)\n",
                   name, static_cast<unsigned long long>(col.raw_bytes),
                   static_cast<unsigned long long>(col.encoded_bytes),
                   ratio);
    }
  }
  return 0;
}
