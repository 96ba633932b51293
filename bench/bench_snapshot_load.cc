// Cold-start benchmark for the snapshot store (DESIGN.md §7.4): how long
// until a corpus is ready to serve, starting from
//   (a) TSV on disk  — read + parse + PrepareGroup + rule artifacts
//                      (what dime_server does without --snapshot), vs
//   (b) a snapshot   — LoadSnapshot borrowing the prepared arenas
//                      zero-copy from the mapped file.
//
// Corpora match `dime_snapshot build --preset ...` and the golden
// round-trip tests exactly: scholar-2999 and amazon-10000. The headline
// number the README quotes is the amazon-10000 speedup; the acceptance
// bar for the store is >= 5x in a release build.
//
//   --json <path>   additionally write the rows as one JSON object
//   --label <s>     tag for the JSON entry (default "current"); tools/
//                   bench.sh uses it to keep baseline/current runs apart
//                   in the repo-root BENCH_snapshot.json
//   --allow-debug   record despite a non-Release build (see bench_util.h)

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/timer.h"
#include "src/core/dime_plus.h"
#include "src/datagen/amazon_gen.h"
#include "src/datagen/presets.h"
#include "src/datagen/scholar_gen.h"
#include "src/core/signature.h"
#include "src/store/snapshot.h"

namespace dime {
namespace {

using bench::PrintTitle;
using bench::QuickMode;

struct Corpus {
  std::string dataset;
  std::vector<PositiveRule> positive;
  std::vector<NegativeRule> negative;
  DimeContext context;
  std::vector<std::unique_ptr<Ontology>> owned_trees;
  std::vector<Group> groups;
};

/// Same parameters as `dime_snapshot build --preset scholar-2999`.
Corpus MakeScholar2999() {
  ScholarSetup setup = MakeScholarSetup();
  Corpus corpus;
  corpus.dataset = "scholar-2999";
  corpus.positive = std::move(setup.positive);
  corpus.negative = std::move(setup.negative);
  corpus.context = setup.context;
  corpus.owned_trees.push_back(std::move(setup.venue_tree));
  ScholarGenOptions gen;
  gen.num_correct = 2982;
  gen.coauthor_pool = 190;
  gen.seed = 6000;
  corpus.groups.push_back(GenerateScholarGroup("Big Page", gen));
  return corpus;
}

/// Same parameters as `dime_snapshot build --preset amazon-10000`.
Corpus MakeAmazon10000() {
  AmazonGenOptions gen;
  gen.error_rate = 0.4;
  gen.num_correct = 6000;
  gen.window = 12;
  gen.seed = 14000;
  Group group = GenerateAmazonGroup(5, gen);
  AmazonSetup setup = MakeAmazonSetup({group});
  Corpus corpus;
  corpus.dataset = "amazon-10000";
  corpus.positive = std::move(setup.positive);
  corpus.negative = std::move(setup.negative);
  corpus.context = setup.context;
  corpus.owned_trees.push_back(std::move(setup.theme_tree));
  corpus.groups.push_back(std::move(group));
  return corpus;
}

struct Row {
  std::string dataset;
  size_t entities = 0;
  size_t snapshot_bytes = 0;
  bool mmap = false;
  double tsv_ingest_prepare_s = 0;
  double snapshot_load_s = 0;
  double snapshot_build_s = 0;
};

std::vector<Row> g_rows;

/// Best-of-`reps` wall time of `fn` — cold-start cost, so we want the
/// floor, not an average polluted by scheduler noise.
template <typename Fn>
double BestOf(int reps, Fn&& fn) {
  double best = -1;
  for (int i = 0; i < reps; ++i) {
    WallTimer timer;
    fn();
    double s = timer.ElapsedSeconds();
    if (best < 0 || s < best) best = s;
  }
  return best;
}

void RunPreset(Corpus corpus, const std::string& tmp_dir) {
  const int reps = QuickMode() ? 1 : 3;
  Row row;
  row.dataset = corpus.dataset;
  for (const Group& g : corpus.groups) row.entities += g.size();

  // Stage the TSV files and the snapshot (staging is not timed).
  std::vector<std::string> tsv_paths;
  for (size_t i = 0; i < corpus.groups.size(); ++i) {
    std::string path = tmp_dir + "/" + corpus.dataset + "_" +
                       std::to_string(i) + ".tsv";
    Status saved = SaveGroup(corpus.groups[i], path);
    if (!saved.ok()) {
      std::fprintf(stderr, "SaveGroup: %s\n", saved.ToString().c_str());
      std::exit(1);
    }
    tsv_paths.push_back(std::move(path));
  }
  std::string snap_path = tmp_dir + "/" + corpus.dataset + ".snap";
  SnapshotWriteRequest request;
  request.groups = &corpus.groups;
  request.positive = &corpus.positive;
  request.negative = &corpus.negative;
  request.context = &corpus.context;
  row.snapshot_build_s = BestOf(1, [&] {
    Status s = WriteSnapshot(request, snap_path);
    if (!s.ok()) {
      std::fprintf(stderr, "WriteSnapshot: %s\n", s.ToString().c_str());
      std::exit(1);
    }
  });

  // (a) Cold path: everything dime_server does between "here is a TSV
  // path" and "ready to answer a DIME+ check" — read, parse, prepare,
  // generate rule artifacts.
  row.tsv_ingest_prepare_s = BestOf(reps, [&] {
    for (const std::string& path : tsv_paths) {
      Group group;
      Status loaded = LoadGroup(path, path, &group);
      if (!loaded.ok()) {
        std::fprintf(stderr, "LoadGroup: %s\n", loaded.ToString().c_str());
        std::exit(1);
      }
      PreparedGroup pg = PrepareGroup(group, corpus.positive, corpus.negative,
                                      corpus.context);
      std::shared_ptr<const PreparedRuleArtifacts> artifacts =
          BuildPreparedRuleArtifacts(pg, corpus.positive, corpus.negative);
      if (artifacts == nullptr || pg.size() == 0) std::exit(1);
    }
  });

  // (b) Warm path: map the snapshot and borrow the prepared arenas.
  row.snapshot_load_s = BestOf(reps, [&] {
    StatusOr<LoadedSnapshot> loaded =
        LoadSnapshot(snap_path, SnapshotLoadOptions());
    if (!loaded.ok()) {
      std::fprintf(stderr, "LoadSnapshot: %s\n",
                   loaded.status().ToString().c_str());
      std::exit(1);
    }
    if (loaded->prepared.empty() || loaded->prepared[0]->size() == 0) {
      std::exit(1);
    }
    row.mmap = loaded->mapped;
  });
  StatusOr<SnapshotInfo> info = InspectSnapshot(snap_path);
  if (info.ok()) row.snapshot_bytes = static_cast<size_t>(info->file_size);

  double speedup = row.snapshot_load_s > 0
                       ? row.tsv_ingest_prepare_s / row.snapshot_load_s
                       : 0;
  std::printf("%-14s | %8zu | %12.4f %12.4f | %8.1fx | %s\n",
              row.dataset.c_str(), row.entities, row.tsv_ingest_prepare_s,
              row.snapshot_load_s, speedup, row.mmap ? "mmap" : "read");
  g_rows.push_back(std::move(row));
}

/// One entry object, same envelope convention as bench_fig9: tools/
/// bench.sh wraps entries from different runs into BENCH_snapshot.json.
bool WriteJson(const std::string& path, const std::string& label) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"bench\": \"snapshot_load\",\n");
  std::fprintf(f, "  \"label\": \"%s\",\n", label.c_str());
  std::fprintf(f, "  \"build_type\": \"%s\",\n", bench::LibraryBuildType());
  std::fprintf(f, "  \"quick\": %s,\n", QuickMode() ? "true" : "false");
  std::fprintf(f, "  \"rows\": [\n");
  for (size_t i = 0; i < g_rows.size(); ++i) {
    const Row& r = g_rows[i];
    double speedup =
        r.snapshot_load_s > 0 ? r.tsv_ingest_prepare_s / r.snapshot_load_s : 0;
    std::fprintf(f,
                 "    {\"dataset\": \"%s\", \"entities\": %zu, "
                 "\"tsv_ingest_prepare_s\": %.6f, \"snapshot_load_s\": %.6f, "
                 "\"snapshot_build_s\": %.6f, \"snapshot_bytes\": %zu, "
                 "\"mmap\": %s, \"speedup\": %.1f}%s\n",
                 r.dataset.c_str(), r.entities, r.tsv_ingest_prepare_s,
                 r.snapshot_load_s, r.snapshot_build_s, r.snapshot_bytes,
                 r.mmap ? "true" : "false", speedup,
                 i + 1 < g_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s (%zu rows, label \"%s\")\n", path.c_str(),
              g_rows.size(), label.c_str());
  return true;
}

}  // namespace
}  // namespace dime

int main(int argc, char** argv) {
  if (!dime::bench::GuardReleaseBuild(&argc, argv)) return 1;
  std::string json_path;
  std::string label = "current";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--label") == 0 && i + 1 < argc) {
      label = argv[++i];
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }
  const char* env_tmp = std::getenv("TMPDIR");
  std::string tmp_dir = env_tmp != nullptr ? env_tmp : "/tmp";

  dime::bench::PrintTitle(
      "Snapshot store: cold start from TSV vs warm start from snapshot");
  std::printf("%-14s | %8s | %12s %12s | %9s | %s\n", "dataset", "#tuples",
              "tsv+prep(s)", "snap_load(s)", "speedup", "io");
  dime::bench::PrintRule();
  dime::RunPreset(dime::MakeScholar2999(), tmp_dir);
  dime::RunPreset(dime::MakeAmazon10000(), tmp_dir);
  if (!json_path.empty() && !dime::WriteJson(json_path, label)) return 1;
  return 0;
}
