// Figure 9: efficiency — wall-clock seconds of DIME, DIME+, CR and SVM
// while the number of entities grows.
//  (a) Google Scholar pages from 500 to 3000 entities.
//  (b) Amazon categories from 2000 to 10000 entities at e = 40%.
//
// The shape to reproduce: DIME+ < DIME << CR, SVM, with the gap widening
// with group size (the paper reports DIME+ 2-10x faster than DIME).
//
// A third section covers the sharded execution engine (DESIGN.md §7.9):
// dbgen-100k (and 1M in full mode) under serial DIME+ vs
// RunDimePlusSharded at 1 and 8 executors, with the host's core count
// recorded next to the timings — a speedup measured on a 1-core
// container is honestly ~1x, and the JSON says so instead of hiding it.
//
//   --json <path>   additionally write the rows as one JSON object
//   --label <s>     tag for the JSON entry (default "current"); tools/
//                   bench.sh uses it to keep pre-/post-optimization runs
//                   apart in the repo-root BENCH_fig9.json
//   --only <s>      run a single section: scholar, amazon, or dbgen
//                   (CI's bench-scale job uses --only dbgen)
//   --allow-debug   record despite a non-Release build (see bench_util.h)

#include <algorithm>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/baselines/cr.h"
#include "src/baselines/svm.h"
#include "src/common/logging.h"
#include "src/common/timer.h"
#include "src/core/dime_plus.h"
#include "src/datagen/amazon_gen.h"
#include "src/datagen/dbgen_gen.h"
#include "src/datagen/presets.h"
#include "src/datagen/scholar_gen.h"
#include "src/exec/sharded_dime.h"

namespace dime {
namespace {

using bench::PrintTitle;
using bench::QuickMode;

struct Timings {
  double dime, dime_plus, cr, svm;
};

/// One printed table line, kept for the optional --json dump.
struct Row {
  const char* dataset;
  size_t entities;
  Timings t;
};

std::vector<Row> g_rows;

/// One line of the sharded-engine scale table; lands in the JSON as
/// "scale_rows" with the host core count attached.
struct ScaleRow {
  size_t entities;
  double serial_plus_s;
  double sharded_1t_s;
  double sharded_8t_s;

  /// Pool scaling of the sharded engine against itself at one thread.
  double speedup_vs_1t() const {
    return sharded_1t_s / std::max(sharded_8t_s, 1e-9);
  }
};

std::vector<ScaleRow> g_scale_rows;

Timings TimeAll(const Group& group, const std::vector<PositiveRule>& pos,
                const std::vector<NegativeRule>& neg,
                const DimeContext& context, const CrConfig& cr_config,
                const std::vector<FeatureSpec>& features,
                const LinearSvm& svm) {
  Timings t;
  {
    WallTimer timer;
    PreparedGroup pg = PrepareGroup(group, pos, neg, context);
    DimeResult r = RunDime(pg, pos, neg);
    t.dime = timer.ElapsedSeconds();
  }
  {
    WallTimer timer;
    PreparedGroup pg = PrepareGroup(group, pos, neg, context);
    DimeResult r = RunDimePlus(pg, pos, neg);
    t.dime_plus = timer.ElapsedSeconds();
  }
  {
    WallTimer timer;
    CrResult r = RunCr(group, cr_config);
    t.cr = timer.ElapsedSeconds();
  }
  {
    WallTimer timer;
    std::vector<int> flagged = SvmDiscover(group, features, svm, context);
    t.svm = timer.ElapsedSeconds();
  }
  return t;
}

void RunScholar() {
  PrintTitle("Fig. 9(a)  Scholar: runtime (seconds) vs #entities");
  ScholarSetup setup = MakeScholarSetup();

  // Train the SVM once on small groups.
  ScholarGenOptions gen;
  gen.num_correct = 100;
  std::vector<Group> train_groups;
  for (uint64_t s = 0; s < 2; ++s) {
    gen.seed = 900 + s;
    train_groups.push_back(
        GenerateScholarGroup("Trainer " + std::to_string(s), gen));
  }
  LinearSvm svm;
  DIME_CHECK(svm.Train(ComputeFeatures(
                           train_groups,
                           SampleExamplePairs(train_groups, 60, 60, 7),
                           setup.features, setup.context),
                       SvmOptions{})
                 .ok());

  std::vector<size_t> sizes = QuickMode()
                                  ? std::vector<size_t>{500, 1000}
                                  : std::vector<size_t>{500, 1000, 1500,
                                                        2000, 2500, 3000};
  std::printf("%-8s | %8s %8s %8s %8s\n", "#tuples", "DIME", "DIME+", "CR",
              "SVM");
  bench::PrintRule();
  for (size_t n : sizes) {
    ScholarGenOptions big;
    big.num_correct = n - 18;  // ~13 errors + 5 odd correct pubs
    big.coauthor_pool = 40 + n / 20;
    big.seed = 3000 + n;
    Group group = GenerateScholarGroup("Big Page", big);
    Timings t = TimeAll(group, setup.positive, setup.negative, setup.context,
                        setup.cr, setup.features, svm);
    g_rows.push_back(Row{"scholar", group.size(), t});
    std::printf("%-8zu | %8.3f %8.3f %8.3f %8.3f\n", group.size(), t.dime,
                t.dime_plus, t.cr, t.svm);
  }
}

void RunAmazon() {
  PrintTitle("Fig. 9(b)  Amazon (e=40%): runtime (seconds) vs #entities");
  std::vector<size_t> sizes =
      QuickMode() ? std::vector<size_t>{1000, 2000}
                  : std::vector<size_t>{2000, 4000, 6000, 8000, 10000};

  std::printf("%-8s | %8s %8s %8s %8s\n", "#tuples", "DIME", "DIME+", "CR",
              "SVM");
  bench::PrintRule();
  for (size_t n : sizes) {
    AmazonGenOptions gen;
    gen.error_rate = 0.4;
    gen.num_correct = static_cast<size_t>(n * 0.6);
    gen.window = 12;
    gen.seed = 4000 + n;
    int category = static_cast<int>(n / 2000) % 20;
    std::vector<Group> corpus{GenerateAmazonGroup(category, gen)};
    AmazonSetup setup = MakeAmazonSetup(corpus);

    // SVM trained on a small same-rate corpus.
    AmazonGenOptions small = gen;
    small.num_correct = 100;
    small.seed = 77;
    std::vector<Group> train_groups{GenerateAmazonGroup((category + 1) % 20,
                                                        small)};
    LinearSvm svm;
    DIME_CHECK(svm.Train(ComputeFeatures(
                             train_groups,
                             SampleExamplePairs(train_groups, 60, 60, 7),
                             setup.features, setup.context),
                         SvmOptions{})
                   .ok());

    Timings t = TimeAll(corpus[0], setup.positive, setup.negative,
                        setup.context, setup.cr, setup.features, svm);
    g_rows.push_back(Row{"amazon_e40", corpus[0].size(), t});
    std::printf("%-8zu | %8.3f %8.3f %8.3f %8.3f\n", corpus[0].size(), t.dime,
                t.dime_plus, t.cr, t.svm);
  }
}

void RunDbgenScale() {
  PrintTitle("Sharded engine scale (DBGen): serial DIME+ vs RunDimePlusSharded");
  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("host cores: %u (speedups beyond 1x need >1 core; the JSON "
              "records this)\n",
              cores);
  std::vector<size_t> sizes = QuickMode()
                                  ? std::vector<size_t>{100000}
                                  : std::vector<size_t>{100000, 1000000};
  std::printf("%-9s | %10s %12s %12s %9s\n", "#tuples", "DIME+ 1T",
              "sharded 1T", "sharded 8T", "8T vs 1T");
  bench::PrintRule();
  std::vector<PositiveRule> pos = DbgenPositiveRules();
  std::vector<NegativeRule> neg = DbgenNegativeRules();
  for (size_t n : sizes) {
    DbgenOptions options = n >= 1000000 ? DbgenPreset1M() : DbgenPreset100k();
    options.num_entities = n;
    Group group = GenerateDbgenGroup(options);
    PreparedGroup pg = PrepareGroup(group, pos, neg, {});

    ScaleRow row;
    row.entities = group.size();
    {
      WallTimer timer;
      DimeResult r = RunDimePlus(pg, pos, neg);
      row.serial_plus_s = timer.ElapsedSeconds();
      DIME_CHECK(r.ok());
    }
    {
      exec::ShardedOptions sopts;
      sopts.num_threads = 1;
      WallTimer timer;
      DimeResult r = RunDimePlusSharded(pg, pos, neg, sopts);
      row.sharded_1t_s = timer.ElapsedSeconds();
      DIME_CHECK(r.ok());
    }
    {
      exec::ShardedOptions sopts;
      sopts.num_threads = 8;
      WallTimer timer;
      DimeResult r = RunDimePlusSharded(pg, pos, neg, sopts);
      row.sharded_8t_s = timer.ElapsedSeconds();
      DIME_CHECK(r.ok());
    }
    g_scale_rows.push_back(row);
    std::printf("%-9zu | %9.3fs %11.3fs %11.3fs %8.2fx\n", row.entities,
                row.serial_plus_s, row.sharded_1t_s, row.sharded_8t_s,
                row.speedup_vs_1t());
  }
}

/// One entry object: {"label": ..., "build_type": ..., "rows": [...]}.
/// tools/bench.sh wraps entries from different builds into the repo-root
/// BENCH_fig9.json.
bool WriteJson(const std::string& path, const std::string& label) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"bench\": \"fig9_efficiency\",\n");
  std::fprintf(f, "  \"label\": \"%s\",\n", label.c_str());
  std::fprintf(f, "  \"build_type\": \"%s\",\n", bench::LibraryBuildType());
  std::fprintf(f, "  \"quick\": %s,\n", QuickMode() ? "true" : "false");
  std::fprintf(f, "  \"host_cores\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"rows\": [\n");
  for (size_t i = 0; i < g_rows.size(); ++i) {
    const Row& r = g_rows[i];
    std::fprintf(f,
                 "    {\"dataset\": \"%s\", \"entities\": %zu, "
                 "\"dime_s\": %.3f, \"dime_plus_s\": %.3f, \"cr_s\": %.3f, "
                 "\"svm_s\": %.3f}%s\n",
                 r.dataset, r.entities, r.t.dime, r.t.dime_plus, r.t.cr,
                 r.t.svm, i + 1 < g_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  // Sharded-engine scale rows (empty unless the dbgen section ran).
  // speedup_vs_1t is honest: on a 1-core host it hovers near 1x, and the
  // top-level host_cores field lets readers tell that apart from a
  // scaling regression.
  std::fprintf(f, "  \"scale_rows\": [\n");
  for (size_t i = 0; i < g_scale_rows.size(); ++i) {
    const ScaleRow& r = g_scale_rows[i];
    std::fprintf(f,
                 "    {\"dataset\": \"dbgen\", \"entities\": %zu, "
                 "\"dime_plus_s\": %.3f, \"sharded_1t_s\": %.3f, "
                 "\"sharded_8t_s\": %.3f, \"speedup_vs_1t\": %.2f}%s\n",
                 r.entities, r.serial_plus_s, r.sharded_1t_s, r.sharded_8t_s,
                 r.speedup_vs_1t(),
                 i + 1 < g_scale_rows.size() ? "," : "");
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
  std::string only;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--label") == 0 && i + 1 < argc) {
      label = argv[++i];
    } else if (std::strcmp(argv[i], "--only") == 0 && i + 1 < argc) {
      only = argv[++i];
      if (only != "scholar" && only != "amazon" && only != "dbgen") {
        std::fprintf(stderr, "--only must be scholar, amazon, or dbgen\n");
        return 2;
      }
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }
  if (only.empty() || only == "scholar") {
    dime::RunScholar();
    std::printf("\n");
  }
  if (only.empty() || only == "amazon") {
    dime::RunAmazon();
    std::printf("\n");
  }
  if (only.empty() || only == "dbgen") {
    dime::RunDbgenScale();
  }
  if (!json_path.empty() && !dime::WriteJson(json_path, label)) return 1;
  return 0;
}
