#include "perfbench/runner/inputs.h"

#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <random>

#include "perfbench/runner/bench_common.h"
#include "src/datagen/scholar_gen.h"
#include "src/store/snapshot.h"

namespace perfbench {

using dime::DeltaRecord;
using dime::Group;

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a + 0x9e3779b97f4a7c15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

bool FindWorkload(const std::string& name, bool smoke, WorkloadSpec* out) {
  WorkloadSpec w;
  w.name = name;
  if (name == "pages") {
    w.batch_pages = smoke ? 30 : 2000;
    w.batch_min = 50;
    w.batch_max = smoke ? 300 : 3000;
    // Most of the run verdicts the batch corpus: host load drifts over
    // tens of seconds, and only a long window of verdicts averages it out.
    w.batch_share = 0.8;
    w.read_share = 0.35;
    w.live_share = 0.1;
    w.served_groups = smoke ? 12 : 64;
    w.served_min = 50;
    w.served_max = 400;
    w.inline_groups = 8;
    w.cache_capacity = smoke ? 6 : 32;
    w.nominal_qps = 300;
    w.slo_ms = 50;
    w.ladder_anchor_qps = 2000;
    w.reload_every_s = 0.25;
    w.delta_groups = 2;
  } else if (name == "serve-live") {
    w.batch_through_server = true;
    w.batch_share = 0.55;
    w.read_share = 0.3;
    w.live_share = 0.15;
    w.served_groups = smoke ? 24 : 300;
    w.served_min = 50;
    w.served_max = 300;
    w.inline_groups = 16;
    w.cache_capacity = smoke ? 12 : 128;
    w.nominal_qps = 300;
    w.slo_ms = 50;
    w.ladder_anchor_qps = 2000;
    w.reload_every_s = 0.45;
    w.delta_groups = 3;
  } else {
    return false;
  }
  *out = w;
  return true;
}

RuleSet MakeRules() {
  RuleSet rules;
  rules.scholar =
      std::make_shared<dime::ScholarSetup>(dime::MakeScholarSetup());
  rules.schema = rules.scholar->schema;
  rules.positive = rules.scholar->positive;
  rules.negative = rules.scholar->negative;
  rules.context = rules.scholar->context;
  return rules;
}

namespace {

/// Scholar page with about `size` entities (the generator adds ~17 error
/// and odd publications to `num_correct`).
Group ScholarPage(size_t size, uint64_t seed, const std::string& name) {
  dime::ScholarGenOptions gen;
  gen.num_correct = size > 37 ? size - 17 : 20;
  gen.seed = seed;
  gen.garbage_pubs = 3 + seed % 6;
  gen.chem_namesake_pubs = 2 + (seed >> 8) % 5;
  gen.cs_namesake_pubs = 1 + (seed >> 16) % 4;
  Group g = dime::GenerateScholarGroup("Owner " + name, gen);
  g.name = name;
  return g;
}

/// Quantile `p` of a truncated Pareto (alpha 1.1) on [lo, hi]: most
/// pages are small and a few reach the top of the range, the shape of
/// Fig. 9a.
size_t HeavyTailedSize(double p, size_t lo, size_t hi) {
  const double a = 1.1;
  double tail = 1.0 - std::pow(double(lo) / double(hi), a);
  return static_cast<size_t>(double(lo) / std::pow(1.0 - p * tail, 1.0 / a));
}

/// Quantile `p` of a log-uniform distribution on [lo, hi].
size_t LogUniformSize(double p, size_t lo, size_t hi) {
  return static_cast<size_t>(
      std::exp(std::log(double(lo)) + p * std::log(double(hi) / double(lo))));
}

/// Low-discrepancy position of item `i` in (0, 1): group sizes come from
/// fixed quantiles, so every seed has the same size profile (and the same
/// size at each popularity rank) while the seed changes the contents and
/// the order. Without this, a few heavy-tailed draws move the totals by
/// more than any bound the benchmark could hold.
double Position(size_t i) {
  double x = static_cast<double>(i + 1) * 0.6180339887498949;
  return x - std::floor(x);
}

}  // namespace

std::string GenerateInputs(const WorkloadSpec& spec, const RuleSet& rules,
                           uint64_t seed, const std::string& dir,
                           Inputs* out) {
  *out = Inputs();
  ::mkdir(dir.c_str(), 0755);
  // Batch corpus: the same multiset of page sizes for every seed, in a
  // seeded order (the order decides which pages straggle).
  if (spec.batch_pages > 0) {
    std::vector<size_t> sizes;
    for (size_t i = 0; i < spec.batch_pages; ++i) {
      sizes.push_back(HeavyTailedSize((i + 0.5) / spec.batch_pages,
                                      spec.batch_min, spec.batch_max));
    }
    std::mt19937_64 rng(Mix(seed, 1));
    std::shuffle(sizes.begin(), sizes.end(), rng);
    for (size_t i = 0; i < spec.batch_pages; ++i) {
      size_t size = sizes[i];
      std::string name = "page_" + std::to_string(i);
      Group g = ScholarPage(size, Mix(seed, 100 + i), name);
      std::string path = dir + "/" + name + ".tsv";
      dime::Status st = dime::SaveGroup(g, path);
      if (!st.ok()) return st.ToString();
      out->batch_paths.push_back(path);
    }
  }

  // Served corpus, plus the distinct inline payloads.
  for (size_t i = 0; i < spec.served_groups; ++i) {
    size_t size = LogUniformSize(Position(i), spec.served_min, spec.served_max);
    std::string name = "g";
    name += std::to_string(i);
    out->served.push_back(ScholarPage(size, Mix(seed, 5000 + i), name));
  }
  for (size_t i = 0; i < spec.inline_groups; ++i) {
    size_t size =
        LogUniformSize(Position(i), spec.served_min, 2 * spec.served_min);
    out->inline_groups.push_back(
        ScholarPage(size, Mix(seed, 9000 + i), "inline" + std::to_string(i)));
  }
  if (spec.batch_through_server) {
    for (const Group& g : out->served) {
      std::string path = dir + "/" + g.name + ".tsv";
      dime::Status st = dime::SaveGroup(g, path);
      if (!st.ok()) return st.ToString();
      out->batch_paths.push_back(path);
    }
  }

  dime::SnapshotWriteRequest request;
  request.groups = &out->served;
  request.positive = &rules.positive;
  request.negative = &rules.negative;
  request.context = &rules.context;
  out->snapshot_path = dir + "/served.snap";
  dime::Status st = dime::WriteSnapshot(request, out->snapshot_path);
  if (!st.ok()) return st.ToString();
  out->delta_log_path = dir + "/served.dlog";
  std::remove(out->delta_log_path.c_str());
  return "";
}

std::vector<DeltaRecord> MakeDeltaBatch(const WorkloadSpec& spec,
                                        const Inputs& inputs, uint64_t seed,
                                        size_t k) {
  std::mt19937_64 rng(Mix(seed, 20000 + k));
  std::vector<size_t> order(inputs.served.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), rng);
  std::vector<DeltaRecord> records;
  for (size_t j = 0; j < spec.delta_groups && j < order.size(); ++j) {
    const Group& g = inputs.served[order[j]];
    if (g.size() < 4) continue;
    std::uniform_int_distribution<size_t> pick(0, g.size() - 1);
    size_t a = pick(rng), b = pick(rng), c = pick(rng);
    while (b == a) b = pick(rng);
    while (c == a || c == b) c = pick(rng);
    DeltaRecord add;
    add.op = DeltaRecord::Op::kAdd;
    add.group = g.name;
    add.entity_id = "delta" + std::to_string(k) + "_" + std::to_string(j);
    add.values = g.entities[c].values;
    DeltaRecord edit;
    edit.op = DeltaRecord::Op::kEdit;
    edit.group = g.name;
    edit.entity_id = g.entities[b].id;
    edit.values = g.entities[a].values;
    DeltaRecord remove;
    remove.op = DeltaRecord::Op::kRemove;
    remove.group = g.name;
    remove.entity_id = g.entities[a].id;
    records.push_back(std::move(add));
    records.push_back(std::move(edit));
    records.push_back(std::move(remove));
  }
  return records;
}

uint64_t VerdictDigest(const dime::DimeResult& result) {
  Hasher h;
  h.U64(result.partitions.size());
  std::vector<int> pivot = result.PivotEntities();
  std::sort(pivot.begin(), pivot.end());
  h.U64(pivot.size());
  for (int e : pivot) h.U64(static_cast<uint64_t>(e));
  h.U64(result.flagged_by_prefix.size());
  for (std::vector<int> flagged : result.flagged_by_prefix) {
    std::sort(flagged.begin(), flagged.end());
    h.U64(flagged.size());
    for (int e : flagged) h.U64(static_cast<uint64_t>(e));
  }
  return h.h;
}

std::vector<std::string> FlaggedIds(const Group& group,
                                    const dime::DimeResult& result) {
  std::vector<std::string> ids;
  for (int e : result.flagged()) {
    ids.push_back(group.entities[static_cast<size_t>(e)].id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

dime::DimeResult ReferenceVerdict(const Group& group, const RuleSet& rules) {
  dime::PreparedGroup pg =
      dime::PrepareGroup(group, rules.positive, rules.negative, rules.context);
  return dime::RunDime(pg, rules.positive, rules.negative);
}

}  // namespace perfbench
