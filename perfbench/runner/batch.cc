// Batch phase: the timed verdict of the batch corpus, its oracle, and the
// traced run's per-layer probes of ingest, preprocess, signatures, engine,
// exec, sim and corpus.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <thread>

#include "perfbench/runner/runner.h"
#include "src/core/corpus.h"
#include "src/core/dime_plus.h"
#include "src/core/signature.h"
#include "src/exec/sharded_dime.h"

namespace perfbench {
namespace {

using dime::DimeResult;
using dime::Group;
using dime::PreparedGroup;

/// What one verdict leaves behind for the oracle and the probes.
struct VerdictOutput {
  std::vector<Group> groups;
  std::vector<DimeResult> results;
};

/// Bytes to full scrollbars: ingest every TSV, then RunCorpus at nproc
/// threads. Spans go to `tracer` when it is enabled.
std::unique_ptr<VerdictOutput> Verdict(const RunContext& ctx, Tracer* tracer) {
  auto out = std::make_unique<VerdictOutput>();
  const std::vector<std::string>& paths = ctx.inputs.batch_paths;
  Tracer::Scope verdict(tracer, "verdict");
  out->groups.resize(paths.size());
  for (size_t i = 0; i < paths.size(); ++i) {
    Tracer::Scope span(tracer, "ingest", i + 1);
    dime::Status st = dime::LoadGroup(paths[i], "group", &out->groups[i]);
    if (!st.ok()) ctx.tally->Invalid("ingest: " + st.ToString());
  }
  Tracer::Scope span(tracer, "corpus");
  dime::CorpusOptions options;
  options.num_threads = ctx.threads;
  out->results = dime::RunCorpus(out->groups, ctx.rules.positive,
                                 ctx.rules.negative, ctx.rules.context,
                                 options);
  return out;
}

uint64_t InputIdentity(const RunContext& ctx) {
  Hasher h;
  h.Str(ctx.workload);
  for (const std::string& p : ctx.inputs.batch_paths) h.U64(HashFile(p));
  return h.h;
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Per-group digests from the second engine (reference RunDime per group),
/// computed once per input and kept in the state directory.
std::vector<uint64_t> OracleDigests(const RunContext& ctx,
                                    const VerdictOutput& v) {
  std::string path =
      ctx.state_dir + "/oracle-" + Hex(InputIdentity(ctx)) + ".txt";
  std::vector<uint64_t> digests;
  {
    std::ifstream in(path);
    unsigned long long d;
    while (in >> std::hex >> d) digests.push_back(d);
  }
  if (digests.size() == v.groups.size()) return digests;
  digests.clear();
  dime::CorpusOptions options;
  options.num_threads = ctx.threads;
  options.use_dime_plus = false;
  for (const DimeResult& r :
       dime::RunCorpus(v.groups, ctx.rules.positive, ctx.rules.negative,
                       ctx.rules.context, options)) {
    digests.push_back(VerdictDigest(r));
  }
  std::ofstream out(path);
  for (uint64_t d : digests) out << Hex(d) << "\n";
  return digests;
}

/// Per-group verdict digests of one verdict; nullopt marks a group whose
/// engine failed, which is tallied as failed at once.
using Digests = std::vector<std::optional<uint64_t>>;

Digests DigestResults(const RunContext& ctx,
                      const std::vector<DimeResult>& results) {
  Digests out;
  for (size_t i = 0; i < results.size(); ++i) {
    if (results[i].ok()) {
      out.push_back(VerdictDigest(results[i]));
    } else {
      ctx.tally->Fail("group " + std::to_string(i) + ": " +
                      results[i].status.ToString());
      out.push_back(std::nullopt);
    }
  }
  return out;
}

/// Checks every verdict in `verdicts` against the oracle of `v`'s input.
void CheckAgainstOracle(const RunContext& ctx, const VerdictOutput& v,
                        const std::vector<Digests>& verdicts) {
  const std::vector<uint64_t> oracle = OracleDigests(ctx, v);
  for (const Digests& got : verdicts) {
    for (size_t i = 0; i < got.size(); ++i) {
      if (!got[i].has_value()) continue;
      if (i >= oracle.size() || *got[i] != oracle[i]) {
        ctx.tally->Fail("group " + std::to_string(i) +
                        ": verdict differs from the oracle");
      } else {
        ctx.tally->Ok();
      }
    }
  }
}

// ---- per-layer probes -------------------------------------------------------

struct EnginePassResult {
  double wall_s = 0;
  double cpu_s = 0;
  std::vector<double> group_s;  ///< per group (serial passes)
  DimeResult::Stats stats;
  double merged = 0;  ///< sum over groups of (n - partitions)
  std::vector<uint64_t> digests;
};

/// DIME+ over every prepared group at `threads`: one serial DIME+ per
/// group across `threads` workers, as RunCorpus schedules them.
/// `with_negative` = false runs the positive phase alone.
EnginePassResult EnginePass(const RunContext& ctx,
                            const std::vector<PreparedGroup>& pgs,
                            unsigned threads, bool with_negative) {
  const std::vector<dime::NegativeRule> none;
  const std::vector<dime::NegativeRule>& negative =
      with_negative ? ctx.rules.negative : none;
  EnginePassResult r;
  std::vector<DimeResult> results(pgs.size());
  r.group_s.assign(pgs.size(), 0);
  double cpu0 = ProcessCpuS();
  double t0 = NowS();
  std::atomic<size_t> next{0};
  auto worker = [&]() {
    for (size_t g; (g = next.fetch_add(1)) < pgs.size();) {
      double g0 = NowS();
      results[g] = dime::RunDimePlus(pgs[g], ctx.rules.positive, negative);
      r.group_s[g] = NowS() - g0;
    }
  };
  std::vector<std::thread> pool;
  for (unsigned t = 1; t < threads; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
  r.wall_s = NowS() - t0;
  r.cpu_s = ProcessCpuS() - cpu0;
  for (size_t g = 0; g < results.size(); ++g) {
    const DimeResult::Stats& s = results[g].stats;
    r.stats.positive_pair_checks += s.positive_pair_checks;
    r.stats.negative_pair_checks += s.negative_pair_checks;
    r.stats.candidate_pairs += s.candidate_pairs;
    r.stats.partitions_pruned_by_filter += s.partitions_pruned_by_filter;
    r.stats.pairs_skipped_by_transitivity += s.pairs_skipped_by_transitivity;
    r.stats.kernel_early_exits += s.kernel_early_exits;
    r.merged += static_cast<double>(pgs[g].size()) -
                static_cast<double>(results[g].partitions.size());
    r.digests.push_back(VerdictDigest(results[g]));
  }
  return r;
}

size_t RankCount(const PreparedGroup& pg) {
  size_t n = 0;
  for (const dime::PreparedAttr& a : pg.attrs) {
    n += a.value_ranks.total_ranks() + a.word_ranks.total_ranks() +
         a.qgram_ranks.total_ranks();
  }
  return n;
}

/// Exact counters must repeat for the same code and input: the first
/// traced run of a build on an input records them, every later traced run
/// of that build compares. Another build (a change to the engine) gets a
/// file of its own.
void CheckExactCounters(const RunContext& ctx,
                        const std::vector<double>& counters) {
  std::string path = ctx.state_dir + "/counters-" + ctx.code_id + "-" +
                     Hex(InputIdentity(ctx)) + ".txt";
  std::vector<double> seen;
  {
    std::ifstream in(path);
    double c;
    while (in >> c) seen.push_back(c);
  }
  if (seen.empty()) {
    std::ofstream out(path);
    for (double c : counters) out << std::to_string(c) << "\n";
  } else if (seen != counters) {
    ctx.tally->Invalid("exact work counters differ from an earlier run of "
                       "the same input");
  }
}

void ProbeLayers(RunContext& ctx, const std::vector<Group>& groups,
                 double corpus_wall_s) {
  MetricTable& m = *ctx.metrics;
  Tracer& tr = *ctx.tracer;
  const unsigned n = ctx.threads;

  // Preprocess, serially per group.
  std::vector<PreparedGroup> pgs;
  pgs.reserve(groups.size());
  double cpu0 = ProcessCpuS();
  for (size_t g = 0; g < groups.size(); ++g) {
    Tracer::Scope span(&tr, "probe.prepare", g + 1);
    pgs.push_back(dime::PrepareGroup(groups[g], ctx.rules.positive,
                                     ctx.rules.negative, ctx.rules.context));
  }
  m.Set("prepare.wall_s", tr.Total("probe.prepare"), "s");
  m.Set("prepare.cpu_s", ProcessCpuS() - cpu0, "s");
  double ranks = 0;
  for (const PreparedGroup& pg : pgs) ranks += RankCount(pg);
  m.Set("prepare.ranks", ranks, "count");

  // Signatures and frozen indexes; a fixed sample of candidate pairs (two
  // entities adjacent in a positive posting list) for the sim probe.
  const size_t sample_target = ctx.smoke ? 2000 : 20000;
  const size_t per_group = std::max<size_t>(1, sample_target / pgs.size());
  std::vector<std::vector<std::pair<int, int>>> pairs(pgs.size());
  double postings = 0;
  for (size_t g = 0; g < pgs.size(); ++g) {
    std::shared_ptr<const dime::PreparedRuleArtifacts> art;
    {
      Tracer::Scope span(&tr, "probe.signatures", g + 1);
      art = dime::BuildPreparedRuleArtifacts(pgs[g], ctx.rules.positive,
                                             ctx.rules.negative);
    }
    for (const dime::InvertedIndex& index : art->positive_indexes) {
      postings += static_cast<double>(index.FrozenData().entities_len);
    }
    for (const dime::SignatureColumn& col : art->negative_sigs) {
      postings += static_cast<double>(col.total());
    }
    if (art->positive_indexes.empty()) continue;
    art->positive_indexes[0].ForEachList(
        true, [&](const int* list, size_t len) {
          for (size_t i = 0; i + 1 < len && pairs[g].size() < per_group; ++i) {
            pairs[g].push_back({list[i], list[i + 1]});
          }
          return pairs[g].size() < per_group;
        });
  }
  m.Set("signatures.wall_s", tr.Total("probe.signatures"), "s");
  m.Set("signatures.postings", postings, "count");

  // Engine: nproc threads, positive phase alone, and 1 thread (exact
  // counters and the speedup base).
  EnginePassResult full = EnginePass(ctx, pgs, n, true);
  EnginePassResult positive = EnginePass(ctx, pgs, n, false);
  EnginePassResult serial = EnginePass(ctx, pgs, 1, true);
  if (serial.digests != full.digests) {
    ctx.tally->Fail("engine decisions differ between 1 and " +
                    std::to_string(n) + " threads");
  }
  m.Set("engine.wall_s", full.wall_s, "s");
  m.Set("engine.cpu_s", full.cpu_s, "s");
  m.Set("engine.positive_wall_s", positive.wall_s, "s");
  m.Set("engine.negative_wall_s", full.wall_s - positive.wall_s, "s");
  m.Set("engine.speedup", serial.wall_s / full.wall_s, "x");
  m.Set("engine.cpu_util", full.cpu_s / (full.wall_s * n), "ratio");
  const DimeResult::Stats& s = serial.stats;
  m.Set("engine.candidate_pairs", s.candidate_pairs, "count");
  m.Set("engine.positive_checks", s.positive_pair_checks, "count");
  m.Set("engine.negative_checks", s.negative_pair_checks, "count");
  m.Set("engine.transitivity_skips", s.pairs_skipped_by_transitivity, "count");
  m.Set("engine.filter_prunes", s.partitions_pruned_by_filter, "count");
  m.Set("engine.early_exits", s.kernel_early_exits, "count");
  m.Set("engine.merge_yield",
        serial.merged / std::max<double>(1, s.positive_pair_checks), "ratio");
  // At n threads only the schedule-free sum repeats exactly.
  double sum_n = static_cast<double>(full.stats.positive_pair_checks +
                                     full.stats.pairs_skipped_by_transitivity);
  m.Set("engine.schedule_free_checks", sum_n, "count");
  CheckExactCounters(
      ctx, {double(s.candidate_pairs), double(s.positive_pair_checks),
            double(s.negative_pair_checks),
            double(s.pairs_skipped_by_transitivity),
            double(s.partitions_pruned_by_filter),
            double(s.kernel_early_exits), sum_n});

  // Exec: the sharded engine (src/exec) at nproc threads on the largest
  // groups; its decisions must equal serial DIME+'s.
  std::vector<size_t> largest(pgs.size());
  for (size_t g = 0; g < largest.size(); ++g) largest[g] = g;
  std::sort(largest.begin(), largest.end(), [&](size_t a, size_t b) {
    return pgs[a].size() > pgs[b].size();
  });
  largest.resize(std::min<size_t>(largest.size(), 8));
  dime::exec::ShardedOptions sharded;
  sharded.num_threads = n;
  for (size_t g : largest) {
    DimeResult r;
    {
      Tracer::Scope span(&tr, "probe.exec", g + 1);
      r = dime::exec::RunDimePlusSharded(pgs[g], ctx.rules.positive,
                                         ctx.rules.negative, sharded);
    }
    if (!r.ok() || VerdictDigest(r) != serial.digests[g]) {
      ctx.tally->Fail("sharded engine differs from serial DIME+ on group " +
                      std::to_string(g));
    }
  }
  m.Set("exec.sharded_wall_s", tr.Total("probe.exec"), "s");

  // Sim: time per EvalRulePlan over the sampled candidate pairs.
  for (int dir = 0; dir < 2; ++dir) {
    std::vector<double> reps;
    size_t evals = 0;
    for (int rep = 0; rep < 5; ++rep) {
      size_t sink = 0;
      evals = 0;
      double t0 = NowS();
      for (size_t g = 0; g < pgs.size(); ++g) {
        std::vector<dime::RulePlan> plans;
        if (dir == 0) {
          for (const dime::PositiveRule& r : ctx.rules.positive) {
            plans.push_back(dime::BuildRulePlan(pgs[g], r.predicates,
                                                dime::Direction::kGe));
          }
        } else {
          for (const dime::NegativeRule& r : ctx.rules.negative) {
            plans.push_back(dime::BuildRulePlan(pgs[g], r.predicates,
                                                dime::Direction::kLe));
          }
        }
        for (const auto& [a, b] : pairs[g]) {
          for (const dime::RulePlan& plan : plans) {
            sink += dime::EvalRulePlan(plan, a, b);
            ++evals;
          }
        }
      }
      reps.push_back((NowS() - t0) * 1e9 / std::max<size_t>(evals, 1));
      if (sink > evals) ctx.tally->Invalid("sim probe: more passes than evals");
    }
    m.Set(dir == 0 ? "sim.positive_ns" : "sim.negative_ns", Median(reps),
          "ns");
  }

  // Corpus: serial per-group time against the parallel verdict's wall.
  double serial_sum = 0, straggler = 0;
  std::vector<double> prep = tr.Durations("probe.prepare");
  for (size_t g = 0; g < pgs.size(); ++g) {
    double t = prep[g] + serial.group_s[g];
    serial_sum += t;
    straggler = std::max(straggler, t);
  }
  m.Set("corpus.parallel_eff", serial_sum / (corpus_wall_s * n), "ratio");
  m.Set("corpus.straggler_s", straggler, "s");
}

}  // namespace

void RunBatchPhase(RunContext& ctx) {
  MetricTable& m = *ctx.metrics;
  Tracer untraced(false);
  std::vector<double> walls;
  if (!ctx.spec.batch_through_server) {
    std::vector<double> cpus;
    std::vector<Digests> verdicts;
    std::unique_ptr<VerdictOutput> last;
    ResetPeakRss();
    // The first verdict warms the allocator and the page cache: it is
    // checked against the oracle but not timed. Then as many timed
    // verdicts as fit in the workload's share of the run, at least one.
    last = Verdict(ctx, &untraced);
    verdicts.push_back(DigestResults(ctx, last->results));
    double budget_end = NowS() + ctx.spec.batch_share * ctx.seconds;
    for (int rep = 0; rep < 40 && (rep == 0 || NowS() < budget_end); ++rep) {
      last.reset();
      double cpu0 = ProcessCpuS();
      double t0 = NowS();
      last = Verdict(ctx, &untraced);
      walls.push_back(NowS() - t0);
      cpus.push_back(ProcessCpuS() - cpu0);
      verdicts.push_back(DigestResults(ctx, last->results));
    }
    m.Set("verdict_s", Median(walls), "s");
    m.Set("cpu_s", Median(cpus), "s");
    m.Set("peak_rss_mb", PeakRssMb(), "MB");
    CheckAgainstOracle(ctx, *last, verdicts);
  }
  if (!ctx.trace) return;

  // The tracing overhead is measured against the timed verdicts above;
  // serve-live verdicts through the server, so its in-process reference is
  // a median of three warm untraced verdicts.
  std::vector<Digests> verdicts;
  while (walls.size() < (ctx.spec.batch_through_server ? 3u : 1u)) {
    double t0 = NowS();
    std::unique_ptr<VerdictOutput> v = Verdict(ctx, &untraced);
    walls.push_back(NowS() - t0);
    verdicts.push_back(DigestResults(ctx, v->results));
  }
  double t0 = NowS();
  std::unique_ptr<VerdictOutput> traced = Verdict(ctx, ctx.tracer);
  double traced_s = NowS() - t0;
  m.Set("trace.overhead_share", (traced_s - Median(walls)) / Median(walls),
        "ratio");
  verdicts.push_back(DigestResults(ctx, traced->results));
  CheckAgainstOracle(ctx, *traced, verdicts);
  m.Set("ingest.wall_s", ctx.tracer->Total("ingest"), "s");
  double corpus_wall = ctx.tracer->Total("corpus");
  std::vector<Group> groups = std::move(traced->groups);
  traced.reset();
  ProbeLayers(ctx, groups, corpus_wall);
}

}  // namespace perfbench
