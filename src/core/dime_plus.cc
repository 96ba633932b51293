#include "src/core/dime_plus.h"

#include <algorithm>
#include <functional>
#include <memory>

#include "src/common/check.h"
#include "src/common/logging.h"
#include "src/core/dime_plus_internal.h"
#include "src/index/inverted_index.h"
#include "src/index/union_find.h"
#include "src/index/verification.h"
#include "src/sim/set_similarity.h"

namespace dime {
namespace {

struct PositiveCandidate {
  double benefit;
  int rule;
  int e1;
  int e2;
};

}  // namespace

DimeResult RunDimePlus(const PreparedGroup& pg,
                       const std::vector<PositiveRule>& positive,
                       const std::vector<NegativeRule>& negative,
                       const DimePlusOptions& options,
                       const RunControl& control) {
  DimeResult result;
  const int n = static_cast<int>(pg.size());
  if (n == 0) {
    result.flagged_by_prefix.assign(negative.size(), {});
    return result;
  }
  // Snapshot the thread's kernel counter so the result reports this run's
  // early exits only (the engine is single-threaded, so the delta is ours).
  const uint64_t kernel_exits_before = KernelEarlyExits();

  // Precomputed signature artifacts (snapshot warm start) are used only
  // when they were built for exactly this rule set and these signature
  // options; otherwise fall back to on-demand generation — stale
  // artifacts cost time, never correctness.
  const PreparedRuleArtifacts* artifacts = pg.artifacts.get();
  if (artifacts != nullptr &&
      (artifacts->positive_indexes.size() != positive.size() ||
       artifacts->negative_sigs.size() != negative.size() ||
       artifacts->max_tuple_signatures !=
           options.signatures.max_tuple_signatures)) {
    DIME_LOG(WARNING) << "prepared rule artifacts do not match the rule "
                         "set/options of this run; regenerating signatures";
    artifacts = nullptr;
  }

  // A deadline hit before partitioning completes discards step 1 (half
  // merged partitions are not valid output); the status explains why.
  auto truncate_before_partitions = [&](Status st) {
    result.partitions.clear();
    result.pivot = -1;
    result.first_flagging_rule.clear();
    result.flagged_by_prefix.assign(negative.size(), {});
    result.status = std::move(st);
    result.stats.kernel_early_exits =
        KernelEarlyExits() - kernel_exits_before;
    return result;
  };

  // ---- Step 1: signature-filtered partitioning. -------------------------
  UnionFind uf(static_cast<size_t>(n));
  std::vector<InvertedIndex> owned_indexes(
      artifacts == nullptr ? positive.size() : 0);
  auto index_for = [&](size_t r) -> const InvertedIndex& {
    return artifacts != nullptr ? artifacts->positive_indexes[r]
                                : owned_indexes[r];
  };
  size_t candidate_volume = 0;
  for (size_t r = 0; r < positive.size(); ++r) {
    Status st = internal::CheckRunControl(control, "dime_plus/index-rule");
    if (!st.ok()) return truncate_before_partitions(std::move(st));
    if (artifacts == nullptr) {
      SignatureGenerator gen(pg, positive[r].predicates, Direction::kGe,
                             /*rule_tag=*/r + 1, options.signatures);
      SignatureScratch scratch;
      for (int e = 0; e < n; ++e) {
        owned_indexes[r].Add(e, gen.PositiveRuleSignatures(e, &scratch));
      }
    }
    candidate_volume += index_for(r).CandidateVolume();
  }
  result.stats.candidate_pairs = candidate_volume;

  // Candidate verification re-checks the control every kCheckStride
  // candidates — cheap against the cost of a rule evaluation. Candidates
  // dropped in bulk advance the countdown by their number, so every
  // control check lands where the one-by-one loop would have put it.
  constexpr size_t kCheckStride = 256;
  size_t until_check = kCheckStride;
  auto control_hits = [&](size_t count) -> Status {
    while (count >= until_check) {
      count -= until_check;
      until_check = kCheckStride;
      Status st =
          internal::CheckRunControl(control, "dime_plus/verify-candidates");
      if (!st.ok()) return st;
    }
    until_check -= count;
    return OkStatus();
  };

  std::vector<RulePlan> plans;
  plans.reserve(positive.size());
  for (const PositiveRule& rule : positive) {
    plans.push_back(BuildRulePlan(pg, rule.predicates, Direction::kGe));
  }

  // Two verification strategies, same result:
  //  * small candidate sets: materialize every candidate with its exact
  //    benefit B = P / C and verify in descending order (Section IV-C);
  //  * large candidate sets (long inverted lists, e.g. a page owner's name
  //    appearing in every entity): stream candidates directly off the
  //    lists, shortest list first — rare-signature (high-probability)
  //    pairs still go first, but without the materialization cost, so the
  //    transitivity skip handles the flood in O(1) per pair.
  if (options.benefit_order && candidate_volume <= options.exact_benefit_cap) {
    std::vector<PositiveCandidate> candidates;
    candidates.reserve(candidate_volume);  // an upper bound, <= the cap
    for (size_t r = 0; r < positive.size(); ++r) {
      const InvertedIndex& index = index_for(r);
      for (const InvertedIndex::CandidatePair& cp : index.CandidatePairs()) {
        double prob =
            SimilarProbability(cp.shared, index.SignatureCount(cp.e1),
                               index.SignatureCount(cp.e2));
        double cost = RuleVerificationCost(plans[r], cp.e1, cp.e2);
        candidates.push_back(PositiveCandidate{PositiveBenefit(prob, cost),
                                               static_cast<int>(r), cp.e1,
                                               cp.e2});
      }
    }
    // Exact benefit order without sorting everything: take the order's
    // next block (every candidate at or above a threshold benefit, ties
    // included, so the block is a prefix of the total order; about
    // `block` of them), sort and verify it alone, then drop each remaining
    // candidate whose endpoints are now connected. Connectivity only
    // grows, so a dropped candidate would have been skipped by
    // transitivity when reached; the verified sequence and every counter
    // match the full sort. Most candidates of a group fall inside its
    // final partitions and are dropped after the first block or two,
    // unsorted.
    constexpr size_t kFirstBlock = 1024;
    constexpr size_t kSampleSize = 4096;
    size_t block = kFirstBlock;
    size_t rest = 0;  // candidates[rest..] are not yet verified
    std::vector<double> benefits;
    std::vector<int> root;
    while (rest < candidates.size()) {
      const auto first = candidates.begin() + static_cast<std::ptrdiff_t>(rest);
      auto block_end = candidates.end();
      const size_t remaining = candidates.size() - rest;
      if (remaining > block) {
        // Threshold = the block-th highest benefit, estimated from a
        // strided sample: any threshold cuts a prefix of the order, so
        // the estimate only sets how large the block comes out.
        const size_t stride = remaining / kSampleSize + 1;
        benefits.clear();
        for (size_t i = rest; i < candidates.size(); i += stride) {
          benefits.push_back(candidates[i].benefit);
        }
        const size_t k = block / stride;
        std::nth_element(benefits.begin(),
                         benefits.begin() + static_cast<std::ptrdiff_t>(k),
                         benefits.end(), std::greater<double>());
        const double threshold = benefits[k];
        block_end = std::partition(first, candidates.end(),
                                   [threshold](const PositiveCandidate& c) {
                                     return c.benefit >= threshold;
                                   });
      }
      std::sort(first, block_end,
                [](const PositiveCandidate& a, const PositiveCandidate& b) {
                  if (a.benefit != b.benefit) return a.benefit > b.benefit;
                  if (a.e1 != b.e1) return a.e1 < b.e1;
                  if (a.e2 != b.e2) return a.e2 < b.e2;
                  return a.rule < b.rule;
                });
      bool merged = false;
      for (auto it = first; it != block_end; ++it) {
        const PositiveCandidate& c = *it;
        Status st = control_hits(1);
        if (!st.ok()) return truncate_before_partitions(std::move(st));
        if (options.transitivity_skip && uf.Connected(c.e1, c.e2)) {
          ++result.stats.pairs_skipped_by_transitivity;
          continue;
        }
        ++result.stats.positive_pair_checks;
        if (EvalRulePlan(plans[c.rule], c.e1, c.e2)) {
          merged |= uf.Union(c.e1, c.e2);
        }
      }
      rest = static_cast<size_t>(block_end - candidates.begin());
      if (options.transitivity_skip && merged) {
        root.resize(static_cast<size_t>(n));
        for (int e = 0; e < n; ++e) root[e] = uf.Find(e);
        const auto kept = std::remove_if(
            block_end, candidates.end(), [&root](const PositiveCandidate& c) {
              return root[c.e1] == root[c.e2];
            });
        const size_t dropped = static_cast<size_t>(candidates.end() - kept);
        candidates.erase(kept, candidates.end());
        result.stats.pairs_skipped_by_transitivity += dropped;
        Status st = control_hits(dropped);
        if (!st.ok()) return truncate_before_partitions(std::move(st));
      }
      block *= 2;
    }
  } else {
    Status stream_status;
    for (size_t r = 0; r < positive.size() && stream_status.ok(); ++r) {
      index_for(r).ForEachList(
          options.benefit_order, [&](const int* list, size_t len) {
            // Whole-list transitivity skip: once every entity on a list
            // shares one partition, none of its |l|(|l|-1)/2 pairs can
            // change the components — decide that in O(|l|) instead of
            // enumerating them. This is where the flood from stop-word-like
            // signatures (e.g. the page owner's name on every entity) goes
            // from ~16ns a pair to nothing.
            if (options.transitivity_skip) {
              bool all_connected = true;
              for (size_t i = 1; i < len; ++i) {
                if (!uf.Connected(list[0], list[i])) {
                  all_connected = false;
                  break;
                }
              }
              if (all_connected) {
                result.stats.pairs_skipped_by_transitivity +=
                    len * (len - 1) / 2;
                return true;
              }
            }
            for (size_t i = 0; i < len; ++i) {
              for (size_t j = i + 1; j < len; ++j) {
                int e1 = list[i], e2 = list[j];
                if (e1 == e2) continue;
                if (e1 > e2) std::swap(e1, e2);
                stream_status = control_hits(1);
                if (!stream_status.ok()) return false;
                if (options.transitivity_skip && uf.Connected(e1, e2)) {
                  ++result.stats.pairs_skipped_by_transitivity;
                  continue;
                }
                ++result.stats.positive_pair_checks;
                if (EvalRulePlan(plans[r], e1, e2)) {
                  uf.Union(e1, e2);
                }
              }
            }
            return true;
          });
    }
    if (!stream_status.ok()) {
      return truncate_before_partitions(std::move(stream_status));
    }
  }
  result.partitions = uf.Components();

  // ---- Step 2: pivot. ----------------------------------------------------
  result.pivot = internal::PickPivot(result.partitions);

  // ---- Step 3: signature-filtered negative rules. ------------------------
  std::vector<int> first_flagging(result.partitions.size(), -1);
  if (result.pivot >= 0 && !negative.empty()) {
    const std::vector<int>& pivot_entities = result.partitions[result.pivot];

    // Per-rule read-only state (pivot signatures + the sig -> positions
    // map), built lazily on first use; the per-partition scan itself
    // lives in dime_plus_internal.h so the sharded engine (src/exec/)
    // runs the identical code concurrently.
    std::vector<internal::NegativeRuleContext> contexts(negative.size());
    internal::NegativeScratch scratch;
    auto rule_context =
        [&](size_t r) -> const internal::NegativeRuleContext& {
      if (!contexts[r].ready) {
        internal::BuildNegativeRuleContext(pg, negative[r], r, artifacts,
                                           pivot_entities, options.signatures,
                                           &scratch.sig, &contexts[r]);
      }
      return contexts[r];
    };
    internal::NegativePhaseStats nstats;

    for (size_t p = 0; p < result.partitions.size(); ++p) {
      if (static_cast<int>(p) == result.pivot) continue;
      // Partition-boundary deadline check: stopping here leaves the rest
      // unflagged, keeping every flagged set a subset of the full run's.
      Status st =
          internal::CheckRunControl(control, "dime_plus/negative-partition");
      if (!st.ok()) {
        result.status = std::move(st);
        break;
      }
      first_flagging[p] = internal::FlagPartitionAgainstPivot(
          negative, artifacts, options.benefit_order, pivot_entities,
          result.partitions[p], rule_context, &scratch, &nstats);
    }
    result.stats.negative_pair_checks += nstats.negative_pair_checks;
    result.stats.partitions_pruned_by_filter +=
        nstats.partitions_pruned_by_filter;
  }
  result.first_flagging_rule = first_flagging;
  result.flagged_by_prefix = internal::BuildScrollbar(
      result.partitions, result.pivot, first_flagging, negative.size());
  result.stats.kernel_early_exits = KernelEarlyExits() - kernel_exits_before;
  internal::DcheckResultInvariants(result, pg.size(), negative.size());
  return result;
}

DimeResult RunDimePlus(const PreparedGroup& pg,
                       const std::vector<PositiveRule>& positive,
                       const std::vector<NegativeRule>& negative,
                       const DimePlusOptions& options) {
  return RunDimePlus(pg, positive, negative, options, RunControl{});
}

DimeResult RunDimePlus(const Group& group,
                       const std::vector<PositiveRule>& positive,
                       const std::vector<NegativeRule>& negative,
                       const DimeContext& context,
                       const DimePlusOptions& options) {
  PreparedGroup pg = PrepareGroup(group, positive, negative, context);
  return RunDimePlus(pg, positive, negative, options);
}

}  // namespace dime
