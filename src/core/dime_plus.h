#ifndef DIME_CORE_DIME_PLUS_H_
#define DIME_CORE_DIME_PLUS_H_

#include "src/core/dime.h"
#include "src/core/signature.h"

/// \file dime_plus.h
/// DIME+ (Algorithm 2): the signature-based filter-verification framework.
/// Produces exactly the same DimeResult as RunDime — the filters are
/// complete (Section IV-B) and verification computes real similarities —
/// but avoids the all-pairs enumeration:
///
///  * positive rules: only pairs sharing an indexed rule signature are
///    candidates; candidates are verified in descending benefit order
///    B = P / C, and pairs already connected by transitivity are skipped.
///    The order is selected lazily, one block at a time (the highest
///    benefits plus their ties, sorted alone), and after each block every
///    remaining candidate whose endpoints are now connected is dropped
///    unsorted: connectivity only grows, so it would have been skipped
///    when reached. Each dropped candidate still counts as a transitivity
///    skip and advances the RunControl countdown, so the verified
///    sequence, every counter and the control-check points are those of
///    a full sort;
///  * negative rules: a partition whose signature set is disjoint from the
///    pivot's is flagged without any verification; otherwise each member's
///    pivot checks run most-likely-similar-first (descending P / C), so
///    the violating pair that disqualifies a member is found early.

namespace dime {

struct DimePlusOptions {
  SignatureOptions signatures;
  /// Disable benefit ordering (ablation: verify candidates in input order).
  bool benefit_order = true;
  /// Disable the union-find transitivity short-circuit (ablation).
  bool transitivity_skip = true;
  /// Candidate-volume bound up to which positive-rule candidates are
  /// materialized (shared counts from InvertedIndex::CandidatePairs, one
  /// benefit each) and verified in exact benefit order; above it they are
  /// streamed off the inverted lists shortest-list-first (same result,
  /// no materialization cost — important when one signature, e.g. a page
  /// owner's name, occurs in every entity).
  size_t exact_benefit_cap = 100000;
};

/// Runs Algorithm 2 on a prepared group. `control` bounds the run exactly
/// as in RunDime: checks at candidate-batch and partition boundaries; on
/// expiry the partial result's flagged sets are subsets of the untruncated
/// run's and the scrollbar stays monotone (see DimeResult::status).
DimeResult RunDimePlus(const PreparedGroup& pg,
                       const std::vector<PositiveRule>& positive,
                       const std::vector<NegativeRule>& negative,
                       const DimePlusOptions& options,
                       const RunControl& control);

DimeResult RunDimePlus(const PreparedGroup& pg,
                       const std::vector<PositiveRule>& positive,
                       const std::vector<NegativeRule>& negative,
                       const DimePlusOptions& options = DimePlusOptions());

/// Convenience wrapper: prepares `group` and runs Algorithm 2.
DimeResult RunDimePlus(const Group& group,
                       const std::vector<PositiveRule>& positive,
                       const std::vector<NegativeRule>& negative,
                       const DimeContext& context,
                       const DimePlusOptions& options = DimePlusOptions());

}  // namespace dime

#endif  // DIME_CORE_DIME_PLUS_H_
