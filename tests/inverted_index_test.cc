#include "src/index/inverted_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/index/verification.h"

namespace dime {
namespace {

TEST(InvertedIndexTest, CandidatesFromSharedSignatures) {
  InvertedIndex index;
  index.Add(0, {10, 20, 30});
  index.Add(1, {20, 30, 40});
  index.Add(2, {99});
  auto pairs = index.CandidatePairs();
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].e1, 0);
  EXPECT_EQ(pairs[0].e2, 1);
  EXPECT_EQ(pairs[0].shared, 2u);  // signatures 20 and 30
}

TEST(InvertedIndexTest, NoSharedSignaturesNoCandidates) {
  InvertedIndex index;
  index.Add(0, {1});
  index.Add(1, {2});
  EXPECT_TRUE(index.CandidatePairs().empty());
}

TEST(InvertedIndexTest, SignatureCounts) {
  InvertedIndex index;
  index.Add(7, {1, 2, 3});
  index.Add(8, {});
  EXPECT_EQ(index.SignatureCount(7), 3u);
  EXPECT_EQ(index.SignatureCount(8), 0u);
  EXPECT_EQ(index.SignatureCount(9), 0u);
}

TEST(InvertedIndexTest, CandidatesAreDeterministicallyOrdered) {
  InvertedIndex index;
  index.Add(3, {5});
  index.Add(1, {5});
  index.Add(2, {5});
  auto pairs = index.CandidatePairs();
  ASSERT_EQ(pairs.size(), 3u);
  EXPECT_TRUE(pairs[0].e1 <= pairs[1].e1 && pairs[1].e1 <= pairs[2].e1);
  for (const auto& p : pairs) EXPECT_LT(p.e1, p.e2);
}

using PairCounts = std::map<std::pair<int, int>, uint32_t>;

PairCounts ToMap(const std::vector<InvertedIndex::CandidatePair>& pairs) {
  PairCounts out;
  for (const auto& p : pairs) out[{p.e1, p.e2}] = p.shared;
  return out;
}

// Reference semantics of CandidatePairs(): every two occurrences of
// distinct entities on one signature's list are one shared signature of
// that pair (so a signature repeated within an entity counts per copy).
PairCounts BruteForcePairs(
    const std::vector<std::pair<int, std::vector<uint64_t>>>& adds) {
  std::map<uint64_t, std::vector<int>> lists;
  for (const auto& [entity, sigs] : adds) {
    for (uint64_t s : sigs) lists[s].push_back(entity);
  }
  PairCounts out;
  for (const auto& [sig, list] : lists) {
    for (size_t i = 0; i < list.size(); ++i) {
      for (size_t j = i + 1; j < list.size(); ++j) {
        if (list[i] == list[j]) continue;
        ++out[{std::min(list[i], list[j]), std::max(list[i], list[j])}];
      }
    }
  }
  return out;
}

void ExpectOrderedAndEqual(
    const std::vector<InvertedIndex::CandidatePair>& pairs,
    const PairCounts& expected, int trial) {
  for (size_t i = 1; i < pairs.size(); ++i) {
    EXPECT_TRUE(std::make_pair(pairs[i - 1].e1, pairs[i - 1].e2) <
                std::make_pair(pairs[i].e1, pairs[i].e2))
        << "trial=" << trial << " position " << i;
  }
  EXPECT_EQ(ToMap(pairs), expected) << "trial=" << trial;
  EXPECT_EQ(pairs.size(), expected.size()) << "trial=" << trial;
}

TEST(InvertedIndexTest, CandidatePairsMatchBruteForceOnRandomIndexes) {
  Random rng(4242);
  for (int trial = 0; trial < 60; ++trial) {
    // A sparse, shuffled id set: entities arrive out of id order and some
    // ids never arrive at all.
    const int universe = 1 + static_cast<int>(rng.Uniform(120));
    std::vector<int> ids;
    for (int e = 0; e < universe; ++e) {
      if (rng.Bernoulli(0.8)) ids.push_back(e);
    }
    rng.Shuffle(&ids);
    const uint64_t num_sigs = 1 + rng.Uniform(trial % 2 == 0 ? 8 : 60);
    std::vector<std::pair<int, std::vector<uint64_t>>> adds;
    for (int e : ids) {
      std::vector<uint64_t> sigs;
      if (!rng.Bernoulli(0.15)) {  // else: an entity with no signatures
        const size_t k = rng.Uniform(6);
        for (size_t i = 0; i < k; ++i) sigs.push_back(rng.Uniform(num_sigs));
        if (!sigs.empty() && rng.Bernoulli(0.2)) {
          sigs.push_back(sigs.front());  // a repeated signature
        }
        // A signature no other entity carries: a one-entity list.
        if (rng.Bernoulli(0.3)) sigs.push_back(1000000 + e);
      }
      adds.emplace_back(e, sigs);
    }
    InvertedIndex index;
    for (const auto& [e, sigs] : adds) index.Add(e, sigs);
    const PairCounts expected = BruteForcePairs(adds);
    ExpectOrderedAndEqual(index.CandidatePairs(), expected, trial);

    // The same lists borrowed (the snapshot warm-start path).
    InvertedIndex::FrozenView view = index.FrozenData();
    std::vector<uint32_t> counts(view.sig_counts,
                                 view.sig_counts + view.sig_counts_len);
    std::vector<uint64_t> starts(view.list_starts,
                                 view.list_starts + view.list_starts_len);
    std::vector<int> entities(view.entities,
                              view.entities + view.entities_len);
    InvertedIndex::FrozenView borrowed;
    borrowed.sig_counts = counts.data();
    borrowed.sig_counts_len = counts.size();
    borrowed.list_starts = starts.data();
    borrowed.list_starts_len = starts.size();
    borrowed.entities = entities.data();
    borrowed.entities_len = entities.size();
    InvertedIndex adopted;
    adopted.AdoptFrozen(borrowed);
    ExpectOrderedAndEqual(adopted.CandidatePairs(), expected, trial);
  }
}

TEST(InvertedIndexTest, CandidatePairsOfDegenerateIndexes) {
  InvertedIndex empty;
  EXPECT_TRUE(empty.CandidatePairs().empty());

  InvertedIndex no_sigs;
  no_sigs.Add(0, {});
  no_sigs.Add(1, {});
  EXPECT_TRUE(no_sigs.CandidatePairs().empty());

  // Every list holds one entity, possibly several times.
  InvertedIndex singletons;
  singletons.Add(2, {7, 7, 7});
  singletons.Add(0, {8});
  EXPECT_TRUE(singletons.CandidatePairs().empty());

  // Two copies of a signature on e=5 against one on e=1: shared = 2.
  InvertedIndex repeated;
  repeated.Add(5, {3, 3});
  repeated.Add(1, {3});
  auto pairs = repeated.CandidatePairs();
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].e1, 1);
  EXPECT_EQ(pairs[0].e2, 5);
  EXPECT_EQ(pairs[0].shared, 2u);
}

TEST(InvertedIndexTest, ListOverlapAndShareAtLeast) {
  InvertedIndex index;
  // Entities Add()ed in ascending id order, so every frozen list is
  // strictly ascending (the ListOverlap precondition). After freezing,
  // lists are ordered by ascending signature: list 0 = sig 10 -> {0,1,2,3},
  // list 1 = sig 20 -> {2,3,4}, list 2 = sig 30 -> {5}.
  index.Add(0, {10});
  index.Add(1, {10});
  index.Add(2, {10, 20});
  index.Add(3, {10, 20});
  index.Add(4, {20});
  index.Add(5, {30});
  ASSERT_EQ(index.num_lists(), 3u);
  EXPECT_EQ(index.ListOverlap(0, 1), 2u);  // entities 2 and 3
  EXPECT_EQ(index.ListOverlap(1, 0), 2u);
  EXPECT_EQ(index.ListOverlap(0, 0), 4u);
  EXPECT_EQ(index.ListOverlap(0, 2), 0u);
  EXPECT_TRUE(index.ListsShareAtLeast(0, 1, 0));
  EXPECT_TRUE(index.ListsShareAtLeast(0, 1, 2));
  EXPECT_FALSE(index.ListsShareAtLeast(0, 1, 3));
  EXPECT_FALSE(index.ListsShareAtLeast(0, 2, 1));
}

TEST(InvertedIndexTest, ListKernelsMatchBruteForceOnRandomLists) {
  Random rng(909);
  for (int trial = 0; trial < 20; ++trial) {
    InvertedIndex index;
    std::vector<int> on_a, on_b;
    for (int e = 0; e < 200; ++e) {
      std::vector<uint64_t> sigs;
      if (rng.Bernoulli(0.4)) {
        sigs.push_back(1);
        on_a.push_back(e);
      }
      if (rng.Bernoulli(0.3)) {
        sigs.push_back(2);
        on_b.push_back(e);
      }
      index.Add(e, sigs);
    }
    if (index.num_lists() < 2) continue;
    std::vector<int> shared;
    std::set_intersection(on_a.begin(), on_a.end(), on_b.begin(), on_b.end(),
                          std::back_inserter(shared));
    EXPECT_EQ(index.ListOverlap(0, 1), shared.size());
    for (size_t required : {size_t{0}, size_t{1}, shared.size(),
                            shared.size() + 1, size_t{200}}) {
      EXPECT_EQ(index.ListsShareAtLeast(0, 1, required),
                shared.size() >= required)
          << "trial=" << trial << " required=" << required;
    }
  }
}

TEST(VerificationTest, SimilarProbability) {
  EXPECT_DOUBLE_EQ(SimilarProbability(2, 4, 4), 0.5);
  EXPECT_DOUBLE_EQ(SimilarProbability(0, 4, 4), 0.0);
  EXPECT_DOUBLE_EQ(SimilarProbability(10, 4, 4), 1.0);  // clamped
  EXPECT_DOUBLE_EQ(SimilarProbability(1, 0, 0), 0.0);   // no signatures
}

TEST(VerificationTest, BenefitOrdering) {
  // Positive: higher probability or lower cost -> larger benefit.
  EXPECT_GT(PositiveBenefit(0.9, 10.0), PositiveBenefit(0.1, 10.0));
  EXPECT_GT(PositiveBenefit(0.5, 5.0), PositiveBenefit(0.5, 50.0));
  // Negative: lower probability -> larger benefit.
  EXPECT_GT(NegativeBenefit(0.1, 10.0), NegativeBenefit(0.9, 10.0));
  EXPECT_GT(NegativeBenefit(0.5, 5.0), NegativeBenefit(0.5, 50.0));
}

}  // namespace
}  // namespace dime
