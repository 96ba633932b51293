#include "src/index/inverted_index.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "src/common/check.h"
#include "src/sim/rank_span.h"
#include "src/sim/set_similarity.h"

namespace dime {
namespace {

// Borrowed rank-span view over one frozen list. Entity ids are checked
// non-negative on Add, so the int run reinterprets losslessly as the
// uint32 ranks the sim kernels take.
RankSpan ListSpan(const int* ents, const uint64_t* starts, size_t l) {
  const int* begin = ents + starts[l];
  const size_t len = static_cast<size_t>(starts[l + 1] - starts[l]);
#ifndef NDEBUG
  for (size_t i = 1; i < len; ++i) {
    DIME_CHECK_LT(begin[i - 1], begin[i])
        << "ListOverlap on a non-ascending list (entities must be Add()ed "
        << "in ascending id order)";
  }
#endif
  return RankSpan(reinterpret_cast<const uint32_t*>(begin), len);
}

}  // namespace

void InvertedIndex::Add(int entity, const std::vector<uint64_t>& sigs) {
  DIME_CHECK(!frozen_) << "InvertedIndex::Add after first query";
  DIME_CHECK_GE(entity, 0);
  for (uint64_t sig : sigs) postings_.emplace_back(sig, entity);
  if (static_cast<size_t>(entity) >= sig_counts_.size()) {
    sig_counts_.resize(static_cast<size_t>(entity) + 1, 0);
  }
  sig_counts_[entity] += static_cast<uint32_t>(sigs.size());
}

void InvertedIndex::EnsureFrozen() const {
  if (frozen_) return;
  frozen_ = true;
  // Stable: postings with the same signature keep insertion order, i.e.
  // each run reads exactly like the per-list append order of a hash-map
  // build. Determinism here is what makes a dumped frozen index
  // re-adoptable bit-for-bit.
  std::stable_sort(postings_.begin(), postings_.end(),
                   [](const std::pair<uint64_t, int>& a,
                      const std::pair<uint64_t, int>& b) {
                     return a.first < b.first;
                   });
  entities_.reserve(postings_.size());
  list_starts_.push_back(0);
  for (size_t i = 0; i < postings_.size(); ++i) {
    if (i > 0 && postings_[i].first != postings_[i - 1].first) {
      list_starts_.push_back(i);
    }
    entities_.push_back(postings_[i].second);
  }
  if (!postings_.empty()) list_starts_.push_back(postings_.size());
  postings_.clear();
  postings_.shrink_to_fit();
}

InvertedIndex::FrozenView InvertedIndex::FrozenData() const {
  EnsureFrozen();
  if (ext_.list_starts) return ext_;
  FrozenView view;
  view.sig_counts = sig_counts_.data();
  view.sig_counts_len = sig_counts_.size();
  view.list_starts = list_starts_.data();
  view.list_starts_len = list_starts_.size();
  view.entities = entities_.data();
  view.entities_len = entities_.size();
  return view;
}

void InvertedIndex::AdoptFrozen(const FrozenView& view) {
  DIME_CHECK_GE(view.list_starts_len, 1u);
  postings_.clear();
  postings_.shrink_to_fit();
  sig_counts_.clear();
  entities_.clear();
  list_starts_.clear();
  ext_ = view;
  frozen_ = true;
}

std::vector<uint32_t> InvertedIndex::EnumerationOrder(
    bool short_lists_first) const {
  const uint64_t* starts = frozen_starts();
  const int* ents = frozen_entities();
  std::vector<uint32_t> order;
  const size_t num = frozen_num_lists();
  for (size_t l = 0; l < num; ++l) {
    if (starts[l + 1] - starts[l] > 1) {
      order.push_back(static_cast<uint32_t>(l));
    }
  }
  if (short_lists_first) {
    std::sort(order.begin(), order.end(),
              [starts, ents](uint32_t a, uint32_t b) {
                uint64_t la = starts[a + 1] - starts[a];
                uint64_t lb = starts[b + 1] - starts[b];
                if (la != lb) return la < lb;
                int fa = ents[starts[a]];
                int fb = ents[starts[b]];
                if (fa != fb) return fa < fb;  // deterministic tie-break
                return a < b;  // then signature-sorted position
              });
  }
  return order;
}

std::vector<InvertedIndex::CandidatePair> InvertedIndex::CandidatePairs()
    const {
  EnsureFrozen();
  const uint64_t* starts = frozen_starts();
  const int* ents = frozen_entities();
  const size_t num = frozen_num_lists();
  // A pair's shared count is the number of (occurrence of e1, occurrence
  // of e2) pairs on a common list, so it can be counted from e1's side:
  // walk e1's occurrences and bump a dense per-e2 counter for every
  // larger entity on the same list. Lists are copied sorted (Add() order
  // is free, and a borrowed arena may hold any order), so the larger
  // entities of a list are exactly the tail after e1's occurrence, and
  // the entity -> occurrence transpose lets e1 ascend — the output comes
  // out ordered by e1 with no global sort of the co-occurrences.
  std::vector<int> sorted;
  int max_entity = -1;
  for (size_t l = 0; l < num; ++l) {
    if (starts[l + 1] - starts[l] < 2) continue;  // no pair on this list
    const size_t begin = sorted.size();
    sorted.insert(sorted.end(), ents + starts[l], ents + starts[l + 1]);
    std::sort(sorted.begin() + static_cast<std::ptrdiff_t>(begin),
              sorted.end());
    max_entity = std::max(max_entity, sorted.back());
  }
  if (max_entity < 0) return {};
  DIME_CHECK_LE(sorted.size(), size_t{UINT32_MAX});

  // occurrences[occ_start[e] .. occ_start[e + 1]) = {position of the
  // occurrence in `sorted`, end of its list}, for every occurrence of e.
  struct Occurrence {
    uint32_t pos;
    uint32_t end;
  };
  const size_t num_entities = static_cast<size_t>(max_entity) + 1;
  std::vector<uint32_t> occ_start(num_entities + 1, 0);
  for (int e : sorted) ++occ_start[static_cast<size_t>(e) + 1];
  for (size_t e = 0; e < num_entities; ++e) occ_start[e + 1] += occ_start[e];
  std::vector<Occurrence> occurrences(sorted.size());
  {
    std::vector<uint32_t> fill(occ_start.begin(), occ_start.end() - 1);
    size_t list_begin = 0;
    for (size_t l = 0; l < num; ++l) {
      const size_t len = static_cast<size_t>(starts[l + 1] - starts[l]);
      if (len < 2) continue;
      const uint32_t list_end = static_cast<uint32_t>(list_begin + len);
      for (size_t i = list_begin; i < list_end; ++i) {
        occurrences[fill[static_cast<size_t>(sorted[i])]++] =
            Occurrence{static_cast<uint32_t>(i), list_end};
      }
      list_begin = list_end;
    }
  }

  std::vector<CandidatePair> pairs;
  std::vector<uint32_t> shared(num_entities, 0);
  std::vector<int> touched;
  for (size_t e1 = 0; e1 < num_entities; ++e1) {
    const int a = static_cast<int>(e1);
    for (uint32_t o = occ_start[e1]; o < occ_start[e1 + 1]; ++o) {
      for (uint32_t i = occurrences[o].pos + 1; i < occurrences[o].end; ++i) {
        const int b = sorted[i];
        if (b == a) continue;  // a repeated signature of e1 itself
        if (shared[static_cast<size_t>(b)]++ == 0) touched.push_back(b);
      }
    }
    if (touched.empty()) continue;
    // Emit in ascending e2: scan the counter densely when most of the
    // remaining id range was touched, else sort the touched ids.
    auto emit = [&](int b) {
      pairs.push_back(
          CandidatePair{a, b, std::exchange(shared[static_cast<size_t>(b)], 0)});
    };
    if (touched.size() * 8 >= num_entities - e1) {
      for (size_t b = e1 + 1; b < num_entities; ++b) {
        if (shared[b] != 0) emit(static_cast<int>(b));
      }
    } else {
      std::sort(touched.begin(), touched.end());
      for (int b : touched) emit(b);
    }
    touched.clear();
  }
  return pairs;
}

void InvertedIndex::ForEachCandidate(
    bool short_lists_first,
    const std::function<bool(int, int)>& callback) const {
  EnsureFrozen();
  const uint64_t* starts = frozen_starts();
  const int* ents = frozen_entities();
  for (uint32_t l : EnumerationOrder(short_lists_first)) {
    const size_t begin = starts[l], end = starts[l + 1];
    for (size_t i = begin; i < end; ++i) {
      for (size_t j = i + 1; j < end; ++j) {
        int a = ents[i], b = ents[j];
        if (a == b) continue;
        if (a > b) std::swap(a, b);
        if (!callback(a, b)) return;
      }
    }
  }
}

void InvertedIndex::ForEachList(
    bool short_lists_first,
    const std::function<bool(const int*, size_t)>& callback) const {
  EnsureFrozen();
  const uint64_t* starts = frozen_starts();
  const int* ents = frozen_entities();
  for (uint32_t l : EnumerationOrder(short_lists_first)) {
    const size_t begin = starts[l], end = starts[l + 1];
    if (!callback(ents + begin, end - begin)) return;
  }
}

size_t InvertedIndex::CandidateVolume() const {
  EnsureFrozen();
  const uint64_t* starts = frozen_starts();
  size_t volume = 0;
  const size_t num = frozen_num_lists();
  for (size_t l = 0; l < num; ++l) {
    size_t len = starts[l + 1] - starts[l];
    volume += len * (len - 1) / 2;
  }
  return volume;
}

size_t InvertedIndex::ListOverlap(size_t l1, size_t l2) const {
  EnsureFrozen();
  DIME_CHECK_LT(l1, frozen_num_lists());
  DIME_CHECK_LT(l2, frozen_num_lists());
  const uint64_t* starts = frozen_starts();
  const int* ents = frozen_entities();
  return IntersectionSize(ListSpan(ents, starts, l1),
                          ListSpan(ents, starts, l2));
}

bool InvertedIndex::ListsShareAtLeast(size_t l1, size_t l2,
                                      size_t required) const {
  EnsureFrozen();
  DIME_CHECK_LT(l1, frozen_num_lists());
  DIME_CHECK_LT(l2, frozen_num_lists());
  const uint64_t* starts = frozen_starts();
  const int* ents = frozen_entities();
  return IntersectionAtLeast(ListSpan(ents, starts, l1),
                             ListSpan(ents, starts, l2), required);
}

size_t InvertedIndex::SignatureCount(int entity) const {
  const uint32_t* counts = ext_.sig_counts ? ext_.sig_counts
                                           : sig_counts_.data();
  const size_t n = ext_.sig_counts ? ext_.sig_counts_len : sig_counts_.size();
  if (entity < 0 || static_cast<size_t>(entity) >= n) return 0;
  return counts[entity];
}

size_t InvertedIndex::num_lists() const {
  EnsureFrozen();
  return frozen_num_lists();
}

}  // namespace dime
