#include "src/core/preprocess.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/common/string_util.h"
#include "src/sim/edit_distance.h"
#include "src/sim/set_similarity.h"
#include "src/sim/weighted_similarity.h"
#include "src/text/tokenizer.h"

namespace dime {

std::vector<AttrRequirements> ComputeAttrRequirements(
    size_t num_attrs, const std::vector<Predicate>& predicates) {
  std::vector<AttrRequirements> needs(num_attrs);
  for (const Predicate& p : predicates) {
    DIME_CHECK_GE(p.attr, 0);
    DIME_CHECK_LT(static_cast<size_t>(p.attr), needs.size());
    AttrRequirements& n = needs[p.attr];
    if (IsSetBased(p.func) || IsWeightedSetBased(p.func)) {
      if (p.mode == TokenMode::kValueList) {
        n.value_list = true;
      } else {
        n.words = true;
      }
    } else if (p.func == SimFunc::kEditSim) {
      n.text = true;
    } else if (p.func == SimFunc::kOntology) {
      if (std::find(n.ontology_indexes.begin(), n.ontology_indexes.end(),
                    p.ontology_index) == n.ontology_indexes.end()) {
        n.ontology_indexes.push_back(p.ontology_index);
      }
    }
  }
  return needs;
}

std::string JoinAttributeText(const AttributeValue& value) {
  std::string joined;
  for (size_t i = 0; i < value.size(); ++i) {
    if (i > 0) joined.push_back(' ');
    joined.append(value[i]);
  }
  return ToLower(joined);
}

/// For kExactName we first try the full joined value, then each list
/// element, then every contiguous token span, preferring the deepest hit
/// (so "SIGMOD 2015" maps to the SIGMOD leaf and "RSC Advances 2001" finds
/// the "RSC Advances" node). For kKeyword we vote with word tokens.
namespace {

/// The node whose (lower-cased) name is most edit-similar to some element
/// or token span of `value`, if any reaches `min_similarity`.
int FuzzyNodeMatch(const Ontology& tree, const AttributeValue& value,
                   double min_similarity) {
  int best = kNoNode;
  double best_sim = min_similarity - 1e-9;
  auto consider = [&](const std::string& text) {
    for (int node = 0; node < tree.NumNodes(); ++node) {
      std::string name = ToLower(tree.Name(node));
      // Cheap length pre-filter before the banded verifier.
      size_t max_len = std::max(name.size(), text.size());
      if (max_len == 0) continue;
      size_t diff = max_len - std::min(name.size(), text.size());
      if (static_cast<double>(max_len - diff) / max_len <= best_sim) {
        continue;
      }
      if (EditSimilarityAtLeast(text, name, best_sim + 1e-9)) {
        best_sim = EditSimilarity(text, name);
        best = node;
      }
    }
  };
  for (const std::string& element : value) {
    consider(ToLower(std::string(Trim(element))));
  }
  consider(JoinAttributeText(value));
  return best;
}

}  // namespace

int MapAttributeToNode(const Ontology& tree, MapMode mode,
                       const AttributeValue& value) {
  if (mode == MapMode::kKeyword) {
    std::vector<std::string> tokens = WordTokenize(JoinAttributeText(value));
    return tree.MapByKeywords(tokens);
  }
  int best = kNoNode;
  auto consider = [&](int node) {
    if (node == kNoNode) return;
    if (best == kNoNode || tree.Depth(node) > tree.Depth(best)) best = node;
  };
  consider(tree.FindByName(JoinAttributeText(value)));
  for (const std::string& element : value) {
    consider(tree.FindByName(element));
    std::vector<std::string> tokens = WhitespaceTokenize(element);
    for (size_t i = 0; i < tokens.size(); ++i) {
      std::string span;
      for (size_t j = i; j < tokens.size(); ++j) {
        if (j > i) span.push_back(' ');
        span += tokens[j];
        consider(tree.FindByName(span));
      }
    }
  }
  if (best == kNoNode && mode == MapMode::kFuzzyName) {
    best = FuzzyNodeMatch(tree, value, /*min_similarity=*/0.8);
  }
  return best;
}

namespace {

/// Translates interned documents to sorted unique global-rank runs and
/// packs them into the column's arena, one entity per row.
void FlattenRanks(const std::vector<std::vector<TokenId>>& ids,
                  const TokenDictionary& dict, RankColumn* column) {
  size_t total = 0;
  for (const auto& doc : ids) total += doc.size();
  column->Reserve(ids.size(), total);
  std::vector<uint32_t> ranks;  // scratch, reused across entities
  for (const auto& doc : ids) {
    ranks.clear();
    ranks.reserve(doc.size());
    for (TokenId id : doc) ranks.push_back(dict.GlobalRank(id));
    std::sort(ranks.begin(), ranks.end());
    ranks.erase(std::unique(ranks.begin(), ranks.end()), ranks.end());
    column->Append(ranks);
  }
}

/// Precomputes per-entity total weight and squared weight norm so the
/// threshold-aware weighted kernels never re-scan a side for its mass.
void ComputeMasses(const RankColumn& column,
                   const std::vector<double>& weights,
                   std::vector<double>* mass, std::vector<double>* sqnorm) {
  const size_t n = column.num_entities();
  mass->resize(n);
  sqnorm->resize(n);
  for (size_t e = 0; e < n; ++e) {
    RankSpan v = column.view(e);
    (*mass)[e] = TotalWeight(v, weights);
    (*sqnorm)[e] = SquaredWeightNorm(v, weights);
  }
}

PreparedGroup PrepareImpl(const Group& group,
                          const std::vector<Predicate>& predicates,
                          const DimeContext& context) {
  PreparedGroup pg;
  pg.group = &group;
  pg.context = context;
  pg.attrs.resize(group.schema.size());

  std::vector<AttrRequirements> needs =
      ComputeAttrRequirements(group.schema.size(), predicates);

  const size_t n = group.size();
  for (size_t a = 0; a < pg.attrs.size(); ++a) {
    PreparedAttr& attr = pg.attrs[a];
    const AttrRequirements& need = needs[a];

    if (need.value_list) {
      attr.has_value_list = true;
      std::vector<std::vector<TokenId>> ids(n);
      for (size_t e = 0; e < n; ++e) {
        std::vector<std::string> tokens;
        tokens.reserve(group.entities[e].value(static_cast<int>(a)).size());
        for (const std::string& v :
             group.entities[e].value(static_cast<int>(a))) {
          tokens.push_back(ToLower(std::string(Trim(v))));
        }
        ids[e] = attr.value_dict.InternDocument(tokens);
      }
      attr.value_dict.BuildGlobalOrder();
      attr.value_weights =
          IdfWeightsByRank(attr.value_dict.DocumentFrequencyByRank(), n);
      FlattenRanks(ids, attr.value_dict, &attr.value_ranks);
      ComputeMasses(attr.value_ranks, attr.value_weights, &attr.value_mass,
                    &attr.value_sqnorm);
    }

    if (need.words) {
      attr.has_words = true;
      std::vector<std::vector<TokenId>> ids(n);
      for (size_t e = 0; e < n; ++e) {
        ids[e] = attr.word_dict.InternDocument(WordTokenizeUnique(
            JoinAttributeText(group.entities[e].value(static_cast<int>(a)))));
      }
      attr.word_dict.BuildGlobalOrder();
      attr.word_weights =
          IdfWeightsByRank(attr.word_dict.DocumentFrequencyByRank(), n);
      FlattenRanks(ids, attr.word_dict, &attr.word_ranks);
      ComputeMasses(attr.word_ranks, attr.word_weights, &attr.word_mass,
                    &attr.word_sqnorm);
    }

    if (need.text) {
      attr.has_text = true;
      attr.text.resize(n);
      std::vector<std::vector<TokenId>> ids(n);
      for (size_t e = 0; e < n; ++e) {
        attr.text[e] =
            JoinAttributeText(group.entities[e].value(static_cast<int>(a)));
        ids[e] = attr.qgram_dict.InternDocument(
            QGrams(attr.text[e], context.qgram_q));
      }
      attr.qgram_dict.BuildGlobalOrder();
      FlattenRanks(ids, attr.qgram_dict, &attr.qgram_ranks);
    }

    for (int oi : need.ontology_indexes) {
      DIME_CHECK_GE(oi, 0);
      DIME_CHECK_LT(static_cast<size_t>(oi), context.ontologies.size())
          << "predicate references ontology index " << oi
          << " but the context has only " << context.ontologies.size();
      const OntologyRef& ref = context.ontologies[oi];
      DIME_CHECK(ref.tree != nullptr);
      std::vector<int>& nodes = attr.nodes[oi];
      nodes.resize(n);
      for (size_t e = 0; e < n; ++e) {
        nodes[e] = MapAttributeToNode(
            *ref.tree, ref.mode,
            group.entities[e].value(static_cast<int>(a)));
      }
    }
  }
  return pg;
}

}  // namespace

namespace {

std::string ValidatePredicate(const Schema& schema, const Predicate& p,
                              Direction dir, const DimeContext& context,
                              const std::string& where) {
  if (p.attr < 0 || static_cast<size_t>(p.attr) >= schema.size()) {
    return where + ": attribute index " + std::to_string(p.attr) +
           " out of range (schema has " + std::to_string(schema.size()) +
           " attributes)";
  }
  if (p.func == SimFunc::kOntology) {
    if (p.ontology_index < 0 ||
        static_cast<size_t>(p.ontology_index) >= context.ontologies.size()) {
      return where + ": ontology index " + std::to_string(p.ontology_index) +
             " not provided by the context";
    }
    if (context.ontologies[p.ontology_index].tree == nullptr) {
      return where + ": ontology " + std::to_string(p.ontology_index) +
             " has a null tree";
    }
  }
  if (IsNormalized(p.func) && (p.threshold < 0.0 || p.threshold > 1.0)) {
    return where + ": threshold " + std::to_string(p.threshold) +
           " outside [0, 1] for " + SimFuncName(p.func);
  }
  if (p.func == SimFunc::kOverlap && p.threshold < 0.0) {
    return where + ": negative overlap threshold";
  }
  if (dir == Direction::kGe) {
    bool vacuous = p.func == SimFunc::kOverlap ? p.threshold < 1.0
                                               : p.threshold <= 0.0;
    if (vacuous) {
      return where + ": vacuous positive predicate (" +
             p.ToString(schema, dir) + " holds for every pair)";
    }
  }
  return "";
}

}  // namespace

std::string ValidateRules(const Schema& schema,
                          const std::vector<PositiveRule>& positive,
                          const std::vector<NegativeRule>& negative,
                          const DimeContext& context) {
  for (size_t r = 0; r < positive.size(); ++r) {
    if (positive[r].predicates.empty()) {
      return "positive rule " + std::to_string(r + 1) + " has no predicates";
    }
    for (const Predicate& p : positive[r].predicates) {
      std::string error =
          ValidatePredicate(schema, p, Direction::kGe, context,
                            "positive rule " + std::to_string(r + 1));
      if (!error.empty()) return error;
    }
  }
  for (size_t r = 0; r < negative.size(); ++r) {
    if (negative[r].predicates.empty()) {
      return "negative rule " + std::to_string(r + 1) + " has no predicates";
    }
    for (const Predicate& p : negative[r].predicates) {
      std::string error =
          ValidatePredicate(schema, p, Direction::kLe, context,
                            "negative rule " + std::to_string(r + 1));
      if (!error.empty()) return error;
    }
  }
  return "";
}

PreparedGroup PrepareGroup(const Group& group,
                           const std::vector<PositiveRule>& positive,
                           const std::vector<NegativeRule>& negative,
                           const DimeContext& context) {
  std::vector<Predicate> all;
  for (const PositiveRule& r : positive) {
    all.insert(all.end(), r.predicates.begin(), r.predicates.end());
  }
  for (const NegativeRule& r : negative) {
    all.insert(all.end(), r.predicates.begin(), r.predicates.end());
  }
  return PrepareImpl(group, all, context);
}

PreparedGroup PrepareGroupForPredicates(const Group& group,
                                        const std::vector<Predicate>& preds,
                                        const DimeContext& context) {
  return PrepareImpl(group, preds, context);
}

double PredicateSimilarity(const PreparedGroup& pg, const Predicate& pred,
                           int e1, int e2) {
  const PreparedAttr& attr = pg.attrs[pred.attr];
  if (IsSetBased(pred.func)) {
    const RankColumn& ranks =
        pred.mode == TokenMode::kValueList ? attr.value_ranks : attr.word_ranks;
    return SetSimilarity(pred.func, ranks.view(e1), ranks.view(e2));
  }
  if (IsWeightedSetBased(pred.func)) {
    const bool values = pred.mode == TokenMode::kValueList;
    const RankColumn& ranks = values ? attr.value_ranks : attr.word_ranks;
    const auto& weights = values ? attr.value_weights : attr.word_weights;
    return WeightedSetSimilarity(pred.func, ranks.view(e1), ranks.view(e2),
                                 weights);
  }
  if (pred.func == SimFunc::kEditSim) {
    return EditSimilarity(attr.text[e1], attr.text[e2]);
  }
  DIME_CHECK(pred.func == SimFunc::kOntology);
  const auto it = attr.nodes.find(pred.ontology_index);
  DIME_CHECK(it != attr.nodes.end());
  const Ontology& tree = *pg.context.ontologies[pred.ontology_index].tree;
  return tree.Similarity(it->second[e1], it->second[e2]);
}

bool PredicateHolds(const PreparedGroup& pg, const Predicate& pred,
                    Direction dir, int e1, int e2) {
  const PreparedAttr& attr = pg.attrs[pred.attr];
  if (IsSetBased(pred.func)) {
    const RankColumn& ranks =
        pred.mode == TokenMode::kValueList ? attr.value_ranks : attr.word_ranks;
    return dir == Direction::kGe
               ? SetSimilarityAtLeast(pred.func, ranks.view(e1),
                                      ranks.view(e2), pred.threshold)
               : SetSimilarityAtMost(pred.func, ranks.view(e1),
                                     ranks.view(e2), pred.threshold);
  }
  if (IsWeightedSetBased(pred.func)) {
    const bool values = pred.mode == TokenMode::kValueList;
    const RankColumn& ranks = values ? attr.value_ranks : attr.word_ranks;
    const auto& weights = values ? attr.value_weights : attr.word_weights;
    // Per-side mass: total weight for wjaccard, squared norm for wcosine.
    const auto& mass = pred.func == SimFunc::kWeightedJaccard
                           ? (values ? attr.value_mass : attr.word_mass)
                           : (values ? attr.value_sqnorm : attr.word_sqnorm);
    return dir == Direction::kGe
               ? WeightedSimilarityAtLeast(pred.func, ranks.view(e1),
                                           ranks.view(e2), weights, mass[e1],
                                           mass[e2], pred.threshold)
               : WeightedSimilarityAtMost(pred.func, ranks.view(e1),
                                          ranks.view(e2), weights, mass[e1],
                                          mass[e2], pred.threshold);
  }
  if (pred.func == SimFunc::kEditSim) {
    // Both directions decide through the banded bit-parallel kernel: the
    // kGe path bounds the distance from the threshold, the kLe path from
    // its complement (EditSimilarityAtMost), so neither computes the full
    // distance matrix.
    return dir == Direction::kGe
               ? EditSimilarityAtLeast(attr.text[e1], attr.text[e2],
                                       pred.threshold)
               : EditSimilarityAtMost(attr.text[e1], attr.text[e2],
                                      pred.threshold);
  }
  return pred.Compare(PredicateSimilarity(pg, pred, e1, e2), dir);
}

bool EvalPositiveRule(const PreparedGroup& pg, const PositiveRule& rule,
                      int e1, int e2) {
  for (const Predicate& p : rule.predicates) {
    if (!PredicateHolds(pg, p, Direction::kGe, e1, e2)) return false;
  }
  return true;
}

bool EvalNegativeRule(const PreparedGroup& pg, const NegativeRule& rule,
                      int e1, int e2) {
  for (const Predicate& p : rule.predicates) {
    if (!PredicateHolds(pg, p, Direction::kLe, e1, e2)) return false;
  }
  return true;
}

RulePlan BuildRulePlan(const PreparedGroup& pg,
                       const std::vector<Predicate>& predicates,
                       Direction dir) {
  RulePlan plan;
  plan.reserve(predicates.size());
  for (const Predicate& pred : predicates) {
    const PreparedAttr& attr = pg.attrs[pred.attr];
    PredicatePlan p;
    p.dir = dir;
    p.func = pred.func;
    p.threshold = pred.threshold;
    if (IsSetBased(pred.func)) {
      p.kind = PredicatePlan::Kind::kSet;
      p.ranks = pred.mode == TokenMode::kValueList ? &attr.value_ranks
                                                   : &attr.word_ranks;
    } else if (IsWeightedSetBased(pred.func)) {
      const bool values = pred.mode == TokenMode::kValueList;
      p.kind = PredicatePlan::Kind::kWeighted;
      p.ranks = values ? &attr.value_ranks : &attr.word_ranks;
      p.weights = values ? &attr.value_weights : &attr.word_weights;
      p.mass = (pred.func == SimFunc::kWeightedJaccard
                    ? (values ? attr.value_mass : attr.word_mass)
                    : (values ? attr.value_sqnorm : attr.word_sqnorm))
                   .data();
    } else if (pred.func == SimFunc::kEditSim) {
      p.kind = PredicatePlan::Kind::kEditSim;
      p.text = attr.text.data();
    } else {
      DIME_CHECK(pred.func == SimFunc::kOntology);
      const auto it = attr.nodes.find(pred.ontology_index);
      DIME_CHECK(it != attr.nodes.end());
      p.kind = PredicatePlan::Kind::kOntology;
      p.nodes = it->second.data();
      p.tree = pg.context.ontologies[pred.ontology_index].tree;
    }
    plan.push_back(p);
  }
  return plan;
}

bool PlanPredicateHolds(const PredicatePlan& p, int e1, int e2) {
  switch (p.kind) {
    case PredicatePlan::Kind::kSet:
      return p.dir == Direction::kGe
                 ? SetSimilarityAtLeast(p.func, p.ranks->view(e1),
                                        p.ranks->view(e2), p.threshold)
                 : SetSimilarityAtMost(p.func, p.ranks->view(e1),
                                       p.ranks->view(e2), p.threshold);
    case PredicatePlan::Kind::kWeighted:
      return p.dir == Direction::kGe
                 ? WeightedSimilarityAtLeast(p.func, p.ranks->view(e1),
                                             p.ranks->view(e2), *p.weights,
                                             p.mass[e1], p.mass[e2],
                                             p.threshold)
                 : WeightedSimilarityAtMost(p.func, p.ranks->view(e1),
                                            p.ranks->view(e2), *p.weights,
                                            p.mass[e1], p.mass[e2],
                                            p.threshold);
    case PredicatePlan::Kind::kEditSim:
      return p.dir == Direction::kGe
                 ? EditSimilarityAtLeast(p.text[e1], p.text[e2], p.threshold)
                 : EditSimilarityAtMost(p.text[e1], p.text[e2], p.threshold);
    case PredicatePlan::Kind::kOntology: {
      // Same epsilon as Predicate::Compare.
      constexpr double kEps = 1e-9;
      const double sim = p.tree->Similarity(p.nodes[e1], p.nodes[e2]);
      return p.dir == Direction::kGe ? sim >= p.threshold - kEps
                                     : sim <= p.threshold + kEps;
    }
  }
  return false;  // unreachable: all kinds handled above
}

double RuleVerificationCost(const RulePlan& plan, int e1, int e2) {
  double cost = 0.0;
  for (const PredicatePlan& p : plan) {
    switch (p.kind) {
      case PredicatePlan::Kind::kSet:
      case PredicatePlan::Kind::kWeighted:
        cost += static_cast<double>(p.ranks->size(e1) + p.ranks->size(e2));
        break;
      case PredicatePlan::Kind::kEditSim: {
        const size_t len1 = p.text[e1].size(), len2 = p.text[e2].size();
        const size_t band =
            MaxEditDistanceForSim(std::max(len1, len2), p.threshold);
        cost += static_cast<double>(std::max<size_t>(1, band) *
                                    std::min(len1, len2));
        break;
      }
      case PredicatePlan::Kind::kOntology: {
        const int n1 = p.nodes[e1], n2 = p.nodes[e2];
        const int d1 = n1 == kNoNode ? 1 : p.tree->Depth(n1);
        const int d2 = n2 == kNoNode ? 1 : p.tree->Depth(n2);
        cost += static_cast<double>(d1 + d2);
        break;
      }
    }
  }
  return std::max(cost, 1.0);
}

}  // namespace dime
