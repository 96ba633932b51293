#include "src/exec/engine.h"

#include <gtest/gtest.h>

#include "src/core/dime_plus.h"
#include "src/datagen/dbgen_gen.h"
#include "src/datagen/presets.h"
#include "src/datagen/scholar_gen.h"

namespace dime {
namespace {

constexpr EngineKind kAllEngines[] = {EngineKind::kNaive, EngineKind::kPlus,
                                      EngineKind::kSharded};

void ExpectSameResult(const DimeResult& a, const DimeResult& b,
                      EngineKind kind) {
  EXPECT_EQ(a.partitions, b.partitions) << EngineKindName(kind);
  EXPECT_EQ(a.pivot, b.pivot) << EngineKindName(kind);
  EXPECT_EQ(a.flagged_by_prefix, b.flagged_by_prefix) << EngineKindName(kind);
}

TEST(EngineKindTest, NamesRoundTrip) {
  for (EngineKind kind : kAllEngines) {
    EngineKind parsed = kind == EngineKind::kNaive ? EngineKind::kPlus
                                                   : EngineKind::kNaive;
    ASSERT_TRUE(EngineKindFromName(EngineKindName(kind), &parsed));
    EXPECT_EQ(parsed, kind);
  }
}

TEST(EngineKindTest, UnknownNamesAreRejected) {
  EngineKind kind = EngineKind::kSharded;
  for (const char* name : {"parallel", "", "Plus", "warp"}) {
    EXPECT_FALSE(EngineKindFromName(name, &kind)) << name;
  }
  EXPECT_EQ(kind, EngineKind::kSharded);
}

// Every engine RunEngine dispatches to reaches the decisions of the
// sequential oracle (RunDime), at every pool size.
class ParallelEquivalenceTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(ParallelEquivalenceTest, MatchesSequentialOnScholar) {
  ScholarSetup setup = MakeScholarSetup();
  ScholarGenOptions gen;
  gen.num_correct = 90;
  gen.seed = 31;
  Group group = GenerateScholarGroup("Parallel Owner", gen);
  PreparedGroup pg =
      PrepareGroup(group, setup.positive, setup.negative, setup.context);
  DimeResult sequential = RunDime(pg, setup.positive, setup.negative);
  exec::ShardedOptions options;
  options.num_threads = GetParam();
  for (EngineKind kind : kAllEngines) {
    DimeResult r =
        RunEngine(kind, pg, setup.positive, setup.negative, options, {});
    ASSERT_TRUE(r.ok()) << EngineKindName(kind);
    ExpectSameResult(sequential, r, kind);
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ParallelEquivalenceTest,
                         ::testing::Values(1, 2, 3, 8));

TEST(ParallelEquivalenceTest, MatchesSequentialOnDbgen) {
  DbgenOptions options;
  options.num_entities = 800;
  options.seed = 33;
  Group group = GenerateDbgenGroup(options);
  std::vector<PositiveRule> pos = DbgenPositiveRules();
  std::vector<NegativeRule> neg = DbgenNegativeRules();
  PreparedGroup pg = PrepareGroup(group, pos, neg, {});
  DimeResult sequential = RunDime(pg, pos, neg);
  for (EngineKind kind : kAllEngines) {
    ExpectSameResult(sequential, RunEngine(kind, pg, pos, neg, {}, {}), kind);
  }
}

TEST(ParallelTest, EmptyGroup) {
  Group g;
  g.schema = Schema({"Authors"});
  std::vector<PositiveRule> pos(1);
  std::vector<NegativeRule> neg(1);
  ASSERT_TRUE(ParsePositiveRule("overlap(Authors) >= 1", g.schema, &pos[0]));
  ASSERT_TRUE(ParseNegativeRule("overlap(Authors) <= 0", g.schema, &neg[0]));
  PreparedGroup pg = PrepareGroup(g, pos, neg, {});
  for (EngineKind kind : kAllEngines) {
    DimeResult r = RunEngine(kind, pg, pos, neg, {}, {});
    EXPECT_TRUE(r.partitions.empty()) << EngineKindName(kind);
    EXPECT_EQ(r.pivot, -1) << EngineKindName(kind);
  }
}

TEST(ParallelTest, MoreThreadsThanEntities) {
  Group g;
  g.schema = Schema({"Authors"});
  for (int i = 0; i < 3; ++i) {
    Entity e;
    e.id = "e" + std::to_string(i);
    e.values = {{"a"}};
    g.entities.push_back(std::move(e));
  }
  std::vector<PositiveRule> pos(1);
  ASSERT_TRUE(ParsePositiveRule("overlap(Authors) >= 1", g.schema, &pos[0]));
  PreparedGroup pg = PrepareGroup(g, pos, {}, {});
  exec::ShardedOptions options;
  options.num_threads = 32;
  DimeResult r = RunEngine(EngineKind::kSharded, pg, pos, {}, options, {});
  ASSERT_EQ(r.partitions.size(), 1u);
  EXPECT_EQ(r.partitions[0], (std::vector<int>{0, 1, 2}));
}

TEST(EngineTest, PlusReadsDimePlusOptions) {
  // Serial DIME+ effort counters are deterministic, so they show whether
  // RunEngine forwarded options.plus.
  DbgenOptions gen;
  gen.num_entities = 400;
  gen.seed = 35;
  Group group = GenerateDbgenGroup(gen);
  std::vector<PositiveRule> pos = DbgenPositiveRules();
  std::vector<NegativeRule> neg = DbgenNegativeRules();
  PreparedGroup pg = PrepareGroup(group, pos, neg, {});
  ASSERT_GT(RunDimePlus(pg, pos, neg).stats.pairs_skipped_by_transitivity,
            0u);
  exec::ShardedOptions options;
  options.plus.transitivity_skip = false;
  DimeResult dispatched =
      RunEngine(EngineKind::kPlus, pg, pos, neg, options, {});
  DimeResult direct = RunDimePlus(pg, pos, neg, options.plus);
  EXPECT_EQ(dispatched.stats.pairs_skipped_by_transitivity, 0u);
  EXPECT_EQ(dispatched.stats.positive_pair_checks,
            direct.stats.positive_pair_checks);
  EXPECT_EQ(dispatched.stats.negative_pair_checks,
            direct.stats.negative_pair_checks);
}

}  // namespace
}  // namespace dime
