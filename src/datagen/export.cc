#include "src/datagen/export.h"

#include <filesystem>

#include "src/datagen/amazon_gen.h"
#include "src/datagen/names.h"
#include "src/datagen/presets.h"
#include "src/datagen/scholar_gen.h"
#include "src/ontology/builtin.h"
#include "src/rules/rule_io.h"

namespace dime {
namespace {

namespace fs = std::filesystem;

bool EnsureDirectory(const std::string& path) {
  std::error_code ec;
  fs::create_directories(path, ec);
  return !ec;
}

}  // namespace

bool ExportBenchmarkSuite(const std::string& directory,
                          const ExportOptions& options,
                          ExportManifest* manifest) {
  ExportManifest local;
  const std::string scholar_dir = directory + "/scholar";
  const std::string amazon_dir = directory + "/amazon";
  if (!EnsureDirectory(scholar_dir) || !EnsureDirectory(amazon_dir)) {
    return false;
  }

  // --- Scholar pages + preset rules + venue tree. -------------------------
  ScholarSetup scholar = MakeScholarSetup();
  for (size_t i = 0; i < options.scholar_pages; ++i) {
    ScholarGenOptions gen;
    gen.num_correct = options.scholar_pubs;
    gen.seed = options.seed + i;
    Group page = GenerateScholarGroup(
        "Exported Owner " + std::to_string(i), gen);
    std::string path = scholar_dir + "/page_" + std::to_string(i) + ".tsv";
    if (!SaveGroup(page, path).ok()) return false;
    local.scholar_groups.push_back(path);
  }
  local.scholar_rules = scholar_dir + "/rules.txt";
  if (!SaveRuleSet(local.scholar_rules, scholar.schema, scholar.positive,
                   scholar.negative)) {
    return false;
  }
  local.venue_ontology = scholar_dir + "/venues.ontology";
  if (!scholar.venue_tree->SaveToFile(local.venue_ontology)) return false;

  // --- Amazon categories + preset rules + fitted theme tree. --------------
  std::vector<Group> corpus;
  for (size_t i = 0; i < options.amazon_categories; ++i) {
    AmazonGenOptions gen;
    gen.num_correct = options.amazon_products;
    gen.error_rate = options.amazon_error_rate;
    gen.seed = options.seed + 100 + i;
    int category =
        static_cast<int>((options.seed + i * 7) % ProductCategories().size());
    corpus.push_back(GenerateAmazonGroup(category, gen));
  }
  AmazonSetup amazon = MakeAmazonSetup(corpus);
  for (size_t i = 0; i < corpus.size(); ++i) {
    std::string path = amazon_dir + "/" + corpus[i].name + "_" +
                       std::to_string(i) + ".tsv";
    if (!SaveGroup(corpus[i], path).ok()) return false;
    local.amazon_groups.push_back(path);
  }
  local.amazon_rules = amazon_dir + "/rules.txt";
  if (!SaveRuleSet(local.amazon_rules, amazon.schema, amazon.positive,
                   amazon.negative)) {
    return false;
  }
  local.theme_ontology = amazon_dir + "/themes.ontology";
  if (!amazon.theme_tree->SaveToFile(local.theme_ontology)) return false;

  if (manifest != nullptr) *manifest = std::move(local);
  return true;
}

}  // namespace dime
