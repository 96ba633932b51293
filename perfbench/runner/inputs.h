#ifndef PERFBENCH_RUNNER_INPUTS_H_
#define PERFBENCH_RUNNER_INPUTS_H_

// Workload definitions and the seeded inputs they are made of. Every
// workload has a BATCH corpus (verdicted as a whole) and a SERVED corpus
// (loaded by dime_server from a snapshot and queried one group at a time);
// see perfbench/NOTES.md for why each one exists.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/dime.h"
#include "src/datagen/presets.h"
#include "src/entity/entity.h"
#include "src/store/delta_log.h"

namespace perfbench {

struct WorkloadSpec {
  std::string name;

  // Batch corpus. pages: `batch_pages` Scholar pages with heavy-tailed
  // sizes in [batch_min, batch_max]; serve-live: the served corpus itself,
  // verdicted by a sweep through the server.
  size_t batch_pages = 0;
  size_t batch_min = 0;
  size_t batch_max = 0;
  bool batch_through_server = false;

  // Shares of --seconds: the timed batch verdicts (or sweeps), the read
  // window and the live window.
  double batch_share = 0;
  double read_share = 0;
  double live_share = 0;

  // Served corpus and its server configuration.
  size_t served_groups = 0;
  size_t served_min = 0;  ///< entities per served group (log-uniform)
  size_t served_max = 0;
  size_t inline_groups = 0;  ///< distinct group_tsv payloads sent over HTTP
  size_t cache_capacity = 0;

  // Open-loop traffic.
  double nominal_qps = 0;   ///< rate at which latencies are reported
  double slo_ms = 0;        ///< p99 limit for max_qps_at_slo
  double ladder_anchor_qps = 0;  ///< the rate ladder spans 0.4x-2.5x this
  double reload_every_s = 0;  ///< delta append + reload interval
  size_t delta_groups = 0;  ///< groups touched by one delta batch
};

/// The named workload, or false. `smoke` shrinks every size so the whole
/// run takes seconds (the benchmark's own test).
bool FindWorkload(const std::string& name, bool smoke, WorkloadSpec* out);

/// Rules, schema and ontology context of the Scholar corpora.
struct RuleSet {
  dime::Schema schema;
  std::vector<dime::PositiveRule> positive;
  std::vector<dime::NegativeRule> negative;
  dime::DimeContext context;
  std::shared_ptr<dime::ScholarSetup> scholar;  ///< owns the ontology trees
};
RuleSet MakeRules();

/// Everything generated for one seed.
struct Inputs {
  std::vector<std::string> batch_paths;  ///< TSV files of the batch corpus
  std::vector<dime::Group> served;       ///< served corpus, names g0..gN
  std::vector<dime::Group> inline_groups;  ///< HTTP group_tsv payloads
  std::string snapshot_path;
  std::string delta_log_path;
};

/// Generates the seed's inputs under `dir` and writes the batch TSVs and
/// the served snapshot. Returns an error message, empty on success.
std::string GenerateInputs(const WorkloadSpec& spec, const RuleSet& rules,
                           uint64_t seed, const std::string& dir,
                           Inputs* out);

/// Seeded delta batch `k`: for each of `spec.delta_groups` served groups,
/// one add (a copy of a member under a new id), one edit and one remove.
std::vector<dime::DeltaRecord> MakeDeltaBatch(const WorkloadSpec& spec,
                                              const Inputs& inputs,
                                              uint64_t seed, size_t k);

/// Digest of a verdict: partition count, pivot size and every scrollbar
/// prefix. Two engines agree on a group iff their digests agree.
uint64_t VerdictDigest(const dime::DimeResult& result);

/// Ids of the entities a full scrollbar flags, in reply order.
std::vector<std::string> FlaggedIds(const dime::Group& group,
                                    const dime::DimeResult& result);

/// Verdict from the reference engine (Algorithm 1, RunDime).
dime::DimeResult ReferenceVerdict(const dime::Group& group,
                                  const RuleSet& rules);

/// SplitMix64 step, the runner's own seed mixer.
uint64_t Mix(uint64_t a, uint64_t b);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_INPUTS_H_
