#ifndef PERFBENCH_RUNNER_RUNNER_H_
#define PERFBENCH_RUNNER_RUNNER_H_

// The phases of one benchmark run and the state they share.

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/runner/bench_common.h"
#include "perfbench/runner/inputs.h"

namespace perfbench {

struct RunContext {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string state_dir;   ///< survives runs: oracle digests, exact counters
  std::string work_dir;    ///< this run's inputs; removed at exit
  std::string server_bin;  ///< dime_server built from the same sources
  std::string code_id;     ///< identity of the sources built (digest)
  unsigned threads = 1;    ///< nproc

  WorkloadSpec spec;
  RuleSet rules;
  Inputs inputs;

  Tracer* tracer = nullptr;
  Tally* tally = nullptr;
  MetricTable* metrics = nullptr;  ///< every metric measured, both kinds
};

/// A dime_server child process serving the seed's snapshot.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Starts the server and waits for its "listening" line. Returns an
  /// error message, empty on success.
  std::string Start(const RunContext& ctx);
  /// Asks for a clean shutdown, then kills after a grace period; always
  /// reaps the child.
  void Stop();

  pid_t pid() const { return pid_; }
  int port() const { return port_; }

 private:
  pid_t pid_ = -1;
  int port_ = 0;
};

/// Batch verdict of the batch corpus (pages): verdict_s, cpu_s,
/// peak_rss_mb; each verdict checked against the oracle. In a traced run
/// also the per-layer ingest/prepare/signature/engine/sim/corpus metrics.
void RunBatchPhase(RunContext& ctx);

/// Open-loop traffic against the running server: the hit/miss/reload
/// latencies, max_qps_at_slo and cpu_ms_per_check; for serve-live also the
/// corpus sweep (verdict_s, cpu_s) and the server's peak_rss_mb. In a
/// traced run also the per-layer wire/http/service/cache/queue/store
/// metrics.
void RunServePhase(RunContext& ctx, ServerProcess* server);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_RUNNER_H_
