// perfbench runner: runs one named workload for one seed and prints every
// metric it measured as the last line of stdout. perfbench/run.py builds
// this binary, runs it and selects the metrics BENCHMARK.json names.
//
//   perfbench_runner --workload pages --seed 3 --seconds 20 --trace 0
//       --state-dir DIR --work-dir DIR --server-bin PATH --code-id ID
//       [--smoke]

#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "bench/bench_util.h"
#include "perfbench/runner/runner.h"

namespace perfbench {
namespace {

/// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 5;

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_runner: %s\nusage: perfbench_runner --workload "
               "NAME --seed N --seconds S --trace 0|1 --state-dir DIR "
               "--work-dir DIR --server-bin PATH --code-id ID [--smoke]\n",
               why);
  return 2;
}

int Run(int argc, char** argv) {
  if (!dime::bench::GuardReleaseBuild(&argc, argv)) return 2;
  RunContext ctx;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--smoke") {
      ctx.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    std::string v = argv[++i];
    if (arg == "--workload") {
      ctx.workload = v;
    } else if (arg == "--seed") {
      ctx.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      ctx.seconds = std::strtod(v.c_str(), nullptr);
    } else if (arg == "--trace") {
      ctx.trace = v == "1";
    } else if (arg == "--state-dir") {
      ctx.state_dir = v;
    } else if (arg == "--work-dir") {
      ctx.work_dir = v;
    } else if (arg == "--server-bin") {
      ctx.server_bin = v;
    } else if (arg == "--code-id") {
      ctx.code_id = v;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!FindWorkload(ctx.workload, ctx.smoke, &ctx.spec)) {
    return Usage(("unknown workload '" + ctx.workload + "'").c_str());
  }
  if (ctx.seconds <= 0 || ctx.state_dir.empty() || ctx.work_dir.empty() ||
      ctx.server_bin.empty() || ctx.code_id.empty()) {
    return Usage("--seconds, --state-dir, --work-dir, --server-bin and "
                 "--code-id are required");
  }
  // nproc: the CPUs this process may run on.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  ctx.threads = ::sched_getaffinity(0, sizeof(allowed), &allowed) == 0
                    ? static_cast<unsigned>(CPU_COUNT(&allowed))
                    : std::max(1u, std::thread::hardware_concurrency());
  std::filesystem::create_directories(ctx.state_dir);
  std::filesystem::remove_all(ctx.work_dir);
  std::filesystem::create_directories(ctx.work_dir);

  Tracer tracer(ctx.trace);
  Tally tally;
  MetricTable metrics;
  ctx.tracer = &tracer;
  ctx.tally = &tally;
  ctx.metrics = &metrics;
  ctx.rules = MakeRules();
  double calib_before = CalibrationMs();

  // Set-up, repeated: generate and write the inputs, then start the server
  // and wait until it listens. The last server stays up for the run.
  ServerProcess server;
  std::vector<double> setups;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    server.Stop();
    double t0 = NowS();
    std::string err = GenerateInputs(ctx.spec, ctx.rules, ctx.seed,
                                      ctx.work_dir, &ctx.inputs);
    if (err.empty()) err = server.Start(ctx);
    if (!err.empty()) {
      std::fprintf(stderr, "perfbench_runner: set-up failed: %s\n",
                   err.c_str());
      return 1;
    }
    setups.push_back(NowS() - t0);
  }
  metrics.Set("setup_s", Median(setups), "s");

  RunBatchPhase(ctx);
  RunServePhase(ctx, &server);
  server.Stop();

  metrics.Set("calib.before_ms", calib_before, "ms");
  metrics.Set("calib.after_ms", CalibrationMs(), "ms");
  if (ctx.trace) {
    std::string path = ctx.state_dir + "/trace-" + ctx.workload + "-" +
                       std::to_string(ctx.seed) + ".json";
    if (!tracer.WriteChromeTrace(path)) tally.Invalid("cannot write " + path);
  }
  std::filesystem::remove_all(ctx.work_dir);

  for (const std::string& p : tally.problems) {
    std::fprintf(stderr, "problem: %s\n", p.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"nproc\": %u, \"metrics\": %s}\n",
              tally.correct ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed), ctx.threads,
              metrics.ToJson().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Run(argc, argv); }
