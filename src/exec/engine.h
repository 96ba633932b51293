#ifndef DIME_EXEC_ENGINE_H_
#define DIME_EXEC_ENGINE_H_

#include <string_view>
#include <vector>

#include "src/core/dime.h"
#include "src/exec/sharded_dime.h"

/// \file engine.h
/// The one place an engine name turns into a function call. dime_cli (file
/// and snapshot modes), dime_server's --engine flag, the wire protocol's
/// "engine" field and DimeService all resolve names and run engines here.
///
///   naive    RunDime — the paper's Algorithm 1, the readable oracle
///   plus     RunDimePlus — Algorithm 2, serial (fastest on page-sized
///            groups)
///   sharded  exec::RunDimePlusSharded — Algorithm 2 on the work-stealing
///            pool (for 100k+ entity groups)
///
/// All three return identical decisions (partitions, pivot, flags).

namespace dime {

/// Which engine executes a check.
enum class EngineKind { kNaive, kPlus, kSharded };

/// "naive" / "plus" / "sharded".
const char* EngineKindName(EngineKind kind);
/// False (and `kind` untouched) for any other name.
bool EngineKindFromName(std::string_view name, EngineKind* kind);

/// Runs `kind` on `pg`. The serial engines read only `options.plus`
/// (kPlus) or nothing (kNaive); kSharded reads all of `options`.
DimeResult RunEngine(EngineKind kind, const PreparedGroup& pg,
                     const std::vector<PositiveRule>& positive,
                     const std::vector<NegativeRule>& negative,
                     const exec::ShardedOptions& options,
                     const RunControl& control);

}  // namespace dime

#endif  // DIME_EXEC_ENGINE_H_
