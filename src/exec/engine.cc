#include "src/exec/engine.h"

#include "src/core/dime_plus.h"

namespace dime {

const char* EngineKindName(EngineKind kind) {
  switch (kind) {
    case EngineKind::kNaive:
      return "naive";
    case EngineKind::kPlus:
      return "plus";
    case EngineKind::kSharded:
      return "sharded";
  }
  return "unknown";
}

bool EngineKindFromName(std::string_view name, EngineKind* kind) {
  for (EngineKind k :
       {EngineKind::kNaive, EngineKind::kPlus, EngineKind::kSharded}) {
    if (name == EngineKindName(k)) {
      *kind = k;
      return true;
    }
  }
  return false;
}

DimeResult RunEngine(EngineKind kind, const PreparedGroup& pg,
                     const std::vector<PositiveRule>& positive,
                     const std::vector<NegativeRule>& negative,
                     const exec::ShardedOptions& options,
                     const RunControl& control) {
  switch (kind) {
    case EngineKind::kNaive:
      return RunDime(pg, positive, negative, control);
    case EngineKind::kSharded:
      return exec::RunDimePlusSharded(pg, positive, negative, options,
                                      control);
    case EngineKind::kPlus:
      break;
  }
  return RunDimePlus(pg, positive, negative, options.plus, control);
}

}  // namespace dime
