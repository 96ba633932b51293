// Outside tests/ the rule does not apply.
#include <string>

namespace dime {

std::string ScratchPath() { return ::testing::TempDir() + "/scratch.bin"; }

}  // namespace dime
