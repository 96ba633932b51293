// Per-process scratch paths, and prose that merely mentions the
// TempDir() + "name" pattern, are fine.
#include <string>

#include "tests/test_tmpdir.h"

namespace dime {

std::string FixturePath() { return TestTmpPath("corrupt.snap"); }

const char* kHelp = "never write TempDir() + \"/x\" in a test";

}  // namespace dime
