// Two tests of one binary write the same names; under `ctest -j` their
// processes truncate each other's files. Both sites must fire.
#include <string>

namespace dime {

std::string FixturePath() {
  return ::testing::TempDir() + "/corrupt.snap";
}

std::string NamedPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

}  // namespace dime
