// The sanctioned helper builds its mkdtemp template from TempDir().
#include <string>

namespace dime {

inline std::string MkdtempTemplate() {
  return ::testing::TempDir() + "dime_test_XXXXXX";
}

}  // namespace dime
