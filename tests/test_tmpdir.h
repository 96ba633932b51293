#ifndef DIME_TESTS_TEST_TMPDIR_H_
#define DIME_TESTS_TEST_TMPDIR_H_

#include <gtest/gtest.h>
#include <stdlib.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

/// \file test_tmpdir.h
/// Scratch paths private to one test process. gtest_discover_tests runs
/// every TEST as its own process and `ctest -j` runs those concurrently,
/// so a fixed name directly under testing::TempDir() is shared by every
/// test that writes it — one test truncates another's file mid-read.
/// Write under TestTmpPath() instead; dime_lint's test-fixed-tmp-path
/// rule flags `TempDir() + "literal"` anywhere else under tests/.

namespace dime {

/// A directory made with mkdtemp under testing::TempDir() on first use,
/// removed with its contents at process exit.
inline const std::string& TestTmpDir() {
  struct Dir {
    std::string path;
    Dir() {
      std::string tmpl = ::testing::TempDir() + "dime_test_XXXXXX";
      if (mkdtemp(tmpl.data()) == nullptr) {
        std::perror("mkdtemp");
        std::abort();
      }
      path = tmpl;
    }
    ~Dir() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  };
  static const Dir dir;
  return dir.path;
}

/// `name` inside TestTmpDir().
inline std::string TestTmpPath(const std::string& name) {
  return TestTmpDir() + "/" + name;
}

}  // namespace dime

#endif  // DIME_TESTS_TEST_TMPDIR_H_
