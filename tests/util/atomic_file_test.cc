#include "util/atomic_file.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace osap::util {
namespace {

std::string ReadAll(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::size_t EntryCount(const std::filesystem::path& dir) {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator(dir)) {
    ++n;
  }
  return n;
}

class AtomicFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per test: ctest runs each test as its own process,
    // in parallel, so a shared directory would race with its siblings.
    dir_ = std::filesystem::temp_directory_path() /
           (std::string("osap_atomic_file_test_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

// A writer that fails midway must not tear the previous file: readers keep
// seeing it whole, and the partial temp file is gone.
TEST_F(AtomicFileTest, FailedWriteKeepsPreviousFileAndRemovesTemp) {
  const auto path = dir_ / "file.txt";
  WriteFileAtomically(path, [](std::ostream& out) { out << "kept"; });
  EXPECT_THROW(WriteFileAtomically(path,
                                   [](std::ostream& out) {
                                     out << "partial";
                                     throw std::runtime_error("writer failed");
                                   }),
               std::runtime_error);
  EXPECT_EQ(ReadAll(path), "kept");
  EXPECT_EQ(EntryCount(dir_), 1u);
}

TEST_F(AtomicFileTest, StreamFailureThrowsAndKeepsPreviousFile) {
  const auto path = dir_ / "file.txt";
  WriteFileAtomically(path, [](std::ostream& out) { out << "kept"; });
  EXPECT_THROW(WriteFileAtomically(path,
                                   [](std::ostream& out) {
                                     out << "partial";
                                     out.setstate(std::ios::badbit);
                                   }),
               std::runtime_error);
  EXPECT_EQ(ReadAll(path), "kept");
  EXPECT_EQ(EntryCount(dir_), 1u);
}

}  // namespace
}  // namespace osap::util
