#include "util/atomic_file.h"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>

namespace osap::util {

namespace {

std::filesystem::path TempPathFor(const std::filesystem::path& path) {
  static std::atomic<std::uint64_t> counter{0};
  std::filesystem::path tmp = path;
  tmp += ".tmp." + std::to_string(::getpid()) + "." +
         std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
  return tmp;
}

void FsyncFile(const std::filesystem::path& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    throw std::runtime_error("WriteFileAtomically: cannot reopen " +
                             path.string());
  }
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    throw std::runtime_error("WriteFileAtomically: fsync failed for " +
                             path.string());
  }
}

}  // namespace

void WriteFileAtomically(const std::filesystem::path& path,
                         const std::function<void(std::ostream&)>& write) {
  if (path.has_parent_path()) {
    std::filesystem::create_directories(path.parent_path());
  }
  const std::filesystem::path tmp = TempPathFor(path);
  try {
    {
      std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
      if (!out) {
        throw std::runtime_error("WriteFileAtomically: cannot open " +
                                 tmp.string());
      }
      write(out);
      out.flush();
      out.close();
      if (!out) {
        throw std::runtime_error("WriteFileAtomically: write failed for " +
                                 tmp.string());
      }
    }
    FsyncFile(tmp);
    std::filesystem::rename(tmp, path);
  } catch (...) {
    std::error_code ignored;
    std::filesystem::remove(tmp, ignored);
    throw;
  }
}

FileLock::FileLock(const std::filesystem::path& path)
    : fd_(::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644)) {
  if (fd_ < 0) {
    throw std::runtime_error("FileLock: cannot open " + path.string() +
                             ": " + std::strerror(errno));
  }
  while (::flock(fd_, LOCK_EX) != 0) {
    if (errno == EINTR) continue;
    const int err = errno;
    ::close(fd_);
    throw std::runtime_error("FileLock: cannot lock " + path.string() +
                             ": " + std::strerror(err));
  }
}

FileLock::~FileLock() {
  ::close(fd_);  // closing the last descriptor releases the lock
}

}  // namespace osap::util
