// Atomic file replacement and a cross-process lock for the on-disk
// artifact cache.
//
// Several processes may cold-start against one shared cache (the tool
// smokes under `ctest -j`, a server restarted while a sibling still
// trains). Writing the final name in place with `trunc` lets a concurrent
// reader load a torn file: a short read only forces a retrain, but a
// region another writer has zero-filled loads as zero weights. Writing a
// private temp file and renaming it over the final name means a reader
// sees either the previous file or the complete new one. The lock goes
// one step further: processes that hold it in turn around load-or-train
// train a bundle once, and the later ones load what the first wrote.
#pragma once

#include <filesystem>
#include <functional>
#include <ostream>

namespace osap::util {

/// Replaces `path` atomically. `write` fills a binary stream opened on a
/// temp file in the same directory, named `<file>.tmp.<pid>.<n>` with a
/// per-process counter n; the file is then flushed, fsync'd, checked and
/// renamed over `path`. Creates missing parent directories. On any failure
/// (including an exception from `write`) the temp file is removed, `path`
/// is left as it was and std::runtime_error (or the writer's exception)
/// propagates.
void WriteFileAtomically(const std::filesystem::path& path,
                         const std::function<void(std::ostream&)>& write);

/// An exclusive flock(2) on `path` (created if missing, never removed),
/// held for the object's lifetime; construction blocks until the lock is
/// free. The kernel drops it if the holder dies, so a crashed trainer
/// never wedges the cache. Throws std::runtime_error if the file cannot
/// be opened or locked.
class FileLock {
 public:
  explicit FileLock(const std::filesystem::path& path);
  ~FileLock();
  FileLock(const FileLock&) = delete;
  FileLock& operator=(const FileLock&) = delete;

 private:
  int fd_ = -1;
};

}  // namespace osap::util
