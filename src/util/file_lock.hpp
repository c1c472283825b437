// Cross-process exclusive lock on a file, held for the object's lifetime.
//
// flock(2) serialises processes (and threads, each through its own open
// file description) that open the same path. The kernel drops the lock
// when its holder exits, however it dies, so a crashed holder can never
// stall the waiters. Used where a cache entry must be built once and the
// other builders wait for it (the LUT cache, DESIGN.md §3) and where the
// campaign queue steals stale claims (svc/queue.cpp).
#pragma once

#include <string>

namespace razorbus::util {

class FileLock {
 public:
  // Opens (creating if needed) `path` and blocks until the exclusive lock
  // is granted. Never throws: when the file cannot be opened or locked,
  // held() is false and the caller proceeds unserialised.
  explicit FileLock(const std::string& path);
  ~FileLock();
  FileLock(const FileLock&) = delete;
  FileLock& operator=(const FileLock&) = delete;

  bool held() const { return held_; }

 private:
  int fd_ = -1;
  bool held_ = false;
};

}  // namespace razorbus::util
