#include "util/file_lock.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <cerrno>

namespace razorbus::util {

FileLock::FileLock(const std::string& path)
    : fd_(::open(path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644)) {
  if (fd_ < 0) return;
  int rc;
  do {
    rc = ::flock(fd_, LOCK_EX);
  } while (rc != 0 && errno == EINTR);
  held_ = rc == 0;
}

FileLock::~FileLock() {
  if (fd_ >= 0) ::close(fd_);  // closing the description releases the lock
}

}  // namespace razorbus::util
