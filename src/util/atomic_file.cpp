#include "util/atomic_file.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "util/hash.hpp"

namespace afs {
namespace {

[[noreturn]] void fail(const std::string& what, const std::string& path) {
  throw std::runtime_error(what + " " + path + ": " + std::strerror(errno));
}

/// fsync a file descriptor, tolerating filesystems (and CI tmpfs overlays)
/// that reject fsync on special files with EINVAL — durability degrades
/// but atomic visibility via rename still holds there.
bool fsync_fd(int fd) { return ::fsync(fd) == 0 || errno == EINVAL; }

void fsync_parent_dir(const std::filesystem::path& p) {
  const std::filesystem::path dir =
      p.has_parent_path() ? p.parent_path() : std::filesystem::path(".");
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return;  // best effort: rename already happened
  (void)fsync_fd(fd);
  ::close(fd);
}

}  // namespace

std::string unique_tmp_path(const std::string& final_path) {
  static std::atomic<std::uint64_t> counter{0};
  const std::uint64_t tid =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  std::ostringstream os;
  os << final_path << ".tmp." << ::getpid() << '.' << hex64(tid).substr(8)
     << '.' << counter.fetch_add(1);
  return os.str();
}

void write_file_atomic(const std::string& path, const std::string& content) {
  const std::filesystem::path target(path);
  if (target.has_parent_path())
    std::filesystem::create_directories(target.parent_path());

  const std::string tmp = unique_tmp_path(path);
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
  if (fd < 0) fail("cannot open", tmp);

  std::size_t off = 0;
  while (off < content.size()) {
    const ssize_t n = ::write(fd, content.data() + off, content.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int saved = errno;
      ::close(fd);
      ::unlink(tmp.c_str());
      errno = saved;
      fail("cannot write", tmp);
    }
    off += static_cast<std::size_t>(n);
  }

  if (!fsync_fd(fd)) {
    const int saved = errno;
    ::close(fd);
    ::unlink(tmp.c_str());
    errno = saved;
    fail("cannot fsync", tmp);
  }
  if (::close(fd) != 0) {
    const int saved = errno;
    ::unlink(tmp.c_str());
    errno = saved;
    fail("cannot close", tmp);
  }

  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const int saved = errno;
    ::unlink(tmp.c_str());
    errno = saved;
    fail("cannot rename into", path);
  }
  fsync_parent_dir(target);
}

void commit_file_atomic(const std::string& tmp_path,
                        const std::string& final_path) {
  const int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CLOEXEC);
  if (fd < 0) fail("cannot reopen", tmp_path);
  const bool synced = fsync_fd(fd);
  const int saved = errno;
  ::close(fd);
  if (!synced) {
    errno = saved;
    fail("cannot fsync", tmp_path);
  }
  if (std::rename(tmp_path.c_str(), final_path.c_str()) != 0)
    fail("cannot rename into", final_path);
  fsync_parent_dir(std::filesystem::path(final_path));
}

}  // namespace afs
