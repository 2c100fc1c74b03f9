#include "common/fs_util.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace hdsky {
namespace common {

namespace {

std::string ParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

Status Errno(const std::string& op, const std::string& path) {
  return Status::IOError(op + " " + path + ": " + std::strerror(errno));
}

}  // namespace

Status AtomicWriteFile(const std::string& path,
                       const std::string& contents) {
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Errno("open", tmp);
  size_t written = 0;
  while (written < contents.size()) {
    const ssize_t n = ::write(fd, contents.data() + written,
                              contents.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status s = Errno("write", tmp);
      ::close(fd);
      ::unlink(tmp.c_str());
      return s;
    }
    written += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    const Status s = Errno("fsync", tmp);
    ::close(fd);
    ::unlink(tmp.c_str());
    return s;
  }
  if (::close(fd) != 0) {
    const Status s = Errno("close", tmp);
    ::unlink(tmp.c_str());
    return s;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const Status s = Errno("rename", tmp + " -> " + path);
    ::unlink(tmp.c_str());
    return s;
  }
  return SyncDir(ParentDir(path));
}

Result<std::string> ReadFileToString(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return Status::NotFound(path + " does not exist");
    return Errno("open", path);
  }
  std::string out;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status s = Errno("read", path);
      ::close(fd);
      return s;
    }
    if (n == 0) break;
    out.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return out;
}

Status MakeDir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST) return Status::OK();
  return Errno("mkdir", dir);
}

Status SyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return Errno("open dir", dir);
  // Some filesystems refuse fsync on directories (EINVAL); the rename is
  // still atomic there, only its durability timing is weaker.
  if (::fsync(fd) != 0 && errno != EINVAL) {
    const Status s = Errno("fsync dir", dir);
    ::close(fd);
    return s;
  }
  ::close(fd);
  return Status::OK();
}

Result<std::unique_ptr<AtomicFileWriter>> AtomicFileWriter::Create(
    const std::string& path) {
  std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Errno("open", tmp);
  return std::unique_ptr<AtomicFileWriter>(
      new AtomicFileWriter(path, std::move(tmp), fd));
}

AtomicFileWriter::~AtomicFileWriter() {
  if (!done_) {
    ::close(fd_);
    ::unlink(tmp_.c_str());
  }
}

Status AtomicFileWriter::Append(const void* data, size_t len) {
  if (done_) return Status::IOError("append after commit: " + tmp_);
  const char* p = static_cast<const char*>(data);
  size_t written = 0;
  while (written < len) {
    const ssize_t n = ::write(fd_, p + written, len - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("write", tmp_);
    }
    written += static_cast<size_t>(n);
  }
  appended_ += len;
  return Status::OK();
}

Status AtomicFileWriter::WriteAt(uint64_t offset, const void* data,
                                 size_t len) {
  if (done_) return Status::IOError("pwrite after commit: " + tmp_);
  if (offset + len > appended_) {
    return Status::IOError("pwrite past appended end: " + tmp_);
  }
  const char* p = static_cast<const char*>(data);
  size_t written = 0;
  while (written < len) {
    const ssize_t n =
        ::pwrite(fd_, p + written, len - written,
                 static_cast<off_t>(offset + written));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("pwrite", tmp_);
    }
    written += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status AtomicFileWriter::Commit() {
  if (done_) return Status::IOError("double commit: " + tmp_);
  done_ = true;
  if (::fsync(fd_) != 0) {
    const Status s = Errno("fsync", tmp_);
    ::close(fd_);
    ::unlink(tmp_.c_str());
    return s;
  }
  if (::close(fd_) != 0) {
    const Status s = Errno("close", tmp_);
    ::unlink(tmp_.c_str());
    return s;
  }
  if (::rename(tmp_.c_str(), path_.c_str()) != 0) {
    const Status s = Errno("rename", tmp_ + " -> " + path_);
    ::unlink(tmp_.c_str());
    return s;
  }
  return SyncDir(ParentDir(path_));
}

void RemoveStaleTempFiles(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return;
  while (dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name.find(".tmp.") != std::string::npos) {
      ::unlink((dir + "/" + name).c_str());
    }
  }
  ::closedir(d);
}

}  // namespace common
}  // namespace hdsky
