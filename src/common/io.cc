#include "common/io.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>

namespace dtdbd {

namespace {

// fsync the directory containing `path` so the rename that published the
// file is itself durable: POSIX only guarantees the new directory entry
// survives a power loss after the directory has been synced.
Status SyncContainingDirectory(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "."
                          : slash == 0               ? "/"  // "/file" -> root
                                                     : path.substr(0, slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd < 0) {
    return Status::IoError("cannot open directory for fsync: " + dir);
  }
  const bool synced = ::fsync(dfd) == 0;
  ::close(dfd);
  if (!synced) {
    return Status::IoError("directory fsync failed: " + dir);
  }
  return Status::Ok();
}

}  // namespace

Status AtomicWriteFile(const std::string& path, const std::string& contents) {
  const std::string tmp_path = path + ".tmp";
  std::FILE* f = std::fopen(tmp_path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("cannot open for write: " + tmp_path);
  }
  bool ok = contents.empty() ||
            std::fwrite(contents.data(), 1, contents.size(), f) ==
                contents.size();
  // Flush user-space buffers and force the bytes to disk before the rename;
  // otherwise a crash could publish an empty/partial file.
  ok = ok && std::fflush(f) == 0 && fsync(fileno(f)) == 0;
  if (std::fclose(f) != 0) ok = false;
  if (!ok) {
    std::remove(tmp_path.c_str());
    return Status::IoError("write failed: " + tmp_path);
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return Status::IoError("rename failed: " + tmp_path + " -> " + path);
  }
  return SyncContainingDirectory(path);
}

}  // namespace dtdbd
