#include "mcsort/io/fs_util.h"

#include <dirent.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace mcsort {

namespace {

Status ErrnoStatus(const std::string& what, const std::string& path) {
  return Status::Unavailable(what + " " + path + ": " + std::strerror(errno));
}

struct File {
  std::FILE* f = nullptr;
  ~File() {
    if (f != nullptr) std::fclose(f);
  }
};

}  // namespace

bool MakeDirs(const std::string& dir) {
  std::string path;
  for (size_t i = 0; i <= dir.size(); ++i) {
    if (i < dir.size() && dir[i] != '/') continue;
    path = dir.substr(0, i);
    if (path.empty() || path == "/") continue;
    if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST) return false;
  }
  return true;
}

Status ReadFileToString(const std::string& path, std::string* out) {
  File in;
  in.f = std::fopen(path.c_str(), "rb");
  if (in.f == nullptr) return ErrnoStatus("open", path);
  if (std::fseek(in.f, 0, SEEK_END) != 0) return ErrnoStatus("seek", path);
  const long size = std::ftell(in.f);
  if (size < 0) return ErrnoStatus("tell", path);
  if (std::fseek(in.f, 0, SEEK_SET) != 0) return ErrnoStatus("seek", path);
  out->resize(static_cast<size_t>(size));
  if (size > 0 &&
      std::fread(out->data(), 1, out->size(), in.f) != out->size()) {
    return ErrnoStatus("read", path);
  }
  return Status::Ok();
}

Status WriteFileAtomic(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  {
    File out;
    out.f = std::fopen(tmp.c_str(), "wb");
    if (out.f == nullptr) return ErrnoStatus("open", tmp);
    if (!bytes.empty() &&
        std::fwrite(bytes.data(), 1, bytes.size(), out.f) != bytes.size()) {
      return ErrnoStatus("write", tmp);
    }
    if (std::fflush(out.f) != 0) return ErrnoStatus("flush", tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return ErrnoStatus("rename", tmp);
  }
  return Status::Ok();
}

bool RemoveFile(const std::string& path) {
  return ::unlink(path.c_str()) == 0 || errno == ENOENT;
}

size_t CleanupTempFiles(const std::string& dir, const std::string& suffix) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return 0;
  size_t removed = 0;
  while (struct dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name.size() <= suffix.size() ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
            0) {
      continue;
    }
    const std::string path = dir + "/" + name;
    struct stat st;
    if (::stat(path.c_str(), &st) != 0 || !S_ISREG(st.st_mode)) continue;
    if (::unlink(path.c_str()) == 0) ++removed;
  }
  ::closedir(d);
  return removed;
}

}  // namespace mcsort
