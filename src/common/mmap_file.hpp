// Read-only memory-mapped files (DESIGN.md §11).
//
// MmapFile is the zero-copy backing of the storage-view layer: a v4
// kd-tree index or an aligned point file is opened by mapping it and
// pointing spans into the map, so "loading" a billion-point index
// costs one mmap syscall plus a header validation — no full-file read,
// no allocation proportional to the data. Pages fault in lazily as
// queries touch them, which is exactly the page-cache-resident serving
// story: a warm index costs no RAM beyond the page cache it already
// occupies.
//
// Lifetime: the map lives as long as the MmapFile object. Consumers
// that hand out spans into the map (core::KdTree, data::MmapStorage)
// hold it by shared_ptr, so a served snapshot keeps its backing file
// mapped until the last in-flight batch drops it — the same staged-
// swap discipline as the owned-memory snapshots (DESIGN.md §8).
#pragma once

#include <cstddef>
#include <memory>
#include <string>

namespace panda::common {

/// A whole file mapped read-only. Throws panda::Error when the file
/// cannot be opened, stat'ed, or mapped. Move-only.
class MmapFile {
 public:
  /// Maps `path` read-only (MAP_PRIVATE). An empty file maps to a
  /// null region of size 0.
  static std::shared_ptr<MmapFile> open(const std::string& path);

  ~MmapFile();
  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;

  const std::byte* data() const { return static_cast<const std::byte*>(addr_); }
  std::size_t size() const { return size_; }
  const std::string& path() const { return path_; }

 private:
  MmapFile(void* addr, std::size_t size, std::string path)
      : addr_(addr), size_(size), path_(std::move(path)) {}

  void* addr_ = nullptr;
  std::size_t size_ = 0;
  std::string path_;
};

}  // namespace panda::common
