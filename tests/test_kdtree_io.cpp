// Tests for kd-tree persistence: save/load round trips preserve query
// results bit-for-bit; v4 files open zero-copy via mmap; malformed
// inputs are rejected with header diagnostics, including crafted
// headers whose counts or offsets wrap 64-bit arithmetic and crafted
// node and leaf records under recomputed CRCs; a single flipped byte
// in any section is caught by the CRC32C checksums with a
// section-naming diagnostic; every other version is refused by every
// reader with one diagnostic.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "api/index.hpp"
#include "common/checksum.hpp"
#include "common/error.hpp"
#include "core/kdtree.hpp"
#include "core/kdtree_format.hpp"
#include "data/generators.hpp"
#include "index_bytes.hpp"
#include "parallel/thread_pool.hpp"

namespace panda::core {
namespace {

/// Error message of an expression expected to throw panda::Error.
template <typename Fn>
std::string error_of(Fn&& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

void patch_file(const std::string& path, std::uint64_t off, const void* bytes,
                std::size_t n) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.good());
  f.seekp(static_cast<std::streamoff>(off));
  f.write(static_cast<const char*>(bytes), static_cast<std::streamsize>(n));
}

detail::KdTreeHeader read_header(const std::string& path) {
  detail::KdTreeHeader header{};
  std::ifstream in(path, std::ios::binary);
  in.read(reinterpret_cast<char*>(&header), sizeof(header));
  EXPECT_TRUE(in.good()) << path;
  return header;
}

/// Writes `header` back with a freshly computed header CRC — what a
/// crafted file would carry, since a CRC is not a MAC.
void write_header_with_crc(const std::string& path,
                           detail::KdTreeHeader header) {
  header.header_crc = 0;
  header.header_crc = common::crc32c(&header, sizeof(header));
  patch_file(path, 0, &header, sizeof(header));
}

/// Every reader of an index path: the owned loader, the mapped open
/// with and without section checks, and the facade.
template <typename Check>
void for_every_reader(const std::string& path, Check&& check) {
  check("load", error_of([&] { KdTree::load(path); }));
  check("open_mmap", error_of([&] { KdTree::open_mmap(path); }));
  check("open_mmap(unverified)",
        error_of([&] { KdTree::open_mmap(path, false); }));
  check("Index::open", error_of([&] { Index::open(path); }));
}

void expect_identical_queries(const KdTree& a, const KdTree& b,
                              const data::PointSet& queries, std::size_t k) {
  std::vector<float> q(queries.dims());
  for (std::uint64_t i = 0; i < queries.size(); ++i) {
    queries.copy_point(i, q.data());
    const auto ra = a.query(q, k);
    const auto rb = b.query(q, k);
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t j = 0; j < ra.size(); ++j) {
      ASSERT_EQ(ra[j].id, rb[j].id);
      ASSERT_EQ(ra[j].dist2, rb[j].dist2);
    }
  }
}

TEST(KdTreeIo, RoundTripPreservesQueries) {
  const auto gen = data::make_generator("cosmo", 77);
  const data::PointSet points = gen->generate_all(20000);
  const data::PointSet queries = gen->generate_all(100);
  parallel::ThreadPool pool(4);
  const KdTree original = KdTree::build(points, BuildConfig{}, pool);

  const std::string path = ::testing::TempDir() + "/panda_tree_test.kdt";
  original.save(path);
  const KdTree loaded = KdTree::load(path);
  std::remove(path.c_str());

  EXPECT_EQ(loaded.dims(), original.dims());
  EXPECT_EQ(loaded.size(), original.size());
  EXPECT_EQ(loaded.stats().nodes, original.stats().nodes);
  EXPECT_EQ(loaded.stats().max_depth, original.stats().max_depth);
  EXPECT_EQ(loaded.config().bucket_size, original.config().bucket_size);

  std::vector<float> q(3);
  for (std::uint64_t i = 0; i < queries.size(); ++i) {
    queries.copy_point(i, q.data());
    const auto a = original.query(q, 7);
    const auto b = loaded.query(q, 7);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t j = 0; j < a.size(); ++j) {
      ASSERT_EQ(a[j].dist2, b[j].dist2);
      ASSERT_EQ(a[j].id, b[j].id);
    }
  }
}

TEST(KdTreeIo, RoundTripOnHighDimensionalTree) {
  const auto gen = data::make_generator("dayabay", 78);
  const data::PointSet points = gen->generate_all(5000);
  parallel::ThreadPool pool(2);
  const KdTree original = KdTree::build(points, BuildConfig{}, pool);
  const std::string path = ::testing::TempDir() + "/panda_tree10d.kdt";
  original.save(path);
  const KdTree loaded = KdTree::load(path);
  std::remove(path.c_str());
  std::vector<float> q(10, 0.1f);
  const auto a = original.query_radius(q, 0.5f);
  const auto b = loaded.query_radius(q, 0.5f);
  ASSERT_EQ(a.size(), b.size());
}

TEST(KdTreeIo, EmptyTreeRoundTrips) {
  parallel::ThreadPool pool(1);
  const data::PointSet points(3);
  const KdTree original = KdTree::build(points, BuildConfig{}, pool);
  const std::string path = ::testing::TempDir() + "/panda_tree_empty.kdt";
  original.save(path);
  const KdTree loaded = KdTree::load(path);
  std::remove(path.c_str());
  EXPECT_TRUE(loaded.empty());
  EXPECT_TRUE(loaded.query(std::vector<float>{0, 0, 0}, 1).empty());
}

TEST(KdTreeIo, SavesAreByteIdentical) {
  // Two builds of one point set, and two saves of one tree, write the
  // same bytes: no indeterminate struct padding reaches the file.
  const auto gen = data::make_generator("dayabay", 79);
  const data::PointSet points = gen->generate_all(5000);
  parallel::ThreadPool pool(2);
  const std::string dir = ::testing::TempDir();
  const std::string paths[] = {dir + "/panda_repro_a.kdt",
                               dir + "/panda_repro_a2.kdt",
                               dir + "/panda_repro_b.kdt"};
  {
    const KdTree a = KdTree::build(points, BuildConfig{}, pool);
    a.save(paths[0]);
    a.save(paths[1]);
  }
  KdTree::build(points, BuildConfig{}, pool).save(paths[2]);

  const auto bytes = testing::read_bytes(paths[0]);
  testing::expect_zero_padding(bytes);
  EXPECT_TRUE(bytes == testing::read_bytes(paths[1]));
  EXPECT_TRUE(bytes == testing::read_bytes(paths[2]));
  for (const auto& path : paths) std::remove(path.c_str());
}

TEST(KdTreeIo, MissingFileThrows) {
  EXPECT_THROW(KdTree::load("/nonexistent/tree.kdt"), panda::Error);
}

TEST(KdTreeIo, CorruptMagicRejected) {
  const std::string path = ::testing::TempDir() + "/panda_tree_bad.kdt";
  {
    std::ofstream out(path, std::ios::binary);
    const char garbage[256] = "definitely not a kd-tree";
    out.write(garbage, sizeof(garbage));
  }
  EXPECT_THROW(KdTree::load(path), panda::Error);
  std::remove(path.c_str());
}

TEST(KdTreeIo, TruncatedPayloadRejected) {
  const auto gen = data::make_generator("uniform", 79);
  const data::PointSet points = gen->generate_all(1000);
  parallel::ThreadPool pool(2);
  const KdTree tree = KdTree::build(points, BuildConfig{}, pool);
  const std::string path = ::testing::TempDir() + "/panda_tree_trunc.kdt";
  tree.save(path);
  // Truncate the file to half its size.
  {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    const auto size = in.tellg();
    std::vector<char> half(static_cast<std::size_t>(size) / 2);
    in.seekg(0);
    in.read(half.data(), static_cast<std::streamsize>(half.size()));
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(half.data(), static_cast<std::streamsize>(half.size()));
  }
  EXPECT_THROW(KdTree::load(path), panda::Error);
  std::remove(path.c_str());
}

TEST(KdTreeIo, MmapOpenMatchesOwnedLoadExactly) {
  const auto gen = data::make_generator("cosmo", 81);
  const data::PointSet points = gen->generate_all(30000);
  const data::PointSet queries = gen->generate_all(200);
  parallel::ThreadPool pool(4);
  const KdTree original = KdTree::build(points, BuildConfig{}, pool);

  const std::string path = ::testing::TempDir() + "/panda_tree_v4.kdt";
  original.save(path);
  const KdTree mapped = KdTree::open_mmap(path);
  EXPECT_TRUE(mapped.mapped());
  EXPECT_FALSE(original.mapped());
  EXPECT_EQ(mapped.size(), original.size());
  EXPECT_EQ(mapped.stats().nodes, original.stats().nodes);
  expect_identical_queries(original, mapped, queries, 7);

  // Radius searches read the packed sections through the same views.
  std::vector<float> q(points.dims());
  queries.copy_point(0, q.data());
  const auto ra = original.query_radius(q, 0.05f);
  const auto rb = mapped.query_radius(q, 0.05f);
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t j = 0; j < ra.size(); ++j) {
    ASSERT_EQ(ra[j].id, rb[j].id);
    ASSERT_EQ(ra[j].dist2, rb[j].dist2);
  }
  std::remove(path.c_str());
}

TEST(KdTreeIo, MmapRejectsTruncatedFile) {
  const auto gen = data::make_generator("uniform", 82);
  const data::PointSet points = gen->generate_all(2000);
  parallel::ThreadPool pool(2);
  const KdTree tree = KdTree::build(points, BuildConfig{}, pool);
  const std::string path = ::testing::TempDir() + "/panda_tree_v4_trunc.kdt";
  tree.save(path);
  {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    const auto size = in.tellg();
    std::vector<char> half(static_cast<std::size_t>(size) / 2);
    in.seekg(0);
    in.read(half.data(), static_cast<std::streamsize>(half.size()));
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(half.data(), static_cast<std::streamsize>(half.size()));
  }
  // The header's file_size no longer matches the actual size: named.
  EXPECT_NE(error_of([&] { KdTree::open_mmap(path); }).find("'file_size'"),
            std::string::npos);
  EXPECT_THROW(KdTree::load(path), Error);

  // A stub shorter than the header span is its own diagnostic.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write("PANDAKDT-ish", 12);
  }
  EXPECT_NE(error_of([&] { KdTree::open_mmap(path); })
                .find("too small for a header"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(KdTreeIo, MmapRejectsBadAndByteSwappedMagic) {
  const auto gen = data::make_generator("uniform", 83);
  const data::PointSet points = gen->generate_all(1000);
  parallel::ThreadPool pool(2);
  const KdTree tree = KdTree::build(points, BuildConfig{}, pool);
  const std::string path = ::testing::TempDir() + "/panda_tree_v4_magic.kdt";

  tree.save(path);
  const std::uint64_t garbage = 0x1122334455667788ULL;
  patch_file(path, 0, &garbage, 8);
  EXPECT_NE(error_of([&] { KdTree::open_mmap(path); })
                .find("not a PANDA kd-tree"),
            std::string::npos);

  tree.save(path);
  const std::uint64_t swapped = __builtin_bswap64(0x50414e44414b4454ULL);
  patch_file(path, 0, &swapped, 8);
  EXPECT_NE(error_of([&] { KdTree::open_mmap(path); }).find("endianness"),
            std::string::npos);
  EXPECT_NE(error_of([&] { KdTree::load(path); }).find("endianness"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(KdTreeIo, MmapRejectsMisalignedSectionOffsets) {
  const auto gen = data::make_generator("uniform", 84);
  const data::PointSet points = gen->generate_all(1000);
  parallel::ThreadPool pool(2);
  const KdTree tree = KdTree::build(points, BuildConfig{}, pool);
  const std::string path = ::testing::TempDir() + "/panda_tree_v4_align.kdt";
  tree.save(path);

  // nodes_off lives at byte 56 of the header (after magic, version,
  // dims, four counts, file_size). Knock it off the 64-byte grid.
  std::uint64_t nodes_off = 0;
  {
    std::ifstream in(path, std::ios::binary);
    in.seekg(56);
    in.read(reinterpret_cast<char*>(&nodes_off), 8);
    ASSERT_EQ(nodes_off % 64, 0u) << "test patches the wrong header byte";
  }
  const std::uint64_t misaligned = nodes_off + 4;
  patch_file(path, 56, &misaligned, 8);
  EXPECT_NE(error_of([&] { KdTree::open_mmap(path); })
                .find("misaligned section offsets"),
            std::string::npos);
  EXPECT_NE(error_of([&] { KdTree::load(path); })
                .find("misaligned section offsets"),
            std::string::npos);

  // An aligned offset pointing past the end of the file is also out.
  const std::uint64_t wild = 1ull << 40;
  patch_file(path, 56, &wild, 8);
  EXPECT_NE(error_of([&] { KdTree::open_mmap(path); })
                .find("out of file bounds"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(KdTreeIo, OtherVersionsAreRefusedByEveryReader) {
  const auto gen = data::make_generator("gmm", 85);
  const data::PointSet points = gen->generate_all(3000);
  parallel::ThreadPool pool(2);
  const KdTree tree = KdTree::build(points, BuildConfig{}, pool);
  const std::string path = ::testing::TempDir() + "/panda_tree_vN.kdt";
  for (const std::uint32_t version : {1u, 2u, 3u, 5u}) {
    // A full-size file whose version field (with a consistent header
    // CRC) says N: the version is diagnosed before any layout check.
    tree.save(path);
    detail::KdTreeHeader header = read_header(path);
    header.version = version;
    write_header_with_crc(path, header);
    const std::string want = "unsupported kd-tree version " +
                             std::to_string(version) +
                             " (expected 4); rebuild and re-save the index";
    for_every_reader(path, [&](const char* reader, const std::string& msg) {
      EXPECT_NE(msg.find(want), std::string::npos)
          << reader << " on version " << version << ": " << msg;
    });

    // A file shorter than the v4 header span still gets the version
    // diagnostic, not a truncation one.
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      const std::uint64_t magic = detail::kKdTreeMagic;
      out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
      out.write(reinterpret_cast<const char*>(&version), sizeof(version));
      const char zeros[36] = {};
      out.write(zeros, sizeof(zeros));
    }
    for_every_reader(path, [&](const char* reader, const std::string& msg) {
      EXPECT_NE(msg.find(want), std::string::npos)
          << reader << " on a short version " << version << " file: " << msg;
    });
  }
  std::remove(path.c_str());
}

TEST(KdTreeIo, WrappedHeaderFieldsAreRefusedByEveryReader) {
  // Counts and offsets chosen so that count * element size or
  // offset + size wraps 64 bits back onto the real layout, under a
  // recomputed header CRC (a CRC is not a MAC). Every reader must throw
  // a panda::Error naming the field.
  const auto gen = data::make_generator("uniform", 87);
  const data::PointSet points = gen->generate_all(2000);
  parallel::ThreadPool pool(2);
  const KdTree tree = KdTree::build(points, BuildConfig{}, pool);
  const std::string path = ::testing::TempDir() + "/panda_tree_wrap.kdt";
  const struct {
    const char* field;
    void (*craft)(detail::KdTreeHeader&);
  } cases[] = {
      {"'id_count'",
       [](detail::KdTreeHeader& h) { h.id_count += std::uint64_t{1} << 61; }},
      {"'packed_count'",
       [](detail::KdTreeHeader& h) {
         h.packed_count += std::uint64_t{1} << 62;
       }},
      {"'node_count'",
       [](detail::KdTreeHeader& h) {
         h.node_count += std::uint64_t{1} << 62;
       }},
      {"'ids_off'",
       [](detail::KdTreeHeader& h) { h.ids_off = ~std::uint64_t{63}; }},
      {"'local_idx_off'",
       [](detail::KdTreeHeader& h) {
         h.local_idx_off = detail::align64(h.file_size) + 64;
       }},
  };
  for (const auto& c : cases) {
    tree.save(path);
    detail::KdTreeHeader header = read_header(path);
    c.craft(header);
    write_header_with_crc(path, header);
    for_every_reader(path, [&](const char* reader, const std::string& msg) {
      EXPECT_NE(msg.find(c.field), std::string::npos)
          << reader << " on a crafted " << c.field << ": " << msg;
    });
  }
  std::remove(path.c_str());
}

/// A saved index as bytes: records are edited in place, then write()
/// recomputes every section CRC and the header CRC — what a crafted
/// file would carry, since a CRC is not a MAC.
struct CraftedIndex {
  explicit CraftedIndex(std::string file)
      : path(std::move(file)), bytes(panda::testing::read_bytes(path)) {
    std::memcpy(&header, bytes.data(), sizeof(header));
  }
  template <typename Record>
  Record get(std::uint64_t section_off, std::uint64_t index) const {
    Record record;
    std::memcpy(&record, bytes.data() + section_off + index * sizeof(Record),
                sizeof(Record));
    return record;
  }
  template <typename Record>
  void set(std::uint64_t section_off, std::uint64_t index,
           const Record& record) {
    std::memcpy(bytes.data() + section_off + index * sizeof(Record), &record,
                sizeof(Record));
  }
  void write() {
    const detail::KdTreeHeader& h = header;
    const std::uint64_t offs[] = {h.nodes_off,  h.leaves_off, h.leaf_nodes_off,
                                  h.packed_off, h.ids_off,    h.local_idx_off};
    const std::uint64_t sizes[] = {
        h.node_count * detail::kHotNodeBytes,
        h.leaf_count * detail::kLeafInfoBytes,
        h.leaf_count * sizeof(std::uint32_t),
        h.packed_count * sizeof(float),
        h.id_count * sizeof(std::uint64_t),
        h.id_count * sizeof(std::uint64_t)};
    for (std::size_t s = 0; s < detail::kKdTreeSectionCount; ++s) {
      header.section_crc[s] = common::crc32c(bytes.data() + offs[s], sizes[s]);
    }
    header.header_crc = 0;
    header.header_crc = common::crc32c(&header, sizeof(header));
    std::memcpy(bytes.data(), &header, sizeof(header));
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::string path;
  std::vector<char> bytes;
  detail::KdTreeHeader header{};
};

TEST(KdTreeIo, CraftedRecordsAreRefusedByTheVerifiedOpen) {
  // Child links, leaf references, leaf slot ranges and build rows are
  // what queries index with; a crafted file recomputes its CRCs, so the
  // verified open checks the records themselves and names the bad one.
  // The unverified open trusts them (DESIGN.md §11.2).
  const auto gen = data::make_generator("uniform", 88);
  const data::PointSet points = gen->generate_all(2000);
  parallel::ThreadPool pool(2);
  const KdTree tree = KdTree::build(points, BuildConfig{}, pool);
  const std::string path = ::testing::TempDir() + "/panda_tree_records.kdt";
  struct Node {
    float split;
    std::uint32_t dim;
    std::uint32_t child;
  };
  struct Leaf {
    std::uint64_t packed_begin;
    std::uint32_t count;
    std::uint32_t pad;
  };
  static_assert(sizeof(Node) == detail::kHotNodeBytes);
  static_assert(sizeof(Leaf) == detail::kLeafInfoBytes);
  constexpr std::uint32_t kLeafMarker = 0xffffffffu;
  const auto edit_root = [&](CraftedIndex& f, auto&& change) {
    Node root = f.get<Node>(f.header.nodes_off, 0);
    EXPECT_NE(root.dim, kLeafMarker);
    change(root);
    f.set(f.header.nodes_off, 0, root);
  };
  const auto edit_leaf = [](CraftedIndex& f, std::uint64_t l, auto&& change) {
    Leaf leaf = f.get<Leaf>(f.header.leaves_off, l);
    change(leaf);
    f.set(f.header.leaves_off, l, leaf);
  };
  // Each case crafts one record and returns what the refusal must say.
  const std::function<std::string(CraftedIndex&)> cases[] = {
      [&](CraftedIndex& f) {  // a cycle: children before their parent
        edit_root(f, [](Node& n) { n.child = 0; });
        return std::string("kd-tree node 0 out of bounds (child 0,");
      },
      [&](CraftedIndex& f) {  // the right child past the node array
        const auto last = static_cast<std::uint32_t>(f.header.node_count - 1);
        edit_root(f, [&](Node& n) { n.child = last; });
        return "kd-tree node 0 out of bounds (child " + std::to_string(last) +
               ",";
      },
      [&](CraftedIndex& f) {  // a split dimension past dims
        edit_root(f, [&](Node& n) { n.dim = f.header.dims; });
        return ", dim " + std::to_string(f.header.dims) + ";";
      },
      [&](CraftedIndex& f) {  // a leaf node naming no leaf record
        std::uint64_t i = 0;
        while (f.get<Node>(f.header.nodes_off, i).dim != kLeafMarker) ++i;
        Node leaf = f.get<Node>(f.header.nodes_off, i);
        leaf.child = static_cast<std::uint32_t>(f.header.leaf_count);
        f.set(f.header.nodes_off, i, leaf);
        return "kd-tree node " + std::to_string(i) +
               " out of bounds (child " + std::to_string(f.header.leaf_count);
      },
      [&](CraftedIndex& f) {  // more points than a bucket holds
        const std::uint32_t over = f.header.config.bucket_size + 1;
        edit_leaf(f, 0, [&](Leaf& l) { l.count = over; });
        return "kd-tree leaf 0 out of bounds (" + std::to_string(over) +
               " points";
      },
      [&](CraftedIndex& f) {  // a slot range past the id section
        const std::uint64_t last = f.header.leaf_count - 1;
        edit_leaf(f, last,
                  [&](Leaf& l) { l.packed_begin = f.header.id_count; });
        return "kd-tree leaf " + std::to_string(last) + " out of bounds";
      },
      [&](CraftedIndex& f) {  // leaf counts that miss stats.points
        edit_leaf(f, 0, [](Leaf& l) { --l.count; });
        return std::string("kd-tree header stats.points 2000 disagrees");
      },
      [&](CraftedIndex& f) {  // a build row past the point count
        f.set(f.header.local_idx_off, 0, std::uint64_t{2000});
        return std::string("kd-tree slot 0 names row 2000 of 2000");
      },
  };
  for (const auto& craft : cases) {
    tree.save(path);
    CraftedIndex file(path);
    const std::string want = craft(file);
    file.write();
    for (const auto& [reader, msg] :
         {std::pair<const char*, std::string>{
              "load", error_of([&] { KdTree::load(path); })},
          {"open_mmap", error_of([&] { KdTree::open_mmap(path); })},
          {"Index::open", error_of([&] { Index::open(path); })}}) {
      EXPECT_NE(msg.find(want), std::string::npos)
          << reader << " on a crafted record, want '" << want << "': " << msg;
      EXPECT_NE(msg.find(path), std::string::npos) << reader << ": " << msg;
    }
    EXPECT_NO_THROW(KdTree::open_mmap(path, /*verify_sections=*/false))
        << want;
  }
  std::remove(path.c_str());
}

TEST(KdTreeIo, EveryFlippedSectionByteIsCaughtAndNamed) {
  const auto gen = data::make_generator("cosmo", 91);
  const data::PointSet points = gen->generate_all(4000);
  parallel::ThreadPool pool(2);
  const KdTree tree = KdTree::build(points, BuildConfig{}, pool);
  const std::string path = ::testing::TempDir() + "/panda_tree_flip.kdt";
  tree.save(path);

  const detail::KdTreeHeader header = read_header(path);
  ASSERT_EQ(header.version, detail::kKdTreeVersion);
  const std::uint64_t offsets[detail::kKdTreeSectionCount] = {
      header.nodes_off,  header.leaves_off, header.leaf_nodes_off,
      header.packed_off, header.ids_off,    header.local_idx_off};
  for (std::size_t s = 0; s < detail::kKdTreeSectionCount; ++s) {
    std::uint8_t byte = 0;
    {
      std::ifstream in(path, std::ios::binary);
      in.seekg(static_cast<std::streamoff>(offsets[s]));
      in.read(reinterpret_cast<char*>(&byte), 1);
      ASSERT_TRUE(in.good());
    }
    const std::uint8_t flipped = byte ^ 0xFF;
    patch_file(path, offsets[s], &flipped, 1);
    const std::string want = std::string("kd-tree section '") +
                             detail::kKdTreeSectionNames[s] +
                             "' checksum mismatch";
    // Both readers catch the flip and name the damaged section.
    EXPECT_NE(error_of([&] { KdTree::open_mmap(path); }).find(want),
              std::string::npos)
        << "section " << detail::kKdTreeSectionNames[s];
    EXPECT_NE(error_of([&] { KdTree::load(path); }).find(want),
              std::string::npos)
        << "section " << detail::kKdTreeSectionNames[s];
    // Skipping section verification serves the map as-is — the
    // zero-copy fast path the serving layer uses.
    EXPECT_NO_THROW(KdTree::open_mmap(path, /*verify_sections=*/false));
    patch_file(path, offsets[s], &byte, 1);  // restore
  }
  // Unflipped file still verifies end to end.
  EXPECT_NO_THROW(KdTree::open_mmap(path));
  std::remove(path.c_str());
}

TEST(KdTreeIo, FlippedHeaderByteFailsHeaderChecksum) {
  const auto gen = data::make_generator("uniform", 92);
  const data::PointSet points = gen->generate_all(1500);
  parallel::ThreadPool pool(2);
  const KdTree tree = KdTree::build(points, BuildConfig{}, pool);
  const std::string path = ::testing::TempDir() + "/panda_tree_hdrflip.kdt";
  tree.save(path);
  // The stats block is not structurally validated, so a flip there is
  // caught by the header CRC (and by nothing else).
  const std::uint64_t off = offsetof(detail::KdTreeHeader, stats);
  std::uint8_t byte = 0;
  {
    std::ifstream in(path, std::ios::binary);
    in.seekg(static_cast<std::streamoff>(off));
    in.read(reinterpret_cast<char*>(&byte), 1);
  }
  const std::uint8_t flipped = byte ^ 0x5A;
  patch_file(path, off, &flipped, 1);
  EXPECT_NE(error_of([&] { KdTree::open_mmap(path); })
                .find("kd-tree header checksum mismatch"),
            std::string::npos);
  // The header checksum is verified even with section checks off.
  EXPECT_NE(error_of([&] {
              KdTree::open_mmap(path, /*verify_sections=*/false);
            }).find("kd-tree header checksum mismatch"),
            std::string::npos);
  EXPECT_NE(error_of([&] { KdTree::load(path); })
                .find("kd-tree header checksum mismatch"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(KdTreeIo, SaveToUnwritablePathNamesPathAndSyscall) {
  const auto gen = data::make_generator("uniform", 93);
  const data::PointSet points = gen->generate_all(100);
  parallel::ThreadPool pool(1);
  const KdTree tree = KdTree::build(points, BuildConfig{}, pool);
  const std::string path = "/nonexistent-panda-dir/sub/tree.kdt";
  const std::string msg = error_of([&] { tree.save(path); });
  EXPECT_NE(msg.find(path), std::string::npos) << msg;
  EXPECT_NE(msg.find("open failed"), std::string::npos) << msg;
  EXPECT_NE(msg.find("No such file or directory"), std::string::npos) << msg;
}

}  // namespace
}  // namespace panda::core
