// Hostile-input battery for the file readers (ISSUE satellite: harden
// graph::read_metis and mesh::read_triangle_files / read_tetgen_files).
// Every case must come back nullopt — no aborts, no partial state, no
// gigabyte allocations from a 20-byte header — and the handcrafted set is
// topped up with seeded-random and bit-flipped bytes. The binary runs in
// the ASan/UBSan CI leg, so a latent overflow or overread fails loudly.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "graph/io.hpp"
#include "mesh/build.hpp"
#include "mesh/generate.hpp"
#include "mesh/io.hpp"
#include "util/rng.hpp"

namespace pnr {
namespace {

class IoFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("pnr_io_fuzz_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  /// Write `basename`.node/.ele with the given bodies and return basename.
  std::string tri_files(const std::string& node, const std::string& ele) {
    write(path("m.node"), node);
    write(path("m.ele"), ele);
    return path("m");
  }

  void write(const std::string& p, const std::string& content) {
    std::ofstream f(p, std::ios::binary);
    f << content;
  }

  std::filesystem::path dir_;
};

/// A well-formed unit square (4 nodes, 2 triangles) — the positive control
/// every rejection test is diffed against: hardening must not reject it.
const char* kGoodNode = "4 2 0 0\n1 0 0\n2 1 0\n3 1 1\n4 0 1\n";
const char* kGoodEle = "2 3 0\n1 1 2 3\n2 1 3 4\n";

TEST_F(IoFuzzTest, WellFormedTriangleFilesStillParse) {
  const auto mesh = mesh::read_triangle_files(tri_files(kGoodNode, kGoodEle));
  ASSERT_TRUE(mesh.has_value());
  EXPECT_EQ(mesh->num_leaves(), 2);
  EXPECT_EQ(mesh->num_vertices_alive(), 4);
}

TEST_F(IoFuzzTest, HostileNodeHeadersAreRejected) {
  // Absurd counts must be rejected BEFORE any allocation keyed on them.
  const char* headers[] = {
      "999999999999999 2 0 0\n1 0 0\n",     // count * dim would overflow
      "99999999 2 0 0\n1 0 0\n",            // count far beyond file size
      "-3 2 0 0\n1 0 0\n",                  // negative count
      "0 2 0 0\n",                          // zero count
      "4 4 0 0\n1 0 0 0 0\n",               // unsupported dimension
      "4 -2 0 0\n1 0 0\n",                  // negative dimension
      "nonsense\n1 0 0\n",                  // unparsable header
      "\n",                                 // blank file
      "# only a comment\n",                 // comment-only file
      "",                                   // empty file
  };
  for (const char* node : headers) {
    EXPECT_FALSE(mesh::read_triangle_files(tri_files(node, kGoodEle)))
        << "accepted node header: " << node;
  }
}

TEST_F(IoFuzzTest, HostileNodeBodiesAreRejected) {
  const char* bodies[] = {
      "4 2 0 0\n1 0 0\n2 1 0\n",                       // truncated body
      "4 2 0 0\n1 0 0\n2 1 0\n3 1 1\n4 0\n",           // missing coordinate
      "4 2 0 0\n1 0 0\n2 1 0\n3 1 1\nx 0 1\n",         // unparsable id
      "4 2 0 0\n1 0 0\n2 1 0\n3 1 1\n9 0 1\n",         // id out of range
      "4 2 0 0\n1 0 0\n2 1 0\n3 1 1\n3 0 1\n",         // duplicate id
      "4 2 0 0\n1 0 0\n2 1 0\n3 1 1\n4 zero one\n",    // unparsable coords
      "4 2 0 0\n1 0 0\n2 1 0\n3 1 1\n4 0 1e300\n",     // absurd magnitude
  };
  for (const char* node : bodies) {
    EXPECT_FALSE(mesh::read_triangle_files(tri_files(node, kGoodEle)))
        << "accepted node body: " << node;
  }
}

TEST_F(IoFuzzTest, HostileElementFilesAreRejected) {
  const char* eles[] = {
      "999999999999999 3 0\n1 1 2 3\n",   // absurd count
      "99999999 3 0\n1 1 2 3\n",          // count beyond file size
      "-1 3 0\n1 1 2 3\n",                // negative count
      "2 5 0\n1 1 2 3 4 1\n",             // unsupported arity
      "2 3 0\n1 1 2 3\n",                 // truncated body
      "2 3 0\n1 1 2 3\nx 1 3 4\n",        // unparsable id
      "2 3 0\n1 1 2 3\n2 1 3 9\n",        // vertex out of range
      "2 3 0\n1 1 2 3\n2 1 3 0\n",        // below 1-based range
      "2 3 0\n1 1 2 3\n2 1 3 3\n",        // repeated corner
      "",                                 // missing elements
  };
  for (const char* ele : eles) {
    EXPECT_FALSE(mesh::read_triangle_files(tri_files(kGoodNode, ele)))
        << "accepted element body: " << ele;
  }
}

TEST_F(IoFuzzTest, DegenerateGeometryIsRejectedNotAborted) {
  // Collinear corners: zero signed area used to trip finalize's REQUIRE.
  EXPECT_FALSE(mesh::read_triangle_files(tri_files(
      "3 2 0 0\n1 0 0\n2 1 1\n3 2 2\n", "1 3 0\n1 1 2 3\n")));
  // Three triangles on one edge: non-manifold.
  EXPECT_FALSE(mesh::read_triangle_files(tri_files(
      "5 2 0 0\n1 0 0\n2 1 0\n3 0 1\n4 1 1\n5 -1 -1\n",
      "3 3 0\n1 1 2 3\n2 1 2 4\n3 1 2 5\n")));
  // Dimension mismatch: 3D nodes through the triangle reader.
  EXPECT_FALSE(mesh::read_triangle_files(tri_files(
      "3 3 0 0\n1 0 0 0\n2 1 0 0\n3 0 1 0\n", kGoodEle)));
}

TEST_F(IoFuzzTest, HostileTetgenFilesAreRejected) {
  const char* node4 =
      "4 3 0 0\n1 0 0 0\n2 1 0 0\n3 0 1 0\n4 0 0 1\n";
  // Positive control first.
  write(path("t.node"), node4);
  write(path("t.ele"), "1 4 0\n1 1 2 3 4\n");
  ASSERT_TRUE(mesh::read_tetgen_files(path("t")));

  // Coplanar corners: zero volume.
  write(path("t.node"), "4 3 0 0\n1 0 0 0\n2 1 0 0\n3 0 1 0\n4 1 1 0\n");
  write(path("t.ele"), "1 4 0\n1 1 2 3 4\n");
  EXPECT_FALSE(mesh::read_tetgen_files(path("t")));

  // Three tets on one face: non-manifold.
  write(path("t.node"),
        "6 3 0 0\n1 0 0 0\n2 1 0 0\n3 0 1 0\n4 0 0 1\n5 0 0 -1\n"
        "6 1 1 1\n");
  write(path("t.ele"), "3 4 0\n1 1 2 3 4\n2 1 2 3 5\n3 1 2 3 6\n");
  EXPECT_FALSE(mesh::read_tetgen_files(path("t")));

  // Truncated .ele, repeated corner, absurd header.
  write(path("t.node"), node4);
  write(path("t.ele"), "2 4 0\n1 1 2 3 4\n");
  EXPECT_FALSE(mesh::read_tetgen_files(path("t")));
  write(path("t.ele"), "1 4 0\n1 1 2 3 3\n");
  EXPECT_FALSE(mesh::read_tetgen_files(path("t")));
  write(path("t.ele"), "888888888888 4 0\n1 1 2 3 4\n");
  EXPECT_FALSE(mesh::read_tetgen_files(path("t")));
}

TEST_F(IoFuzzTest, HostileMetisFilesAreRejected) {
  // Positive control: a 3-path with vertex and edge weights.
  write(path("g.graph"),
        "3 2 011\n2 2 5\n1 1 5 3 4\n3 2 4\n");
  ASSERT_TRUE(graph::read_metis(path("g.graph")));

  const char* graphs[] = {
      "999999999999999 1\n2\n",            // absurd vertex count
      "99999999 1\n2\n",                   // count beyond file size
      "3 99999999\n2\n1 3\n2\n",           // absurd edge count
      "-1 0\n",                            // negative n
      "3 -2\n2\n1 3\n2\n",                 // negative m
      "3 2 011\n2 2 5\n1 1 5 3 4\n",       // truncated (2 of 3 lines)
      "3 2 011\n-1 2 5\n1 1 5 3 4\n3 2 4\n",    // negative vertex weight
      "3 2 011\n2 2 -5\n1 1 -5 3 4\n3 2 4\n",   // negative edge weight
      "3 2 011\n2 2 9999999999999\n1 1 9999999999999 3 4\n3 2 4\n",
      "3 1\n2 3\n1 3\n2 1\n",              // more arcs than header claims
      "3 2\n2\n1\n2\n",                    // fewer arcs than claimed
      "3 1\n2\n1\n\n",                     // blank adjacency line
      "3 1\n4\n\n\n",                      // neighbor out of range
      "3 1\n0\n\n\n",                      // neighbor below 1-based range
      "2 1 1111\n1 1 1 2 1\n1 1 1 1 1\n",  // vsize flag unsupported
      "2 1 011 2\n1 2 1\n1 1 1\n",         // multi-constraint rejected
  };
  for (const char* g : graphs) {
    write(path("g.graph"), g);
    EXPECT_FALSE(graph::read_metis(path("g.graph")))
        << "accepted graph: " << g;
  }
}

TEST_F(IoFuzzTest, RandomBytesNeverCrashAnyReader) {
  util::Rng rng(20260807);
  for (int i = 0; i < 150; ++i) {
    std::string blob(rng.next_below(512), '\0');
    for (auto& c : blob) {
      // Mix printable digits/spaces (so headers sometimes parse) with raw
      // binary, newline-rich so the line readers make progress.
      const auto roll = rng.next_below(4);
      if (roll == 0) c = static_cast<char>('0' + rng.next_below(10));
      else if (roll == 1) c = (rng.next_below(2) != 0u) ? ' ' : '\n';
      else c = static_cast<char>(rng.next_below(256));
    }
    write(path("f.node"), blob);
    write(path("f.ele"), blob);
    write(path("f.graph"), blob);
    mesh::read_triangle_files(path("f"));
    mesh::read_tetgen_files(path("f"));
    graph::read_metis(path("f.graph"));
  }
}

TEST_F(IoFuzzTest, BitFlippedValidFilesNeverCrash) {
  // Start from real writer output so flips explore the accepted grammar's
  // immediate neighborhood, where partial-state bugs would live.
  auto tri = mesh::structured_tri_mesh(4, 4, 0.2, 5);
  ASSERT_TRUE(mesh::write_triangle_files(tri, path("v")));
  std::ifstream nf(path("v.node"), std::ios::binary);
  std::string node((std::istreambuf_iterator<char>(nf)), {});
  std::ifstream ef(path("v.ele"), std::ios::binary);
  std::string ele((std::istreambuf_iterator<char>(ef)), {});

  util::Rng rng(99);
  int accepted = 0;
  for (int i = 0; i < 300; ++i) {
    std::string n = node, e = ele;
    std::string& target = (rng.next_below(2) != 0u) ? n : e;
    const auto flips = 1 + rng.next_below(4);
    for (std::uint64_t f = 0; f < flips; ++f)
      target[rng.next_below(target.size())] =
          static_cast<char>(rng.next_below(256));
    write(path("v.node"), n);
    write(path("v.ele"), e);
    if (mesh::read_triangle_files(path("v"))) ++accepted;
  }
  // Some flips are benign (whitespace, comments) — but a reader that still
  // accepts most mutations is not validating anything.
  EXPECT_LT(accepted, 300);
}

TEST_F(IoFuzzTest, TryBuildersMatchReaderVerdicts) {
  // The readers now route through mesh::try_build_mesh; spot-check the
  // builders directly so a future reader bypass shows up here.
  const double coords[] = {0, 0, 1, 0, 0, 1};
  const mesh::VertIdx good[] = {0, 1, 2};
  EXPECT_TRUE(mesh::try_build_mesh<mesh::TriMesh>(coords, good));
  const mesh::VertIdx repeated[] = {0, 1, 1};
  std::string why;
  EXPECT_FALSE(mesh::try_build_mesh<mesh::TriMesh>(coords, repeated, &why));
  EXPECT_NE(why.find("corner"), std::string::npos);
  const mesh::VertIdx out_of_range[] = {0, 1, 7};
  EXPECT_FALSE(mesh::try_build_mesh<mesh::TriMesh>(coords, out_of_range, &why));
  EXPECT_FALSE(mesh::try_build_mesh<mesh::TriMesh>({}, good, &why));
  EXPECT_FALSE(mesh::try_build_mesh<mesh::TetMesh>(coords, good, &why));
}

}  // namespace
}  // namespace pnr
