// Tests for mesh file I/O: Triangle/TetGen round trips (including format
// quirks: 0/1-based indices, comments, attribute columns) and VTK export.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "mesh/generate.hpp"
#include "mesh/io.hpp"

namespace pnr::mesh {
namespace {

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("pnr_io_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

TEST_F(IoTest, TriangleRoundTrip) {
  auto original = structured_tri_mesh(5, 4, 0.2, 7);
  original.refine({0, 3, 9});
  ASSERT_TRUE(write_triangle_files(original, path("tri")));

  const auto loaded = read_triangle_files(path("tri"));
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->num_leaves(), original.num_leaves());
  EXPECT_EQ(loaded->num_vertices_alive(), original.num_vertices_alive());
  EXPECT_TRUE(loaded->check_invariants().empty())
      << loaded->check_invariants();

  // Total area must survive the round trip.
  double area_in = 0.0, area_out = 0.0;
  for (const ElemIdx e : original.leaf_elements())
    area_in += original.signed_measure(e);
  for (const ElemIdx e : loaded->leaf_elements())
    area_out += loaded->signed_measure(e);
  EXPECT_NEAR(area_in, area_out, 1e-9);
}

TEST_F(IoTest, TetgenRoundTrip) {
  auto original = structured_tet_mesh(3, 3, 2, 0.1, 7);
  original.refine({0, 5});
  ASSERT_TRUE(write_triangle_files(original, path("tet")));

  const auto loaded = read_tetgen_files(path("tet"));
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->num_leaves(), original.num_leaves());
  EXPECT_EQ(loaded->num_vertices_alive(), original.num_vertices_alive());
  EXPECT_TRUE(loaded->check_invariants().empty());
}

TEST_F(IoTest, LoadedMeshIsRefinable) {
  auto original = structured_tri_mesh(4, 4, 0.0, 1);
  ASSERT_TRUE(write_triangle_files(original, path("ref")));
  auto loaded = read_triangle_files(path("ref"));
  ASSERT_TRUE(loaded.has_value());
  const auto before = loaded->num_leaves();
  loaded->refine(loaded->leaf_elements());
  EXPECT_GE(loaded->num_leaves(), 2 * before);
  EXPECT_TRUE(loaded->check_invariants().empty());
}

TEST_F(IoTest, ZeroBasedIndicesAndComments) {
  {
    std::ofstream node(path("zb") + ".node");
    node << "# a comment\n4 2 0 0\n"
         << "0 0.0 0.0\n1 1.0 0.0  # trailing comment\n"
         << "2 1.0 1.0\n3 0.0 1.0\n";
    std::ofstream ele(path("zb") + ".ele");
    ele << "2 3 0\n0 0 1 2\n1 0 2 3\n";
  }
  const auto loaded = read_triangle_files(path("zb"));
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->num_leaves(), 2);
  EXPECT_EQ(loaded->num_vertices_alive(), 4);
}

TEST_F(IoTest, RejectsMalformedFiles) {
  {
    std::ofstream node(path("bad") + ".node");
    node << "3 2 0 0\n1 0 0\n2 1 0\n";  // claims 3 nodes, provides 2
  }
  EXPECT_FALSE(read_triangle_files(path("bad")).has_value());
  EXPECT_FALSE(read_triangle_files(path("missing")).has_value());
}

TEST_F(IoTest, RejectsOutOfRangeElementIndices) {
  {
    std::ofstream node(path("oob") + ".node");
    node << "3 2 0 0\n1 0 0\n2 1 0\n3 0 1\n";
    std::ofstream ele(path("oob") + ".ele");
    ele << "1 3 0\n1 1 2 9\n";  // vertex 9 does not exist
  }
  EXPECT_FALSE(read_triangle_files(path("oob")).has_value());
}

TEST_F(IoTest, VtkContainsExpectedSections) {
  auto mesh = structured_tri_mesh(3, 3, 0.0, 1);
  const auto elems = mesh.leaf_elements();
  std::vector<part::PartId> assign(elems.size());
  for (std::size_t i = 0; i < elems.size(); ++i)
    assign[i] = static_cast<part::PartId>(i % 2);
  const std::string file = path("mesh.vtk");
  ASSERT_TRUE(write_vtk(mesh, elems, assign, file));

  std::ifstream f(file);
  std::stringstream buffer;
  buffer << f.rdbuf();
  const std::string content = buffer.str();
  EXPECT_NE(content.find("UNSTRUCTURED_GRID"), std::string::npos);
  EXPECT_NE(content.find("POINTS 16 double"), std::string::npos);
  EXPECT_NE(content.find("CELLS 18 72"), std::string::npos);
  EXPECT_NE(content.find("SCALARS partition int 1"), std::string::npos);
}

TEST_F(IoTest, Vtk3DUsesTetraCells) {
  auto mesh = structured_tet_mesh(2, 2, 2, 0.0, 1);
  const auto elems = mesh.leaf_elements();
  const std::string file = path("mesh3.vtk");
  ASSERT_TRUE(write_vtk(mesh, elems, {}, file));
  std::ifstream f(file);
  std::stringstream buffer;
  buffer << f.rdbuf();
  EXPECT_NE(buffer.str().find("CELL_TYPES 48"), std::string::npos);
}

}  // namespace
}  // namespace pnr::mesh
