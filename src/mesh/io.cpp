#include "mesh/io.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "mesh/build.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"

namespace pnr::mesh {

namespace {

/// Hard cap on header counts, keeping every index within VertIdx/ElemIdx
/// and every `count * per` product within std::size_t.
constexpr long long kMaxFileEntities = 1LL << 30;

/// Bytes in the file, or -1 on failure; leaves the stream at the start.
/// Every data line occupies at least one byte, so a header count larger
/// than the file itself is hostile or corrupt — checking this BEFORE
/// allocating bounds memory use to a small multiple of the actual file
/// size, instead of letting a 20-byte file demand gigabytes.
long long stream_bytes(std::ifstream& f) {
  f.seekg(0, std::ios::end);
  const auto size = static_cast<long long>(f.tellg());
  f.seekg(0, std::ios::beg);
  return f ? size : -1;
}

/// Tokenizer that skips blank lines and '#' comments.
class LineReader {
 public:
  explicit LineReader(std::istream& in) : in_(in) {}

  /// Next non-empty, non-comment line split into a token stream.
  bool next(std::istringstream& out) {
    std::string line;
    while (std::getline(in_, line)) {
      const auto hash = line.find('#');
      if (hash != std::string::npos) line.erase(hash);
      std::istringstream probe(line);
      std::string tok;
      if (probe >> tok) {
        out = std::istringstream(line);
        return true;
      }
    }
    return false;
  }

 private:
  std::istream& in_;
};

struct NodeData {
  std::vector<double> coords;  ///< row-major n×dim
  int dim = 0;
  long long first_index = 0;
};

std::optional<NodeData> read_nodes(const std::string& path) {
  std::ifstream f(path);
  if (!f) {
    PNR_LOG_WARN << "cannot open " << path;
    return std::nullopt;
  }
  const long long file_bytes = stream_bytes(f);
  LineReader reader(f);
  std::istringstream header;
  if (!reader.next(header)) return std::nullopt;
  long long count = 0;
  int dim = 0, attrs = 0, markers = 0;
  header >> count >> dim >> attrs >> markers;
  if (count <= 0 || (dim != 2 && dim != 3)) return std::nullopt;
  if (count > kMaxFileEntities || file_bytes < 0 || count > file_bytes) {
    PNR_LOG_WARN << path << ": implausible node count " << count;
    return std::nullopt;
  }

  NodeData data;
  data.dim = dim;
  data.coords.resize(static_cast<std::size_t>(count) * dim);
  std::vector<bool> seen(static_cast<std::size_t>(count), false);
  for (long long i = 0; i < count; ++i) {
    std::istringstream line;
    if (!reader.next(line)) return std::nullopt;
    long long id = 0;
    if (!(line >> id)) return std::nullopt;
    if (i == 0) data.first_index = id;
    const long long slot = id - data.first_index;
    if (slot < 0 || slot >= count) return std::nullopt;
    // A duplicate id would silently leave some other slot zero-filled.
    if (seen[static_cast<std::size_t>(slot)]) return std::nullopt;
    seen[static_cast<std::size_t>(slot)] = true;
    for (int d = 0; d < dim; ++d) {
      double v;
      if (!(line >> v)) return std::nullopt;
      data.coords[static_cast<std::size_t>(slot) * dim + d] = v;
    }
  }
  return data;
}

struct EleData {
  std::vector<VertIdx> verts;  ///< row-major n×nodes_per_elem
  int nodes_per_elem = 0;
};

std::optional<EleData> read_elements(const std::string& path,
                                     long long node_first_index,
                                     long long num_nodes) {
  std::ifstream f(path);
  if (!f) {
    PNR_LOG_WARN << "cannot open " << path;
    return std::nullopt;
  }
  const long long file_bytes = stream_bytes(f);
  LineReader reader(f);
  std::istringstream header;
  if (!reader.next(header)) return std::nullopt;
  long long count = 0;
  int per = 0, attrs = 0;
  header >> count >> per >> attrs;
  if (count <= 0 || (per != 3 && per != 4)) return std::nullopt;
  if (count > kMaxFileEntities || file_bytes < 0 || count > file_bytes) {
    PNR_LOG_WARN << path << ": implausible element count " << count;
    return std::nullopt;
  }

  EleData data;
  data.nodes_per_elem = per;
  data.verts.resize(static_cast<std::size_t>(count) * per);
  for (long long i = 0; i < count; ++i) {
    std::istringstream line;
    if (!reader.next(line)) return std::nullopt;
    long long id = 0;
    if (!(line >> id)) return std::nullopt;
    for (int k = 0; k < per; ++k) {
      long long v;
      if (!(line >> v)) return std::nullopt;
      const long long local = v - node_first_index;
      if (local < 0 || local >= num_nodes) return std::nullopt;
      data.verts[static_cast<std::size_t>(i) * per + k] =
          static_cast<VertIdx>(local);
    }
  }
  return data;
}

/// Read `basename`.node/.ele as a mesh of Mesh's dimension.
template <typename Mesh>
std::optional<Mesh> read_mesh_files(const std::string& basename) {
  const auto nodes = read_nodes(basename + ".node");
  if (!nodes || nodes->dim != Mesh::kDim) return std::nullopt;
  const auto num_nodes =
      static_cast<long long>(nodes->coords.size()) / nodes->dim;
  const auto eles =
      read_elements(basename + ".ele", nodes->first_index, num_nodes);
  if (!eles || eles->nodes_per_elem != Mesh::kVertsPerElem) return std::nullopt;

  // The validating builder rejects (instead of aborting on) degenerate,
  // non-manifold, or non-finite geometry a hostile file can encode.
  std::string why;
  auto mesh = try_build_mesh<Mesh>(nodes->coords, eles->verts, &why);
  if (!mesh) PNR_LOG_WARN << basename << ": rejected mesh: " << why;
  return mesh;
}

}  // namespace

template <typename Mesh>
bool write_triangle_files(const Mesh& mesh, const std::string& basename) {
  const auto elems = mesh.leaf_elements();
  // Dense-number the alive vertices.
  std::vector<std::int64_t> vert_id(mesh.vertex_slots(), -1);
  std::int64_t next = 1;  // Triangle files are conventionally 1-based
  std::ofstream node_f(basename + ".node");
  if (!node_f) return false;
  std::ostringstream node_body;
  for (std::size_t v = 0; v < mesh.vertex_slots(); ++v)
    if (mesh.vertex_alive(static_cast<VertIdx>(v))) {
      vert_id[v] = next++;
      node_body << vert_id[v];
      for (const double c : coords(mesh.vertex(static_cast<VertIdx>(v))))
        node_body << ' ' << c;
      node_body << '\n';
    }
  node_f << (next - 1) << ' ' << Mesh::kDim << " 0 0\n" << node_body.str();
  if (!node_f) return false;

  std::ofstream ele_f(basename + ".ele");
  if (!ele_f) return false;
  ele_f << elems.size() << ' ' << Mesh::kVertsPerElem << " 0\n";
  for (std::size_t i = 0; i < elems.size(); ++i) {
    ele_f << (i + 1);
    for (const VertIdx v : mesh.element(elems[i]).v)
      ele_f << ' ' << vert_id[static_cast<std::size_t>(v)];
    ele_f << '\n';
  }
  return static_cast<bool>(ele_f);
}

template <typename Mesh>
bool write_vtk(const Mesh& mesh, const std::vector<ElemIdx>& elems,
               const std::vector<part::PartId>& assign,
               const std::string& path) {
  PNR_REQUIRE(assign.empty() || assign.size() == elems.size());
  constexpr int per = Mesh::kVertsPerElem;
  constexpr int cell_type = Mesh::kDim == 2 ? /*VTK_TRIANGLE=*/5
                                            : /*VTK_TETRA=*/10;
  std::ofstream f(path);
  if (!f) return false;

  std::vector<std::int64_t> vert_id(mesh.vertex_slots(), -1);
  std::int64_t count = 0;
  std::ostringstream points;
  for (std::size_t v = 0; v < mesh.vertex_slots(); ++v)
    if (mesh.vertex_alive(static_cast<VertIdx>(v))) {
      vert_id[v] = count++;
      const auto c = coords(mesh.vertex(static_cast<VertIdx>(v)));
      points << c[0] << ' ' << c[1] << ' ';
      if constexpr (Mesh::kDim == 3) points << c[2];
      else points << 0.0;
      points << '\n';
    }

  f << "# vtk DataFile Version 3.0\npnr adaptive mesh\nASCII\n"
    << "DATASET UNSTRUCTURED_GRID\nPOINTS " << count << " double\n"
    << points.str();
  f << "CELLS " << elems.size() << ' ' << elems.size() * (per + 1) << '\n';
  for (const ElemIdx e : elems) {
    f << per;
    for (const VertIdx v : mesh.element(e).v)
      f << ' ' << vert_id[static_cast<std::size_t>(v)];
    f << '\n';
  }
  f << "CELL_TYPES " << elems.size() << '\n';
  for (std::size_t i = 0; i < elems.size(); ++i) f << cell_type << '\n';
  if (!assign.empty()) {
    f << "CELL_DATA " << elems.size()
      << "\nSCALARS partition int 1\nLOOKUP_TABLE default\n";
    for (const part::PartId p : assign) f << p << '\n';
  }
  return static_cast<bool>(f);
}

template bool write_triangle_files(const TriMesh&, const std::string&);
template bool write_triangle_files(const TetMesh&, const std::string&);
template bool write_vtk(const TriMesh&, const std::vector<ElemIdx>&,
                        const std::vector<part::PartId>&, const std::string&);
template bool write_vtk(const TetMesh&, const std::vector<ElemIdx>&,
                        const std::vector<part::PartId>&, const std::string&);

std::optional<TriMesh> read_triangle_files(const std::string& basename) {
  return read_mesh_files<TriMesh>(basename);
}

std::optional<TetMesh> read_tetgen_files(const std::string& basename) {
  return read_mesh_files<TetMesh>(basename);
}

}  // namespace pnr::mesh
