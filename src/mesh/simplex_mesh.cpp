#include "mesh/simplex_mesh.hpp"

#include <algorithm>

#include "check/level.hpp"
#include "mesh/dual.hpp"
#include "util/assert.hpp"

namespace pnr::mesh {

namespace {

/// Local corner indices of a simplex: the edges in longest-edge scan order
/// and the facets in incidence-map insertion order.
template <int D>
struct Tables;

template <>
struct Tables<2> {
  static constexpr std::array<std::array<int, 2>, 3> kEdges{
      {{0, 1}, {1, 2}, {2, 0}}};
  static constexpr std::array<std::array<int, 2>, 3> kFacets = kEdges;
};

template <>
struct Tables<3> {
  static constexpr std::array<std::array<int, 2>, 6> kEdges{
      {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}};
  // Face i is opposite vertex i.
  static constexpr std::array<std::array<int, 3>, 4> kFacets{
      {{1, 2, 3}, {0, 2, 3}, {0, 1, 3}, {0, 1, 2}}};
};

/// The corners of `v` at local indices `local`.
template <std::size_t K, std::size_t N>
std::array<VertIdx, K> pick(const std::array<VertIdx, N>& v,
                            const std::array<int, K>& local) {
  std::array<VertIdx, K> out;
  for (std::size_t i = 0; i < K; ++i)
    out[i] = v[static_cast<std::size_t>(local[i])];
  return out;
}

}  // namespace

// ---- construction ----------------------------------------------------------

template <int D>
VertIdx SimplexMesh<D>::add_vertex(const Point& p) {
  PNR_REQUIRE_MSG(!finalized_, "add_vertex after finalize");
  return new_vertex(p);
}

template <int D>
ElemIdx SimplexMesh<D>::add_element(const Corners& corners) {
  PNR_REQUIRE_MSG(!finalized_, "add_element after finalize");
  for (std::size_t i = 0; i < corners.size(); ++i)
    for (std::size_t j = i + 1; j < corners.size(); ++j)
      PNR_REQUIRE(corners[i] != corners[j]);
  const ElemIdx e = new_element();
  Element& t = slot(e);
  t.v = corners;
  t.leaf = true;
  t.coarse = e;
  return e;
}

template <int D>
void SimplexMesh<D>::finalize() {
  PNR_REQUIRE_MSG(!finalized_, "finalize called twice");
  PNR_REQUIRE_MSG(!elems_.empty(), "empty mesh");
  num_initial_ = static_cast<ElemIdx>(elems_.size());
  leaf_count_.assign(static_cast<std::size_t>(num_initial_), 1);
  dual_dirty_mark_.assign(static_cast<std::size_t>(num_initial_), false);
  num_leaves_ = num_initial_;

  for (ElemIdx e = 0; e < num_initial_; ++e) {
    // Swapping the last two corners flips the orientation in either
    // dimension.
    Element& t = slot(e);
    if (signed_measure(e) < 0.0) std::swap(t.v[D - 1], t.v[D]);
    PNR_REQUIRE_MSG(signed_measure(e) > 0.0,
                    D == 2 ? "degenerate initial triangle"
                           : "degenerate initial tetrahedron");
    maps_add(e);
  }
  finalized_ = true;
}

// ---- slot management --------------------------------------------------------

template <int D>
VertIdx SimplexMesh<D>::new_vertex(const Point& p) {
  ++num_verts_alive_;
  if (!free_verts_.empty()) {
    const VertIdx v = free_verts_.back();
    free_verts_.pop_back();
    verts_[static_cast<std::size_t>(v)] = p;
    vert_alive_[static_cast<std::size_t>(v)] = true;
    return v;
  }
  verts_.push_back(p);
  vert_alive_.push_back(true);
  return static_cast<VertIdx>(verts_.size() - 1);
}

template <int D>
ElemIdx SimplexMesh<D>::new_element() {
  if (!free_elems_.empty()) {
    const ElemIdx e = free_elems_.back();
    free_elems_.pop_back();
    slot(e) = Element{};
    slot(e).alive = true;
    return e;
  }
  elems_.emplace_back();
  elems_.back().alive = true;
  return static_cast<ElemIdx>(elems_.size() - 1);
}

template <int D>
void SimplexMesh<D>::release_element(ElemIdx e) {
  slot(e) = Element{};
  free_elems_.push_back(e);
}

template <int D>
void SimplexMesh<D>::release_vertex(VertIdx v) {
  vert_alive_[static_cast<std::size_t>(v)] = false;
  free_verts_.push_back(v);
  --num_verts_alive_;
}

// ---- geometry ---------------------------------------------------------------

template <int D>
double SimplexMesh<D>::signed_measure(ElemIdx e) const {
  const Element& t = element(e);
  const Point& p0 = vertex(t.v[0]);
  const Point& p1 = vertex(t.v[1]);
  const Point& p2 = vertex(t.v[2]);
  if constexpr (D == 2) {
    return 0.5 *
           ((p1.x - p0.x) * (p2.y - p0.y) - (p2.x - p0.x) * (p1.y - p0.y));
  } else {
    const Point& p3 = vertex(t.v[3]);
    const double ax = p1.x - p0.x, ay = p1.y - p0.y, az = p1.z - p0.z;
    const double bx = p2.x - p0.x, by = p2.y - p0.y, bz = p2.z - p0.z;
    const double cx = p3.x - p0.x, cy = p3.y - p0.y, cz = p3.z - p0.z;
    return (ax * (by * cz - bz * cy) - ay * (bx * cz - bz * cx) +
            az * (bx * cy - by * cx)) /
           6.0;
  }
}

template <int D>
auto SimplexMesh<D>::centroid(ElemIdx e) const -> Point {
  const Element& t = element(e);
  auto sum = coords(vertex(t.v[0]));
  for (std::size_t k = 1; k < t.v.size(); ++k) {
    const auto c = coords(vertex(t.v[k]));
    for (std::size_t d = 0; d < sum.size(); ++d) sum[d] += c[d];
  }
  for (double& s : sum) s /= static_cast<double>(kVertsPerElem);
  return to_point(sum);
}

template <int D>
std::pair<VertIdx, VertIdx> SimplexMesh<D>::longest_edge(ElemIdx e) const {
  const Element& t = element(e);
  double best_len = -1.0;
  std::uint64_t best_key = 0;
  std::pair<VertIdx, VertIdx> best{kNoVert, kNoVert};
  for (const auto& edge : Tables<D>::kEdges) {
    const VertIdx a = t.v[static_cast<std::size_t>(edge[0])];
    const VertIdx b = t.v[static_cast<std::size_t>(edge[1])];
    const auto pa = coords(vertex(a));
    const auto pb = coords(vertex(b));
    double len = 0.0;
    for (std::size_t d = 0; d < pa.size(); ++d)
      len += (pa[d] - pb[d]) * (pa[d] - pb[d]);
    const std::uint64_t key = edge_key(a, b);
    // Deterministic tie-break: longer edge wins; equal lengths pick the
    // larger canonical key so every incident element agrees — this is what
    // makes the propagation terminate.
    if (len > best_len || (len == best_len && key > best_key)) {
      best_len = len;
      best_key = key;
      best = {a, b};
    }
  }
  return best;
}

// ---- incidence maps ---------------------------------------------------------

template <int D>
void SimplexMesh<D>::maps_add(ElemIdx e) {
  const Element& t = element(e);
  for (const auto& local : Tables<D>::kFacets) {
    const auto f = pick(t.v, local);
    auto [it, inserted] =
        facets_.try_emplace(simplex_key(f), Facet{f, {e, kNoElem}});
    if (!inserted) {
      PNR_REQUIRE_MSG(it->second.elems[1] == kNoElem,
                      D == 2 ? "non-manifold edge: more than two triangles"
                             : "non-manifold face: more than two tetrahedra");
      it->second.elems[1] = e;
      // The pair just completed: update the coarse interface weight (the
      // paper's incremental P1 bookkeeping).
      const ElemIdx c1 = element(it->second.elems[0]).coarse;
      const ElemIdx c2 = t.coarse;
      if (c1 != c2) ++coarse_interface_[edge_key(c1, c2)];
    }
  }
  if constexpr (D == 3)
    for (const auto& edge : Tables<D>::kEdges)
      edge_elems_[simplex_key(pick(t.v, edge))].push_back(e);
}

template <int D>
void SimplexMesh<D>::maps_remove(ElemIdx e) {
  const Element& t = element(e);
  for (const auto& local : Tables<D>::kFacets) {
    auto it = facets_.find(simplex_key(pick(t.v, local)));
    PNR_REQUIRE(it != facets_.end());
    auto& pair = it->second.elems;
    if (pair[1] != kNoElem) {
      // Breaking a complete pair: retire its interface contribution.
      const ElemIdx c1 = element(pair[0]).coarse;
      const ElemIdx c2 = element(pair[1]).coarse;
      if (c1 != c2) {
        auto w = coarse_interface_.find(edge_key(c1, c2));
        PNR_ASSERT(w != coarse_interface_.end() && w->second > 0);
        if (--w->second == 0) coarse_interface_.erase(w);
      }
    }
    if (pair[0] == e) pair[0] = pair[1];
    else PNR_REQUIRE(pair[1] == e);
    pair[1] = kNoElem;
    if (pair[0] == kNoElem) facets_.erase(it);
  }
  if constexpr (D == 3)
    for (const auto& edge : Tables<D>::kEdges) {
      auto it = edge_elems_.find(simplex_key(pick(t.v, edge)));
      PNR_REQUIRE(it != edge_elems_.end());
      auto& star = it->second;
      const auto pos = std::find(star.begin(), star.end(), e);
      PNR_REQUIRE(pos != star.end());
      star.erase(pos);
      if (star.empty()) edge_elems_.erase(it);
    }
}

template <int D>
void SimplexMesh<D>::edge_star(ElemIdx e, VertIdx a, VertIdx b,
                               std::vector<ElemIdx>& star) const {
  if constexpr (D == 2) {
    // The edge is a facet: e, then its partner unless on the boundary.
    const auto it = facets_.find(edge_key(a, b));
    PNR_ASSERT(it != facets_.end());
    const auto& pair = it->second.elems;
    PNR_ASSERT(pair[0] == e || pair[1] == e);
    star.assign({e});
    const ElemIdx partner = pair[0] == e ? pair[1] : pair[0];
    if (partner != kNoElem) star.push_back(partner);
  } else {
    const auto it = edge_elems_.find(edge_key(a, b));
    PNR_ASSERT(it != edge_elems_.end());
    star.assign(it->second.begin(), it->second.end());
  }
}

template <int D>
std::vector<ElemIdx> SimplexMesh<D>::leaf_elements() const {
  std::vector<ElemIdx> leaves;
  leaves.reserve(static_cast<std::size_t>(num_leaves_));
  for (std::size_t e = 0; e < elems_.size(); ++e)
    if (elems_[e].alive && elems_[e].leaf)
      leaves.push_back(static_cast<ElemIdx>(e));
  return leaves;
}

template <int D>
std::vector<char> SimplexMesh<D>::boundary_vertex_mask() const {
  std::vector<char> mask(verts_.size(), false);
  for (const auto& [key, facet] : facets_) {
    (void)key;
    if (facet.elems[1] == kNoElem)
      for (const VertIdx v : facet.v) mask[static_cast<std::size_t>(v)] = true;
  }
  return mask;
}

// ---- refinement -------------------------------------------------------------

template <int D>
void SimplexMesh<D>::bisect(ElemIdx e, VertIdx a, VertIdx b, VertIdx m) {
  PNR_ASSERT(is_leaf(e));
  Corners v0 = element(e).v;
  Corners v1 = v0;
  if constexpr (D == 2) {
    // Locate {a,b} in the cyclic order so the children stay CCW.
    int i = -1;
    for (int k = 0; k < 3; ++k) {
      const VertIdx va = v0[static_cast<std::size_t>(k)];
      const VertIdx vb = v0[static_cast<std::size_t>((k + 1) % 3)];
      if ((va == a && vb == b) || (va == b && vb == a)) {
        i = k;
        break;
      }
    }
    PNR_REQUIRE_MSG(i >= 0, "bisection edge not part of the triangle");
    const VertIdx va = v0[static_cast<std::size_t>(i)];
    const VertIdx vb = v0[static_cast<std::size_t>((i + 1) % 3)];
    const VertIdx vc = v0[static_cast<std::size_t>((i + 2) % 3)];
    v0 = {va, m, vc};
    v1 = {m, vb, vc};
  } else {
    // Child 0 replaces b with m, child 1 replaces a with m; substituting
    // one endpoint of an edge by its midpoint preserves orientation and
    // halves the volume.
    for (std::size_t k = 0; k < v0.size(); ++k) {
      if (v0[k] == b) v0[k] = m;
      if (v1[k] == a) v1[k] = m;
    }
  }

  maps_remove(e);

  const ElemIdx c0 = new_element();
  const ElemIdx c1 = new_element();
  Element& parent = slot(e);  // re-take: the vector may have grown
  slot(c0).v = v0;
  slot(c1).v = v1;
  for (const ElemIdx c : {c0, c1}) {
    Element& child = slot(c);
    child.parent = e;
    child.coarse = parent.coarse;
    child.tag = parent.tag;
    child.level = static_cast<std::int16_t>(parent.level + 1);
    child.leaf = true;
  }
  parent.leaf = false;
  parent.child = {c0, c1};
  parent.mid = m;

  maps_add(c0);
  maps_add(c1);

  ++num_leaves_;  // two children replace one leaf
  ++leaf_count_[static_cast<std::size_t>(parent.coarse)];
  mark_dual_dirty(parent.coarse);
}

template <int D>
std::int64_t SimplexMesh<D>::refine(const std::vector<ElemIdx>& marked) {
  PNR_REQUIRE_MSG(finalized_, "refine before finalize");
  std::vector<ElemIdx> stack;
  stack.reserve(marked.size());
  for (ElemIdx e : marked)
    if (is_leaf(e)) stack.push_back(e);

  std::int64_t bisections = 0;
  // Rivara's recursion terminates; the guard only trips on a logic error.
  constexpr std::int64_t kPerLeaf = D == 2 ? 64 : 256;
  constexpr std::int64_t kPerMark = D == 2 ? 1024 : 4096;
  std::int64_t guard = kPerLeaf * (num_leaves_ + 16) +
                       kPerMark * static_cast<std::int64_t>(stack.size());
  std::vector<ElemIdx> star;
  while (!stack.empty()) {
    PNR_REQUIRE_MSG(--guard > 0, "refinement propagation failed to terminate");
    const ElemIdx t = stack.back();
    if (!is_leaf(t)) {  // already bisected through propagation
      stack.pop_back();
      continue;
    }
    const auto [a, b] = longest_edge(t);
    const std::uint64_t key = edge_key(a, b);

    // Every leaf around the edge must agree that this is its longest edge;
    // otherwise refine the disagreeing ones first (Rivara).
    edge_star(t, a, b, star);
    bool compatible = true;
    for (const ElemIdx s : star) {
      if (s == t) continue;
      const auto [sa, sb] = longest_edge(s);
      if (edge_key(sa, sb) != key) {
        stack.push_back(s);
        compatible = false;
      }
    }
    if (!compatible) continue;

    const auto pa = coords(vertex(a));
    const auto pb = coords(vertex(b));
    auto mid = pa;
    for (std::size_t d = 0; d < mid.size(); ++d) mid[d] = 0.5 * (pa[d] + pb[d]);
    const VertIdx m = new_vertex(to_point(mid));
    for (const ElemIdx s : star) {
      bisect(s, a, b, m);
      ++bisections;
    }
    stack.pop_back();
  }
  if (bisections > 0) ++adapt_version_;
  PNR_CHECK2_AUDIT(D == 2 ? "TriMesh::refine" : "TetMesh::refine",
                   check_invariants());
  return bisections;
}

// ---- coarsening -------------------------------------------------------------

template <int D>
std::int64_t SimplexMesh<D>::coarsen(const std::vector<ElemIdx>& marked) {
  PNR_REQUIRE_MSG(finalized_, "coarsen before finalize");
  std::vector<char> want(elems_.size(), false);
  for (ElemIdx e : marked)
    if (is_leaf(e)) want[static_cast<std::size_t>(e)] = true;

  // Candidate parents: refined elements whose two children are leaves that
  // both want to coarsen. Grouped by the midpoint their bisection created.
  std::unordered_map<VertIdx, std::vector<ElemIdx>> by_mid;
  for (std::size_t e = 0; e < elems_.size(); ++e) {
    const Element& t = elems_[e];
    if (!t.alive || t.leaf) continue;
    const ElemIdx c0 = t.child[0];
    const ElemIdx c1 = t.child[1];
    if (is_leaf(c0) && is_leaf(c1) && want[static_cast<std::size_t>(c0)] &&
        want[static_cast<std::size_t>(c1)])
      by_mid[t.mid].push_back(static_cast<ElemIdx>(e));
  }
  if (by_mid.empty()) return 0;

  // A midpoint is removable only when *every* leaf using it belongs to the
  // candidate group — otherwise the merge would leave a hanging node.
  std::vector<std::int32_t> touches(verts_.size(), 0);
  for (const Element& t : elems_) {
    if (!t.alive || !t.leaf) continue;
    for (const VertIdx v : t.v) ++touches[static_cast<std::size_t>(v)];
  }

  // Deterministic processing order.
  std::vector<VertIdx> mids;
  mids.reserve(by_mid.size());
  for (const auto& [m, parents] : by_mid) {
    (void)parents;
    mids.push_back(m);
  }
  std::sort(mids.begin(), mids.end());

  std::int64_t merges = 0;
  for (const VertIdx m : mids) {
    const auto& parents = by_mid[m];
    if constexpr (D == 2) PNR_ASSERT(parents.size() == 1 || parents.size() == 2);
    // The midpoint vanishes only if its entire leaf star is the children of
    // the candidate parents (2 leaves per parent).
    if (touches[static_cast<std::size_t>(m)] !=
        2 * static_cast<std::int32_t>(parents.size()))
      continue;
    for (const ElemIdx p : parents) {
      Element& parent = slot(p);
      parent.tag = element(parent.child[0]).tag;
      maps_remove(parent.child[0]);
      maps_remove(parent.child[1]);
      release_element(parent.child[0]);
      release_element(parent.child[1]);
      parent.child = {kNoElem, kNoElem};
      parent.mid = kNoVert;
      parent.leaf = true;
      maps_add(p);
      --num_leaves_;
      --leaf_count_[static_cast<std::size_t>(parent.coarse)];
      mark_dual_dirty(parent.coarse);
      ++merges;
    }
    release_vertex(m);
  }
  if (merges > 0) ++adapt_version_;
  PNR_CHECK2_AUDIT(D == 2 ? "TriMesh::coarsen" : "TetMesh::coarsen",
                   check_invariants());
  return merges;
}

// ---- dual-delta bookkeeping -------------------------------------------------

template <int D>
std::int64_t SimplexMesh<D>::coarse_interface_weight(ElemIdx c1,
                                                     ElemIdx c2) const {
  const auto it = coarse_interface_.find(edge_key(c1, c2));
  return it == coarse_interface_.end() ? 0 : it->second;
}

template <int D>
DualWeightDelta SimplexMesh<D>::drain_dual_delta() {
  DualWeightDelta delta;
  delta.prev_epoch = dual_drains_;
  delta.epoch = ++dual_drains_;
  delta.vertices = std::move(dual_dirty_);
  dual_dirty_.clear();
  std::sort(delta.vertices.begin(), delta.vertices.end());
  for (const ElemIdx c : delta.vertices)
    dual_dirty_mark_[static_cast<std::size_t>(c)] = false;
  return delta;
}

// ---- validation -------------------------------------------------------------

template <int D>
std::string SimplexMesh<D>::check_invariants() const {
  if (!finalized_) return "not finalized";
  std::int64_t leaves = 0;
  std::vector<std::int64_t> leaf_count(leaf_count_.size(), 0);

  for (std::size_t e = 0; e < elems_.size(); ++e) {
    const Element& t = elems_[e];
    if (!t.alive) continue;
    if (t.leaf) {
      ++leaves;
      if (t.coarse < 0 || t.coarse >= num_initial_) return "bad coarse id";
      ++leaf_count[static_cast<std::size_t>(t.coarse)];
      if (signed_measure(static_cast<ElemIdx>(e)) <= 0.0)
        return D == 2 ? "non-positive leaf area" : "non-positive leaf volume";
      for (const VertIdx v : t.v)
        if (!vertex_alive(v)) return "leaf references dead vertex";
    } else {
      if (t.child[0] == kNoElem || t.child[1] == kNoElem)
        return "interior node missing children";
      for (const ElemIdx c : t.child) {
        const Element& ct = element(c);
        if (!ct.alive) return "child slot dead";
        if (ct.parent != static_cast<ElemIdx>(e))
          return "child parent link broken";
        if (ct.level != t.level + 1) return "child level wrong";
        if (ct.coarse != t.coarse) return "child coarse ancestor wrong";
      }
      if (t.mid == kNoVert) return "interior node missing midpoint";
      if (!vertex_alive(t.mid)) return "midpoint vertex dead";
    }
  }
  if (leaves != num_leaves_) return "leaf count cache wrong";
  for (std::size_t c = 0; c < leaf_count.size(); ++c)
    if (leaf_count[c] != leaf_count_[c]) return "per-coarse leaf count wrong";

  // The facet map must exactly reflect the leaf facets, and every facet
  // must have at most two leaves. Conformity needs nothing further: a
  // vertex of one leaf inside another leaf's facet would give the two sides
  // different facet keys, which shows up as an incidence mismatch here.
  std::unordered_map<std::uint64_t, std::int32_t> expected;
  for (const Element& t : elems_) {
    if (!t.alive || !t.leaf) continue;
    for (const auto& local : Tables<D>::kFacets)
      ++expected[simplex_key(pick(t.v, local))];
  }
  if (expected.size() != facets_.size())
    return D == 2 ? "edge map size mismatch" : "face map size mismatch";
  for (const auto& [key, count] : expected) {
    const auto it = facets_.find(key);
    if (it == facets_.end())
      return D == 2 ? "edge missing from map" : "face missing from map";
    const auto& pair = it->second.elems;
    const int have = (pair[0] != kNoElem) + (pair[1] != kNoElem);
    if (have != count)
      return D == 2 ? "edge incidence mismatch" : "face incidence mismatch";
    if (count > 2) return D == 2 ? "non-manifold edge" : "non-manifold face";
  }

  if constexpr (D == 3) {
    std::unordered_map<std::uint64_t, std::int32_t> expected_edges;
    for (const Element& t : elems_) {
      if (!t.alive || !t.leaf) continue;
      for (const auto& edge : Tables<D>::kEdges)
        ++expected_edges[simplex_key(pick(t.v, edge))];
    }
    if (expected_edges.size() != edge_elems_.size())
      return "edge incidence size mismatch";
    for (const auto& [key, count] : expected_edges) {
      const auto it = edge_elems_.find(key);
      if (it == edge_elems_.end()) return "edge missing from incidence map";
      if (static_cast<std::int32_t>(it->second.size()) != count)
        return "edge incidence count mismatch";
    }
  }

  // The incrementally maintained coarse-interface weights must equal a
  // from-scratch recount.
  std::unordered_map<std::uint64_t, std::int64_t> recount;
  for (const auto& [key, facet] : facets_) {
    (void)key;
    if (facet.elems[1] == kNoElem) continue;
    const ElemIdx c1 = element(facet.elems[0]).coarse;
    const ElemIdx c2 = element(facet.elems[1]).coarse;
    if (c1 != c2) ++recount[edge_key(c1, c2)];
  }
  if (recount.size() != coarse_interface_.size())
    return "coarse interface map size mismatch";
  for (const auto& [key, w] : recount) {
    const auto it = coarse_interface_.find(key);
    if (it == coarse_interface_.end() || it->second != w)
      return "coarse interface weight mismatch";
  }
  return {};
}

template class SimplexMesh<2>;
template class SimplexMesh<3>;

}  // namespace pnr::mesh
