#include "mesh/svg.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "util/assert.hpp"

namespace pnr::mesh {

namespace {

/// Evenly spaced hues, medium saturation/lightness; distinct up to ~64 parts.
std::string part_color(part::PartId p, part::PartId num_parts) {
  if (num_parts <= 0) return "#dddddd";
  const double golden = 0.61803398875;
  const double h = std::fmod(0.12 + golden * static_cast<double>(p), 1.0);
  const double s = 0.55, v = 0.92;
  const double c = v * s;
  const double hp = h * 6.0;
  const double x = c * (1.0 - std::abs(std::fmod(hp, 2.0) - 1.0));
  double r = 0, g = 0, b = 0;
  switch (static_cast<int>(hp)) {
    case 0: r = c; g = x; break;
    case 1: r = x; g = c; break;
    case 2: g = c; b = x; break;
    case 3: g = x; b = c; break;
    case 4: r = x; b = c; break;
    default: r = c; b = x; break;
  }
  const double m = v - c;
  char buf[16];
  std::snprintf(buf, sizeof buf, "#%02x%02x%02x",
                static_cast<int>((r + m) * 255.0),
                static_cast<int>((g + m) * 255.0),
                static_cast<int>((b + m) * 255.0));
  return buf;
}

}  // namespace

bool write_partition_svg(const TriMesh& mesh,
                         const std::vector<ElemIdx>& elems,
                         const std::vector<part::PartId>& assign,
                         const std::string& path, const SvgOptions& options) {
  PNR_REQUIRE(assign.empty() || assign.size() == elems.size());
  if (elems.empty()) return false;

  double min_x = 1e300, min_y = 1e300, max_x = -1e300, max_y = -1e300;
  for (const ElemIdx e : elems)
    for (const VertIdx v : mesh.element(e).v) {
      const Point2& p = mesh.vertex(v);
      min_x = std::min(min_x, p.x);
      max_x = std::max(max_x, p.x);
      min_y = std::min(min_y, p.y);
      max_y = std::max(max_y, p.y);
    }
  const double span_x = std::max(max_x - min_x, 1e-12);
  const double span_y = std::max(max_y - min_y, 1e-12);
  const double scale = options.width_px / span_x;
  const int height_px = static_cast<int>(span_y * scale) + 1;

  part::PartId num_parts = 0;
  for (const part::PartId p : assign) num_parts = std::max(num_parts, p + 1);

  std::ofstream f(path);
  if (!f) return false;
  f << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" << options.width_px
    << "\" height=\"" << height_px << "\" viewBox=\"0 0 " << options.width_px
    << ' ' << height_px << "\">\n";

  auto px = [&](const Point2& p) { return (p.x - min_x) * scale; };
  auto py = [&](const Point2& p) { return (max_y - p.y) * scale; };  // y up

  for (std::size_t i = 0; i < elems.size(); ++i) {
    const auto& t = mesh.element(elems[i]);
    const Point2& p0 = mesh.vertex(t.v[0]);
    const Point2& p1 = mesh.vertex(t.v[1]);
    const Point2& p2 = mesh.vertex(t.v[2]);
    const std::string fill =
        assign.empty() ? "#f2f2f2" : part_color(assign[i], num_parts);
    f << "<polygon points=\"" << px(p0) << ',' << py(p0) << ' ' << px(p1)
      << ',' << py(p1) << ' ' << px(p2) << ',' << py(p2) << "\" fill=\""
      << fill << '"';
    if (options.draw_edges)
      f << " stroke=\"#333333\" stroke-width=\"" << options.stroke_width
        << '"';
    f << "/>\n";
  }
  f << "</svg>\n";
  return static_cast<bool>(f);
}

}  // namespace pnr::mesh
