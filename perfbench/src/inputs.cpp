#include "inputs.hpp"

#include <algorithm>
#include <charconv>
#include <numeric>
#include <unordered_set>

namespace perfbench {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

Edge ordered(NodeId a, NodeId b) { return a < b ? Edge{a, b} : Edge{b, a}; }

void append_uint(std::string& out, std::uint64_t v) {
  char buf[24];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, end);
}

/// A per-purpose stream: distinct purposes never share random numbers.
Rng stream(std::uint64_t seed, std::uint64_t purpose, std::uint64_t index = 0) {
  return Rng(seed * 0x100000001B3ull ^ (purpose << 40) ^ index);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  for (std::uint64_t& word : s_) word = splitmix64(seed);
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::below(std::uint64_t bound) { return next() % bound; }

EdgeGraph gnm(NodeId n, std::size_t m, Rng& rng) {
  EdgeGraph g{n, {}};
  g.edges.reserve(m);
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(m * 2);
  while (g.edges.size() < m) {
    const auto u = static_cast<NodeId>(rng.below(n));
    const auto v = static_cast<NodeId>(rng.below(n));
    if (u == v) continue;
    const Edge e = ordered(u, v);
    if (seen.insert((std::uint64_t{e.u} << 32) | e.v).second) g.edges.push_back(e);
  }
  return g;
}

EdgeGraph grid(NodeId rows, NodeId cols) {
  EdgeGraph g{rows * cols, {}};
  for (NodeId r = 0; r < rows; ++r) {
    for (NodeId c = 0; c < cols; ++c) {
      const NodeId v = r * cols + c;
      if (c + 1 < cols) g.edges.push_back({v, v + 1});
      if (r + 1 < rows) g.edges.push_back({v, v + cols});
    }
  }
  return g;
}

EdgeGraph path(NodeId n) {
  EdgeGraph g{n, {}};
  for (NodeId v = 0; v + 1 < n; ++v) g.edges.push_back({v, v + 1});
  return g;
}

EdgeGraph squared_path_forest(NodeId n, unsigned paths) {
  EdgeGraph g{n, {}};
  const NodeId len = n / paths;
  for (unsigned p = 0; p < paths; ++p) {
    const NodeId begin = p * len;
    const NodeId end = p + 1 == paths ? n : begin + len;
    for (NodeId v = begin; v < end; ++v) {
      if (v + 1 < end) g.edges.push_back({v, v + 1});
      if (v + 2 < end) g.edges.push_back({v, v + 2});
    }
  }
  return g;
}

EdgeGraph star(NodeId leaves) {
  EdgeGraph g{leaves + 1, {}};
  for (NodeId v = 1; v <= leaves; ++v) g.edges.push_back({0, v});
  return g;
}

EdgeGraph disjoint_union(const std::vector<EdgeGraph>& parts) {
  EdgeGraph g;
  std::size_t edges = 0;
  for (const EdgeGraph& part : parts) edges += part.edges.size();
  g.edges.reserve(edges);
  for (const EdgeGraph& part : parts) {
    for (const Edge& e : part.edges) g.edges.push_back({e.u + g.n, e.v + g.n});
    g.n += part.n;
  }
  return g;
}

EdgeGraph shuffled(const EdgeGraph& g, Rng& rng) {
  std::vector<NodeId> perm(g.n);
  std::iota(perm.begin(), perm.end(), NodeId{0});
  for (std::size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.below(i)]);
  }
  EdgeGraph out{g.n, {}};
  out.edges.reserve(g.edges.size());
  for (const Edge& e : g.edges) out.edges.push_back(ordered(perm[e.u], perm[e.v]));
  // Edge order follows the new ids, as a file sorted by vertex would.
  std::sort(out.edges.begin(), out.edges.end());
  return out;
}

EdgeGraph oriented(const EdgeGraph& g, Rng& rng) {
  const bool reverse = rng.below(2) == 1;
  EdgeGraph out{g.n, {}};
  out.edges.reserve(g.edges.size());
  for (const Edge& e : g.edges) {
    out.edges.push_back(reverse ? ordered(g.n - 1 - e.u, g.n - 1 - e.v) : e);
  }
  std::sort(out.edges.begin(), out.edges.end());
  return out;
}

namespace {

/// A rows x cols grid in row-major or column-major order.
EdgeGraph oriented_grid(NodeId rows, NodeId cols, Rng& rng) {
  EdgeGraph g = grid(rows, cols);
  if (rng.below(2) == 1) {
    for (Edge& e : g.edges) {
      e = ordered((e.u % cols) * rows + e.u / cols, (e.v % cols) * rows + e.v / cols);
    }
  }
  return oriented(g, rng);
}

}  // namespace

EdgeGraph mixed_union(std::vector<EdgeGraph> parts, Rng& rng) {
  for (std::size_t i = parts.size(); i > 1; --i) std::swap(parts[i - 1], parts[rng.below(i)]);
  EdgeGraph g = disjoint_union(parts);
  std::sort(g.edges.begin(), g.edges.end());
  return g;
}

namespace {

Sample make_sample(EdgeGraph g) {
  Sample s;
  s.expected = min_id_labels(g);
  s.body = request_body(g);
  s.graph = std::move(g);
  return s;
}

}  // namespace

std::vector<Sample> sparse_requests(std::uint64_t seed, std::size_t count) {
  constexpr NodeId n = 4096;
  std::vector<Sample> out;
  for (std::size_t i = 0; i < count; ++i) {
    Rng rng = stream(seed, 1, i);
    EdgeGraph g;
    switch (i % 3) {
      case 0: g = shuffled(gnm(n, 4096 + rng.below(16384 - 4096 + 1), rng), rng); break;
      case 1: g = oriented_grid(64, 64, rng); break;
      default: g = oriented(squared_path_forest(n, 1u << rng.below(4)), rng); break;
    }
    out.push_back(make_sample(std::move(g)));
  }
  return out;
}

EdgeGraph dense_probe(NodeId n, std::uint64_t seed) {
  Rng rng = stream(seed, 3, n);
  const double pairs = static_cast<double>(n) * (n - 1) / 2.0;
  return gnm(n, static_cast<std::size_t>(0.4 * pairs), rng);
}

EdgeGraph bulk_graph(std::uint64_t seed) {
  Rng rng = stream(seed, 4);
  return mixed_union({shuffled(gnm(262144, std::size_t{1} << 20, rng), rng),
                      oriented_grid(1024, 1024, rng), oriented(path(NodeId{1} << 20), rng),
                      shuffled(star(NodeId{1} << 16), rng)},
                     rng);
}

EdgeGraph mixed_16k(std::uint64_t seed) {
  Rng rng = stream(seed, 5);
  return mixed_union({shuffled(gnm(4096, 8192, rng), rng), oriented_grid(64, 64, rng),
                      oriented(path(4096), rng), shuffled(star(4095), rng)},
                     rng);
}

std::string request_body(const EdgeGraph& g) {
  std::string out = "\"n\":";
  out.reserve(g.edges.size() * 12 + 32);
  append_uint(out, g.n);
  out += ",\"edges\":[";
  for (std::size_t i = 0; i < g.edges.size(); ++i) {
    if (i > 0) out += ',';
    out += '[';
    append_uint(out, g.edges[i].u);
    out += ',';
    append_uint(out, g.edges[i].v);
    out += ']';
  }
  out += "]}";
  return out;
}

std::string edge_list_text(const EdgeGraph& g) {
  std::string out;
  out.reserve(g.edges.size() * 16 + 32);
  append_uint(out, g.n);
  out += ' ';
  append_uint(out, g.edges.size());
  out += '\n';
  for (const Edge& e : g.edges) {
    append_uint(out, e.u);
    out += ' ';
    append_uint(out, e.v);
    out += '\n';
  }
  return out;
}

gcalib::graph::Graph to_graph(const EdgeGraph& g) {
  return gcalib::graph::Graph::from_edges(g.n, g.edges);
}

}  // namespace perfbench
