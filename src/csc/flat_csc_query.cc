#include "csc/flat_csc_query.h"

#include <cstring>
#include <utility>

#include "graph/bipartite.h"

namespace csc {
namespace flat {

CycleCount Query(const LabelArena& out_arena, const LabelArena& in_arena,
                 Vertex v) {
  if (v >= in_arena.num_vertices()) return {};
  JoinResult r = LabelArena::Join(out_arena, v, in_arena, v);
  if (r.dist == kInfDist) return {};
  return {(r.dist + 1) / 2, r.count};
}

CycleCount QueryThroughEdge(const LabelArena& out_arena,
                            const LabelArena& in_arena,
                            const std::vector<Rank>& in_vertex_rank, Vertex u,
                            Vertex v) {
  if (u == v || u >= in_arena.num_vertices() ||
      v >= in_arena.num_vertices()) {
    return {};
  }
  JoinResult r = LabelArena::Join(out_arena, v, in_arena, u);
  // Couple-skipping correction: paths on which v_o outranks everything are
  // covered only by hub v_i in L_in(u_i).
  if (auto hit = in_arena.FindHub(u, in_vertex_rank[v])) {
    Dist d = hit->first - 1;
    if (d < r.dist) {
      r.dist = d;
      r.count = hit->second;
    } else if (d == r.dist) {
      r.count += hit->second;
    }
  }
  if (r.dist == kInfDist) return {};
  return {(r.dist + 1) / 2 + 1, r.count};
}

const CoupleRanks& NoCoupleRanks() {
  static const CoupleRanks empty = std::make_shared<const std::vector<Rank>>();
  return empty;
}

CoupleRanks CoupleRanksFromCompact(const CompactIndex& compact) {
  const std::vector<Vertex>& rank_to_vertex =
      compact.bipartite_rank_to_vertex();
  std::vector<Rank> in_vertex_rank(compact.num_original_vertices());
  for (Rank r = 0; r < rank_to_vertex.size(); ++r) {
    if (IsInVertex(rank_to_vertex[r])) {
      in_vertex_rank[OriginalOf(rank_to_vertex[r])] = r;
    }
  }
  return std::make_shared<const std::vector<Rank>>(std::move(in_vertex_rank));
}

std::string SerializeFlat(const char magic[4], const LabelArena& in_arena,
                          const LabelArena& out_arena,
                          const std::vector<Rank>& in_vertex_rank) {
  std::string out;
  out.append(magic, 4);
  in_arena.AppendTo(out);
  out_arena.AppendTo(out);
  for (Rank r : in_vertex_rank) {
    char buf[4];
    std::memcpy(buf, &r, 4);
    out.append(buf, 4);
  }
  return out;
}

namespace {

// Decodes the trailing couple-rank vector: one bulk memcpy of the 4n-byte
// block, then a single validation pass (couple ranks index the 2n bipartite
// ranks). Shared by the copying and mmap-view load paths.
bool ParseCoupleRanks(const uint8_t* p, Vertex n, std::vector<Rank>& out) {
  out.resize(n);
  if (n > 0) {
    std::memcpy(out.data(), p, sizeof(Rank) * static_cast<size_t>(n));
  }
  for (Vertex v = 0; v < n; ++v) {
    if (out[v] >= 2ull * n) return false;
  }
  return true;
}

std::optional<FlatParts> DeserializeImpl(
    const char magic[4], const uint8_t* data, size_t size, bool view,
    std::shared_ptr<const void> keep_alive) {
  if (size < 4 || std::memcmp(data, magic, 4) != 0) return std::nullopt;
  size_t pos = 4;
  auto in_arena = view ? LabelArena::ParseView(data, size, pos, keep_alive)
                       : LabelArena::Parse(data, size, pos);
  if (!in_arena) return std::nullopt;
  auto out_arena =
      view ? LabelArena::ParseView(data, size, pos, std::move(keep_alive))
           : LabelArena::Parse(data, size, pos);
  if (!out_arena) return std::nullopt;
  const Vertex n = in_arena->num_vertices();
  if (out_arena->num_vertices() != n) return std::nullopt;
  if (pos + sizeof(Rank) * static_cast<uint64_t>(n) != size) {
    return std::nullopt;
  }
  std::vector<Rank> in_vertex_rank;
  if (!ParseCoupleRanks(data + pos, n, in_vertex_rank)) return std::nullopt;
  FlatParts parts;
  parts.in = std::move(*in_arena);
  parts.out = std::move(*out_arena);
  parts.in_vertex_rank =
      std::make_shared<const std::vector<Rank>>(std::move(in_vertex_rank));
  return parts;
}

}  // namespace

std::optional<FlatParts> DeserializeFlat(const char magic[4],
                                         const std::string& bytes) {
  return DeserializeImpl(magic,
                         reinterpret_cast<const uint8_t*>(bytes.data()),
                         bytes.size(), /*view=*/false, nullptr);
}

std::optional<FlatParts> DeserializeFlatView(
    const char magic[4], const uint8_t* data, size_t size,
    std::shared_ptr<const void> keep_alive) {
  return DeserializeImpl(magic, data, size, /*view=*/true,
                         std::move(keep_alive));
}

}  // namespace flat
}  // namespace csc
