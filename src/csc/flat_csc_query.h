#ifndef CSC_CSC_FLAT_CSC_QUERY_H_
#define CSC_CSC_FLAT_CSC_QUERY_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/label_arena.h"
#include "csc/compact_index.h"
#include "util/common.h"
#include "util/lifetime_annotations.h"

namespace csc {
namespace flat {

/// The shared query/serialization kernel of the flat (arena-backed) CSC
/// serving forms — FrozenIndex (packed arenas) and CompressedIndex (varint
/// arenas) are thin wrappers over these functions, so the SCCnt semantics
/// (bipartite distance -> cycle length mapping, couple-skipping correction)
/// exist exactly once.

/// SCCnt(v) from the two arenas: join L_out(v_o) with L_in(v_i) and map the
/// bipartite distance d to a cycle length (d + 1) / 2.
CycleCount Query(const LabelArena& out_arena, const LabelArena& in_arena,
                 Vertex v);

/// Shortest cycles through the edge (u, v): join L_out(v_o) with L_in(u_i)
/// plus the couple-hub correction — paths on which v_o outranks everything
/// are covered only by hub v_i in L_in(u_i) (see CscIndex::QueryThroughEdge).
CycleCount QueryThroughEdge(const LabelArena& out_arena,
                            const LabelArena& in_arena,
                            const std::vector<Rank>& in_vertex_rank, Vertex u,
                            Vertex v);

/// A flat index's couple-rank map (in_vertex_rank[v] = bipartite rank of
/// v_i). Immutable once built, so a patched clone shares it with its source
/// instead of copying 4n bytes; never null (see NoCoupleRanks).
using CoupleRanks = std::shared_ptr<const std::vector<Rank>>;

/// The shared empty map a default-constructed flat index holds.
const CoupleRanks& NoCoupleRanks();

/// The couple-rank map extracted from a compact index's rank permutation.
CoupleRanks CoupleRanksFromCompact(const CompactIndex& compact);

/// Serialization envelope shared by the flat forms:
///   4-byte magic | in arena | out arena | couple-rank vector.
std::string SerializeFlat(const char magic[4], const LabelArena& in_arena,
                          const LabelArena& out_arena,
                          const std::vector<Rank>& in_vertex_rank);

struct FlatParts {
  LabelArena in;
  LabelArena out;
  CoupleRanks in_vertex_rank;
};

/// Parses SerializeFlat output; checks the magic and structural invariants
/// (matching vertex counts). nullopt on malformed input.
std::optional<FlatParts> DeserializeFlat(const char magic[4],
                                         const std::string& bytes);

/// As DeserializeFlat, but over an externally owned buffer (a verified file
/// mapping): the arenas become zero-copy views into `[data, data + size)`
/// kept alive by `keep_alive`; only the couple-rank map (4 bytes/vertex)
/// is materialized — with one bulk memcpy and a single validation pass.
/// `data` is deliberately not CSC_LIFETIME_BOUND — the keep-alive handle
/// makes the returned parts self-keeping (util/lifetime_annotations.h).
std::optional<FlatParts> DeserializeFlatView(
    const char magic[4], const uint8_t* data, size_t size,
    std::shared_ptr<const void> keep_alive);

}  // namespace flat
}  // namespace csc

#endif  // CSC_CSC_FLAT_CSC_QUERY_H_
