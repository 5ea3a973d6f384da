#ifndef CSC_CSC_FROZEN_INDEX_H_
#define CSC_CSC_FROZEN_INDEX_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/label_arena.h"
#include "csc/compact_index.h"
#include "csc/flat_csc_query.h"
#include "util/lifetime_annotations.h"

namespace csc {

/// A frozen, query-only CSC index: the compact (§IV.E) labeling flattened
/// into two packed LabelArenas (one per direction) — paged run storage, no
/// per-vertex vector headers, cache-linear scans within a run. This is the
/// deployment format for read-heavy serving; build/maintain with CscIndex,
/// freeze for the query tier.
///
/// Queries are identical in result to CscIndex::Query / CompactIndex::Query
/// (tests assert equality); they only differ in memory layout.
class FrozenIndex {
 public:
  FrozenIndex() = default;

  /// Flattens a compact index.
  static FrozenIndex FromCompact(const CompactIndex& compact);

  /// Convenience: compact + freeze in one step.
  static FrozenIndex FromIndex(const CscIndex& index) {
    return FromCompact(CompactIndex::FromIndex(index));
  }

  /// SCCnt(v).
  CycleCount Query(Vertex v) const;

  /// Shortest cycles through the edge (u, v) — identical answers to
  /// CscIndex::QueryThroughEdge (see there for semantics).
  CycleCount QueryThroughEdge(Vertex u, Vertex v) const;

  Vertex num_original_vertices() const { return in_.num_vertices(); }
  uint64_t TotalEntries() const {
    return in_.total_entries() + out_.total_entries();
  }
  /// Payload bytes (entries only; offsets excluded, matching how the paper
  /// accounts index size as 8 bytes per entry).
  uint64_t SizeBytes() const { return in_.SizeBytes() + out_.SizeBytes(); }
  /// Full resident footprint including offsets and the couple-rank map.
  uint64_t MemoryBytes() const {
    return in_.MemoryBytes() + out_.MemoryBytes() +
           in_vertex_rank_->size() * sizeof(Rank);
  }

  /// The underlying arenas (L_in(v_i) / L_out(v_o) runs by original vertex).
  const LabelArena& in_arena() const CSC_LIFETIME_BOUND { return in_; }
  const LabelArena& out_arena() const CSC_LIFETIME_BOUND { return out_; }

  /// Binary serialization (magic + arenas + couple-rank map; fixed-width
  /// fields native-endian, matching the CompactIndex wire format).
  std::string Serialize() const;
  static std::optional<FrozenIndex> Deserialize(const std::string& bytes);

  /// As Deserialize, but zero-copy over an externally owned buffer (a
  /// verified file mapping): the label payloads stay in `[data, data+size)`,
  /// kept alive by `keep_alive`; only offsets and the couple-rank map are
  /// materialized. `data` is deliberately not CSC_LIFETIME_BOUND — the
  /// keep-alive handle makes the result self-keeping.
  static std::optional<FrozenIndex> FromView(
      const uint8_t* data, size_t size,
      std::shared_ptr<const void> keep_alive);

  /// Drops the runs of vertices not selected by `keep` from both arenas
  /// (queries for them then report no cycle), keeping the vertex space —
  /// the shard-local storage form of the sharded serving tier.
  void SliceTo(const std::function<bool(Vertex)>& keep);

  /// Returns a copy with the named in/out runs replaced (incremental label
  /// repair; see core/label_patch.h). Only the arena pages holding an
  /// edited run are re-encoded; every other page and the couple-rank map are
  /// shared with this index. Run contents are rank-encoded, so this is only
  /// meaningful under the ordering the index was built with. Edits must
  /// satisfy LabelArena::EditsWellFormed.
  FrozenIndex WithEditedRuns(
      const std::vector<std::pair<Vertex, LabelSet>>& in_edits,
      const std::vector<std::pair<Vertex, LabelSet>>& out_edits) const {
    FrozenIndex edited;
    edited.in_ = in_.WithEditedRuns(in_edits);
    edited.out_ = out_.WithEditedRuns(out_edits);
    edited.in_vertex_rank_ = in_vertex_rank_;
    return edited;
  }

  /// Logical equality: the couple-rank maps compare by content.
  friend bool operator==(const FrozenIndex& a, const FrozenIndex& b) {
    return a.in_ == b.in_ && a.out_ == b.out_ &&
           *a.in_vertex_rank_ == *b.in_vertex_rank_;
  }

 private:
  friend class CompressedIndex;

  LabelArena in_;   // L_in(v_i), indexed by original vertex
  LabelArena out_;  // L_out(v_o), indexed by original vertex
  // (*in_vertex_rank_)[v] = rank of v_i, for QueryThroughEdge's couple-hub
  // correction; shared with every patched clone.
  flat::CoupleRanks in_vertex_rank_ = flat::NoCoupleRanks();
};

}  // namespace csc

#endif  // CSC_CSC_FROZEN_INDEX_H_
