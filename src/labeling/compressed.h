#ifndef CSC_LABELING_COMPRESSED_H_
#define CSC_LABELING_COMPRESSED_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/label_arena.h"
#include "csc/compact_index.h"
#include "csc/flat_csc_query.h"
#include "util/common.h"
#include "util/lifetime_annotations.h"

namespace csc {

/// A byte-compressed, query-only CSC index.
///
/// The paper accounts index size at a fixed 8 bytes per label entry (§VI.A).
/// Real entries are highly compressible: within one vertex's label set, hub
/// ranks are ascending (delta-encode them), distances are small on
/// small-world graphs, and counts are overwhelmingly 1. CompressedIndex is
/// two varint-encoded LabelArenas — each entry stored as three LEB128
/// varints (rank delta, distance, count), typically 3-4 bytes per entry
/// instead of 8 — at the cost of decoding during the query merge.
///
/// Queries return exactly the same answers as every other index form (the
/// test suite asserts equality); bench_serving measures the size/latency
/// trade-off against CscIndex and FrozenIndex.
class CompressedIndex {
 public:
  CompressedIndex() = default;

  /// Compresses a compact (§IV.E) index.
  static CompressedIndex FromCompact(const CompactIndex& compact);

  /// SCCnt(v), by merge-joining the two varint streams of v.
  CycleCount Query(Vertex v) const;

  /// Shortest cycles through the edge (u, v) — identical answers to
  /// CscIndex::QueryThroughEdge (see there for semantics, including the
  /// couple-skipping coverage correction).
  CycleCount QueryThroughEdge(Vertex u, Vertex v) const;

  Vertex num_original_vertices() const { return in_.num_vertices(); }

  uint64_t TotalEntries() const {
    return in_.total_entries() + out_.total_entries();
  }

  /// Payload bytes (the two byte arrays; offsets excluded, mirroring how
  /// FrozenIndex::SizeBytes counts entries only).
  uint64_t SizeBytes() const { return in_.SizeBytes() + out_.SizeBytes(); }
  /// Full resident footprint including offsets and the couple-rank map.
  uint64_t MemoryBytes() const {
    return in_.MemoryBytes() + out_.MemoryBytes() +
           in_vertex_rank_->size() * sizeof(Rank);
  }

  /// Mean encoded bytes per label entry (8.0 for the uncompressed formats).
  double BytesPerEntry() const {
    uint64_t entries = TotalEntries();
    return entries == 0 ? 0.0
                        : static_cast<double>(SizeBytes()) /
                              static_cast<double>(entries);
  }

  /// The underlying varint arenas.
  const LabelArena& in_arena() const CSC_LIFETIME_BOUND { return in_; }
  const LabelArena& out_arena() const CSC_LIFETIME_BOUND { return out_; }

  /// Binary serialization (magic + arenas + couple-rank map; fixed-width
  /// fields native-endian, matching the CompactIndex wire format).
  std::string Serialize() const;
  static std::optional<CompressedIndex> Deserialize(const std::string& bytes);

  /// As Deserialize, but zero-copy over an externally owned buffer (a
  /// verified file mapping): the varint streams stay in `[data, data+size)`,
  /// kept alive by `keep_alive`; only offsets and the couple-rank map are
  /// materialized. `data` is deliberately not CSC_LIFETIME_BOUND — the
  /// keep-alive handle makes the result self-keeping.
  static std::optional<CompressedIndex> FromView(
      const uint8_t* data, size_t size,
      std::shared_ptr<const void> keep_alive);

  /// Drops the runs of vertices not selected by `keep` from both arenas
  /// (queries for them then report no cycle), keeping the vertex space —
  /// the shard-local storage form of the sharded serving tier.
  void SliceTo(const std::function<bool(Vertex)>& keep);

  /// Returns a copy with the named in/out runs replaced (incremental label
  /// repair; see core/label_patch.h). Only the arena pages holding an
  /// edited run are re-encoded; every other page and the couple-rank map are
  /// shared with this index. The per-run varint delta reset makes the edited
  /// payload byte-identical to a from-scratch encoding; only meaningful
  /// under the ordering the index was built with. Edits must satisfy
  /// LabelArena::EditsWellFormed.
  CompressedIndex WithEditedRuns(
      const std::vector<std::pair<Vertex, LabelSet>>& in_edits,
      const std::vector<std::pair<Vertex, LabelSet>>& out_edits) const {
    CompressedIndex edited;
    edited.in_ = in_.WithEditedRuns(in_edits);
    edited.out_ = out_.WithEditedRuns(out_edits);
    edited.in_vertex_rank_ = in_vertex_rank_;
    return edited;
  }

  /// Logical equality: the couple-rank maps compare by content.
  friend bool operator==(const CompressedIndex& a, const CompressedIndex& b) {
    return a.in_ == b.in_ && a.out_ == b.out_ &&
           *a.in_vertex_rank_ == *b.in_vertex_rank_;
  }

 private:
  LabelArena in_;   // L_in(v_i) varint runs, indexed by original vertex
  LabelArena out_;  // L_out(v_o) varint runs, indexed by original vertex
  // (*in_vertex_rank_)[v] = rank of v_i, for QueryThroughEdge's couple-hub
  // correction; shared with every patched clone.
  flat::CoupleRanks in_vertex_rank_ = flat::NoCoupleRanks();
};

}  // namespace csc

#endif  // CSC_LABELING_COMPRESSED_H_
