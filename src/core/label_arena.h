#ifndef CSC_CORE_LABEL_ARENA_H_
#define CSC_CORE_LABEL_ARENA_H_

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "labeling/label_set.h"
#include "util/common.h"
#include "util/label_entry.h"
#include "util/lifetime_annotations.h"

namespace csc {

/// How a LabelArena stores its entry payload.
enum class ArenaEncoding : uint8_t {
  /// One packed 64-bit LabelEntry per entry in a contiguous array — the
  /// cache-linear serving layout (what FrozenIndex used to hand-roll).
  kPacked = 0,
  /// LEB128 varint triples (hub-rank delta, distance, count) — typically
  /// 3-4 bytes per entry instead of 8, decoded during the query merge (what
  /// CompressedIndex used to hand-roll).
  kVarint = 1,
};

/// A read-only label store: the label sets of all vertices laid out as
/// encoded runs, one per vertex. This is the shared storage layer under
/// every flat serving-tier index form; building one is a single pass over
/// per-vertex LabelSets, and querying is a merge of two runs.
///
/// Entries within a run are sorted by hub rank (inherited from LabelSet's
/// invariant), which the merge join, the galloping skip path, and the varint
/// delta encoding all rely on.
///
/// Runs are grouped into fixed pages of kPageRuns consecutive vertices.
/// The page table records, per page, its runs' offsets, a pointer to their
/// payload, and a shared handle keeping that payload alive. Payload bytes
/// never change once written. Copying an arena copies the page table (about
/// 4.6 bytes per vertex) and shares every payload; WithEditedRuns
/// re-encodes only the pages its edits touch — so a patch costs its touched
/// pages plus that table copy, not a copy of the whole payload. A run
/// lookup reads one line of offsets and one page pointer, then the run;
/// within a run the payload stays contiguous, so the join kernels are
/// unchanged.
///
/// A page's payload is either a buffer of its own (Build, Parse, Slice,
/// WithEditedRuns) or a range of an externally owned buffer — e.g. a
/// read-only file mapping (ParseView). View pages keep the mapping alive
/// through a shared handle, so copies, patched copies that still share an
/// untouched view page, and the engines serving them stay valid for as long
/// as any of them exists. The external buffer has no alignment guarantee,
/// so packed entries are always decoded through unaligned 8-byte loads
/// (LoadPackedEntry); compilers lower these to single mov/ldur instructions.
class LabelArena {
 public:
  /// Vertex runs per page: the unit of sharing between an arena and its
  /// patched copies.
  static constexpr Vertex kPageRuns = 64;

  LabelArena() = default;

  /// Flattens `labels_of(v)` for v in [0, num_vertices) into one arena.
  static LabelArena Build(Vertex num_vertices,
                          const std::function<const LabelSet&(Vertex)>& labels_of,
                          ArenaEncoding encoding);

  /// Convenience: flattens a materialized vector of label sets.
  static LabelArena FromLabelSets(const std::vector<LabelSet>& sets,
                                  ArenaEncoding encoding);

  Vertex num_vertices() const { return num_vertices_; }
  uint64_t total_entries() const { return total_entries_; }
  uint64_t RunSize(Vertex v) const;  // entries in v's run
  ArenaEncoding encoding() const { return encoding_; }
  bool packed() const { return encoding_ == ArenaEncoding::kPacked; }
  /// True when some page's payload lives in an externally owned buffer
  /// (ParseView). A patched copy of a view keeps viewing the pages its
  /// edits did not touch.
  bool is_view() const;

  /// Start of run `v`'s payload: packed entry words (8 bytes each; decode
  /// through LoadPackedEntry or RunCursor) or the run's varint triples. May
  /// be unaligned when viewing a mapping.
  const uint8_t* RunData(Vertex v) const CSC_LIFETIME_BOUND {
    return Run(v).data;
  }

  /// Decodes the packed entry word at `p` (unaligned-safe).
  static LabelEntry LoadPackedEntry(const uint8_t* p) {
    uint64_t bits;
    std::memcpy(&bits, p, sizeof(bits));
    return LabelEntry::FromBits(bits);
  }

  /// A decoding cursor over one vertex's run, valid for either encoding.
  /// Usage: `for (Cursor c = arena.RunCursor(v); c.Next();) use(c.rank()...)`.
  /// A view type: it reads the arena's payload in place, so the arena (and,
  /// for a view-backed arena, its mapping) must outlive the cursor.
  class CSC_VIEW_TYPE Cursor {
   public:
    bool Next();
    Rank rank() const { return rank_; }
    Dist dist() const { return dist_; }
    Count count() const { return count_; }

   private:
    friend class LabelArena;
    // Packed state: byte pointers with 8-byte stride (the payload may live
    // in an unaligned mapping).
    const uint8_t* p_ = nullptr;
    const uint8_t* end_ = nullptr;
    // Varint state.
    const uint8_t* data_ = nullptr;
    size_t pos_ = 0;
    size_t byte_end_ = 0;
    bool first_ = true;
    bool packed_ = true;
    Rank rank_ = 0;
    Dist dist_ = 0;
    Count count_ = 0;
  };
  Cursor RunCursor(Vertex v) const CSC_LIFETIME_BOUND;

  /// Decodes run `v` back into a LabelSet (round-trip testing, expansion).
  LabelSet DecodeRun(Vertex v) const;

  /// 2-hop join: min over common hubs of dist(s->h) + dist(h->t) with the
  /// multiplicity at the minimum, between run `s` of `out_arena` and run `t`
  /// of `in_arena`. When both arenas are packed the kernel is picked by
  /// run-length skew: near-balanced runs take the plain linear merge
  /// (densely interleaved advances are 1-2 entries, skipping machinery only
  /// costs there), moderately skewed runs a merge whose advances skip four
  /// ranks at a time with SIMD compares, and badly skewed runs gallop
  /// (exponential probe + binary search) over the long side.
  static JoinResult Join(const LabelArena& out_arena, Vertex s,
                         const LabelArena& in_arena, Vertex t);

  /// The reference linear merge over the same runs — the pre-optimization
  /// kernel, kept as the conformance oracle and the microbenchmark baseline.
  static JoinResult JoinLinear(const LabelArena& out_arena, Vertex s,
                               const LabelArena& in_arena, Vertex t);

  /// Kernel-dispatch cutoffs, chosen by bench_micro_kernels' ArenaJoin skew
  /// matrix (see README "Storage layout"): the SIMD-skip merge starts
  /// beating the linear merge once the longer run is ~8x the shorter
  /// (1.4-1.8x there), and galloping overtakes it from ~32x (up to ~17x at
  /// 256x skew). Short runs never leave the linear merge — skip setup
  /// costs more than it saves under kGallopMinLongerRun entries.
  static constexpr size_t kSimdSkewRatio = 8;
  static constexpr size_t kGallopSkewRatio = 32;
  static constexpr size_t kGallopMinLongerRun = 64;

  /// Locates hub `hub_rank` in run `v`: (dist, count) or nullopt. Binary
  /// search for packed runs, linear decode for varint runs.
  std::optional<std::pair<Dist, Count>> FindHub(Vertex v, Rank hub_rank) const;

  /// Rebuilds the arena so only the runs selected by `keep` remain; every
  /// other run becomes empty while the vertex space stays [0, n). The
  /// result always owns its payload (slicing a view materializes just the
  /// kept runs). The sharded serving tier uses this to cut each shard's
  /// resident labels to its owned vertices.
  void Slice(const std::function<bool(Vertex)>& keep);

  /// True when `edits` is a valid WithEditedRuns argument for an arena of
  /// `num_vertices` runs: strictly ascending vertices, all below
  /// num_vertices.
  static bool EditsWellFormed(
      Vertex num_vertices,
      const std::vector<std::pair<Vertex, LabelSet>>& edits);

  /// Returns a copy of this arena with the runs named in `edits` replaced by
  /// the given label sets. Only the pages holding an edited run are
  /// re-encoded (into fresh owned buffers); every other page shares its
  /// payload with this arena, view pages included. Because the varint
  /// encoding restarts its rank delta at every run boundary, re-encoding one
  /// run never perturbs its neighbours — an edited arena is byte-identical
  /// to one built from scratch over the same label sets. `edits` must
  /// satisfy EditsWellFormed (checked; a malformed list aborts — callers
  /// holding untrusted edits validate first). This is the storage primitive
  /// under CycleIndex::ApplyLabelPatch (serving-tier incremental repair).
  LabelArena WithEditedRuns(
      const std::vector<std::pair<Vertex, LabelSet>>& edits) const;

  /// Payload bytes only — 8 per entry when packed, the actual byte-stream
  /// size when varint (the paper's Figure 9(b) accounting).
  uint64_t SizeBytes() const;
  /// Payload plus the page table (run offsets): the true resident footprint
  /// of this arena. Payload shared with other arenas, and view pages'
  /// file-backed payload (resident in page cache once touched), is still
  /// counted here; OwnedBytes excludes view payload.
  uint64_t MemoryBytes() const {
    return SizeBytes() + num_pages() * kPageOverheadBytes;
  }
  /// Heap bytes behind this arena (the page table always; payload unless
  /// the page views an external mapping).
  uint64_t OwnedBytes() const;
  double BytesPerEntry() const {
    return total_entries_ == 0 ? 0.0
                               : static_cast<double>(SizeBytes()) /
                                     static_cast<double>(total_entries_);
  }

  /// Binary serialization, appended to `out`:
  ///   u8 encoding | u32 num_vertices | per-vertex varint run length
  ///   (entries if packed, bytes if varint) | payload.
  /// Fixed-width fields are native-endian (little-endian on every platform
  /// this library targets; matches the CompactIndex wire format). Pages are
  /// an in-memory layout only: the payload is written as one flat stream.
  void AppendTo(std::string& out) const;
  /// Parses one serialized arena from `bytes` starting at `pos`, advancing
  /// `pos` past it; the result owns its payload. nullopt on malformed input
  /// (pos then unspecified).
  static std::optional<LabelArena> Parse(const std::string& bytes, size_t& pos);
  static std::optional<LabelArena> Parse(const uint8_t* data, size_t size,
                                         size_t& pos);

  /// As Parse, but the payload stays in `[data, data + size)` and every page
  /// only records a view into it — the zero-copy load path for read-only
  /// file mappings. Validation is identical to Parse (offsets bounds, and a
  /// full varint-stream walk for kVarint, which also counts entries), so a
  /// truncated or corrupt mapping is rejected the same way. `keep_alive` is
  /// retained by every page, so it lives as long as the arena, its copies,
  /// or any patched copy still sharing one of its pages; pass the mapping
  /// handle. `data` is deliberately not CSC_LIFETIME_BOUND: the keep-alive
  /// handle makes the result self-keeping (contract rule — see
  /// util/lifetime_annotations.h).
  static std::optional<LabelArena> ParseView(
      const uint8_t* data, size_t size, size_t& pos,
      std::shared_ptr<const void> keep_alive);

  /// Logical equality: encoding, run boundaries, and payload bytes — where
  /// the payload lives (owned or viewed, shared or not) does not matter.
  friend bool operator==(const LabelArena& a, const LabelArena& b);

 private:
  // What keeps page p's payload alive: the page's own buffer, or an
  // external mapping when `view` (ParseView). Null for a page of empty runs.
  struct PageStorage {
    std::shared_ptr<const void> owner;
    bool view = false;
  };
  static constexpr size_t kOffsetsPerPage = kPageRuns + 1;
  // Per-page bookkeeping beyond the payload: offsets, data pointer, storage.
  static constexpr uint64_t kPageOverheadBytes =
      kOffsetsPerPage * sizeof(uint32_t) + sizeof(const uint8_t*) +
      sizeof(PageStorage);

  // One run's payload: `length` entries (packed) or bytes (varint).
  struct CSC_VIEW_TYPE RunSpan {
    const uint8_t* data;
    uint64_t length;
  };
  RunSpan Run(Vertex v) const CSC_LIFETIME_BOUND {
    const size_t page = v / kPageRuns;
    const uint32_t* offsets =
        offsets_.data() + page * kOffsetsPerPage + v % kPageRuns;
    return {page_data_[page] + (uint64_t{offsets[0]} << unit_shift()),
            uint64_t{offsets[1] - offsets[0]}};
  }
  // log2 of the payload bytes per offset unit.
  int unit_shift() const { return packed() ? 3 : 0; }
  size_t num_pages() const { return page_data_.size(); }
  // Page p's payload size in bytes.
  uint64_t PageBytes(size_t page) const {
    return uint64_t{offsets_[page * kOffsetsPerPage + kPageRuns]}
           << unit_shift();
  }
  // Points page `page` at its `bytes` of payload at `payload`: copied into a
  // fresh buffer, or — for a view — left in place and kept alive by
  // `mapping`. The page's offsets must already be set.
  void SetPagePayload(size_t page, const uint8_t* payload, uint64_t bytes,
                      bool view, std::shared_ptr<const void> mapping);
  // Sizes the page table for `n` vertices: every run empty, no payload.
  void ResetPages(Vertex n);

  class PageWriter;
  static std::optional<LabelArena> ParseImpl(
      const uint8_t* data, size_t size, size_t& pos, bool view,
      std::shared_ptr<const void> keep_alive);

  ArenaEncoding encoding_ = ArenaEncoding::kPacked;
  Vertex num_vertices_ = 0;
  uint64_t total_entries_ = 0;
  // The page table, one slot per kPageRuns vertices, held column-wise so a
  // run lookup reads one line of offsets_ and a pointer from the small
  // page_data_ array. Page p holds runs [p * kPageRuns, (p + 1) *
  // kPageRuns): offsets_[p * kOffsetsPerPage + i] .. [+ i + 1] bound run i,
  // in entries (packed) or bytes (varint) from page_data_[p]; runs past the
  // last vertex are empty, and the page's last offset is its payload size.
  // Payload bytes never change once written, so copies of an arena share
  // them through page_storage_.
  std::vector<uint32_t> offsets_;
  std::vector<const uint8_t*> page_data_;
  std::vector<PageStorage> page_storage_;
};

}  // namespace csc

#endif  // CSC_CORE_LABEL_ARENA_H_
