#ifndef CSC_CSC_CACHED_INDEX_H_
#define CSC_CSC_CACHED_INDEX_H_

#include <cstdint>
#include <vector>

#include "csc/csc_index.h"
#include "dynamic/update_stats.h"
#include "util/common.h"

namespace csc {

/// A memoizing front for a dynamic CSC index.
///
/// Online monitoring workloads (Application 1) re-query the same small set
/// of watched accounts between updates; the underlying 2-hop join is
/// microseconds, but a hot loop over a watchlist still pays it on every
/// tick. CachedCscIndex memoizes answers per vertex and invalidates the
/// whole cache on any edge update — an update can change the answer of
/// vertices arbitrarily far from the touched edge (any vertex whose
/// shortest cycle routes through it), so per-vertex invalidation would be
/// unsound; the generation bump makes staleness structurally impossible.
///
/// Owns the wrapped index. Single-threaded like the rest of the dynamic
/// tier (the read-only FrozenIndex is the concurrent-serving form).
class CachedCscIndex {
 public:
  explicit CachedCscIndex(CscIndex index);

  /// SCCnt(v), served from cache when the entry is current.
  CycleCount Query(Vertex v);

  /// Inserts edge (a, b), repairing the index (INCCNT) and invalidating the
  /// cache. Returns false (nothing changes) if the edge is invalid/present.
  bool InsertEdge(Vertex a, Vertex b,
                  MaintenanceStrategy strategy = MaintenanceStrategy::kRedundancy,
                  UpdateStats* stats = nullptr);

  /// Removes edge (a, b) (decremental maintenance) and invalidates.
  /// Returns false if the edge is absent.
  bool RemoveEdge(Vertex a, Vertex b, UpdateStats* stats = nullptr);

  /// Reconstructs the labels under the index's ordering (CscIndex::Rebuild),
  /// restoring minimality. Answers do not change, so the cache stays valid.
  void Rebuild() { index_.Rebuild(); }

  Vertex num_original_vertices() const {
    return index_.num_original_vertices();
  }
  const CscIndex& index() const { return index_; }

  uint64_t cache_hits() const { return hits_; }
  uint64_t cache_misses() const { return misses_; }
  /// Cached answers that are current (diagnostics; O(n)).
  uint64_t NumValidEntries() const;

 private:
  struct Slot {
    uint64_t generation = 0;  // valid iff == generation_ and generation_ > 0
    CycleCount answer;
  };

  CscIndex index_;
  std::vector<Slot> slots_;
  uint64_t generation_ = 1;  // bumped on every successful update
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace csc

#endif  // CSC_CSC_CACHED_INDEX_H_
