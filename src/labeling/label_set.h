#ifndef CSC_LABELING_LABEL_SET_H_
#define CSC_LABELING_LABEL_SET_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/ordering.h"
#include "util/common.h"
#include "util/label_entry.h"

namespace csc {

/// The hub labels of one vertex in one direction (L_in or L_out).
///
/// Entries identify hubs by *rank* (not vertex id): ranks are what all
/// pruning comparisons use, and because construction emits hubs from rank 0
/// downward, the vector is always sorted by rank — so intersecting two label
/// sets is a linear merge with no lookups. Use VertexOrdering::rank_to_vertex
/// to translate back to vertex ids.
class LabelSet {
 public:
  const std::vector<LabelEntry>& entries() const { return entries_; }
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  void clear() { entries_.clear(); }

  /// Appends an entry whose hub rank is strictly larger than every stored
  /// rank (the static-construction fast path).
  void Append(LabelEntry entry);

  /// Returns the entry with hub rank `hub_rank`, or nullptr.
  const LabelEntry* Find(Rank hub_rank) const;

  /// Position of the first entry whose hub rank is >= `hub_rank` (size()
  /// if none): the entries before it are exactly those of higher-ranked
  /// hubs.
  size_t LowerBound(Rank hub_rank) const;

  /// Dynamic-maintenance upsert (Algorithm 7 semantics are implemented by the
  /// caller; this just inserts at the sorted position or overwrites).
  void InsertOrReplace(LabelEntry entry);

  /// Removes the entry with hub rank `hub_rank`. False if absent.
  bool Remove(Rank hub_rank);

  /// Bytes of packed label data (what Figure 9(b) accounts).
  uint64_t SizeBytes() const { return entries_.size() * sizeof(LabelEntry); }

  friend bool operator==(const LabelSet&, const LabelSet&) = default;

 private:
  std::vector<LabelEntry> entries_;
};

/// Result of a 2-hop join: the shortest distance realized through any common
/// hub and the total multiplicity at that distance (Equations (1)–(2)).
/// `dist == kInfDist` means no common hub, i.e., no path.
struct JoinResult {
  Dist dist = kInfDist;
  Count count = 0;

  friend bool operator==(const JoinResult&, const JoinResult&) = default;
};

/// Linear-merge intersection of `out_labels(s)` with `in_labels(t)`:
/// min over common hubs of d(s,h) + d(h,t), summing count products over all
/// hubs realizing the minimum.
JoinResult JoinLabels(const LabelSet& out_labels, const LabelSet& in_labels);

/// The distance half of JoinLabels for the pruning query of a pruned BFS
/// (Algorithm 3 line 13), in the pruned-landmark-labeling form: the root's
/// label is loaded once per pass into a dense per-rank row, and each test
/// then scans only the visited vertex's label — one lookup per entry, no
/// merge.
///
/// Load a label set with Load, query it any number of times with Join, and
/// reset it with Unload on the same, unchanged label set (O(|label|) each,
/// so the O(num_ranks) row is allocated once and reused across passes).
class RootRow {
 public:
  explicit RootRow(size_t num_ranks = 0) : dist_(num_ranks, kInfDist) {}

  /// Loads the distances of `root`'s entries with hub rank < `rank_bound`.
  void Load(const LabelSet& root, Rank rank_bound) {
    for (const LabelEntry& e : root.entries()) {
      if (e.hub() >= rank_bound) break;
      dist_[e.hub()] = e.dist();
    }
  }

  /// Clears what Load(root, rank_bound) set.
  void Unload(const LabelSet& root, Rank rank_bound) {
    for (const LabelEntry& e : root.entries()) {
      if (e.hub() >= rank_bound) break;
      dist_[e.hub()] = kInfDist;
    }
  }

  /// min over `labels`' hubs h held by the row of row[h] + dist, or
  /// kInfDist if none is (hubs at or past the loaded rank bound are never
  /// held). Returns as soon as the minimum drops below `beat` (the BFS
  /// distance a pruning test compares against), so a result >= `beat` is
  /// the exact minimum; `beat` = 0 always yields it.
  Dist Join(std::span<const LabelEntry> labels, Dist beat) const {
    // 64-bit sums: an absent hub's kInfDist plus a distance never wraps
    // below a real one.
    uint64_t best = kInfDist;
    for (const LabelEntry& e : labels) {
      best = std::min<uint64_t>(best, uint64_t{dist_[e.hub()]} + e.dist());
      if (best < beat) break;
    }
    return static_cast<Dist>(best);
  }

 private:
  std::vector<Dist> dist_;
};

}  // namespace csc

#endif  // CSC_LABELING_LABEL_SET_H_
