#ifndef CSC_DYNAMIC_DECREMENTAL_H_
#define CSC_DYNAMIC_DECREMENTAL_H_

#include "csc/csc_index.h"
#include "dynamic/update_stats.h"

namespace csc {

/// Decremental maintenance (§V.C): removes the original-graph edge (a, b)
/// and repairs the CSC index in the paper's three steps —
///
///  1. identify the affected sources A = {x : sd(x, a_o) + 1 = sd(x, b_i)}
///     and targets B = {y : sd(a_o, y) = 1 + sd(b_i, y)} (distances taken
///     before the deletion; every label entry that counted a path through
///     (a_o, b_i) has its hub in A or B and its owner on the other side),
///  2. delete the superset of out-of-date entries: entries whose stored
///     distance equals the through-edge distance sd(h, a_o) + 1 + sd(b_i, w)
///     ("a large number of unaffected label entries are removed and
///     recovered later"), and
///  3. recover by re-running construction-style pruned counting BFS from
///     every affected V_in hub in descending rank order (the work list is
///     the affected sources, forward, and targets, backward). Each pass is
///     the builder's couple-skipping traversal (labeling/pruned_bfs.h): only
///     one side of each couple pair is dequeued, and the couple is labeled
///     eagerly at +1. The pruning join counts only strictly higher-ranked
///     hubs, and labels are upserted. The join is the builder's root-row
///     join: the pass loads the hub's root-side entries of higher rank
///     into a dense per-rank row once, and each test scans only L(w)'s
///     higher-ranked prefix. The row stays valid for the whole pass, since
///     the pass writes only the other side and only entries of h's rank.
///     One binary search for h in L(w) yields both that prefix's end and
///     the surviving entry. Two rules use the entries that survived step
///     2. Say hub h's pass dequeues w at BFS distance d and L(w) still
///     holds (h, d', c') with d' = d.
///       - Skip the pruning join. In a minimal index d' = sd(h, w) before
///         the deletion. The deletion can only lengthen paths, and the
///         rank-restricted BFS distance is at least the true one, so
///         sd(h, w) = d afterwards too. Every surviving or recovered entry
///         is a real path length, so no join over higher-ranked hubs can
///         beat d, and the join could not have pruned.
///       - If also c' equals the BFS count (as a saturated 24-bit entry),
///         skip the writes to w and its couple. w_o's only in-edge (w_i's
///         only out-edge, backward) is the couple edge, so the couple's
///         entry is w's shifted by one: step 2 deletes or keeps both, and
///         its count changed only if w's did.
///     Counts propagate as the BFS's own 64-bit path multiplicities; none is
///     read back from a saturating entry. The result is byte-identical to a
///     fresh build of the post-deletion graph under the same ordering.
///
/// The index must be minimal (freshly built, or maintained with
/// MaintenanceStrategy::kMinimality): with redundant entries present, stored
/// distances no longer identify out-of-date labels (and survivors no longer
/// carry shortest distances), which is why the paper's dynamic workloads
/// delete from a fresh index. CscIndex::Rebuild restores minimality; the
/// dynamic `csc` and `cached` backends call it before a delete that follows
/// redundancy-mode inserts.
///
/// Returns false (index untouched) if the edge is absent.
bool RemoveEdge(CscIndex& index, Vertex a, Vertex b,
                UpdateStats* stats = nullptr);

}  // namespace csc

#endif  // CSC_DYNAMIC_DECREMENTAL_H_
