#ifndef CSC_CSC_COUPLE_SKIP_BFS_H_
#define CSC_CSC_COUPLE_SKIP_BFS_H_

#include <cstddef>
#include <span>
#include <vector>

#include "graph/bipartite.h"
#include "graph/digraph.h"
#include "graph/ordering.h"
#include "labeling/label_set.h"
#include "util/common.h"

namespace csc {

/// Which labels a dequeued vertex w of a couple-skipping pass receives.
enum class CoupleStep {
  /// The backward root: only (hub, 0, 1) in L_out(hub), then its
  /// predecessors expand directly — modification (3) of §IV.C. Never
  /// distance-checked, and always expanded.
  kRoot,
  /// INSERT_LABEL (Algorithm 4): w at distance d and its couple at d + 1.
  /// The couple's distance and count are exactly w's shifted, because w_o's
  /// only in-edge (forward) and w_i's only out-edge (backward) is the couple
  /// edge.
  kPair,
  /// A backward pass reached the hub's own couple v_o: a cycle through v
  /// closed. w alone is labeled, and the expansion stops there, since any
  /// continuation walks through the hub — modification (4) of §IV.C.
  kCycle,
};

/// The step a pass of `hub` takes at dequeued vertex `w`.
inline CoupleStep CoupleStepOf(Vertex hub, bool forward, Vertex w) {
  if (forward) return CoupleStep::kPair;
  if (w == hub) return CoupleStep::kRoot;
  return w == CoupleOf(hub) ? CoupleStep::kCycle : CoupleStep::kPair;
}

/// The pruned counting BFS of Algorithm 3 with couple-vertex skipping: the
/// one traversal behind construction (CscIndex::Build, sequential and
/// rank-batched) and §V.C recovery (dynamic/decremental).
///
/// Only V_in vertices root passes. A forward pass of hub v_i dequeues only
/// V_in vertices and hops couple to couple (w_i -> w_o -> next_i); a
/// backward pass runs over G_b's reverse edges, and after the root dequeues
/// only V_out vertices (w_o <- w_i <- prev_o). Either way the couple of a
/// dequeued vertex trails at +1 and is labeled eagerly, never dequeued.
/// Rank pruning (hub ≺ next) applies to enqueued vertices only: a couple's
/// bipartite rank is adjacent to its partner's (graph/bipartite.h), so it
/// passes whenever the dequeued vertex did.
///
/// What happens at a dequeued vertex is the caller's: Run hands every
/// dequeue to `visit(w, dist, count, step)`, which returns false to prune w
/// (no labels, no expansion). The return value is ignored for kRoot.
/// Counts are the BFS's own 64-bit path multiplicities.
///
/// The distance-pruning join (Algorithm 3 line 13) is RowJoin. Run loads
/// the root side of the pass — L_out(hub) forward, L_in(hub) backward, the
/// entries of hubs ranked above the root — into a dense per-rank RootRow
/// before the first dequeue, so a pruning test at w scans only w's own
/// label (L_in(w) forward, L_out(w) backward) with one row lookup per
/// entry, instead of merging the two label sets. The row stays valid for
/// the whole pass: every caller writes only the other side's labels, and
/// only entries of the root's own rank, which the row excludes.
///
/// Holds the O(|V(G_b)|) scratch — BFS state and the row — reset after
/// every pass (the row in O(|root label|)), so one instance serves any
/// number of passes over graphs of that size.
class CoupleSkipBfs {
 public:
  explicit CoupleSkipBfs(size_t num_vertices = 0)
      : dist_(num_vertices, kInfDist),
        count_(num_vertices, 0),
        row_(num_vertices) {}

  /// Runs the pass of `hub` (forward or backward) with `root_labels` as
  /// its root side; see the class comment.
  template <typename Visit>
  void Run(const DiGraph& graph, const VertexOrdering& order, Vertex hub,
           bool forward, const LabelSet& root_labels, Visit&& visit) {
    const Rank hub_rank = order.vertex_to_rank[hub];
    row_.Load(root_labels, hub_rank);
    // Enqueues the unvisited, lower-ranked vertices of `next` at `dist`, and
    // adds `count` to those already reached at `dist`.
    auto expand = [&](const std::vector<Vertex>& next, Dist dist,
                      Count count) {
      for (Vertex u : next) {
        if (dist_[u] == kInfDist) {
          if (hub_rank < order.vertex_to_rank[u]) {  // rank pruning: hub ≺ u
            dist_[u] = dist;
            count_[u] = count;
            touched_.push_back(u);
            queue_.push_back(u);
          }
        } else if (dist_[u] == dist) {
          count_[u] += count;
        }
      }
    };
    queue_.clear();
    dist_[hub] = 0;
    count_[hub] = 1;
    touched_.push_back(hub);
    queue_.push_back(hub);
    for (size_t head = 0; head < queue_.size(); ++head) {
      const Vertex w = queue_[head];
      const Dist d = dist_[w];
      const Count c = count_[w];
      const CoupleStep step = CoupleStepOf(hub, forward, w);
      if (step == CoupleStep::kRoot) {
        visit(w, d, c, step);
        expand(graph.InNeighbors(w), 1, 1);  // predecessors are V_out
        continue;
      }
      if (!visit(w, d, c, step) || step == CoupleStep::kCycle) continue;
      const Vertex couple = CoupleOf(w);
      expand(forward ? graph.OutNeighbors(couple) : graph.InNeighbors(couple),
             d + 2, c);
    }
    for (Vertex v : touched_) {
      dist_[v] = kInfDist;
      count_[v] = 0;
    }
    touched_.clear();
    row_.Unload(root_labels, hub_rank);
  }

  /// The pruning join of the running pass at a dequeued vertex w whose
  /// label (the side the pass writes) holds `labels`: the shortest
  /// root-to-w distance (w-to-root backward) through hubs ranked above the
  /// root, exact unless it is below `beat` (RootRow::Join).
  Dist RowJoin(std::span<const LabelEntry> labels, Dist beat) const {
    return row_.Join(labels, beat);
  }

 private:
  std::vector<Dist> dist_;
  std::vector<Count> count_;
  std::vector<Vertex> touched_;
  std::vector<Vertex> queue_;
  RootRow row_;
};

}  // namespace csc

#endif  // CSC_CSC_COUPLE_SKIP_BFS_H_
