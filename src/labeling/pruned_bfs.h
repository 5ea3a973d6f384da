#ifndef CSC_LABELING_PRUNED_BFS_H_
#define CSC_LABELING_PRUNED_BFS_H_

#include <cstddef>
#include <span>
#include <vector>

#include "graph/bipartite.h"
#include "graph/digraph.h"
#include "graph/ordering.h"
#include "labeling/hub_labeling.h"
#include "labeling/label_set.h"
#include "util/common.h"

namespace csc {

/// Which labeling a pruned counting BFS builds, fixed at compile time.
enum class BfsMode {
  /// HP-SPC (Zhang & Yu, SIGMOD'20) over any graph: every vertex roots
  /// passes, and a dequeued vertex labels only itself.
  kPlain,
  /// Algorithm 3 over G_b with couple-vertex skipping (§IV.C): only V_in
  /// vertices root passes, and a reached vertex is labeled with its couple.
  kCoupleSkipping,
};

/// Which labels a dequeued vertex w of a pass receives.
enum class BfsStep {
  /// Plain mode: w alone, at distance d; its own neighbours expand at
  /// d + 1.
  kSelf,
  /// Couple mode, the backward root: only (hub, 0, 1) in L_out(hub), then
  /// its predecessors expand directly — modification (3) of §IV.C. Never
  /// distance-checked, and always expanded.
  kRoot,
  /// Couple mode, INSERT_LABEL (Algorithm 4): w at distance d and its
  /// couple at d + 1. The couple's distance and count are exactly w's
  /// shifted, because w_o's only in-edge (forward) and w_i's only out-edge
  /// (backward) is the couple edge.
  kPair,
  /// Couple mode: a backward pass reached the hub's own couple v_o, so a
  /// cycle through v closed. w alone is labeled, and the expansion stops
  /// there, since any continuation walks through the hub — modification
  /// (4) of §IV.C.
  kCycle,
};

/// The step a pass of `hub` takes at dequeued vertex `w`.
template <BfsMode kMode>
BfsStep StepOf(Vertex hub, bool forward, Vertex w) {
  if constexpr (kMode == BfsMode::kPlain) {
    return BfsStep::kSelf;
  } else {
    if (forward) return BfsStep::kPair;
    if (w == hub) return BfsStep::kRoot;
    return w == CoupleOf(hub) ? BfsStep::kCycle : BfsStep::kPair;
  }
}

/// The pruned counting BFS of HP-SPC and Algorithm 3: the one traversal
/// behind construction (BuildPlainHubLabeling, BuildCoupleSkipHubLabeling;
/// sequential and rank-batched) and §V.C recovery (dynamic/decremental).
///
/// A forward pass of hub v creates in-labels of the vertices it reaches, a
/// backward pass (over reverse edges) out-labels. Rank pruning (hub ≺ next)
/// stops the expansion at vertices ranked above the hub.
///
/// In couple mode only V_in vertices root passes. A forward pass of hub v_i
/// dequeues only V_in vertices and hops couple to couple (w_i -> w_o ->
/// next_i); a backward pass, after the root, dequeues only V_out vertices
/// (w_o <- w_i <- prev_o). Either way the couple of a dequeued vertex
/// trails at +1 and is labeled eagerly, never dequeued. Rank pruning
/// applies to enqueued vertices only: a couple's bipartite rank is adjacent
/// to its partner's (graph/bipartite.h), so it passes whenever the dequeued
/// vertex did.
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
/// Holds the O(|V|) scratch — BFS state and the row — reset after every
/// pass (the row in O(|root label|)), so one instance serves any number of
/// passes over graphs of that size.
template <BfsMode kMode>
class PrunedCountingBfs {
 public:
  explicit PrunedCountingBfs(size_t num_vertices = 0)
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
      if constexpr (kMode == BfsMode::kPlain) {
        if (!visit(w, d, c, BfsStep::kSelf)) continue;
        expand(forward ? graph.OutNeighbors(w) : graph.InNeighbors(w), d + 1,
               c);
      } else {
        const BfsStep step = StepOf<kMode>(hub, forward, w);
        if (step == BfsStep::kRoot) {
          visit(w, d, c, step);
          expand(graph.InNeighbors(w), 1, 1);  // predecessors are V_out
          continue;
        }
        if (!visit(w, d, c, step) || step == BfsStep::kCycle) continue;
        const Vertex couple = CoupleOf(w);
        expand(forward ? graph.OutNeighbors(couple)
                       : graph.InNeighbors(couple),
               d + 2, c);
      }
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

/// Options for the pruned-BFS labeling builders.
struct PrunedBfsOptions {
  /// The distance-pruning query (Algorithm 3 line 13). Disabling it (the
  /// ablation bench does) keeps queries correct but stops BFSs only on rank
  /// pruning, so labels get larger and construction slower.
  bool distance_pruning = true;
  /// Construction workers. 0 and 1 run the sequential per-hub builder (the
  /// oracle path; one staging worker would only replay it hub by hub,
  /// slower); >= 2 runs the rank-batched parallel builder of
  /// labeling/parallel_build.h, whose output is bit-identical to the
  /// sequential builder at any thread count. The value given here is what
  /// LabelBuildStats::build_threads reports.
  unsigned num_threads = 0;
};

/// Builds a plain 2-hop counting labeling over `graph` (no bipartite
/// structure assumed): for each hub in rank order, one forward pruned
/// counting BFS appends in-labels and one backward BFS appends out-labels.
/// This is HP-SPC's construction; CSC's ablation mode runs it over G_b.
///
/// `labeling` must be empty and pre-sized to graph.num_vertices().
void BuildPlainHubLabeling(const DiGraph& graph, const VertexOrdering& order,
                           HubLabeling& labeling, LabelBuildStats& stats,
                           const PrunedBfsOptions& options = {});

/// Algorithm 3 over the bipartite conversion `bipartite` under its lifted
/// ordering: the same passes in couple-skipping mode, where a V_out rank
/// only records its own trivial labels (lines 6-8).
///
/// `labeling` must be empty and pre-sized to bipartite.num_vertices().
void BuildCoupleSkipHubLabeling(const DiGraph& bipartite,
                                const VertexOrdering& order,
                                HubLabeling& labeling, LabelBuildStats& stats,
                                const PrunedBfsOptions& options = {});

}  // namespace csc

#endif  // CSC_LABELING_PRUNED_BFS_H_
