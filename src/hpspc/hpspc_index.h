#ifndef CSC_HPSPC_HPSPC_INDEX_H_
#define CSC_HPSPC_HPSPC_INDEX_H_

#include <cstdint>

#include "baseline/bfs_cycle.h"
#include "graph/digraph.h"
#include "graph/ordering.h"
#include "labeling/hub_labeling.h"

namespace csc {

/// The paper's baseline (i): HP-SPC, the hub labeling for shortest path
/// counting of Zhang & Yu (SIGMOD 2020), built directly over the original
/// graph, answering SPCnt(s, t); SCCnt(v) is reduced to SPCnt over v's
/// in- or out-neighborhood (§III.A, Equations (3)-(4)).
///
/// Label entries satisfy the Exact Shortest Path Covering constraint: entry
/// (h, d, c) in L_in(w) means d = sd(h, w) and c counts the shortest paths
/// h -> w on which h is the highest-ranked vertex (canonical iff c counts
/// all of SP(h, w)).
class HpSpcIndex {
 public:
  /// Builds the index with interleaved per-hub forward/backward pruned
  /// counting BFS, processing hubs from rank 0 downward. `num_threads`
  /// selects the construction path as PrunedBfsOptions::num_threads does:
  /// 0 and 1 run the sequential builder, >= 2 the rank-batched parallel
  /// builder (bit-identical output either way; see
  /// labeling/parallel_build.h). build_stats().build_threads reports the
  /// value given here.
  static HpSpcIndex Build(const DiGraph& graph, const VertexOrdering& order,
                          unsigned num_threads = 0);

  /// SPCnt(s, t): shortest distance and number of shortest paths, via
  /// Equations (1)-(2). dist == kInfDist when t is unreachable from s.
  JoinResult CountPaths(Vertex s, Vertex t) const {
    return labeling_.Query(s, t);
  }

  /// SCCnt(v) by the neighborhood reduction: iterates the smaller of
  /// nbr_out(v) / nbr_in(v) and aggregates SPCnt answers (§III.A).
  CycleCount CountCycles(Vertex v) const;

  const HubLabeling& labeling() const { return labeling_; }
  const LabelBuildStats& build_stats() const { return stats_; }
  const DiGraph& graph() const { return *graph_; }
  const VertexOrdering& order() const { return order_; }

 private:
  HpSpcIndex(const DiGraph& graph, VertexOrdering order)
      : graph_(&graph), order_(std::move(order)) {}

  const DiGraph* graph_;
  VertexOrdering order_;
  HubLabeling labeling_;
  LabelBuildStats stats_;
};

}  // namespace csc

#endif  // CSC_HPSPC_HPSPC_INDEX_H_
