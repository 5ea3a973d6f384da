#include "dynamic/incremental.h"

#include <algorithm>
#include <vector>

#include "dynamic/clean.h"
#include "graph/bipartite.h"
#include "util/timer.h"

namespace csc {

namespace {

/// Runs the resumed counting BFS of Algorithm 6 for one affected hub and
/// one direction, applying UPDATE_LABEL at every reached vertex.
class IncrementalPass {
 public:
  /// BFS scratch, all vertices unreached between passes. Sizing and
  /// clearing it for every insert costs about as much as a typical small
  /// insert's repair, so InsertEdge keeps one per thread.
  struct Scratch {
    std::vector<Dist> dist;
    std::vector<Count> count;
    std::vector<Vertex> touched;
    std::vector<Vertex> queue;

    /// Grows the scratch to cover `num_vertices`; new slots start unreached.
    void Fit(size_t num_vertices) {
      if (dist.size() >= num_vertices) return;
      dist.resize(num_vertices, kInfDist);
      count.resize(num_vertices, 0);
    }
  };

  IncrementalPass(CscIndex& index, MaintenanceStrategy strategy,
                  UpdateStats& stats, Scratch& scratch)
      : index_(index),
        strategy_(strategy),
        stats_(stats),
        dist_(scratch.dist),
        count_(scratch.count),
        touched_(scratch.touched),
        queue_(scratch.queue) {
    scratch.Fit(index.bipartite_graph().num_vertices());
  }

  /// FORWARD_PASS(vk, start, seed_dist, seed_count): repairs in-labels with
  /// hub `vk` downstream of `start`. `forward=false` is BACKWARD_PASS,
  /// repairing out-labels upstream of `start`.
  void Run(Rank hub_rank, Vertex start, Dist seed_dist, Count seed_count,
           bool forward) {
    const DiGraph& graph = index_.bipartite_graph();
    const auto& order = index_.bipartite_order();
    Vertex hub_vertex = order.rank_to_vertex[hub_rank];
    HubLabeling& labeling = index_.mutable_labeling();

    queue_.clear();
    dist_[start] = seed_dist;
    count_[start] = seed_count;
    touched_.push_back(start);
    queue_.push_back(start);
    size_t head = 0;
    while (head < queue_.size()) {
      Vertex w = queue_[head++];
      ++stats_.vertices_visited;
      // Distance under the (partially updated) current index.
      JoinResult via = forward ? index_.BipartiteQuery(hub_vertex, w)
                               : index_.BipartiteQuery(w, hub_vertex);
      if (dist_[w] > via.dist) continue;  // Case 1: not through the new edge
      UpdateLabel(labeling, hub_rank, w, dist_[w], count_[w], forward);
      const auto& next =
          forward ? graph.OutNeighbors(w) : graph.InNeighbors(w);
      for (Vertex u : next) {
        if (dist_[u] > dist_[w] + 1) {
          if (hub_rank < order.vertex_to_rank[u]) {  // rank pruning
            if (dist_[u] == kInfDist) touched_.push_back(u);
            dist_[u] = dist_[w] + 1;
            count_[u] = count_[w];
            queue_.push_back(u);
          }
        } else if (dist_[u] == dist_[w] + 1) {
          count_[u] += count_[w];  // Case 2: one more same-length path
        }
      }
    }
    for (Vertex v : touched_) {
      dist_[v] = kInfDist;
      count_[v] = 0;
    }
    touched_.clear();
  }

 private:
  // UPDATE_LABEL (Algorithm 7) on L_in(w) (forward) or L_out(w) (backward).
  void UpdateLabel(HubLabeling& labeling, Rank hub_rank, Vertex w, Dist d,
                   Count c, bool forward) {
    LabelSet& labels = forward ? labeling.in[w] : labeling.out[w];
    const LabelEntry* existing = labels.Find(hub_rank);
    bool needs_clean = false;
    if (existing != nullptr) {
      if (d < existing->dist()) {
        labels.InsertOrReplace(LabelEntry(hub_rank, d, c));
        ++stats_.entries_updated;
        MarkDirty(w, forward);
        needs_clean = true;
      } else if (d == existing->dist()) {
        // New same-length shortest paths through the inserted edge: the BFS
        // counts only paths through it, so accumulation cannot double-count.
        labels.InsertOrReplace(
            LabelEntry(hub_rank, d, existing->count() + c));
        ++stats_.entries_updated;
        MarkDirty(w, forward);
      }
      // d > existing->dist(): the label already beats the new paths; the
      // caller pruned such vertices, but stay defensive.
    } else {
      labels.InsertOrReplace(LabelEntry(hub_rank, d, c));
      ++stats_.entries_added;
      MarkDirty(w, forward);
      if (index_.has_inverted_index()) {
        (forward ? index_.mutable_inv_in() : index_.mutable_inv_out())
            .Add(hub_rank, w);
      }
      needs_clean = true;
    }
    if (needs_clean && strategy_ == MaintenanceStrategy::kMinimality) {
      if (forward) {
        CleanAfterInLabelChange(index_, w, stats_);
      } else {
        CleanAfterOutLabelChange(index_, w, stats_);
      }
    }
  }

  // Label-mutation hook for serving-tier patch extraction: forward passes
  // touch L_in(w), backward passes L_out(w).
  void MarkDirty(Vertex w, bool forward) {
    if (stats_.dirty == nullptr) return;
    if (forward) {
      stats_.dirty->MarkIn(w);
    } else {
      stats_.dirty->MarkOut(w);
    }
  }

  CscIndex& index_;
  const MaintenanceStrategy strategy_;
  UpdateStats& stats_;
  std::vector<Dist>& dist_;
  std::vector<Count>& count_;
  std::vector<Vertex>& touched_;
  std::vector<Vertex>& queue_;
};

}  // namespace

bool InsertEdge(CscIndex& index, Vertex a, Vertex b,
                MaintenanceStrategy strategy, UpdateStats* stats) {
  UpdateStats local;
  local.strategy = strategy;
  local.dirty = stats != nullptr ? stats->dirty : nullptr;
  Timer timer;
  if (a == b || a >= index.num_original_vertices() ||
      b >= index.num_original_vertices()) {
    return false;
  }
  Vertex ao = OutVertex(a);
  Vertex bi = InVertex(b);
  if (!index.mutable_bipartite_graph().AddEdge(ao, bi)) return false;
  if (strategy == MaintenanceStrategy::kMinimality) {
    index.EnsureInvertedIndexes();
  }

  // Definition V.1: affected hubs are the hubs of L_in(a_o) and L_out(b_i).
  // Gather (rank, seed distance, seed count, direction) work items; the seed
  // is the hub's own label entry (Theorem V.1: use the label's count, which
  // counts only hub-highest paths, not the full SPCnt).
  struct WorkItem {
    Rank hub;
    Dist dist;
    Count count;
    bool forward;
  };
  std::vector<WorkItem> work;
  const auto& order = index.bipartite_order();
  Rank rank_ao = order.vertex_to_rank[ao];
  Rank rank_bi = order.vertex_to_rank[bi];
  // Only V_in vertices act as hubs, mirroring couple-vertex skipping: a_o's
  // own self-entry in L_in(a_o) is excluded because V_out-hub labels are
  // never read by a cycle query — on any v_o -> v_i path the couple v_i
  // outranks v_o, so the highest-ranked vertex is always from V_in.
  for (const LabelEntry& e : index.labeling().in[ao].entries()) {
    if (e.hub() < rank_bi && IsInVertex(order.rank_to_vertex[e.hub()])) {
      work.push_back({e.hub(), e.dist(), e.count(), /*forward=*/true});
    }
  }
  for (const LabelEntry& e : index.labeling().out[bi].entries()) {
    if (e.hub() < rank_ao && IsInVertex(order.rank_to_vertex[e.hub()])) {
      work.push_back({e.hub(), e.dist(), e.count(), /*forward=*/false});
    }
  }
  // Descending rank order = ascending rank value; ties (a hub in both sets)
  // run the forward pass first, matching Algorithm 5's loop body order.
  std::stable_sort(work.begin(), work.end(),
                   [](const WorkItem& x, const WorkItem& y) {
                     if (x.hub != y.hub) return x.hub < y.hub;
                     return x.forward && !y.forward;
                   });

  thread_local IncrementalPass::Scratch scratch;
  IncrementalPass pass(index, strategy, local, scratch);
  for (const WorkItem& item : work) {
    ++local.hubs_processed;
    // Forward: new paths hub -> a_o -> b_i -> ...; resume at b_i with
    // distance d(hub, a_o) + 1. Backward: mirror from a_o.
    pass.Run(item.hub, item.forward ? bi : ao, item.dist + 1, item.count,
             item.forward);
  }
  local.seconds = timer.ElapsedSeconds();
  if (stats != nullptr) {
    stats->Accumulate(local);
    stats->strategy = strategy;
  }
  return true;
}

}  // namespace csc
