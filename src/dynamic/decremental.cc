#include "dynamic/decremental.h"

#include <algorithm>
#include <vector>

#include "graph/bipartite.h"
#include "labeling/pruned_bfs.h"
#include "util/timer.h"

namespace csc {

namespace {

// Plain BFS distances from `source` over `graph` (forward or reverse).
std::vector<Dist> BfsDistances(const DiGraph& graph, Vertex source,
                               bool forward) {
  std::vector<Dist> dist(graph.num_vertices(), kInfDist);
  std::vector<Vertex> queue;
  dist[source] = 0;
  queue.push_back(source);
  size_t head = 0;
  while (head < queue.size()) {
    Vertex w = queue[head++];
    const auto& next = forward ? graph.OutNeighbors(w) : graph.InNeighbors(w);
    for (Vertex u : next) {
      if (dist[u] == kInfDist) {
        dist[u] = dist[w] + 1;
        queue.push_back(u);
      }
    }
  }
  return dist;
}

/// Construction-style pruned counting BFS from one affected hub over the
/// post-deletion graph (step 3): the builder's couple-skipping traversal
/// (labeling/pruned_bfs.h) with two changes. The pruning join counts only
/// hubs of strictly higher rank (the hub's own surviving entries must not
/// vote), and labels are upserted instead of appended, so entries that
/// survived step 2 are rewritten only when their value changed. A dequeued
/// vertex whose surviving entry for the hub already has the BFS distance
/// skips the join; if the entry's count matches too, it skips the writes to
/// w and its couple (decremental.h has the argument).
///
/// One binary search on L(w) serves both: its position is the survivor
/// lookup, and the entries before it — exactly the higher-ranked hubs — are
/// what the root-row join scans.
class RecoveryPass {
 public:
  explicit RecoveryPass(CscIndex& index, UpdateStats& stats)
      : index_(index),
        stats_(stats),
        bfs_(index.bipartite_graph().num_vertices()) {}

  void Run(Rank hub_rank, bool forward) {
    const auto& order = index_.bipartite_order();
    const Vertex hub = order.rank_to_vertex[hub_rank];
    HubLabeling& labeling = index_.mutable_labeling();
    std::vector<LabelSet>& side = forward ? labeling.in : labeling.out;
    const LabelSet& root = forward ? labeling.out[hub] : labeling.in[hub];
    bfs_.Run(
        index_.bipartite_graph(), order, hub, forward, root,
        [&](Vertex w, Dist d, Count c, BfsStep step) {
          ++stats_.vertices_visited;
          const LabelEntry entry(hub_rank, d, c);
          const std::vector<LabelEntry>& labels = side[w].entries();
          const size_t pos = side[w].LowerBound(hub_rank);
          const LabelEntry* existing =
              pos < labels.size() && labels[pos].hub() == hub_rank
                  ? &labels[pos]
                  : nullptr;
          if (existing != nullptr && existing->dist() == d) {
            // Survivor: in a minimal index d = sd(hub, w) and no path
            // through higher-ranked hubs is shorter, so the join cannot
            // prune. An identical entry means its couple's is too.
            if (*existing == entry) return true;
          } else if (step != BfsStep::kRoot) {
            if (bfs_.RowJoin({labels.data(), pos}, d) < d) {
              return false;  // hub not highest: prune
            }
          }
          Upsert(side[w], existing, entry, w, forward);
          if (step == BfsStep::kPair) {
            const Vertex couple = CoupleOf(w);
            Upsert(side[couple], side[couple].Find(hub_rank),
                   LabelEntry(hub_rank, d + 1, c), couple, forward);
          }
          return true;
        });
  }

 private:
  void Upsert(LabelSet& labels, const LabelEntry* existing, LabelEntry entry,
              Vertex w, bool forward) {
    if (existing != nullptr) {
      if (*existing != entry) {
        labels.InsertOrReplace(entry);
        ++stats_.entries_updated;
        MarkDirty(w, forward);
      }
      return;
    }
    labels.InsertOrReplace(entry);
    ++stats_.entries_added;
    MarkDirty(w, forward);
    if (index_.has_inverted_index()) {
      (forward ? index_.mutable_inv_in() : index_.mutable_inv_out())
          .Add(entry.hub(), w);
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
  UpdateStats& stats_;
  PrunedCountingBfs<BfsMode::kCoupleSkipping> bfs_;
};

}  // namespace

bool RemoveEdge(CscIndex& index, Vertex a, Vertex b, UpdateStats* stats) {
  UpdateStats local;
  local.dirty = stats != nullptr ? stats->dirty : nullptr;
  Timer timer;
  if (a == b || a >= index.num_original_vertices() ||
      b >= index.num_original_vertices()) {
    return false;
  }
  Vertex ao = OutVertex(a);
  Vertex bi = InVertex(b);
  DiGraph& graph = index.mutable_bipartite_graph();
  if (!graph.HasEdge(ao, bi)) return false;

  // Step 1: pre-deletion distance fields around the edge. A vertex x is an
  // affected source iff its shortest path to b_i runs through (a_o, b_i);
  // y is an affected target iff a_o's shortest path to y does.
  std::vector<Dist> to_ao = BfsDistances(graph, ao, /*forward=*/false);
  std::vector<Dist> from_bi = BfsDistances(graph, bi, /*forward=*/true);
  std::vector<Dist> to_bi = BfsDistances(graph, bi, /*forward=*/false);
  std::vector<Dist> from_ao = BfsDistances(graph, ao, /*forward=*/true);

  std::vector<Vertex> affected_sources;  // the paper's hubA candidates
  std::vector<Vertex> affected_targets;  // the paper's hubB candidates
  for (Vertex x = 0; x < graph.num_vertices(); ++x) {
    if (to_ao[x] != kInfDist && to_ao[x] + 1 == to_bi[x]) {
      affected_sources.push_back(x);
    }
    if (from_bi[x] != kInfDist && from_bi[x] + 1 == from_ao[x]) {
      affected_targets.push_back(x);
    }
  }

  // Step 2: delete the superset of out-of-date entries. An entry (h, d, c)
  // of L_in(y) is deleted iff d equals the through-edge distance
  // sd(h, a_o) + 1 + sd(b_i, y); symmetrically for L_out(x).
  HubLabeling& labeling = index.mutable_labeling();
  const auto& rank_to_vertex = index.bipartite_order().rank_to_vertex;
  auto delete_matching = [&](Vertex owner, bool in_side) {
    LabelSet& labels =
        in_side ? labeling.in[owner] : labeling.out[owner];
    std::vector<Rank> doomed;
    for (const LabelEntry& e : labels.entries()) {
      Vertex hub_vertex = rank_to_vertex[e.hub()];
      Dist hub_leg = in_side ? to_ao[hub_vertex] : from_bi[hub_vertex];
      Dist owner_leg = in_side ? from_bi[owner] : to_ao[owner];
      if (hub_leg == kInfDist || owner_leg == kInfDist) continue;
      if (static_cast<uint64_t>(hub_leg) + 1 + owner_leg == e.dist()) {
        doomed.push_back(e.hub());
      }
    }
    for (Rank r : doomed) {
      labels.Remove(r);
      ++local.entries_removed;
      if (local.dirty != nullptr) {
        if (in_side) {
          local.dirty->MarkIn(owner);
        } else {
          local.dirty->MarkOut(owner);
        }
      }
      if (index.has_inverted_index()) {
        (in_side ? index.mutable_inv_in() : index.mutable_inv_out())
            .Remove(r, owner);
      }
    }
  };
  for (Vertex y : affected_targets) delete_matching(y, /*in_side=*/true);
  for (Vertex x : affected_sources) delete_matching(x, /*in_side=*/false);

  graph.RemoveEdge(ao, bi);

  // Step 3: recovery BFS from every affected V_in hub, highest rank first.
  // Affected sources repair forward (their in-label coverage downstream),
  // affected targets repair backward.
  struct WorkItem {
    Rank hub;
    bool forward;
  };
  std::vector<WorkItem> work;
  const auto& order = index.bipartite_order();
  for (Vertex x : affected_sources) {
    if (IsInVertex(x)) work.push_back({order.vertex_to_rank[x], true});
  }
  for (Vertex y : affected_targets) {
    if (IsInVertex(y)) work.push_back({order.vertex_to_rank[y], false});
  }
  std::stable_sort(work.begin(), work.end(),
                   [](const WorkItem& p, const WorkItem& q) {
                     if (p.hub != q.hub) return p.hub < q.hub;
                     return p.forward && !q.forward;
                   });
  RecoveryPass pass(index, local);
  for (const WorkItem& item : work) {
    ++local.hubs_processed;
    pass.Run(item.hub, item.forward);
  }
  local.seconds = timer.ElapsedSeconds();
  if (stats != nullptr) stats->Accumulate(local);
  return true;
}

}  // namespace csc
