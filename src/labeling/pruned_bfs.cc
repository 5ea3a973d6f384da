#include "labeling/pruned_bfs.h"

#include <vector>

#include "labeling/parallel_build.h"

namespace csc {

namespace {

/// The label builder of both modes: per hub in rank order, a forward pass
/// (in-labels) and then a backward pass (out-labels) of PrunedCountingBfs.
/// BuildAll runs them sequentially, appending as it goes; the rest is the
/// Builder concept of RunRankBatchedBuild (labeling/parallel_build.h),
/// whose staged passes run the same traversal against the committed labels
/// — each worker's Scratch owns its root row — and record labeled dequeues
/// instead of appending. Both paths go through one prune test (RunPass) and
/// one InsertLabel, so labels and stats are bit-identical at any thread
/// count.
template <BfsMode kMode>
class LabelBuilder {
 public:
  using Scratch = PrunedCountingBfs<kMode>;

  LabelBuilder(const DiGraph& graph, const VertexOrdering& order,
               HubLabeling& labeling, LabelBuildStats& stats,
               bool distance_pruning)
      : graph_(graph),
        order_(order),
        labeling_(labeling),
        stats_(stats),
        distance_pruning_(distance_pruning) {}

  void BuildAll() {
    Scratch bfs(graph_.num_vertices());
    for (Rank r = 0; r < order_.size(); ++r) {
      const Vertex v = order_.rank_to_vertex[r];
      if (!IsHub(v)) {
        CommitNonHub(r, v);
        continue;
      }
      for (bool forward : {true, false}) {
        RunPass(v, forward, bfs, stats_.vertices_dequeued,
                stats_.pruned_by_distance,
                [&](const StagedEvent& e, BfsStep step) {
                  InsertLabel(r, forward, step, e);
                });
      }
    }
  }

  void InitScratch(Scratch& s) const { s = Scratch(graph_.num_vertices()); }

  // Couple-vertex skipping: only V_in vertices root BFSs; a V_out rank
  // records its own trivial labels (Algorithm 3 lines 6-8).
  bool IsHub(Vertex v) const {
    return kMode == BfsMode::kPlain || IsInVertex(v);
  }

  void CommitNonHub(Rank r, Vertex v) {
    labeling_.in[v].Append(LabelEntry(r, 0, 1));
    labeling_.out[v].Append(LabelEntry(r, 0, 1));
    stats_.entries += 2;
    stats_.canonical_entries += 2;
  }

  bool distance_pruning() const { return distance_pruning_; }

  void Stage(StagedHub& sh, Scratch& s) const {
    StagePass(sh, /*forward=*/true, s);
    StagePass(sh, /*forward=*/false, s);
  }

  void StagePass(StagedHub& sh, bool forward, Scratch& s) const {
    StagedPass& pass = forward ? sh.fwd : sh.bwd;
    RunPass(sh.hub, forward, s, pass.dequeued, pass.pruned,
            [&](const StagedEvent& e, BfsStep) { pass.events.push_back(e); });
    pass.Finalize();
  }

  void Commit(const StagedHub& sh) {
    for (bool forward : {true, false}) {
      const StagedPass& pass = forward ? sh.fwd : sh.bwd;
      for (const StagedEvent& e : pass.events) {
        InsertLabel(sh.rank, forward, StepOf<kMode>(sh.hub, forward, e.w), e);
      }
      stats_.vertices_dequeued += pass.dequeued;
      stats_.pruned_by_distance += pass.pruned;
    }
  }

  // A lower batch hub h reaches L_out(hub) through its backward pass. In
  // plain mode that is the direct dequeue of hub; in couple mode only the
  // couple append — dequeuing couple(hub) at distance d labels hub at
  // d + 1. (hub is a V_in vertex: backward passes dequeue V_out vertices,
  // h's root append targets h itself, and the hub-couple suppression cannot
  // apply since couple(hub) == couple(h) would mean hub == h.)
  Dist NewOutDist(const StagedHub& lower, Vertex hub) const {
    if constexpr (kMode == BfsMode::kPlain) {
      return lower.bwd.DistAt(hub);
    } else {
      const Dist d = lower.bwd.DistAt(CoupleOf(hub));
      return d == kInfDist ? kInfDist : d + 1;
    }
  }

  // ...and L_in(hub) through the direct dequeue of its forward pass in
  // either mode (forward couple appends target V_out vertices).
  Dist NewInDist(const StagedHub& lower, Vertex hub) const {
    return lower.fwd.DistAt(hub);
  }

 private:
  // The pass of `hub` against the current labels: counts every dequeue
  // into `dequeued`, prunes (counted into `pruned`) where the pruning join
  // beats the BFS distance, and hands each labeled dequeue to `label`. The
  // backward root of couple mode is never distance-checked (kInfDist via),
  // mirrored by ValidateStagedHub skipping it.
  template <typename Label>
  void RunPass(Vertex hub, bool forward, Scratch& bfs, uint64_t& dequeued,
               uint64_t& pruned, Label&& label) const {
    const std::vector<LabelSet>& side = forward ? labeling_.in : labeling_.out;
    const LabelSet& root = forward ? labeling_.out[hub] : labeling_.in[hub];
    bfs.Run(graph_, order_, hub, forward, root,
            [&](Vertex w, Dist d, Count c, BfsStep step) {
              ++dequeued;
              Dist via_dist = kInfDist;
              if (distance_pruning_ && step != BfsStep::kRoot) {
                via_dist = bfs.RowJoin(side[w].entries(), d);
                if (via_dist < d) {
                  ++pruned;
                  return false;
                }
              }
              label(StagedEvent{w, d, c, via_dist}, step);
              return true;
            });
  }

  // INSERT_LABEL (Algorithm 4) for one labeled dequeue `e` of the pass of
  // hub rank `hr`, plus its canonical/non-canonical classification when
  // distance pruning ran.
  void InsertLabel(Rank hr, bool forward, BfsStep step, const StagedEvent& e) {
    if (step == BfsStep::kRoot) {
      labeling_.out[e.w].Append(LabelEntry(hr, 0, 1));
      ++stats_.entries;
      ++stats_.canonical_entries;
      return;
    }
    const uint64_t produced = step == BfsStep::kPair ? 2 : 1;
    if (distance_pruning_) {
      (e.via_dist == e.dist ? stats_.non_canonical_entries
                            : stats_.canonical_entries) += produced;
    }
    std::vector<LabelSet>& side = forward ? labeling_.in : labeling_.out;
    side[e.w].Append(LabelEntry(hr, e.dist, e.count));
    if (step == BfsStep::kPair) {
      side[CoupleOf(e.w)].Append(LabelEntry(hr, e.dist + 1, e.count));
    }
    stats_.entries += produced;
  }

  const DiGraph& graph_;
  const VertexOrdering& order_;
  HubLabeling& labeling_;
  LabelBuildStats& stats_;
  const bool distance_pruning_;
};

template <BfsMode kMode>
void BuildHubLabeling(const DiGraph& graph, const VertexOrdering& order,
                      HubLabeling& labeling, LabelBuildStats& stats,
                      const PrunedBfsOptions& options) {
  LabelBuilder<kMode> builder(graph, order, labeling, stats,
                              options.distance_pruning);
  if (options.num_threads <= 1) {
    builder.BuildAll();
  } else {
    RunRankBatchedBuild(builder, order, options.num_threads);
  }
  stats.build_threads = options.num_threads;
}

}  // namespace

void BuildPlainHubLabeling(const DiGraph& graph, const VertexOrdering& order,
                           HubLabeling& labeling, LabelBuildStats& stats,
                           const PrunedBfsOptions& options) {
  BuildHubLabeling<BfsMode::kPlain>(graph, order, labeling, stats, options);
}

void BuildCoupleSkipHubLabeling(const DiGraph& bipartite,
                                const VertexOrdering& order,
                                HubLabeling& labeling, LabelBuildStats& stats,
                                const PrunedBfsOptions& options) {
  BuildHubLabeling<BfsMode::kCoupleSkipping>(bipartite, order, labeling, stats,
                                             options);
}

}  // namespace csc
