#include "csc/csc_index.h"

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "csc/couple_skip_bfs.h"
#include "labeling/parallel_build.h"
#include "labeling/pruned_bfs.h"
#include "util/timer.h"

namespace csc {

namespace {

/// INSERT_LABEL (Algorithm 4) for one labeled dequeue `e` of the pass of
/// hub rank `hr`, plus its canonical/non-canonical classification when
/// distance pruning ran (`classify`).
void InsertLabel(HubLabeling& labeling, LabelBuildStats& stats, bool classify,
                 Rank hr, bool forward, CoupleStep step,
                 const StagedEvent& e) {
  if (step == CoupleStep::kRoot) {
    labeling.out[e.w].Append(LabelEntry(hr, 0, 1));
    ++stats.entries;
    ++stats.canonical_entries;
    return;
  }
  const uint64_t produced = step == CoupleStep::kPair ? 2 : 1;
  if (classify) {
    (e.via_dist == e.dist ? stats.non_canonical_entries
                          : stats.canonical_entries) += produced;
  }
  std::vector<LabelSet>& side = forward ? labeling.in : labeling.out;
  side[e.w].Append(LabelEntry(hr, e.dist, e.count));
  if (step == CoupleStep::kPair) {
    side[CoupleOf(e.w)].Append(LabelEntry(hr, e.dist + 1, e.count));
  }
  stats.entries += produced;
}

/// Algorithm 3: per-hub pruned counting BFS over G_b with couple-vertex
/// skipping (csc/couple_skip_bfs.h). Only V_in vertices act as hubs; each
/// runs a forward pass (in-labels) and then a backward pass (out-labels).
class CoupleSkipBuilder {
 public:
  CoupleSkipBuilder(const DiGraph& bipartite, const VertexOrdering& order,
                    HubLabeling& labeling, LabelBuildStats& stats,
                    bool distance_pruning)
      : graph_(bipartite),
        order_(order),
        labeling_(labeling),
        stats_(stats),
        distance_pruning_(distance_pruning),
        bfs_(bipartite.num_vertices()) {}

  void BuildAll() {
    for (Rank r = 0; r < order_.size(); ++r) {
      Vertex v = order_.rank_to_vertex[r];
      if (IsOutVertex(v)) {
        // Couple-vertex skipping: v_o never roots a BFS; it only records its
        // own trivial labels (Algorithm 3 lines 6-8).
        labeling_.in[v].Append(LabelEntry(r, 0, 1));
        labeling_.out[v].Append(LabelEntry(r, 0, 1));
        stats_.entries += 2;
        stats_.canonical_entries += 2;
        continue;
      }
      Pass(v, r, /*forward=*/true);
      Pass(v, r, /*forward=*/false);
    }
  }

 private:
  void Pass(Vertex hub, Rank hr, bool forward) {
    const std::vector<LabelSet>& side = forward ? labeling_.in : labeling_.out;
    const LabelSet& root = forward ? labeling_.out[hub] : labeling_.in[hub];
    bfs_.Run(graph_, order_, hub, forward, root,
             [&](Vertex w, Dist d, Count c, CoupleStep step) {
               ++stats_.vertices_dequeued;
               Dist via_dist = kInfDist;
               if (distance_pruning_ && step != CoupleStep::kRoot) {
                 via_dist = bfs_.RowJoin(side[w].entries(), d);
                 if (via_dist < d) {
                   ++stats_.pruned_by_distance;
                   return false;
                 }
               }
               InsertLabel(labeling_, stats_, distance_pruning_, hr, forward,
                           step, {w, d, c, via_dist});
               return true;
             });
  }

  const DiGraph& graph_;
  const VertexOrdering& order_;
  HubLabeling& labeling_;
  LabelBuildStats& stats_;
  const bool distance_pruning_;
  CoupleSkipBfs bfs_;
};

/// The rank-batched parallel counterpart of CoupleSkipBuilder (see
/// labeling/parallel_build.h for the staging/validation/commit scheme).
/// Staged passes run the same CoupleSkipBfs — each worker's Scratch owns
/// its root row — against the committed labels, which staging only reads,
/// recording labeled dequeues instead of appending; the commit replay
/// re-applies InsertLabel with the validated via distances, so labels and
/// stats are bit-identical to the sequential builder at any thread count.
class ParallelCoupleSkipBuilder {
 public:
  using Scratch = CoupleSkipBfs;

  ParallelCoupleSkipBuilder(const DiGraph& bipartite,
                            const VertexOrdering& order, HubLabeling& labeling,
                            LabelBuildStats& stats, bool distance_pruning)
      : graph_(bipartite),
        order_(order),
        labeling_(labeling),
        stats_(stats),
        distance_pruning_(distance_pruning) {}

  void InitScratch(Scratch& s) const {
    s = CoupleSkipBfs(graph_.num_vertices());
  }

  // Couple-vertex skipping: only V_in vertices root BFSs; a V_out rank
  // records its own trivial labels at commit time (Algorithm 3 lines 6-8).
  bool IsHub(Vertex v) const { return IsInVertex(v); }

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

  // The backward root is never distance-checked (kInfDist via), mirrored by
  // ValidateStagedHub skipping it.
  void StagePass(StagedHub& sh, bool forward, Scratch& s) const {
    StagedPass& pass = forward ? sh.fwd : sh.bwd;
    const std::vector<LabelSet>& side = forward ? labeling_.in : labeling_.out;
    const LabelSet& root =
        forward ? labeling_.out[sh.hub] : labeling_.in[sh.hub];
    s.Run(graph_, order_, sh.hub, forward, root,
          [&](Vertex w, Dist d, Count c, CoupleStep step) {
            ++pass.dequeued;
            Dist via_dist = kInfDist;
            if (distance_pruning_ && step != CoupleStep::kRoot) {
              via_dist = s.RowJoin(side[w].entries(), d);
              if (via_dist < d) {
                ++pass.pruned;
                return false;
              }
            }
            pass.events.push_back({w, d, c, via_dist});
            return true;
          });
    pass.Finalize();
  }

  void Commit(const StagedHub& sh) {
    CommitPass(sh, /*forward=*/true);
    CommitPass(sh, /*forward=*/false);
  }

  // A lower batch hub h reaches L_out(hub) only through the couple append
  // of its backward pass — dequeuing couple(hub) at distance d labels hub
  // at d + 1. (hub is a V_in vertex: backward passes dequeue V_out
  // vertices, h's root append targets h itself, and the hub-couple
  // suppression cannot apply since couple(hub) == couple(h) would mean
  // hub == h.)
  Dist NewOutDist(const StagedHub& lower, Vertex hub) const {
    Dist d = lower.bwd.DistAt(CoupleOf(hub));
    return d == kInfDist ? kInfDist : d + 1;
  }

  // ...and L_in(hub) only through the direct dequeue of its forward pass
  // (forward couple appends target V_out vertices).
  Dist NewInDist(const StagedHub& lower, Vertex hub) const {
    return lower.fwd.DistAt(hub);
  }

 private:
  void CommitPass(const StagedHub& sh, bool forward) {
    const StagedPass& pass = forward ? sh.fwd : sh.bwd;
    for (const StagedEvent& e : pass.events) {
      InsertLabel(labeling_, stats_, distance_pruning_, sh.rank, forward,
                  CoupleStepOf(sh.hub, forward, e.w), e);
    }
    stats_.vertices_dequeued += pass.dequeued;
    stats_.pruned_by_distance += pass.pruned;
  }

  const DiGraph& graph_;
  const VertexOrdering& order_;
  HubLabeling& labeling_;
  LabelBuildStats& stats_;
  const bool distance_pruning_;
};

// Hub ranks must fit LabelEntry's 23-bit field; G_b has 2n vertices.
void CheckVertexRange(Vertex num_original_vertices) {
  if (2ull * num_original_vertices > LabelEntry::kMaxHub + 1) {
    std::fprintf(stderr,
                 "csc: graph too large for the 23-bit label encoding "
                 "(%u vertices, limit %llu)\n",
                 num_original_vertices,
                 static_cast<unsigned long long>((LabelEntry::kMaxHub + 1) /
                                                 2));
    std::abort();
  }
}

void PopulateInvertedIndexes(const HubLabeling& labeling, InvertedIndex& inv_in,
                             InvertedIndex& inv_out) {
  inv_in.BuildFrom(labeling, LabelDirection::kIn);
  inv_out.BuildFrom(labeling, LabelDirection::kOut);
}

}  // namespace

CscIndex CscIndex::Build(const DiGraph& graph, const VertexOrdering& order,
                         const Options& options) {
  CheckVertexRange(graph.num_vertices() + options.reserve_vertices);
  CscIndex index;
  index.options_ = options;
  if (options.reserve_vertices > 0) {
    // Reserved vertices are isolated and ranked below every real vertex, so
    // they cost two self-labels each and never perturb existing labels.
    DiGraph extended = graph;
    Vertex first = extended.AddVertices(options.reserve_vertices);
    VertexOrdering extended_order = order;
    for (Vertex v = first; v < extended.num_vertices(); ++v) {
      extended_order.rank_to_vertex.push_back(v);
      extended_order.vertex_to_rank.push_back(
          static_cast<Rank>(extended_order.rank_to_vertex.size() - 1));
    }
    index.bipartite_ = BipartiteConversion(extended);
    index.order_ = BipartiteOrdering(extended_order);
  } else {
    index.bipartite_ = BipartiteConversion(graph);
    index.order_ = BipartiteOrdering(order);
  }
  index.BuildLabels();
  return index;
}

void CscIndex::Rebuild() { BuildLabels(); }

void CscIndex::BuildLabels() {
  labeling_ = HubLabeling();
  labeling_.Resize(bipartite_.num_vertices());
  stats_ = LabelBuildStats();
  Timer timer;
  // One staging worker would stage, validate and replay every hub in turn
  // for the same labels, so it takes the sequential builder too.
  if (options_.build_threads <= 1) {
    CoupleSkipBuilder builder(bipartite_, order_, labeling_, stats_,
                              /*distance_pruning=*/true);
    builder.BuildAll();
  } else {
    ParallelCoupleSkipBuilder builder(bipartite_, order_, labeling_, stats_,
                                      /*distance_pruning=*/true);
    ParallelBuildPlan plan;
    plan.num_threads = options_.build_threads;
    RunRankBatchedBuild(builder, order_, plan);
  }
  stats_.seconds = timer.ElapsedSeconds();
  stats_.build_threads = options_.build_threads;
  if (options_.maintain_inverted_index) {
    PopulateInvertedIndexes(labeling_, inv_in_, inv_out_);
  }
}

void CscIndex::EnsureInvertedIndexes() {
  if (options_.maintain_inverted_index) return;
  PopulateInvertedIndexes(labeling_, inv_in_, inv_out_);
  options_.maintain_inverted_index = true;
}

CycleCount CscIndex::Query(Vertex v) const {
  // SCCnt(v) = SPCnt(v_o, v_i) in G_b (§IV.D); a v_o -> v_i distance d in
  // G_b corresponds to a cycle of length (d + 1) / 2 in the original graph.
  JoinResult r = labeling_.Query(OutVertex(v), InVertex(v));
  if (r.dist == kInfDist) return {};
  return {(r.dist + 1) / 2, r.count};
}

CycleCount CscIndex::QueryThroughEdge(Vertex u, Vertex v) const {
  if (u == v || u >= num_original_vertices() ||
      v >= num_original_vertices()) {
    return {};
  }
  // A cycle through (u, v) is the edge plus a shortest path v -> u, and no
  // shortest v -> u path can contain the edge itself (it would revisit u).
  // A length-k original path is a length 2k-1 walk v_o -> u_i in G_b, so
  // sd(v, u) = (d + 1) / 2 and the cycle adds 1 for the edge.
  //
  // Couple-vertex skipping makes one correction necessary: hubs are V_in
  // vertices only, so paths on which the *start* v_o is the highest-ranked
  // vertex have no covering hub in the plain join. Exactly those paths are
  // the ones label (v_i, d+1, c) in L_in(u_i) counts — v_i's sole out-edge
  // is the couple edge, so v_i-paths are v_o-paths shifted by one, and v_i
  // outranks the path precisely when v_o does. Merging that entry restores
  // the exact all-pairs count with no double counting.
  JoinResult r = labeling_.Query(OutVertex(v), InVertex(u));
  const LabelEntry* couple_entry =
      labeling_.in[InVertex(u)].Find(order_.vertex_to_rank[InVertex(v)]);
  if (couple_entry != nullptr) {
    Dist d = couple_entry->dist() - 1;
    if (d < r.dist) {
      r.dist = d;
      r.count = couple_entry->count();
    } else if (d == r.dist) {
      r.count += couple_entry->count();
    }
  }
  if (r.dist == kInfDist) return {};
  return {(r.dist + 1) / 2 + 1, r.count};
}

CscIndex BuildCscAblation(const DiGraph& graph, const VertexOrdering& order,
                          const CscAblationConfig& config) {
  CscIndex index;
  index.bipartite_ = BipartiteConversion(graph);
  index.order_ = BipartiteOrdering(order);
  index.labeling_.Resize(index.bipartite_.num_vertices());
  Timer timer;
  if (config.disable_couple_skipping) {
    PrunedBfsOptions options;
    options.distance_pruning = !config.disable_distance_pruning;
    BuildPlainHubLabeling(index.bipartite_, index.order_, index.labeling_,
                          index.stats_, options);
  } else {
    CoupleSkipBuilder builder(index.bipartite_, index.order_, index.labeling_,
                              index.stats_,
                              !config.disable_distance_pruning);
    builder.BuildAll();
  }
  index.stats_.seconds = timer.ElapsedSeconds();
  return index;
}

}  // namespace csc
