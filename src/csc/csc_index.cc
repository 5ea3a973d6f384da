#include "csc/csc_index.h"

#include <cstdio>
#include <cstdlib>

#include "labeling/pruned_bfs.h"
#include "util/timer.h"

namespace csc {

namespace {

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
  PrunedBfsOptions build;
  build.num_threads = options_.build_threads;
  BuildCoupleSkipHubLabeling(bipartite_, order_, labeling_, stats_, build);
  stats_.seconds = timer.ElapsedSeconds();
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
  PrunedBfsOptions options;
  options.distance_pruning = !config.disable_distance_pruning;
  (config.disable_couple_skipping ? BuildPlainHubLabeling
                                  : BuildCoupleSkipHubLabeling)(
      index.bipartite_, index.order_, index.labeling_, index.stats_, options);
  index.stats_.seconds = timer.ElapsedSeconds();
  return index;
}

}  // namespace csc
