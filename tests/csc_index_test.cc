#include "csc/csc_index.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "baseline/bfs_cycle.h"
#include "tests/test_util.h"
#include "workload/datasets.h"

namespace csc {
namespace {

class CscFigure2Test : public ::testing::Test {
 protected:
  CscFigure2Test()
      : graph_(Figure2Graph()),
        index_(CscIndex::Build(graph_, Figure2Ordering())) {}

  DiGraph graph_;
  CscIndex index_;
};

TEST_F(CscFigure2Test, ReproducesTableIII) {
  // Bipartite ranks: v1_i = 0, v7_i = 2, v7_o = 3 (v1 has original rank 0,
  // v7 original rank 1).
  const LabelSet& in_v7i = index_.labeling().in[InVertex(6)];
  ASSERT_EQ(in_v7i.size(), 2u);
  EXPECT_EQ(in_v7i.entries()[0], LabelEntry(0, 4, 2));  // (v1_i, 4, 2)
  EXPECT_EQ(in_v7i.entries()[1], LabelEntry(2, 0, 1));  // (v7_i, 0, 1)

  const LabelSet& out_v7o = index_.labeling().out[OutVertex(6)];
  ASSERT_EQ(out_v7o.size(), 3u);
  EXPECT_EQ(out_v7o.entries()[0], LabelEntry(0, 7, 1));   // (v1_i, 7, 1)
  EXPECT_EQ(out_v7o.entries()[1], LabelEntry(2, 11, 1));  // (v7_i, 11, 1)
  EXPECT_EQ(out_v7o.entries()[2], LabelEntry(3, 0, 1));   // (v7_o, 0, 1)
}

TEST_F(CscFigure2Test, PaperExample6Query) {
  // SCCnt(v7) = 2 + 1 = 3 at bipartite distance 11 => cycle length 6.
  CycleCount cc = index_.Query(6);
  EXPECT_EQ(cc.length, 6u);
  EXPECT_EQ(cc.count, 3u);
}

TEST_F(CscFigure2Test, MatchesBfsForAllVertices) {
  for (Vertex v = 0; v < graph_.num_vertices(); ++v) {
    EXPECT_EQ(index_.Query(v), BfsCountCycles(graph_, v)) << "vertex " << v;
  }
}

TEST_F(CscFigure2Test, BipartiteStructureSizes) {
  EXPECT_EQ(index_.num_original_vertices(), 10u);
  EXPECT_EQ(index_.bipartite_graph().num_vertices(), 20u);
  EXPECT_EQ(index_.bipartite_graph().num_edges(),
            graph_.num_vertices() + graph_.num_edges());
}

TEST_F(CscFigure2Test, BuildStatsAreConsistent) {
  const LabelBuildStats& stats = index_.build_stats();
  EXPECT_EQ(stats.entries, index_.TotalEntries());
  EXPECT_EQ(stats.canonical_entries + stats.non_canonical_entries,
            stats.entries);
  EXPECT_EQ(index_.SizeBytes(), index_.TotalEntries() * 8);
}

TEST_F(CscFigure2Test, CoupleLabelShiftInvariant) {
  // §IV.E: L_in(v_o) = shift(L_in(v_i)) plus v_o's self entry.
  const auto& order = index_.bipartite_order();
  for (Vertex v = 0; v < 10; ++v) {
    const auto& in_vi = index_.labeling().in[InVertex(v)].entries();
    const auto& in_vo = index_.labeling().in[OutVertex(v)].entries();
    ASSERT_EQ(in_vo.size(), in_vi.size() + 1);
    for (size_t i = 0; i < in_vi.size(); ++i) {
      EXPECT_EQ(in_vo[i].hub(), in_vi[i].hub());
      EXPECT_EQ(in_vo[i].dist(), in_vi[i].dist() + 1);
      EXPECT_EQ(in_vo[i].count(), in_vi[i].count());
    }
    EXPECT_EQ(in_vo.back(),
              LabelEntry(order.vertex_to_rank[OutVertex(v)], 0, 1));
  }
}

TEST(CscIndexTest, NoCycleGraph) {
  DiGraph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(1, 3);
  CscIndex index = CscIndex::Build(g, DegreeOrdering(g));
  for (Vertex v = 0; v < 4; ++v) {
    EXPECT_EQ(index.Query(v), (CycleCount{kInfDist, 0}));
  }
}

TEST(CscIndexTest, TwoCycles) {
  DiGraph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 0);
  g.AddEdge(1, 2);
  g.AddEdge(2, 1);
  CscIndex index = CscIndex::Build(g, DegreeOrdering(g));
  EXPECT_EQ(index.Query(0), (CycleCount{2, 1}));
  EXPECT_EQ(index.Query(1), (CycleCount{2, 2}));
  EXPECT_EQ(index.Query(2), (CycleCount{2, 1}));
}

TEST(CscIndexTest, SingleVertexAndEmptyGraph) {
  DiGraph empty;
  CscIndex e = CscIndex::Build(empty, DegreeOrdering(empty));
  EXPECT_EQ(e.num_original_vertices(), 0u);
  DiGraph one(1);
  CscIndex i = CscIndex::Build(one, DegreeOrdering(one));
  EXPECT_EQ(i.Query(0), (CycleCount{kInfDist, 0}));
}

TEST(CscIndexTest, InvertedIndexOptionPopulatesBothSides) {
  DiGraph g = Figure2Graph();
  CscIndex::Options options;
  options.maintain_inverted_index = true;
  CscIndex index = CscIndex::Build(g, Figure2Ordering(), options);
  ASSERT_TRUE(index.has_inverted_index());
  uint64_t in_entries = 0, out_entries = 0;
  for (Vertex v = 0; v < index.bipartite_graph().num_vertices(); ++v) {
    in_entries += index.labeling().in[v].size();
    out_entries += index.labeling().out[v].size();
  }
  EXPECT_EQ(index.inv_in().TotalEntries(), in_entries);
  EXPECT_EQ(index.inv_out().TotalEntries(), out_entries);
}

TEST(CscIndexTest, EnsureInvertedIndexesIsIdempotent) {
  DiGraph g = Figure2Graph();
  CscIndex index = CscIndex::Build(g, Figure2Ordering());
  EXPECT_FALSE(index.has_inverted_index());
  index.EnsureInvertedIndexes();
  ASSERT_TRUE(index.has_inverted_index());
  uint64_t before = index.inv_in().TotalEntries();
  index.EnsureInvertedIndexes();
  EXPECT_EQ(index.inv_in().TotalEntries(), before);
}

TEST(CscIndexTest, BuildStatsArePinned) {
  // The canonical/non-canonical split compares each labeled vertex's
  // pruning-join distance with its BFS distance, so a join that stops short
  // of the exact minimum moves it even where labels do not change — and the
  // sequential and rank-batched builders would drift together. The two
  // ablation variants pin the builder's other modes: plain passes over G_b
  // (no couple skipping) and passes stopped by rank pruning alone.
  const std::vector<std::pair<std::string, DiGraph>> graphs = {
      {"random", RandomGraph(300, 4.0, 42)},
      {"G04@0.1", MaterializeDataset(*FindDataset("G04"), 0.1)},
  };
  enum Variant { kStandard, kNoCoupleSkipping, kNoDistancePruning };
  struct Pinned {
    size_t graph;
    Variant variant;
    uint64_t entries, canonical, non_canonical, dequeued, pruned;
  };
  const std::vector<Pinned> cases = {
      {0, kStandard, 50115, 34285, 15830, 33502, 8568},
      {1, kStandard, 52526, 39800, 12726, 30818, 5036},
      {0, kNoCoupleSkipping, 75225, 51301, 23924, 88099, 12874},
      {1, kNoCoupleSkipping, 74902, 56244, 18658, 82442, 7540},
      {0, kNoDistancePruning, 102307, 900, 0, 51062, 0},
      {1, kNoDistancePruning, 140031, 3300, 0, 69539, 0},
  };
  for (const Pinned& c : cases) {
    const auto& [name, graph] = graphs[c.graph];
    const VertexOrdering order = DegreeOrdering(graph);
    // The ablation builds are sequential only.
    const std::vector<unsigned> thread_counts =
        c.variant == kStandard ? std::vector<unsigned>{0, 2}
                               : std::vector<unsigned>{0};
    for (unsigned threads : thread_counts) {
      LabelBuildStats stats;
      if (c.variant == kStandard) {
        CscIndex::Options options;
        options.build_threads = threads;
        stats = CscIndex::Build(graph, order, options).build_stats();
      } else {
        CscAblationConfig config;
        config.disable_couple_skipping = c.variant == kNoCoupleSkipping;
        config.disable_distance_pruning = c.variant == kNoDistancePruning;
        stats = BuildCscAblation(graph, order, config).build_stats();
      }
      const std::string context = name + " variant=" +
                                  std::to_string(c.variant) +
                                  " threads=" + std::to_string(threads);
      EXPECT_EQ(stats.entries, c.entries) << context;
      EXPECT_EQ(stats.canonical_entries, c.canonical) << context;
      EXPECT_EQ(stats.non_canonical_entries, c.non_canonical) << context;
      EXPECT_EQ(stats.vertices_dequeued, c.dequeued) << context;
      EXPECT_EQ(stats.pruned_by_distance, c.pruned) << context;
    }
  }
}

TEST(CscAblationTest, DisablingCoupleSkippingKeepsAnswers) {
  DiGraph g = RandomGraph(40, 2.5, 77);
  VertexOrdering order = DegreeOrdering(g);
  CscIndex standard = CscIndex::Build(g, order);
  CscAblationConfig config;
  config.disable_couple_skipping = true;
  CscIndex ablated = BuildCscAblation(g, order, config);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(ablated.Query(v), standard.Query(v)) << "vertex " << v;
  }
  // Without couple skipping every bipartite vertex runs its own BFS pass.
  EXPECT_GT(ablated.build_stats().vertices_dequeued,
            standard.build_stats().vertices_dequeued);
}

TEST(CscAblationTest, DisablingDistancePruningKeepsAnswersButGrowsIndex) {
  DiGraph g = RandomGraph(40, 2.5, 78);
  VertexOrdering order = DegreeOrdering(g);
  CscIndex standard = CscIndex::Build(g, order);
  CscAblationConfig config;
  config.disable_distance_pruning = true;
  CscIndex ablated = BuildCscAblation(g, order, config);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(ablated.Query(v), standard.Query(v)) << "vertex " << v;
  }
  EXPECT_GE(ablated.TotalEntries(), standard.TotalEntries());
}

}  // namespace
}  // namespace csc
