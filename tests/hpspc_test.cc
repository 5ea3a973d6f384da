#include "hpspc/hpspc_index.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "tests/test_util.h"
#include "workload/datasets.h"

namespace csc {
namespace {

// Ranks under Example 4's ordering: v1=0, v7=1, v4=2, v10=3, v2=4, v3=5,
// v5=6, v6=7, v8=8, v9=9 (vertex ids are paper numbers minus one).
struct NamedEntry {
  int paper_vertex;  // hub as paper number (1-based)
  Dist dist;
  Count count;
};

constexpr Rank kPaperRank[11] = {0, 0, 4, 5, 2, 6, 7, 1, 8, 9, 3};

std::vector<LabelEntry> ToEntries(const std::vector<NamedEntry>& named) {
  std::vector<LabelEntry> entries;
  for (const NamedEntry& e : named) {
    entries.push_back(LabelEntry(kPaperRank[e.paper_vertex], e.dist, e.count));
  }
  std::sort(entries.begin(), entries.end(),
            [](const LabelEntry& a, const LabelEntry& b) {
              return a.hub() < b.hub();
            });
  return entries;
}

// Reference shortest-path counting via plain BFS from s.
JoinResult BfsPathCount(const DiGraph& g, Vertex s, Vertex t) {
  std::vector<Dist> dist(g.num_vertices(), kInfDist);
  std::vector<Count> count(g.num_vertices(), 0);
  std::vector<Vertex> queue = {s};
  dist[s] = 0;
  count[s] = 1;
  size_t head = 0;
  while (head < queue.size()) {
    Vertex w = queue[head++];
    for (Vertex u : g.OutNeighbors(w)) {
      if (dist[u] == kInfDist) {
        dist[u] = dist[w] + 1;
        count[u] = count[w];
        queue.push_back(u);
      } else if (dist[u] == dist[w] + 1) {
        count[u] += count[w];
      }
    }
  }
  if (dist[t] == kInfDist) return {};
  return {dist[t], count[t]};
}

class HpSpcFigure2Test : public ::testing::Test {
 protected:
  HpSpcFigure2Test()
      : graph_(Figure2Graph()),
        index_(HpSpcIndex::Build(graph_, Figure2Ordering())) {}

  DiGraph graph_;
  HpSpcIndex index_;
};

TEST_F(HpSpcFigure2Test, ReproducesTableII) {
  const std::vector<NamedEntry> expected_in[10] = {
      {{1, 0, 1}},
      {{1, 6, 2}, {7, 4, 1}, {10, 1, 1}, {2, 0, 1}},
      {{1, 1, 1}, {3, 0, 1}},
      {{1, 1, 1}, {7, 5, 1}, {4, 0, 1}},
      {{1, 1, 1}, {5, 0, 1}},
      {{1, 2, 1}, {3, 1, 1}, {6, 0, 1}},
      {{1, 2, 2}, {7, 0, 1}},
      {{1, 3, 2}, {7, 1, 1}, {8, 0, 1}},
      {{1, 4, 2}, {7, 2, 1}, {8, 1, 1}, {9, 0, 1}},
      {{1, 5, 2}, {7, 3, 1}, {10, 0, 1}},
  };
  const std::vector<NamedEntry> expected_out[10] = {
      {{1, 0, 1}},
      {{1, 6, 1}, {7, 2, 1}, {4, 1, 1}, {2, 0, 1}},
      {{1, 6, 1}, {7, 2, 1}, {3, 0, 1}},
      {{1, 5, 1}, {7, 1, 1}, {4, 0, 1}},
      {{1, 5, 1}, {7, 1, 1}, {5, 0, 1}},
      {{1, 5, 1}, {7, 1, 1}, {6, 0, 1}},
      {{1, 4, 1}, {7, 0, 1}},
      {{1, 3, 1}, {7, 5, 1}, {4, 4, 1}, {10, 2, 1}, {8, 0, 1}},
      {{1, 2, 1}, {7, 4, 1}, {4, 3, 1}, {10, 1, 1}, {9, 0, 1}},
      {{1, 1, 1}, {7, 3, 1}, {4, 2, 1}, {10, 0, 1}},
  };
  for (Vertex v = 0; v < 10; ++v) {
    EXPECT_EQ(index_.labeling().in[v].entries(), ToEntries(expected_in[v]))
        << "L_in(v" << v + 1 << ")";
    EXPECT_EQ(index_.labeling().out[v].entries(), ToEntries(expected_out[v]))
        << "L_out(v" << v + 1 << ")";
  }
}

TEST_F(HpSpcFigure2Test, PaperExample2PathCount) {
  // SPCnt(v10, v8) = 3 with length 4 through hubs v1 and v7.
  JoinResult r = index_.CountPaths(9, 7);
  EXPECT_EQ(r.dist, 4u);
  EXPECT_EQ(r.count, 3u);
}

TEST_F(HpSpcFigure2Test, SelfQueryReturnsZeroNotCycle) {
  // §III.A: SPCnt(v, v) degenerates to the self hub at distance 0 — the
  // reason plain HP-SPC cannot answer cycle queries directly.
  JoinResult r = index_.CountPaths(0, 0);
  EXPECT_EQ(r.dist, 0u);
  EXPECT_EQ(r.count, 1u);
}

TEST_F(HpSpcFigure2Test, PaperExample3CycleCount) {
  CycleCount cc = index_.CountCycles(6);  // v7
  EXPECT_EQ(cc.length, 6u);
  EXPECT_EQ(cc.count, 3u);
}

TEST_F(HpSpcFigure2Test, CycleCountsMatchBfsForAllVertices) {
  for (Vertex v = 0; v < graph_.num_vertices(); ++v) {
    EXPECT_EQ(index_.CountCycles(v), BfsCountCycles(graph_, v))
        << "vertex " << v;
  }
}

TEST_F(HpSpcFigure2Test, BuildStatsAreConsistent) {
  const LabelBuildStats& stats = index_.build_stats();
  EXPECT_EQ(stats.entries, index_.labeling().TotalEntries());
  EXPECT_EQ(stats.canonical_entries + stats.non_canonical_entries,
            stats.entries);
  EXPECT_GE(stats.vertices_dequeued, stats.entries);
}

TEST(HpSpcTest, PathCountsMatchBfsOnRandomGraphs) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    DiGraph g = RandomGraph(60, 2.5, seed);
    HpSpcIndex index = HpSpcIndex::Build(g, DegreeOrdering(g));
    for (Vertex s = 0; s < g.num_vertices(); s += 7) {
      for (Vertex t = 0; t < g.num_vertices(); t += 5) {
        if (s == t) continue;
        EXPECT_EQ(index.CountPaths(s, t), BfsPathCount(g, s, t))
            << "seed " << seed << " pair " << s << "->" << t;
      }
    }
  }
}

TEST(HpSpcTest, CycleCountsMatchBfsOnRandomGraphs) {
  for (uint64_t seed = 0; seed < 12; ++seed) {
    DiGraph g = RandomGraph(50, 2.0, seed + 50);
    HpSpcIndex index = HpSpcIndex::Build(g, DegreeOrdering(g));
    BfsCycleCounter counter(g);
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      EXPECT_EQ(index.CountCycles(v), counter.CountCycles(v))
          << "seed " << seed << " vertex " << v;
    }
  }
}

TEST(HpSpcTest, BuildStatsArePinned) {
  // As CscIndexTest.BuildStatsArePinned, for the plain builder over G: the
  // canonical/non-canonical split moves with any change to the pruning
  // join, even where labels do not, at every thread count.
  struct Pinned {
    std::string name;
    DiGraph graph;
    uint64_t entries, canonical, non_canonical, dequeued, pruned;
  };
  const std::vector<Pinned> cases = {
      {"random", RandomGraph(300, 4.0, 42), 24881, 16974, 7907, 33433, 8552},
      {"G04@0.1", MaterializeDataset(*FindDataset("G04"), 0.1), 25644, 19298,
       6346, 30680, 5036},
  };
  for (const Pinned& c : cases) {
    for (unsigned threads : {0u, 2u}) {
      const LabelBuildStats stats =
          HpSpcIndex::Build(c.graph, DegreeOrdering(c.graph), threads)
              .build_stats();
      const std::string context =
          c.name + " threads=" + std::to_string(threads);
      EXPECT_EQ(stats.entries, c.entries) << context;
      EXPECT_EQ(stats.canonical_entries, c.canonical) << context;
      EXPECT_EQ(stats.non_canonical_entries, c.non_canonical) << context;
      EXPECT_EQ(stats.vertices_dequeued, c.dequeued) << context;
      EXPECT_EQ(stats.pruned_by_distance, c.pruned) << context;
    }
  }
}

TEST(HpSpcTest, DisconnectedGraphHasNoPaths) {
  DiGraph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(2, 3);
  HpSpcIndex index = HpSpcIndex::Build(g, DegreeOrdering(g));
  EXPECT_EQ(index.CountPaths(0, 3).dist, kInfDist);
  EXPECT_EQ(index.CountPaths(0, 1).dist, 1u);
  for (Vertex v = 0; v < 4; ++v) {
    EXPECT_EQ(index.CountCycles(v).count, 0u);
  }
}

}  // namespace
}  // namespace csc
