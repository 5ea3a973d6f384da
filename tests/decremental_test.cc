#include "dynamic/decremental.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "baseline/bfs_cycle.h"
#include "dynamic/incremental.h"
#include "tests/test_util.h"
#include "workload/datasets.h"
#include "workload/update_workload.h"

namespace csc {
namespace {

void ExpectMatchesBfs(const CscIndex& index, const DiGraph& graph,
                      const std::string& context) {
  BfsCycleCounter bfs(graph);
  for (Vertex v = 0; v < graph.num_vertices(); ++v) {
    ASSERT_EQ(index.Query(v), bfs.CountCycles(v))
        << context << " vertex " << v;
  }
}

TEST(DecrementalTest, RejectsMissingEdges) {
  DiGraph g = Figure2Graph();
  CscIndex index = CscIndex::Build(g, Figure2Ordering());
  EXPECT_FALSE(RemoveEdge(index, 0, 7));   // v1->v8 never existed
  EXPECT_FALSE(RemoveEdge(index, 3, 3));   // self loop
  EXPECT_FALSE(RemoveEdge(index, 0, 99));  // out of range
  ExpectMatchesBfs(index, g, "untouched");
}

TEST(DecrementalTest, RemovingChainEdgeKillsAllCyclesFigure2) {
  // Every cycle in Figure 2 crosses v7->v8 (ids 6 -> 7).
  DiGraph g = Figure2Graph();
  CscIndex index = CscIndex::Build(g, Figure2Ordering());
  ASSERT_TRUE(RemoveEdge(index, 6, 7));
  g.RemoveEdge(6, 7);
  for (Vertex v = 0; v < 10; ++v) {
    EXPECT_EQ(index.Query(v), (CycleCount{kInfDist, 0})) << "vertex " << v;
  }
  ExpectMatchesBfs(index, g, "after v7->v8 removal");
}

TEST(DecrementalTest, RemovingOneBranchLengthensNothingButDropsCounts) {
  // Removing v1->v4 (ids 0 -> 3) kills one of the three length-6 cycles
  // through v7 but leaves the other two.
  DiGraph g = Figure2Graph();
  CscIndex index = CscIndex::Build(g, Figure2Ordering());
  ASSERT_TRUE(RemoveEdge(index, 0, 3));
  g.RemoveEdge(0, 3);
  EXPECT_EQ(index.Query(6), (CycleCount{6, 2}));
  ExpectMatchesBfs(index, g, "after v1->v4 removal");
}

TEST(DecrementalTest, RemovalCanLengthenShortestCycle) {
  DiGraph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(1, 0);  // 2-cycle
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  g.AddEdge(3, 0);  // 4-cycle 0->1->2->3->0
  CscIndex index = CscIndex::Build(g, DegreeOrdering(g));
  EXPECT_EQ(index.Query(0), (CycleCount{2, 1}));
  ASSERT_TRUE(RemoveEdge(index, 1, 0));
  g.RemoveEdge(1, 0);
  EXPECT_EQ(index.Query(0), (CycleCount{4, 1}));
  ExpectMatchesBfs(index, g, "lengthened");
}

// Removes `removals` from `g` one at a time. After each, the recovered index
// must coincide with a fresh build of the shrunken graph under the same
// ordering and options, entry for entry (recovery replays construction
// decisions for the affected hubs); maintained inverted indexes must mirror
// the final labeling exactly; and with `check_bfs`, every answer must match
// BFS.
void ExpectRemovalsMatchFreshBuild(DiGraph g, const VertexOrdering& order,
                                   const CscIndex::Options& options,
                                   const std::vector<Edge>& removals,
                                   bool check_bfs, const std::string& input) {
  CscIndex index = CscIndex::Build(g, order, options);
  for (const Edge& e : removals) {
    ASSERT_TRUE(RemoveEdge(index, e.from, e.to)) << input;
    ASSERT_TRUE(g.RemoveEdge(e.from, e.to));
    if (check_bfs) ExpectMatchesBfs(index, g, input + " removal");
    CscIndex fresh = CscIndex::Build(g, order, options);
    ASSERT_EQ(index.labeling(), fresh.labeling())
        << input << " after removing " << e.from << "->" << e.to;
    if (options.maintain_inverted_index) {
      ASSERT_TRUE(
          index.inv_in().ConsistentWith(index.labeling(), LabelDirection::kIn))
          << input << " after removing " << e.from << "->" << e.to;
      ASSERT_TRUE(index.inv_out().ConsistentWith(index.labeling(),
                                                 LabelDirection::kOut))
          << input << " after removing " << e.from << "->" << e.to;
    }
  }
}

TEST(DecrementalTest, MatchesFreshBuildExactlyAfterEachRemoval) {
  const CscIndex::Options plain;
  DiGraph random = RandomGraph(35, 2.2, 71);
  ExpectRemovalsMatchFreshBuild(random, DegreeOrdering(random), plain,
                                SampleExistingEdges(random, 15, 72),
                                /*check_bfs=*/true, "random");

  // A dataset stand-in with ~1,650 vertices: about 1,000 recovery hubs per
  // removal, so survivors and re-labelled couples both occur at scale.
  DiGraph g04 = MaterializeDataset(FindDataset("G04").value(), 0.15);
  ExpectRemovalsMatchFreshBuild(g04, DegreeOrdering(g04), plain,
                                SampleExistingEdges(g04, 6, 73),
                                /*check_bfs=*/false, "G04@0.15");

  CscIndex::Options reserved;
  reserved.reserve_vertices = 5;
  ExpectRemovalsMatchFreshBuild(random, DegreeOrdering(random), reserved,
                                SampleExistingEdges(random, 10, 74),
                                /*check_bfs=*/true, "reserve_vertices");

  CscIndex::Options inverted;
  inverted.maintain_inverted_index = true;
  DiGraph dense = RandomGraph(40, 2.5, 75);
  ExpectRemovalsMatchFreshBuild(dense, DegreeOrdering(dense), inverted,
                                SampleExistingEdges(dense, 10, 76),
                                /*check_bfs=*/true, "inverted");

  // SCCnt(0) = 6^10 saturates the 24-bit stored counts, so recovery compares
  // survivors against saturated entries. Answers at vertex 0 saturate too,
  // so there is no BFS check here (the fresh build is the oracle).
  DiGraph gadget = LayeredGadget(6, 10);
  ExpectRemovalsMatchFreshBuild(gadget, DegreeOrdering(gadget), plain,
                                SampleExistingEdges(gadget, 10, 77),
                                /*check_bfs=*/false, "layered gadget");
}

TEST(DecrementalTest, DirtyTrackerMarksEveryChangedLabelSet) {
  // The serving tier patches exactly the label sets marked dirty, so a
  // removal must mark every L_in / L_out it changed, including when step 3
  // skips the writes to survivors.
  DiGraph g = MaterializeDataset(FindDataset("G04").value(), 0.1);
  CscIndex index = CscIndex::Build(g, DegreeOrdering(g));
  for (const Edge& e : SampleExistingEdges(g, 8, 78)) {
    const HubLabeling before = index.labeling();
    DirtyLabelTracker dirty;
    UpdateStats stats;
    stats.dirty = &dirty;
    ASSERT_TRUE(RemoveEdge(index, e.from, e.to, &stats));
    const std::set<Vertex> in(dirty.dirty_in().begin(),
                              dirty.dirty_in().end());
    const std::set<Vertex> out(dirty.dirty_out().begin(),
                               dirty.dirty_out().end());
    const HubLabeling& after = index.labeling();
    for (Vertex v = 0; v < after.num_vertices(); ++v) {
      if (before.in[v] != after.in[v]) {
        EXPECT_TRUE(in.count(v)) << "L_in(" << v << ") changed unmarked";
      }
      if (before.out[v] != after.out[v]) {
        EXPECT_TRUE(out.count(v)) << "L_out(" << v << ") changed unmarked";
      }
    }
  }
}

TEST(DecrementalTest, RemoveThenReinsertRestoresAnswers) {
  // The paper's Figure 11 workload: remove edges, insert them back.
  DiGraph g = RandomGraph(40, 2.0, 81);
  VertexOrdering order = DegreeOrdering(g);
  CscIndex index = CscIndex::Build(g, order);
  std::vector<CycleCount> before(g.num_vertices());
  for (Vertex v = 0; v < g.num_vertices(); ++v) before[v] = index.Query(v);

  std::vector<Edge> edges = SampleExistingEdges(g, 10, 82);
  for (const Edge& e : edges) ASSERT_TRUE(RemoveEdge(index, e.from, e.to));
  for (const Edge& e : edges) {
    ASSERT_TRUE(InsertEdge(index, e.from, e.to,
                           MaintenanceStrategy::kMinimality));
  }
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(index.Query(v), before[v]) << "vertex " << v;
  }
}

TEST(DecrementalTest, StatsReportDeletionsAndRecovery) {
  DiGraph g = Figure2Graph();
  CscIndex index = CscIndex::Build(g, Figure2Ordering());
  UpdateStats stats;
  ASSERT_TRUE(RemoveEdge(index, 6, 7, &stats));
  EXPECT_GT(stats.entries_removed, 0u);
  EXPECT_GT(stats.hubs_processed, 0u);
  EXPECT_GT(stats.seconds, 0.0);
}

TEST(DecrementalTest, WorksWithInvertedIndexesEnabled) {
  DiGraph g = RandomGraph(30, 2.0, 91);
  CscIndex::Options options;
  options.maintain_inverted_index = true;
  CscIndex index = CscIndex::Build(g, DegreeOrdering(g), options);
  for (const Edge& e : SampleExistingEdges(g, 8, 92)) {
    ASSERT_TRUE(RemoveEdge(index, e.from, e.to));
    ASSERT_TRUE(g.RemoveEdge(e.from, e.to));
    ExpectMatchesBfs(index, g, "inv-enabled removal");
  }
  // Inverted indexes must still exactly mirror the labeling.
  uint64_t in_entries = 0, out_entries = 0;
  for (Vertex v = 0; v < index.bipartite_graph().num_vertices(); ++v) {
    in_entries += index.labeling().in[v].size();
    out_entries += index.labeling().out[v].size();
  }
  EXPECT_EQ(index.inv_in().TotalEntries(), in_entries);
  EXPECT_EQ(index.inv_out().TotalEntries(), out_entries);
}

}  // namespace
}  // namespace csc
