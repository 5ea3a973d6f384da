#include "labeling/label_set.h"

#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "labeling/hub_labeling.h"
#include "util/random.h"

namespace csc {
namespace {

TEST(LabelSetTest, AppendAndFind) {
  LabelSet labels;
  labels.Append(LabelEntry(1, 2, 3));
  labels.Append(LabelEntry(4, 5, 6));
  labels.Append(LabelEntry(9, 1, 1));
  EXPECT_EQ(labels.size(), 3u);
  ASSERT_NE(labels.Find(4), nullptr);
  EXPECT_EQ(labels.Find(4)->dist(), 5u);
  EXPECT_EQ(labels.Find(7), nullptr);
}

TEST(LabelSetTest, InsertOrReplaceKeepsRankOrder) {
  LabelSet labels;
  labels.Append(LabelEntry(2, 1, 1));
  labels.Append(LabelEntry(8, 1, 1));
  labels.InsertOrReplace(LabelEntry(5, 7, 7));   // middle insert
  labels.InsertOrReplace(LabelEntry(0, 9, 9));   // front insert
  labels.InsertOrReplace(LabelEntry(8, 3, 4));   // overwrite
  ASSERT_EQ(labels.size(), 4u);
  const auto& e = labels.entries();
  for (size_t i = 1; i < e.size(); ++i) EXPECT_LT(e[i - 1].hub(), e[i].hub());
  EXPECT_EQ(labels.Find(8)->dist(), 3u);
  EXPECT_EQ(labels.Find(8)->count(), 4u);
}

TEST(LabelSetTest, RemoveExistingAndMissing) {
  LabelSet labels;
  labels.Append(LabelEntry(1, 1, 1));
  labels.Append(LabelEntry(2, 2, 2));
  EXPECT_TRUE(labels.Remove(1));
  EXPECT_EQ(labels.size(), 1u);
  EXPECT_FALSE(labels.Remove(1));
  EXPECT_NE(labels.Find(2), nullptr);
}

TEST(LabelSetTest, SizeBytesIsEightPerEntry) {
  LabelSet labels;
  labels.Append(LabelEntry(1, 1, 1));
  labels.Append(LabelEntry(2, 1, 1));
  EXPECT_EQ(labels.SizeBytes(), 16u);
}

TEST(JoinLabelsTest, EmptyIntersectionIsUnreachable) {
  LabelSet out, in;
  out.Append(LabelEntry(1, 2, 1));
  in.Append(LabelEntry(3, 2, 1));
  JoinResult r = JoinLabels(out, in);
  EXPECT_EQ(r.dist, kInfDist);
  EXPECT_EQ(r.count, 0u);
}

TEST(JoinLabelsTest, PaperExample2) {
  // SPCnt(v10, v8) from Table II: common hubs v1, v7.
  // L_out(v10): (v1,1,1) (v7,3,1); L_in(v8): (v1,3,2) (v7,1,1).
  // Via v1: 1+3 = 4, count 1*2 = 2; via v7: 3+1 = 4, count 1*1 = 1.
  LabelSet out, in;
  out.Append(LabelEntry(0, 1, 1));  // hub rank 0 = v1
  out.Append(LabelEntry(1, 3, 1));  // hub rank 1 = v7
  in.Append(LabelEntry(0, 3, 2));
  in.Append(LabelEntry(1, 1, 1));
  JoinResult r = JoinLabels(out, in);
  EXPECT_EQ(r.dist, 4u);
  EXPECT_EQ(r.count, 3u);
}

TEST(JoinLabelsTest, ShorterHubWinsOverCounts) {
  LabelSet out, in;
  out.Append(LabelEntry(0, 1, 9));
  out.Append(LabelEntry(1, 1, 1));
  in.Append(LabelEntry(0, 5, 9));  // total 6
  in.Append(LabelEntry(1, 2, 4));  // total 3 <- min
  JoinResult r = JoinLabels(out, in);
  EXPECT_EQ(r.dist, 3u);
  EXPECT_EQ(r.count, 4u);
}

TEST(JoinLabelsTest, CountsMultiplyPerHubAndSumAcrossHubs) {
  LabelSet out, in;
  out.Append(LabelEntry(0, 1, 2));
  out.Append(LabelEntry(2, 2, 3));
  in.Append(LabelEntry(0, 2, 5));  // total 3, count 10
  in.Append(LabelEntry(2, 1, 4));  // total 3, count 12
  JoinResult r = JoinLabels(out, in);
  EXPECT_EQ(r.dist, 3u);
  EXPECT_EQ(r.count, 22u);
}

// The entries of `labels` with hub rank < `bound`.
LabelSet Below(const LabelSet& labels, Rank bound) {
  LabelSet result;
  for (const LabelEntry& e : labels.entries()) {
    if (e.hub() < bound) result.Append(e);
  }
  return result;
}

// The row join the pruned BFSs run: `root` loaded below `bound`, the
// higher-ranked prefix of `visited` scanned, early exit below `beat`.
Dist RowJoin(RootRow& row, const LabelSet& root, const LabelSet& visited,
             Rank bound, Dist beat) {
  row.Load(root, bound);
  const size_t end = visited.LowerBound(bound);
  Dist d = row.Join({visited.entries().data(), end}, beat);
  row.Unload(root, bound);
  return d;
}

LabelSet RandomLabels(Rng& rng, Rank num_ranks, double density) {
  LabelSet labels;
  for (Rank r = 0; r < num_ranks; ++r) {
    // Distances 0..3 make tied minima common.
    if (rng.NextBool(density)) {
      labels.Append(LabelEntry(r, static_cast<Dist>(rng.NextBounded(4)), 1));
    }
  }
  return labels;
}

TEST(RootRowTest, JoinMatchesMergeJoinBelowBound) {
  constexpr Rank kRanks = 48;
  RootRow row(kRanks);  // reused throughout: a stale entry would show

  // Hubs at or past the bound do not vote.
  LabelSet out, in;
  out.Append(LabelEntry(1, 1, 1));
  out.Append(LabelEntry(5, 0, 1));
  in.Append(LabelEntry(1, 1, 1));
  in.Append(LabelEntry(5, 0, 1));
  EXPECT_EQ(RowJoin(row, out, in, 6, 0), 0u);
  EXPECT_EQ(RowJoin(row, out, in, 5, 0), 2u);  // hub 5 excluded
  EXPECT_EQ(RowJoin(row, out, in, 1, 0), kInfDist);
  EXPECT_EQ(RowJoin(row, in, out, 1, 0), kInfDist);

  const double densities[] = {0.0, 0.05, 0.3, 0.9};
  Rng rng(20260418);
  for (int trial = 0; trial < 4000; ++trial) {
    const LabelSet a = RandomLabels(rng, kRanks, densities[rng.NextBounded(4)]);
    const LabelSet b = RandomLabels(rng, kRanks, densities[rng.NextBounded(4)]);
    Rank bound = 0;
    switch (rng.NextBounded(4)) {
      case 0:
        bound = 0;
        break;
      case 1:  // a hub rank the root holds
        bound = a.empty() ? 0 : a.entries()[rng.NextBounded(a.size())].hub();
        break;
      case 2:
        bound = std::numeric_limits<Rank>::max();
        break;
      default:
        bound = static_cast<Rank>(rng.NextBounded(kRanks + 1));
    }
    const Dist expected = JoinLabels(Below(a, bound), Below(b, bound)).dist;
    const std::string context = "trial " + std::to_string(trial) +
                                " bound " + std::to_string(bound);
    // The exact minimum when nothing can beat 0, with either side as the
    // root.
    EXPECT_EQ(RowJoin(row, a, b, bound, 0), expected) << context;
    EXPECT_EQ(RowJoin(row, b, a, bound, 0), expected) << context;
    // With a pruning distance: prunes exactly when the merge join would,
    // and is exact whenever it does not.
    const Dist beat = static_cast<Dist>(rng.NextBounded(8));
    const Dist got = RowJoin(row, a, b, bound, beat);
    EXPECT_EQ(got < beat, expected < beat) << context << " beat " << beat;
    EXPECT_GE(got, expected) << context;
    if (expected >= beat) {
      EXPECT_EQ(got, expected) << context;
    }
  }
}

TEST(HubLabelingTest, TotalEntriesAndQuery) {
  HubLabeling labeling;
  labeling.Resize(2);
  labeling.out[0].Append(LabelEntry(0, 0, 1));
  labeling.in[1].Append(LabelEntry(0, 3, 2));
  labeling.in[1].Append(LabelEntry(1, 0, 1));
  EXPECT_EQ(labeling.TotalEntries(), 3u);
  EXPECT_EQ(labeling.SizeBytes(), 24u);
  JoinResult r = labeling.Query(0, 1);
  EXPECT_EQ(r.dist, 3u);
  EXPECT_EQ(r.count, 2u);
}

}  // namespace
}  // namespace csc
