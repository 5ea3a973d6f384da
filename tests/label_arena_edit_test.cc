// LabelArena::WithEditedRuns against the from-scratch oracle: after every
// edit the patched arena must equal FromLabelSets over the edited label sets,
// both logically (operator==, entry and byte totals, decoded runs) and on the
// wire (AppendTo bytes). The arenas span several hundred vertices so edits
// land on the first and last vertex, on both sides of run-page boundaries,
// and on a partial last page.
#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/label_arena.h"
#include "util/random.h"

namespace csc {
namespace {

using Edits = std::vector<std::pair<Vertex, LabelSet>>;

constexpr Vertex kVertices = 300;

// A rank-sorted run of exactly `entries` entries.
LabelSet RandomRun(Rng& rng, size_t entries) {
  LabelSet labels;
  Rank rank = 0;
  for (size_t i = 0; i < entries; ++i) {
    rank += 1 + static_cast<Rank>(rng.NextBounded(40));
    labels.Append(LabelEntry(rank, static_cast<Dist>(rng.NextBounded(12)),
                             1 + rng.NextBounded(4)));
  }
  return labels;
}

// Label sets of 0-9 entries; about one vertex in ten stays empty.
std::vector<LabelSet> RandomSets(Vertex n, uint64_t seed) {
  Rng rng(seed);
  std::vector<LabelSet> sets(n);
  for (LabelSet& labels : sets) labels = RandomRun(rng, rng.NextBounded(10));
  return sets;
}

// Applies `edits` to the reference label sets.
void ApplyToSets(const Edits& edits, std::vector<LabelSet>& sets) {
  for (const auto& [v, labels] : edits) sets[v] = labels;
}

void ExpectMatchesFreshBuild(const LabelArena& edited,
                             const std::vector<LabelSet>& sets,
                             ArenaEncoding encoding) {
  LabelArena fresh = LabelArena::FromLabelSets(sets, encoding);
  EXPECT_EQ(edited, fresh);
  EXPECT_EQ(edited.num_vertices(), fresh.num_vertices());
  EXPECT_EQ(edited.total_entries(), fresh.total_entries());
  EXPECT_EQ(edited.SizeBytes(), fresh.SizeBytes());
  std::string edited_bytes;
  std::string fresh_bytes;
  edited.AppendTo(edited_bytes);
  fresh.AppendTo(fresh_bytes);
  EXPECT_EQ(edited_bytes, fresh_bytes);
  for (Vertex v = 0; v < static_cast<Vertex>(sets.size()); ++v) {
    ASSERT_EQ(edited.DecodeRun(v), sets[v]) << "vertex " << v;
    ASSERT_EQ(edited.RunSize(v), sets[v].size()) << "vertex " << v;
  }
}

class LabelArenaEditTest : public ::testing::TestWithParam<ArenaEncoding> {
 protected:
  // Edits `vertices` (sorted, unique) with fresh random runs, checks the
  // result against a fresh build, and returns it.
  LabelArena EditAndCheck(const LabelArena& source,
                          const std::vector<Vertex>& vertices, Rng& rng,
                          std::vector<LabelSet>& sets) {
    Edits edits;
    for (Vertex v : vertices) {
      edits.emplace_back(v, RandomRun(rng, rng.NextBounded(12)));
    }
    LabelArena edited = source.WithEditedRuns(edits);
    ApplyToSets(edits, sets);
    ExpectMatchesFreshBuild(edited, sets, GetParam());
    return edited;
  }
};

TEST_P(LabelArenaEditTest, EmptyEditListCopiesTheArena) {
  std::vector<LabelSet> sets = RandomSets(kVertices, 3);
  LabelArena arena = LabelArena::FromLabelSets(sets, GetParam());
  ExpectMatchesFreshBuild(arena.WithEditedRuns({}), sets, GetParam());
}

TEST_P(LabelArenaEditTest, EditsFirstAndLastVertex) {
  std::vector<LabelSet> sets = RandomSets(kVertices, 5);
  LabelArena arena = LabelArena::FromLabelSets(sets, GetParam());
  Rng rng(7);
  LabelArena first = EditAndCheck(arena, {0}, rng, sets);
  EditAndCheck(first, {kVertices - 1}, rng, sets);
  // Both ends in one patch, with long runs so the payload shifts a lot.
  Edits edits = {{0, RandomRun(rng, 30)},
                 {kVertices - 1, RandomRun(rng, 30)}};
  LabelArena edited = arena.WithEditedRuns(edits);
  std::vector<LabelSet> expected = RandomSets(kVertices, 5);
  ApplyToSets(edits, expected);
  ExpectMatchesFreshBuild(edited, expected, GetParam());
}

TEST_P(LabelArenaEditTest, EditsAcrossRunPageBoundaries) {
  std::vector<LabelSet> sets = RandomSets(kVertices, 11);
  LabelArena arena = LabelArena::FromLabelSets(sets, GetParam());
  Rng rng(13);
  // Both sides of every 64- and 128-run boundary below n, plus a run of
  // consecutive vertices spanning one boundary completely.
  std::vector<Vertex> vertices = {31,  32,  63,  64,  127,
                                  128, 191, 192, 255, 256};
  for (Vertex v = 60; v < 70; ++v) vertices.push_back(v);
  std::sort(vertices.begin(), vertices.end());
  vertices.erase(std::unique(vertices.begin(), vertices.end()),
                 vertices.end());
  EditAndCheck(arena, vertices, rng, sets);
  // Every vertex of the arena in one patch.
  std::vector<Vertex> all(kVertices);
  for (Vertex v = 0; v < kVertices; ++v) all[v] = v;
  EditAndCheck(arena, all, rng, sets);
}

TEST_P(LabelArenaEditTest, EmptyAndNonEmptyRunsSwap) {
  std::vector<LabelSet> sets = RandomSets(kVertices, 17);
  LabelArena arena = LabelArena::FromLabelSets(sets, GetParam());
  Rng rng(19);
  Edits edits;
  for (Vertex v = 0; v < kVertices; v += 3) {
    LabelSet replacement;
    if (sets[v].empty()) replacement = RandomRun(rng, 1 + rng.NextBounded(8));
    edits.emplace_back(v, std::move(replacement));
  }
  LabelArena edited = arena.WithEditedRuns(edits);
  ApplyToSets(edits, sets);
  ExpectMatchesFreshBuild(edited, sets, GetParam());
  // An arena whose every run is empty, then refilled.
  Edits clear;
  for (Vertex v = 0; v < kVertices; ++v) clear.emplace_back(v, LabelSet());
  LabelArena cleared = edited.WithEditedRuns(clear);
  std::vector<LabelSet> empty(kVertices);
  ExpectMatchesFreshBuild(cleared, empty, GetParam());
  EXPECT_EQ(cleared.total_entries(), 0u);
  EXPECT_EQ(cleared.SizeBytes(), 0u);
  Edits refill = {{0, RandomRun(rng, 4)}, {150, RandomRun(rng, 9)}};
  ApplyToSets(refill, empty);
  ExpectMatchesFreshBuild(cleared.WithEditedRuns(refill), empty, GetParam());
}

TEST_P(LabelArenaEditTest, RunsGrowAndShrink) {
  std::vector<LabelSet> sets = RandomSets(kVertices, 23);
  LabelArena arena = LabelArena::FromLabelSets(sets, GetParam());
  Rng rng(29);
  Edits edits;
  for (Vertex v = 1; v < kVertices; v += 7) {
    // Alternate: grow to 3x + 5 entries, or shrink to half.
    size_t size = sets[v].size();
    size_t target = (v / 7) % 2 == 0 ? 3 * size + 5 : size / 2;
    edits.emplace_back(v, RandomRun(rng, target));
  }
  LabelArena edited = arena.WithEditedRuns(edits);
  ApplyToSets(edits, sets);
  ExpectMatchesFreshBuild(edited, sets, GetParam());
}

TEST_P(LabelArenaEditTest, FiftyPatchChain) {
  std::vector<LabelSet> sets = RandomSets(kVertices, 31);
  LabelArena arena = LabelArena::FromLabelSets(sets, GetParam());
  const LabelArena original = arena;
  const std::vector<LabelSet> original_sets = sets;
  Rng rng(37);
  for (int patch = 0; patch < 50; ++patch) {
    std::vector<Vertex> vertices;
    size_t touched = 1 + rng.NextBounded(19);
    for (size_t i = 0; i < touched; ++i) {
      vertices.push_back(static_cast<Vertex>(rng.NextBounded(kVertices)));
    }
    std::sort(vertices.begin(), vertices.end());
    vertices.erase(std::unique(vertices.begin(), vertices.end()),
                   vertices.end());
    SCOPED_TRACE(patch);
    arena = EditAndCheck(arena, vertices, rng, sets);
  }
  // The chain never wrote through to the arena it started from.
  ExpectMatchesFreshBuild(original, original_sets, GetParam());
}

TEST_P(LabelArenaEditTest, ViewBackedSource) {
  std::vector<LabelSet> sets = RandomSets(kVertices, 41);
  LabelArena built = LabelArena::FromLabelSets(sets, GetParam());
  auto bytes = std::make_shared<std::string>();
  built.AppendTo(*bytes);
  size_t pos = 0;
  auto view = LabelArena::ParseView(
      reinterpret_cast<const uint8_t*>(bytes->data()), bytes->size(), pos,
      bytes);
  ASSERT_TRUE(view.has_value());
  Rng rng(43);
  LabelArena edited = EditAndCheck(*view, {0, 64, 65, 200, kVertices - 1},
                                   rng, sets);
  // The source view is untouched by the edit.
  ExpectMatchesFreshBuild(*view, RandomSets(kVertices, 41), GetParam());
  // The patched arena keeps serving after the source view and the last
  // outside handle on the buffer are gone.
  view.reset();
  bytes.reset();
  ExpectMatchesFreshBuild(edited, sets, GetParam());
  EditAndCheck(edited, {1, 2, kVertices - 1}, rng, sets);
}

INSTANTIATE_TEST_SUITE_P(Encodings, LabelArenaEditTest,
                         ::testing::Values(ArenaEncoding::kPacked,
                                           ArenaEncoding::kVarint),
                         [](const auto& info) {
                           return info.param == ArenaEncoding::kPacked
                                      ? "Packed"
                                      : "Varint";
                         });

}  // namespace
}  // namespace csc
