// Dynamic witnesses for the lifetime contracts the static layer
// (util/lifetime_annotations.h + tools/check_contracts.py) can only assert:
// every zero-copy view handed out by the storage layer must keep its owner
// alive (or own its bytes) across mapping destruction, file re-maps, label
// slicing, patched clones, and snapshot retirement under concurrent
// queries. The CI address-sanitizer job runs this suite (ViewLifetime*)
// specifically: a keep-alive chain broken anywhere below turns into a
// use-after-munmap / use-after-free ASan report instead of a silent wrong
// answer.
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/cycle_index.h"
#include "core/label_patch.h"
#include "csc/index_io.h"
#include "serving/engine.h"
#include "serving/sharded_engine.h"
#include "tests/test_util.h"
#include "util/env.h"

namespace csc {
namespace {

class TempFile {
 public:
  explicit TempFile(const std::string& tag)
      : path_(::testing::TempDir() + "csc_viewlife_" + tag + ".idx") {}
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::vector<CycleCount> GroundTruth(CycleIndex& index, Vertex n) {
  std::vector<CycleCount> out;
  out.reserve(n);
  for (Vertex v = 0; v < n; ++v) out.push_back(index.CountShortestCycles(v));
  return out;
}

// The mapped index must serve out of the file pages even after the last
// explicit IndexFile handle is dropped AND the file itself is overwritten
// with a different index: the keep-alive threaded through LoadView is the
// only thing keeping the original pages alive.
TEST(ViewLifetimeTest, MappedIndexSurvivesHandleDropAndFileOverwrite) {
  TempFile file("overwrite");
  DiGraph graph = RandomGraph(60, 2.5, 101);
  std::unique_ptr<CycleIndex> built = MakeBackend("frozen");
  built->Build(graph);
  std::vector<CycleCount> expected =
      GroundTruth(*built, graph.num_vertices());
  ASSERT_TRUE(SaveBackendToFile(*built, file.path()));

  std::unique_ptr<CycleIndex> served;
  {
    std::shared_ptr<IndexFile> mapping = IndexFile::Open(file.path());
    ASSERT_NE(mapping, nullptr);
    BackendLoadResult loaded = LoadBackendFromMapping(mapping, "frozen");
    ASSERT_TRUE(loaded.ok()) << loaded.error;
    served = std::move(loaded.index);
  }
  // Replace the on-disk bytes with an index over a different graph; the
  // in-memory view must not notice (its owner is the retained mapping, not
  // the path).
  std::unique_ptr<CycleIndex> other = MakeBackend("frozen");
  other->Build(RandomGraph(30, 2.0, 202));
  ASSERT_TRUE(SaveBackendToFile(*other, file.path()));

  for (Vertex v = 0; v < graph.num_vertices(); ++v) {
    EXPECT_EQ(served->CountShortestCycles(v), expected[v]) << "v=" << v;
  }
}

// SliceLabels against a mapping-backed index materializes the surviving
// runs into owned storage: destroying the mapping handle afterwards must
// leave kept vertices answering exactly and dropped vertices answering
// empty — never touching unmapped pages.
TEST(ViewLifetimeTest, SlicedIndexSurvivesMappingDestruction) {
  TempFile file("sliced");
  DiGraph graph = RandomGraph(80, 2.5, 303);
  std::unique_ptr<CycleIndex> built = MakeBackend("frozen");
  built->Build(graph);
  std::vector<CycleCount> expected =
      GroundTruth(*built, graph.num_vertices());
  ASSERT_TRUE(SaveBackendToFile(*built, file.path()));

  std::shared_ptr<IndexFile> mapping = IndexFile::Open(file.path());
  ASSERT_NE(mapping, nullptr);
  BackendLoadResult loaded = LoadBackendFromMapping(mapping, "frozen");
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  ASSERT_TRUE(
      loaded.index->SliceLabels([](Vertex v) { return v % 2 == 0; }));
  mapping.reset();

  for (Vertex v = 0; v < graph.num_vertices(); ++v) {
    if (v % 2 == 0) {
      EXPECT_EQ(loaded.index->CountShortestCycles(v), expected[v])
          << "kept v=" << v;
    } else {
      EXPECT_EQ(loaded.index->CountShortestCycles(v), CycleCount{})
          << "dropped v=" << v;
    }
  }
}

// ApplyLabelPatch clones re-encode only the pages their runs touch and share
// every other page with the source, view pages included; each view page
// holds the mapping's keep-alive. So the clone must keep serving after both
// the index it was cloned from and the last outside handle on the mapping
// are destroyed.
TEST(ViewLifetimeTest, PatchedCloneSurvivesSourceAndMappingDestruction) {
  TempFile file("patched");
  DiGraph graph = RandomGraph(70, 2.5, 404);
  std::unique_ptr<CycleIndex> built = MakeBackend("frozen");
  built->Build(graph);
  std::vector<CycleCount> expected =
      GroundTruth(*built, graph.num_vertices());
  ASSERT_TRUE(SaveBackendToFile(*built, file.path()));

  std::unique_ptr<CycleIndex> clone;
  {
    std::shared_ptr<IndexFile> mapping = IndexFile::Open(file.path());
    ASSERT_NE(mapping, nullptr);
    BackendLoadResult loaded = LoadBackendFromMapping(mapping, "frozen");
    ASSERT_TRUE(loaded.ok()) << loaded.error;
    ASSERT_TRUE(loaded.index->supports_label_patch());
    clone = loaded.index->ApplyLabelPatch(LabelPatch{});
    ASSERT_NE(clone, nullptr);
    // Source index and mapping handle both die here.
  }
  for (Vertex v = 0; v < graph.num_vertices(); ++v) {
    EXPECT_EQ(clone->CountShortestCycles(v), expected[v]) << "v=" << v;
  }
}

// A sharded engine loaded from one shared mapping, sliced to per-shard
// runs, must keep answering across repeated re-maps of the same file: each
// LoadFromFile generation opens a fresh mapping and retires the previous
// one, whose pages may only disappear once no shard snapshot views them.
TEST(ViewLifetimeTest, ShardedRemapGenerationsServeIdentically) {
  TempFile file("sharded_remap");
  DiGraph graph = RandomGraph(90, 2.5, 505);
  EngineOptions single_options;
  single_options.backend = "frozen";
  Engine single(single_options);
  ASSERT_TRUE(single.Build(graph));
  std::vector<CycleCount> expected = single.QueryAll();

  ShardedEngineOptions options;
  options.backend = "frozen";
  options.num_shards = 3;
  options.slice_labels = true;
  ShardedEngine built(options);
  ASSERT_TRUE(built.Build(graph));
  std::string payload;
  ASSERT_TRUE(built.SaveTo(payload));
  ASSERT_TRUE(SavePayloadToFile(payload, file.path()));

  ShardedEngine served(options);
  for (int generation = 0; generation < 8; ++generation) {
    std::string error;
    ASSERT_TRUE(served.LoadFromFile(file.path(), &error)) << error;
    EXPECT_EQ(served.QueryAll(), expected) << "generation=" << generation;
  }
}

// Readers keep querying retired snapshots while the writer re-maps the
// index file over and over: an in-flight query's snapshot must keep its
// generation's mapping alive after the swap retires it. Under ASan a
// dropped keep-alive is a use-after-munmap here, not a flake.
TEST(ViewLifetimeStressTest, ConcurrentQueriesAcrossRemapGenerations) {
  constexpr int kReaderThreads = 4;
  constexpr int kGenerations = 24;
  TempFile file("remap_stress");
  DiGraph graph = RandomGraph(80, 3.0, 606);
  EngineOptions options;
  options.backend = "frozen";
  Engine built(options);
  ASSERT_TRUE(built.Build(graph));
  std::vector<CycleCount> expected = built.QueryAll();
  std::string payload;
  ASSERT_TRUE(built.SaveTo(payload));
  ASSERT_TRUE(SavePayloadToFile(payload, file.path()));

  Engine served(options);
  std::string error;
  ASSERT_TRUE(served.LoadFromFile(file.path(), &error)) << error;

  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaderThreads);
  for (int t = 0; t < kReaderThreads; ++t) {
    readers.emplace_back([&, t] {
      Vertex v = static_cast<Vertex>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        if (served.Query(v) != expected[v]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        v = (v + 1) % graph.num_vertices();
      }
    });
  }
  // Writer: every LoadFromFile opens a fresh mapping and swaps it in; the
  // previous generation's mapping survives exactly as long as in-flight
  // readers hold its snapshot.
  for (int generation = 0; generation < kGenerations; ++generation) {
    ASSERT_TRUE(served.LoadFromFile(file.path(), &error)) << error;
  }
  stop.store(true);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(served.QueryAll(), expected);
}

}  // namespace
}  // namespace csc
