// The CycleIndex backend adapters and registry: every concrete
// shortest-cycle engine in the library, reachable by name. Adapters own
// their engine (and, when maintenance needs it, a copy of the graph) so a
// backend can be built, queried, updated, and persisted through the
// interface alone.
#include <algorithm>
#include <optional>
#include <utility>

#include "baseline/bfs_cycle.h"
#include "baseline/precompute_all.h"
#include "core/cycle_index.h"
#include "core/label_patch.h"
#include "csc/cached_index.h"
#include "csc/compact_index.h"
#include "csc/csc_index.h"
#include "csc/frozen_index.h"
#include "dynamic/decremental.h"
#include "dynamic/incremental.h"
#include "graph/ordering.h"
#include "hpspc/hpspc_index.h"
#include "labeling/compressed.h"
#include "util/timer.h"

namespace csc {

namespace {

using UpdateResult = CycleIndex::UpdateResult;

// Shared name/stats plumbing for every adapter.
class BackendBase : public CycleIndex {
 public:
  explicit BackendBase(std::string name) : name_(std::move(name)) {}
  const std::string& name() const override { return name_; }

  BackendStats Stats() const override {
    BackendStats stats;
    stats.name = name_;
    stats.num_vertices = num_vertices();
    stats.label_entries = LabelEntries();
    stats.memory_bytes = MemoryBytes();
    stats.build_seconds = build_seconds_;
    stats.build_threads = build_threads_;
    stats.supports_updates = supports_updates();
    stats.supports_save = supports_save();
    stats.thread_safe_queries = thread_safe_queries();
    stats.patch_hubs_repaired = patch_hubs_repaired_;
    stats.patch_label_bytes = patch_label_bytes_;
    stats.patches_since_rebuild = patches_since_rebuild_;
    return stats;
  }

 protected:
  virtual uint64_t LabelEntries() const { return 0; }

  // Carries identity and accumulates damage counters onto a patched clone
  // (ApplyLabelPatch); a fresh Build/LoadFrom leaves them zeroed.
  void InheritPatched(const BackendBase& source, const LabelPatch& patch) {
    build_seconds_ = source.build_seconds_;
    build_threads_ = source.build_threads_;
    patch_hubs_repaired_ = source.patch_hubs_repaired_ + patch.RunCount();
    patch_label_bytes_ = source.patch_label_bytes_ + patch.LabelBytes();
    patches_since_rebuild_ = source.patches_since_rebuild_ + 1;
  }

  void ResetPatchCounters() {
    patch_hubs_repaired_ = 0;
    patch_label_bytes_ = 0;
    patches_since_rebuild_ = 0;
  }

  static UpdateResult FromBool(bool applied) {
    return applied ? UpdateResult::kApplied : UpdateResult::kRejected;
  }

  // Rough adjacency footprint of a DiGraph (both directions materialized).
  static uint64_t GraphBytes(const DiGraph& graph) {
    return 2 * graph.num_edges() * sizeof(Vertex) +
           2ull * graph.num_vertices() * sizeof(std::vector<Vertex>);
  }

  std::string name_;
  double build_seconds_ = 0;
  unsigned build_threads_ = 0;
  uint64_t patch_hubs_repaired_ = 0;
  uint64_t patch_label_bytes_ = 0;
  uint64_t patches_since_rebuild_ = 0;
};

// "csc": the paper's dynamic 2-hop index; supports incremental/decremental
// maintenance and persists its compact reduction.
class CscBackend : public BackendBase {
 public:
  CscBackend() : BackendBase("csc") {}

  void Build(const DiGraph& graph, const BuildOptions& options) override {
    Timer timer;
    CscIndex::Options o;
    o.maintain_inverted_index = options.maintain_inverted_index;
    o.reserve_vertices = options.reserve_vertices;
    o.build_threads = options.num_threads;
    index_ = CscIndex::Build(graph, DegreeOrdering(graph), o);
    labels_may_be_redundant_ = false;
    build_seconds_ = timer.ElapsedSeconds();
    build_threads_ = options.num_threads;
  }

  CycleCount CountShortestCycles(Vertex v) override {
    if (!index_ || v >= index_->num_original_vertices()) return {};
    return index_->Query(v);
  }

  UpdateResult InsertEdge(Vertex u, Vertex v) override {
    if (!index_) return UpdateResult::kUnsupported;
    // Built with inverted indexes => the caller asked for minimal labels;
    // exercise the cleaning strategy. Otherwise the paper's preferred
    // update-with-redundancy mode.
    MaintenanceStrategy strategy = index_->has_inverted_index()
                                       ? MaintenanceStrategy::kMinimality
                                       : MaintenanceStrategy::kRedundancy;
    bool applied = csc::InsertEdge(*index_, u, v, strategy);
    if (applied && strategy == MaintenanceStrategy::kRedundancy) {
      labels_may_be_redundant_ = true;
    }
    return FromBool(applied);
  }

  UpdateResult DeleteEdge(Vertex u, Vertex v) override {
    if (!index_) return UpdateResult::kUnsupported;
    // RemoveEdge needs a minimal index (dynamic/decremental.h).
    if (labels_may_be_redundant_) {
      index_->Rebuild();
      labels_may_be_redundant_ = false;
    }
    return FromBool(csc::RemoveEdge(*index_, u, v));
  }

  bool SaveTo(std::string& bytes) const override {
    if (!index_) return false;
    bytes = CompactIndex::FromIndex(*index_).Serialize();
    return true;
  }

  Vertex num_vertices() const override {
    return index_ ? index_->num_original_vertices() : 0;
  }

  uint64_t MemoryBytes() const override {
    if (!index_) return 0;
    return index_->SizeBytes() + GraphBytes(index_->bipartite_graph());
  }

  bool supports_updates() const override { return true; }
  bool supports_save() const override { return true; }
  bool thread_safe_queries() const override { return true; }

 protected:
  uint64_t LabelEntries() const override {
    return index_ ? index_->TotalEntries() : 0;
  }

 private:
  std::optional<CscIndex> index_;
  // Set by an applied redundancy-mode insert, cleared by a (re)build.
  bool labels_may_be_redundant_ = false;
};

// "cached": the memoizing dynamic front; repeat queries between updates
// collapse to an array read.
class CachedBackend : public BackendBase {
 public:
  CachedBackend() : BackendBase("cached") {}

  void Build(const DiGraph& graph, const BuildOptions& options) override {
    Timer timer;
    CscIndex::Options o;
    o.maintain_inverted_index = options.maintain_inverted_index;
    o.reserve_vertices = options.reserve_vertices;
    o.build_threads = options.num_threads;
    cached_.emplace(CscIndex::Build(graph, DegreeOrdering(graph), o));
    labels_may_be_redundant_ = false;
    build_seconds_ = timer.ElapsedSeconds();
    build_threads_ = options.num_threads;
  }

  CycleCount CountShortestCycles(Vertex v) override {
    if (!cached_ || v >= cached_->num_original_vertices()) return {};
    return cached_->Query(v);
  }

  UpdateResult InsertEdge(Vertex u, Vertex v) override {
    if (!cached_) return UpdateResult::kUnsupported;
    MaintenanceStrategy strategy = cached_->index().has_inverted_index()
                                       ? MaintenanceStrategy::kMinimality
                                       : MaintenanceStrategy::kRedundancy;
    bool applied = cached_->InsertEdge(u, v, strategy);
    if (applied && strategy == MaintenanceStrategy::kRedundancy) {
      labels_may_be_redundant_ = true;
    }
    return FromBool(applied);
  }

  UpdateResult DeleteEdge(Vertex u, Vertex v) override {
    if (!cached_) return UpdateResult::kUnsupported;
    // RemoveEdge needs a minimal index (dynamic/decremental.h).
    if (labels_may_be_redundant_) {
      cached_->Rebuild();
      labels_may_be_redundant_ = false;
    }
    return FromBool(cached_->RemoveEdge(u, v));
  }

  bool SaveTo(std::string& bytes) const override {
    if (!cached_) return false;
    bytes = CompactIndex::FromIndex(cached_->index()).Serialize();
    return true;
  }

  Vertex num_vertices() const override {
    return cached_ ? cached_->num_original_vertices() : 0;
  }

  uint64_t MemoryBytes() const override {
    if (!cached_) return 0;
    return cached_->index().SizeBytes() +
           GraphBytes(cached_->index().bipartite_graph()) +
           cached_->num_original_vertices() *
               (sizeof(uint64_t) + sizeof(CycleCount));
  }

  bool supports_updates() const override { return true; }
  bool supports_save() const override { return true; }
  // Query memoizes (mutates the cache): externally serialize.
  bool thread_safe_queries() const override { return false; }

 protected:
  uint64_t LabelEntries() const override {
    return cached_ ? cached_->index().TotalEntries() : 0;
  }

 private:
  std::optional<CachedCscIndex> cached_;
  // Set by an applied redundancy-mode insert, cleared by a (re)build.
  bool labels_may_be_redundant_ = false;
};

// "compact": the §IV.E reduction — half the labels, the interchange
// serialization format.
class CompactBackend : public BackendBase {
 public:
  CompactBackend() : BackendBase("compact") {}

  void Build(const DiGraph& graph, const BuildOptions& options) override {
    Timer timer;
    CscIndex::Options o;
    o.reserve_vertices = options.reserve_vertices;
    o.build_threads = options.num_threads;
    index_ = CompactIndex::FromIndex(
        CscIndex::Build(graph, DegreeOrdering(graph), o));
    build_seconds_ = timer.ElapsedSeconds();
    build_threads_ = options.num_threads;
    ResetPatchCounters();
  }

  CycleCount CountShortestCycles(Vertex v) override {
    if (!index_ || v >= index_->num_original_vertices()) return {};
    return index_->Query(v);
  }

  bool SaveTo(std::string& bytes) const override {
    if (!index_) return false;
    bytes = index_->Serialize();
    return true;
  }

  bool LoadFrom(const std::string& bytes) override {
    Timer timer;
    auto loaded = CompactIndex::Deserialize(bytes);
    if (!loaded) return false;
    index_ = std::move(*loaded);
    build_seconds_ = timer.ElapsedSeconds();
    build_threads_ = 0;
    ResetPatchCounters();
    return true;
  }

  // Copying repair fallback: clones the per-vertex label sets and swaps in
  // the replacements (no arena here to run-edit).
  std::unique_ptr<CycleIndex> ApplyLabelPatch(
      const LabelPatch& patch) override {
    if (!index_) return nullptr;
    const Vertex n = index_->num_original_vertices();
    if ((patch.num_vertices != 0 && patch.num_vertices != n) ||
        !patch.WellFormed(n)) {
      return nullptr;
    }
    auto clone = std::make_unique<CompactBackend>();
    clone->index_ = index_->WithEditedLabels(patch.in_runs, patch.out_runs);
    clone->InheritPatched(*this, patch);
    return clone;
  }

  bool supports_label_patch() const override { return true; }

  Vertex num_vertices() const override {
    return index_ ? index_->num_original_vertices() : 0;
  }

  uint64_t MemoryBytes() const override {
    if (!index_) return 0;
    return index_->SizeBytes() +
           2ull * index_->num_original_vertices() * sizeof(std::vector<int>);
  }

  bool supports_save() const override { return true; }
  bool thread_safe_queries() const override { return true; }

 protected:
  uint64_t LabelEntries() const override {
    return index_ ? index_->TotalEntries() : 0;
  }

 private:
  std::optional<CompactIndex> index_;
};

// Shared plumbing for the two flat arena forms ("frozen", "compressed"):
// identical build chain and load fallbacks, different arena encoding.
template <typename Index>
class FlatBackend : public BackendBase {
 public:
  using BackendBase::BackendBase;

  void Build(const DiGraph& graph, const BuildOptions& options) override {
    Timer timer;
    CscIndex::Options o;
    o.reserve_vertices = options.reserve_vertices;
    o.build_threads = options.num_threads;
    index_ = Index::FromCompact(CompactIndex::FromIndex(
        CscIndex::Build(graph, DegreeOrdering(graph), o)));
    build_seconds_ = timer.ElapsedSeconds();
    build_threads_ = options.num_threads;
    ResetPatchCounters();
  }

  CycleCount CountShortestCycles(Vertex v) override {
    return index_.Query(v);
  }

  bool SaveTo(std::string& bytes) const override {
    bytes = index_.Serialize();
    return true;
  }

  bool LoadFrom(const std::string& bytes) override {
    Timer timer;
    // Native flat payload first, then the compact interchange format.
    if (auto native = Index::Deserialize(bytes)) {
      index_ = std::move(*native);
      build_seconds_ = timer.ElapsedSeconds();
      build_threads_ = 0;
      ResetPatchCounters();
      return true;
    }
    if (auto compact = CompactIndex::Deserialize(bytes)) {
      index_ = Index::FromCompact(*compact);
      build_seconds_ = timer.ElapsedSeconds();
      build_threads_ = 0;
      ResetPatchCounters();
      return true;
    }
    return false;
  }

  bool LoadView(const uint8_t* data, size_t size,
                std::shared_ptr<const void> keep_alive) override {
    Timer timer;
    // Native payloads serve zero-copy straight from the mapping; anything
    // else (the compact interchange format) takes the copying path.
    if (auto native = Index::FromView(data, size, std::move(keep_alive))) {
      index_ = std::move(*native);
      build_seconds_ = timer.ElapsedSeconds();
      build_threads_ = 0;
      ResetPatchCounters();
      return true;
    }
    return CycleIndex::LoadView(data, size, nullptr);
  }

  bool SliceLabels(const std::function<bool(Vertex)>& keep) override {
    index_.SliceTo(keep);
    return true;
  }

  // Bounded repair: clone with only the arena pages holding a patched run
  // re-encoded (LabelArena::WithEditedRuns); every other page is shared with
  // this snapshot. Untouched pages of a view-backed index keep viewing the
  // mapping, whose keep-alive they hold. A malformed patch is refused.
  std::unique_ptr<CycleIndex> ApplyLabelPatch(
      const LabelPatch& patch) override {
    const Vertex n = index_.num_original_vertices();
    if ((patch.num_vertices != 0 && patch.num_vertices != n) ||
        !patch.WellFormed(n)) {
      return nullptr;
    }
    auto clone = std::make_unique<FlatBackend<Index>>(name_);
    clone->index_ = index_.WithEditedRuns(patch.in_runs, patch.out_runs);
    clone->InheritPatched(*this, patch);
    return clone;
  }

  bool supports_label_patch() const override { return true; }

  Vertex num_vertices() const override {
    return index_.num_original_vertices();
  }

  uint64_t MemoryBytes() const override { return index_.MemoryBytes(); }

  bool supports_save() const override { return true; }
  bool thread_safe_queries() const override { return true; }

 protected:
  uint64_t LabelEntries() const override { return index_.TotalEntries(); }

 private:
  Index index_;
};

// "bfs": the index-free Algorithm 1 baseline. Updates are trivially
// supported (there is no index to repair), queries cost O(n + m).
class BfsBackend : public BackendBase {
 public:
  BfsBackend() : BackendBase("bfs") {}

  void Build(const DiGraph& graph, const BuildOptions& options) override {
    graph_ = graph;
    if (options.reserve_vertices > 0) graph_.AddVertices(options.reserve_vertices);
    counter_.emplace(graph_);
    build_seconds_ = 0;
  }

  CycleCount CountShortestCycles(Vertex v) override {
    if (!counter_ || v >= graph_.num_vertices()) return {};
    return counter_->CountCycles(v);
  }

  UpdateResult InsertEdge(Vertex u, Vertex v) override {
    if (!counter_) return UpdateResult::kUnsupported;
    return FromBool(graph_.AddEdge(u, v));
  }

  UpdateResult DeleteEdge(Vertex u, Vertex v) override {
    if (!counter_) return UpdateResult::kUnsupported;
    return FromBool(graph_.RemoveEdge(u, v));
  }

  Vertex num_vertices() const override { return graph_.num_vertices(); }

  uint64_t MemoryBytes() const override {
    return GraphBytes(graph_) +
           graph_.num_vertices() * (sizeof(Dist) + sizeof(Count));
  }

  bool supports_updates() const override { return true; }
  // The counter reuses per-query scratch arrays.
  bool thread_safe_queries() const override { return false; }

 private:
  DiGraph graph_;
  std::optional<BfsCycleCounter> counter_;
};

// "precompute": the O(1)-query straw-man; every update pays a full rebuild
// (the cost the paper's dynamic algorithms are measured against).
class PrecomputeBackend : public BackendBase {
 public:
  PrecomputeBackend() : BackendBase("precompute") {}

  void Build(const DiGraph& graph, const BuildOptions& options) override {
    graph_ = graph;
    if (options.reserve_vertices > 0) graph_.AddVertices(options.reserve_vertices);
    index_ = PrecomputeAllIndex::Build(graph_);
    build_seconds_ = index_->build_seconds();
  }

  CycleCount CountShortestCycles(Vertex v) override {
    if (!index_ || v >= index_->num_vertices()) return {};
    return index_->Query(v);
  }

  UpdateResult InsertEdge(Vertex u, Vertex v) override {
    if (!index_) return UpdateResult::kUnsupported;
    if (!graph_.AddEdge(u, v)) return UpdateResult::kRejected;
    index_->ApplyUpdate(graph_);
    return UpdateResult::kApplied;
  }

  UpdateResult DeleteEdge(Vertex u, Vertex v) override {
    if (!index_) return UpdateResult::kUnsupported;
    if (!graph_.RemoveEdge(u, v)) return UpdateResult::kRejected;
    index_->ApplyUpdate(graph_);
    return UpdateResult::kApplied;
  }

  Vertex num_vertices() const override { return graph_.num_vertices(); }

  uint64_t MemoryBytes() const override {
    return (index_ ? index_->SizeBytes() : 0) + GraphBytes(graph_);
  }

  bool supports_updates() const override { return true; }
  bool thread_safe_queries() const override { return true; }

 private:
  DiGraph graph_;
  std::optional<PrecomputeAllIndex> index_;
};

// "hpspc": the HP-SPC competitor labeling over the original graph, SCCnt by
// neighborhood reduction.
class HpSpcBackend : public BackendBase {
 public:
  HpSpcBackend() : BackendBase("hpspc") {}

  void Build(const DiGraph& graph, const BuildOptions& options) override {
    Timer timer;
    graph_ = graph;
    if (options.reserve_vertices > 0) graph_.AddVertices(options.reserve_vertices);
    // HpSpcIndex keeps a pointer to the graph; graph_ outlives it here.
    index_.emplace(
        HpSpcIndex::Build(graph_, DegreeOrdering(graph_), options.num_threads));
    build_seconds_ = timer.ElapsedSeconds();
    build_threads_ = options.num_threads;
  }

  CycleCount CountShortestCycles(Vertex v) override {
    if (!index_ || v >= graph_.num_vertices()) return {};
    return index_->CountCycles(v);
  }

  Vertex num_vertices() const override { return graph_.num_vertices(); }

  uint64_t MemoryBytes() const override {
    return (index_ ? index_->labeling().SizeBytes() : 0) + GraphBytes(graph_);
  }

  bool thread_safe_queries() const override { return true; }

 protected:
  uint64_t LabelEntries() const override {
    return index_ ? index_->labeling().TotalEntries() : 0;
  }

 private:
  DiGraph graph_;
  std::optional<HpSpcIndex> index_;
};

}  // namespace

std::unique_ptr<CycleIndex> MakeBackend(const std::string& name) {
  if (name == "csc") return std::make_unique<CscBackend>();
  if (name == "compact") return std::make_unique<CompactBackend>();
  if (name == "frozen") {
    return std::make_unique<FlatBackend<FrozenIndex>>("frozen");
  }
  if (name == "compressed") {
    return std::make_unique<FlatBackend<CompressedIndex>>("compressed");
  }
  if (name == "cached") return std::make_unique<CachedBackend>();
  if (name == "bfs") return std::make_unique<BfsBackend>();
  if (name == "precompute") return std::make_unique<PrecomputeBackend>();
  if (name == "hpspc") return std::make_unique<HpSpcBackend>();
  return nullptr;
}

const std::vector<std::string>& AllBackendNames() {
  static const std::vector<std::string> kNames = {
      "csc",    "compact", "frozen",     "compressed",
      "cached", "bfs",     "precompute", "hpspc"};
  return kNames;
}

bool IsRegisteredBackend(const std::string& name) {
  const std::vector<std::string>& names = AllBackendNames();
  return std::find(names.begin(), names.end(), name) != names.end();
}

}  // namespace csc
