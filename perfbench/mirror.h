#ifndef CSC_PERFBENCH_MIRROR_H_
#define CSC_PERFBENCH_MIRROR_H_

#include <cstdint>

#include "csc/csc_index.h"
#include "csc/frozen_index.h"
#include "dynamic/edge_update.h"
#include "dynamic/update_stats.h"
#include "graph/digraph.h"
#include "graph/ordering.h"
#include "harness.h"
#include "trace.h"

namespace perfbench {

/// A standalone copy of the index a served engine maintains, on which a
/// traced run replays each update to time the layers ApplyUpdates hides:
/// the §V maintenance (`dynamic.insert` / `dynamic.remove`), the label
/// patch extraction (`dynamic.patch_extract`) and the patch applied to a
/// frozen copy (`core.patch_apply`).
class Mirror {
 public:
  enum class Mode {
    /// The "csc" backend's in-place maintenance: redundancy mode, one
    /// InsertEdge / RemoveEdge per op. The engine extracts and applies no
    /// patch, so those replays are recorded as probes (root spans), not as
    /// parts of the update.
    kInPlace,
    /// The repair shadow of a static backend: the batch path in minimality
    /// mode under the pinned degree ordering, then patch extract and apply,
    /// all parts (children) of the update.
    kShadow,
  };

  Mirror(const csc::DiGraph& graph, Mode mode);

  /// Replays `op`, recording its spans under `parent`.
  void Replay(const csc::EdgeUpdate& op, uint32_t parent, uint64_t request,
              Tracer& tracer);

  const csc::FrozenIndex& probe() const { return probe_; }

  /// Seconds CscIndex::Build took for the mirror: the labeling
  /// construction the engine ran at set-up.
  double build_seconds() const { return static_cast<double>(build_ns_) / 1e9; }

  /// Exact per-op work counts (UpdateStats, LabelPatch) as per-layer
  /// metrics.
  void ReportLayers(Report& report) const;

 private:
  struct Counts {
    uint64_t ops = 0;
    uint64_t hubs = 0;
    uint64_t visited = 0;
    uint64_t entries_changed = 0;
  };

  Mode mode_;
  csc::VertexOrdering order_;
  int64_t build_ns_ = 0;  // set while index_ is initialized
  csc::CscIndex index_;
  csc::FrozenIndex probe_;
  csc::DirtyLabelTracker dirty_;
  Counts inserts_;
  Counts removes_;
  uint64_t patch_runs_ = 0;
  uint64_t patch_bytes_ = 0;
};

}  // namespace perfbench

#endif  // CSC_PERFBENCH_MIRROR_H_
