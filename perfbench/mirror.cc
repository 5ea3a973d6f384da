#include "mirror.h"

#include "core/label_patch.h"
#include "dynamic/batch.h"
#include "dynamic/decremental.h"
#include "dynamic/incremental.h"
#include "dynamic/patch.h"

namespace perfbench {
namespace {

csc::CscIndex::Options MirrorOptions(Mirror::Mode mode) {
  csc::CscIndex::Options options;
  // The repair shadow keeps inverted indexes (minimality mode); the csc
  // backend's default build does not.
  options.maintain_inverted_index = mode == Mirror::Mode::kShadow;
  return options;
}

csc::CscIndex TimedBuild(const csc::DiGraph& graph,
                         const csc::VertexOrdering& order, Mirror::Mode mode,
                         int64_t* ns) {
  int64_t t0 = NowNs();
  csc::CscIndex index = csc::CscIndex::Build(graph, order, MirrorOptions(mode));
  *ns = NowNs() - t0;
  return index;
}

double PerOp(uint64_t total, uint64_t ops) {
  return ops == 0 ? 0.0
                  : static_cast<double>(total) / static_cast<double>(ops);
}

}  // namespace

Mirror::Mirror(const csc::DiGraph& graph, Mode mode)
    : mode_(mode),
      order_(csc::DegreeOrdering(graph)),
      index_(TimedBuild(graph, order_, mode, &build_ns_)),
      probe_(csc::FrozenIndex::FromIndex(index_)) {}

void Mirror::Replay(const csc::EdgeUpdate& op, uint32_t parent,
                    uint64_t request, Tracer& tracer) {
  const bool insert = op.kind == csc::UpdateKind::kInsert;
  dirty_.Reset();
  csc::UpdateStats stats;
  int64_t t0 = NowNs();
  if (mode_ == Mode::kShadow) {
    csc::BatchOptions options;
    options.strategy = csc::MaintenanceStrategy::kMinimality;
    options.pinned_order = &order_;
    options.dirty = &dirty_;
    csc::BatchResult result = csc::ApplyUpdates(index_, {op}, options);
    stats = result.stats;
  } else {
    stats.dirty = &dirty_;
    if (insert) {
      (void)csc::InsertEdge(index_, op.edge.from, op.edge.to,
                            csc::MaintenanceStrategy::kRedundancy, &stats);
    } else {
      (void)csc::RemoveEdge(index_, op.edge.from, op.edge.to, &stats);
    }
  }
  int64_t t1 = NowNs();
  csc::LabelPatch patch = csc::ExtractLabelPatch(index_, dirty_);
  int64_t t2 = NowNs();
  probe_ = probe_.WithEditedRuns(patch.in_runs, patch.out_runs);
  int64_t t3 = NowNs();

  const uint32_t patch_parent = mode_ == Mode::kShadow ? parent : 0;
  tracer.Add(insert ? "dynamic.insert" : "dynamic.remove", parent, request,
             t0, t1);
  tracer.Add("dynamic.patch_extract", patch_parent, request, t1, t2);
  tracer.Add("core.patch_apply", patch_parent, request, t2, t3);

  Counts& c = insert ? inserts_ : removes_;
  ++c.ops;
  c.hubs += stats.hubs_processed;
  c.visited += stats.vertices_visited;
  c.entries_changed +=
      stats.entries_added + stats.entries_updated + stats.entries_removed;
  patch_runs_ += patch.RunCount();
  patch_bytes_ += patch.LabelBytes();
}

void Mirror::ReportLayers(Report& report) const {
  const uint64_t ops = inserts_.ops + removes_.ops;
  report.Metric("dynamic.hubs_per_insert", PerOp(inserts_.hubs, inserts_.ops),
                "count");
  report.Metric("dynamic.hubs_per_remove", PerOp(removes_.hubs, removes_.ops),
                "count");
  report.Metric("dynamic.visited_per_insert",
                PerOp(inserts_.visited, inserts_.ops), "count");
  report.Metric("dynamic.visited_per_remove",
                PerOp(removes_.visited, removes_.ops), "count");
  report.Metric("dynamic.entries_changed_per_insert",
                PerOp(inserts_.entries_changed, inserts_.ops), "count");
  report.Metric("dynamic.entries_changed_per_remove",
                PerOp(removes_.entries_changed, removes_.ops), "count");
  report.Metric("dynamic.patch_runs_per_op", PerOp(patch_runs_, ops), "count");
  report.Metric("dynamic.patch_bytes_per_op", PerOp(patch_bytes_, ops),
                "bytes");
}

}  // namespace perfbench
