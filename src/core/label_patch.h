#ifndef CSC_CORE_LABEL_PATCH_H_
#define CSC_CORE_LABEL_PATCH_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/label_arena.h"
#include "labeling/label_set.h"
#include "util/common.h"
#include "util/label_entry.h"

namespace csc {

/// A bounded label repair against a flat serving-tier index: the complete
/// replacement label sets of the vertices whose serving runs a batch of edge
/// updates touched, expressed in original-vertex space over the serving
/// forms' two arenas (in-labels of v's in-vertex, out-labels of v's
/// out-vertex — the compact reduction every flat form stores).
///
/// Patches are extracted from a maintained shadow CscIndex by
/// ExtractLabelPatch (src/dynamic/patch.h) and applied through
/// CycleIndex::ApplyLabelPatch. For the arena-backed forms that clones the
/// snapshot by re-encoding only the arena pages holding a named run and
/// sharing every other page with the source (LabelArena::WithEditedRuns),
/// so applying a patch costs its damage, not the index size. A malformed
/// patch (see WellFormed) is refused with nullptr, and the serving tier then
/// derives a full snapshot instead. A patch is only meaningful under the
/// ordering the snapshot was built with: run contents are rank-encoded, so
/// the serving pipeline pins its vertex ordering while repair is active.
struct LabelPatch {
  /// Original-vertex count of the index the patch targets (consistency
  /// check; 0 means "unknown, skip the check").
  Vertex num_vertices = 0;
  /// Replacement in-label runs, sorted by vertex, no duplicates.
  std::vector<std::pair<Vertex, LabelSet>> in_runs;
  /// Replacement out-label runs, sorted by vertex, no duplicates.
  std::vector<std::pair<Vertex, LabelSet>> out_runs;

  bool empty() const { return in_runs.empty() && out_runs.empty(); }

  /// True when both run lists are sorted by vertex without duplicates and
  /// name only vertices below `n`, the target index's vertex count.
  bool WellFormed(Vertex n) const {
    return LabelArena::EditsWellFormed(n, in_runs) &&
           LabelArena::EditsWellFormed(n, out_runs);
  }

  /// Number of serving runs the patch rewrites (the "hubs repaired" damage
  /// metric fed to the repair-vs-rebuild decision).
  uint64_t RunCount() const { return in_runs.size() + out_runs.size(); }

  /// Upper bound on the label bytes the patch touches: replacement entries
  /// at the packed width plus the entries they overwrite are not known
  /// here, so this counts the replacement side only.
  uint64_t LabelBytes() const {
    uint64_t entries = 0;
    for (const auto& [v, labels] : in_runs) entries += labels.size();
    for (const auto& [v, labels] : out_runs) entries += labels.size();
    return entries * sizeof(LabelEntry);
  }
};

}  // namespace csc

#endif  // CSC_CORE_LABEL_PATCH_H_
