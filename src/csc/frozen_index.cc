#include "csc/frozen_index.h"

#include "csc/flat_csc_query.h"

namespace csc {

namespace {
constexpr char kFrozenMagic[4] = {'C', 'S', 'C', 'F'};
}  // namespace

FrozenIndex FrozenIndex::FromCompact(const CompactIndex& compact) {
  FrozenIndex frozen;
  Vertex n = compact.num_original_vertices();
  frozen.in_ = LabelArena::Build(
      n, [&](Vertex v) -> const LabelSet& { return compact.InLabels(v); },
      ArenaEncoding::kPacked);
  frozen.out_ = LabelArena::Build(
      n, [&](Vertex v) -> const LabelSet& { return compact.OutLabels(v); },
      ArenaEncoding::kPacked);
  frozen.in_vertex_rank_ = flat::CoupleRanksFromCompact(compact);
  return frozen;
}

CycleCount FrozenIndex::Query(Vertex v) const {
  return flat::Query(out_, in_, v);
}

CycleCount FrozenIndex::QueryThroughEdge(Vertex u, Vertex v) const {
  return flat::QueryThroughEdge(out_, in_, *in_vertex_rank_, u, v);
}

std::string FrozenIndex::Serialize() const {
  return flat::SerializeFlat(kFrozenMagic, in_, out_, *in_vertex_rank_);
}

std::optional<FrozenIndex> FrozenIndex::Deserialize(const std::string& bytes) {
  auto parts = flat::DeserializeFlat(kFrozenMagic, bytes);
  if (!parts || parts->in.encoding() != ArenaEncoding::kPacked ||
      parts->out.encoding() != ArenaEncoding::kPacked) {
    return std::nullopt;
  }
  FrozenIndex frozen;
  frozen.in_ = std::move(parts->in);
  frozen.out_ = std::move(parts->out);
  frozen.in_vertex_rank_ = std::move(parts->in_vertex_rank);
  return frozen;
}

std::optional<FrozenIndex> FrozenIndex::FromView(
    const uint8_t* data, size_t size, std::shared_ptr<const void> keep_alive) {
  auto parts =
      flat::DeserializeFlatView(kFrozenMagic, data, size, std::move(keep_alive));
  if (!parts || parts->in.encoding() != ArenaEncoding::kPacked ||
      parts->out.encoding() != ArenaEncoding::kPacked) {
    return std::nullopt;
  }
  FrozenIndex frozen;
  frozen.in_ = std::move(parts->in);
  frozen.out_ = std::move(parts->out);
  frozen.in_vertex_rank_ = std::move(parts->in_vertex_rank);
  return frozen;
}

void FrozenIndex::SliceTo(const std::function<bool(Vertex)>& keep) {
  in_.Slice(keep);
  out_.Slice(keep);
}

}  // namespace csc
