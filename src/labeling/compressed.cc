#include "labeling/compressed.h"

#include "csc/flat_csc_query.h"

namespace csc {

namespace {
constexpr char kCompressedMagic[4] = {'C', 'S', 'C', 'Z'};
}  // namespace

CompressedIndex CompressedIndex::FromCompact(const CompactIndex& compact) {
  CompressedIndex index;
  Vertex n = compact.num_original_vertices();
  index.in_ = LabelArena::Build(
      n, [&](Vertex v) -> const LabelSet& { return compact.InLabels(v); },
      ArenaEncoding::kVarint);
  index.out_ = LabelArena::Build(
      n, [&](Vertex v) -> const LabelSet& { return compact.OutLabels(v); },
      ArenaEncoding::kVarint);
  index.in_vertex_rank_ = flat::CoupleRanksFromCompact(compact);
  return index;
}

CycleCount CompressedIndex::Query(Vertex v) const {
  return flat::Query(out_, in_, v);
}

CycleCount CompressedIndex::QueryThroughEdge(Vertex u, Vertex v) const {
  return flat::QueryThroughEdge(out_, in_, *in_vertex_rank_, u, v);
}

std::string CompressedIndex::Serialize() const {
  return flat::SerializeFlat(kCompressedMagic, in_, out_, *in_vertex_rank_);
}

std::optional<CompressedIndex> CompressedIndex::Deserialize(
    const std::string& bytes) {
  auto parts = flat::DeserializeFlat(kCompressedMagic, bytes);
  if (!parts || parts->in.encoding() != ArenaEncoding::kVarint ||
      parts->out.encoding() != ArenaEncoding::kVarint) {
    return std::nullopt;
  }
  CompressedIndex index;
  index.in_ = std::move(parts->in);
  index.out_ = std::move(parts->out);
  index.in_vertex_rank_ = std::move(parts->in_vertex_rank);
  return index;
}

std::optional<CompressedIndex> CompressedIndex::FromView(
    const uint8_t* data, size_t size, std::shared_ptr<const void> keep_alive) {
  auto parts = flat::DeserializeFlatView(kCompressedMagic, data, size,
                                         std::move(keep_alive));
  if (!parts || parts->in.encoding() != ArenaEncoding::kVarint ||
      parts->out.encoding() != ArenaEncoding::kVarint) {
    return std::nullopt;
  }
  CompressedIndex index;
  index.in_ = std::move(parts->in);
  index.out_ = std::move(parts->out);
  index.in_vertex_rank_ = std::move(parts->in_vertex_rank);
  return index;
}

void CompressedIndex::SliceTo(const std::function<bool(Vertex)>& keep) {
  in_.Slice(keep);
  out_.Slice(keep);
}

}  // namespace csc
