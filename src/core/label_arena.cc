#include "core/label_arena.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "util/varint.h"

// SIMD selection for the packed join kernel. CSC_NO_SIMD (a CMake option)
// forces the scalar fallback everywhere — the escape hatch for odd
// toolchains and for A/B-ing the kernels.
#if !defined(CSC_NO_SIMD)
#if defined(__SSE2__) || defined(_M_X64)
#define CSC_ARENA_SIMD_SSE2 1
#include <emmintrin.h>
#elif defined(__ARM_NEON) || defined(__aarch64__)
#define CSC_ARENA_SIMD_NEON 1
#include <arm_neon.h>
#endif
#endif

namespace csc {

namespace {

// Encodes one label set as (rank_delta, dist, count) varint triples.
void EncodeRun(const LabelSet& labels, std::vector<uint8_t>& out) {
  uint64_t previous_rank = 0;
  bool first = true;
  for (const LabelEntry& entry : labels.entries()) {
    uint64_t rank = entry.hub();  // label sets store hubs by rank
    AppendVarint(out, first ? rank : rank - previous_rank);
    AppendVarint(out, entry.dist());
    AppendVarint(out, entry.count());
    previous_rank = rank;
    first = false;
  }
}

constexpr size_t kEntry = sizeof(LabelEntry);

size_t PageCount(Vertex num_vertices) {
  return (static_cast<size_t>(num_vertices) + LabelArena::kPageRuns - 1) /
         LabelArena::kPageRuns;
}

}  // namespace

void LabelArena::ResetPages(Vertex n) {
  const size_t pages = PageCount(n);
  offsets_.assign(pages * kOffsetsPerPage, 0);
  page_data_.assign(pages, nullptr);
  page_storage_.assign(pages, PageStorage{});
}

void LabelArena::SetPagePayload(size_t page, const uint8_t* payload,
                                uint64_t bytes, bool view,
                                std::shared_ptr<const void> mapping) {
  PageStorage storage;
  storage.view = view;
  const uint8_t* data = nullptr;
  if (view) {
    data = payload;
    storage.owner = std::move(mapping);
  } else if (bytes > 0) {
    std::shared_ptr<uint8_t[]> buffer =
        std::make_shared_for_overwrite<uint8_t[]>(bytes);
    std::memcpy(buffer.get(), payload, bytes);
    data = buffer.get();
    storage.owner = std::move(buffer);
  }
  page_data_[page] = data;
  page_storage_[page] = std::move(storage);
}

// Encodes one page at a time: runs accumulate in a scratch buffer reused
// across the pages of one operation, and Finish copies them into the
// page's own buffer.
class LabelArena::PageWriter {
 public:
  explicit PageWriter(ArenaEncoding encoding) : encoding_(encoding) {}

  // Appends `labels` as the page's next run.
  void Append(const LabelSet& labels) {
    if (encoding_ == ArenaEncoding::kPacked) {
      const auto* words =
          reinterpret_cast<const uint8_t*>(labels.entries().data());
      buffer_.insert(buffer_.end(), words, words + labels.size() * kEntry);
    } else {
      EncodeRun(labels, buffer_);
    }
    EndRun();
  }

  // Appends an already-encoded run (memcpy only — the source may be an
  // unaligned mapping view).
  void AppendEncoded(RunSpan run) {
    const uint64_t bytes = encoding_ == ArenaEncoding::kPacked
                               ? run.length * kEntry
                               : run.length;
    buffer_.insert(buffer_.end(), run.data, run.data + bytes);
    EndRun();
  }

  void AppendEmpty() { EndRun(); }

  // Seals the page as page `page` of `arena`: runs past the last appended
  // one are empty.
  void Finish(LabelArena& arena, size_t page) {
    while (runs_ < kPageRuns) EndRun();
    std::memcpy(arena.offsets_.data() + page * kOffsetsPerPage, offsets_,
                sizeof(offsets_));
    arena.SetPagePayload(page, buffer_.data(), buffer_.size(),
                         /*view=*/false, nullptr);
    buffer_.clear();
    runs_ = 0;
  }

 private:
  void EndRun() {
    uint64_t end = encoding_ == ArenaEncoding::kPacked
                       ? buffer_.size() / kEntry
                       : buffer_.size();
    if (end > std::numeric_limits<uint32_t>::max()) {
      std::fprintf(stderr,
                   "csc: label arena page over the 32-bit offset limit "
                   "(%llu units in %u runs)\n",
                   static_cast<unsigned long long>(end), kPageRuns);
      std::abort();
    }
    offsets_[++runs_] = static_cast<uint32_t>(end);
  }

  ArenaEncoding encoding_;
  std::vector<uint8_t> buffer_;
  uint32_t offsets_[kOffsetsPerPage] = {};
  Vertex runs_ = 0;
};

LabelArena LabelArena::Build(
    Vertex num_vertices,
    const std::function<const LabelSet&(Vertex)>& labels_of,
    ArenaEncoding encoding) {
  LabelArena arena;
  arena.encoding_ = encoding;
  arena.num_vertices_ = num_vertices;
  arena.ResetPages(num_vertices);
  PageWriter writer(encoding);
  for (Vertex v = 0; v < num_vertices; ++v) {
    const LabelSet& labels = labels_of(v);
    writer.Append(labels);
    arena.total_entries_ += labels.size();
    if ((v + 1) % kPageRuns == 0 || v + 1 == num_vertices) {
      writer.Finish(arena, v / kPageRuns);
    }
  }
  return arena;
}

LabelArena LabelArena::FromLabelSets(const std::vector<LabelSet>& sets,
                                     ArenaEncoding encoding) {
  return Build(
      static_cast<Vertex>(sets.size()),
      [&sets](Vertex v) -> const LabelSet& { return sets[v]; }, encoding);
}

bool LabelArena::Cursor::Next() {
  if (packed_) {
    if (p_ == end_) return false;
    LabelEntry e = LoadPackedEntry(p_);
    rank_ = e.hub();
    dist_ = e.dist();
    count_ = e.count();
    p_ += sizeof(LabelEntry);
    return true;
  }
  if (pos_ >= byte_end_) return false;
  uint64_t delta = DecodeVarint(data_, pos_);
  rank_ = first_ ? static_cast<Rank>(delta) : rank_ + static_cast<Rank>(delta);
  first_ = false;
  dist_ = static_cast<Dist>(DecodeVarint(data_, pos_));
  count_ = DecodeVarint(data_, pos_);
  return true;
}

LabelArena::Cursor LabelArena::RunCursor(Vertex v) const {
  Cursor cursor;
  cursor.packed_ = packed();
  RunSpan run = Run(v);
  if (cursor.packed_) {
    cursor.p_ = run.data;
    cursor.end_ = run.data + run.length * kEntry;
  } else {
    cursor.data_ = run.data;
    cursor.byte_end_ = run.length;
  }
  return cursor;
}

uint64_t LabelArena::RunSize(Vertex v) const {
  if (packed()) return Run(v).length;
  uint64_t n = 0;
  for (Cursor c = RunCursor(v); c.Next();) ++n;
  return n;
}

bool LabelArena::is_view() const {
  for (const PageStorage& storage : page_storage_) {
    if (storage.view) return true;
  }
  return false;
}

uint64_t LabelArena::SizeBytes() const {
  uint64_t bytes = 0;
  for (size_t page = 0; page < num_pages(); ++page) bytes += PageBytes(page);
  return bytes;
}

uint64_t LabelArena::OwnedBytes() const {
  uint64_t bytes = num_pages() * kPageOverheadBytes;
  for (size_t page = 0; page < num_pages(); ++page) {
    if (!page_storage_[page].view) bytes += PageBytes(page);
  }
  return bytes;
}

LabelSet LabelArena::DecodeRun(Vertex v) const {
  LabelSet labels;
  for (Cursor c = RunCursor(v); c.Next();) {
    labels.Append(LabelEntry(static_cast<Vertex>(c.rank()), c.dist(),
                             c.count()));
  }
  return labels;
}

namespace {

// ---- The packed-packed join kernels. ----
//
// Runs are arrays of 8-byte entry words sorted by hub rank (the top
// kHubBits of each word), addressed as byte pointers because a view-backed
// payload has no alignment guarantee.

constexpr int kRankShift = LabelEntry::kDistBits + LabelEntry::kCountBits;

inline uint64_t LoadBits(const uint8_t* p) {
  uint64_t bits;
  std::memcpy(&bits, p, sizeof(bits));
  return bits;
}

inline Rank RankAt(const uint8_t* p) {
  return static_cast<Rank>(LoadBits(p) >> kRankShift);
}

// Folds one common-hub hit into the running (min-dist, count-sum) result.
inline void Accumulate(JoinResult& result, uint64_t a_bits, uint64_t b_bits) {
  Dist d = static_cast<Dist>((a_bits >> LabelEntry::kCountBits) &
                             LabelEntry::kMaxDist) +
           static_cast<Dist>((b_bits >> LabelEntry::kCountBits) &
                             LabelEntry::kMaxDist);
  Count c = (a_bits & LabelEntry::kMaxCount) * (b_bits & LabelEntry::kMaxCount);
  if (d < result.dist) {
    result.dist = d;
    result.count = c;
  } else if (d == result.dist) {
    result.count += c;
  }
}

// Advances `p` to the first entry with rank >= bound, comparing four ranks
// per step once the advance proves long. The SIMD variants shift the rank
// field out of four entry words, narrow to one 32-bit lane each (ranks fit
// kHubBits < 31 bits, so signed compares are safe), and turn the lane mask
// into the exact stop offset; the scalar fallback exploits sortedness (if
// the 4th rank is below the bound, all four are).
inline const uint8_t* SkipBelow(const uint8_t* p, const uint8_t* end,
                                Rank bound) {
  // Scalar prefix: most advances in a balanced merge are 1-3 entries, and
  // a 4-wide block setup costs more than it skips there. Only fall through
  // to the block loop while the advance is still going.
  for (int step = 0; step < 3; ++step) {
    if (p == end || RankAt(p) >= bound) return p;
    p += kEntry;
  }
#if defined(CSC_ARENA_SIMD_SSE2)
  const __m128i vbound = _mm_set1_epi32(static_cast<int>(bound));
  while (static_cast<size_t>(end - p) >= 4 * kEntry) {
    __m128i lo = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    __m128i hi = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 16));
    lo = _mm_srli_epi64(lo, kRankShift);
    hi = _mm_srli_epi64(hi, kRankShift);
    __m128i ranks = _mm_castps_si128(_mm_shuffle_ps(
        _mm_castsi128_ps(lo), _mm_castsi128_ps(hi), _MM_SHUFFLE(2, 0, 2, 0)));
    int below = _mm_movemask_ps(
        _mm_castsi128_ps(_mm_cmplt_epi32(ranks, vbound)));
    if (below != 0xF) return p + kEntry * __builtin_ctz(~below);
    p += 4 * kEntry;
  }
#elif defined(CSC_ARENA_SIMD_NEON)
  const uint32x4_t vbound = vdupq_n_u32(bound);
  while (static_cast<size_t>(end - p) >= 4 * kEntry) {
    uint64x2_t lo = vreinterpretq_u64_u8(vld1q_u8(p));
    uint64x2_t hi = vreinterpretq_u64_u8(vld1q_u8(p + 16));
    uint32x4_t ranks = vcombine_u32(vmovn_u64(vshrq_n_u64(lo, kRankShift)),
                                    vmovn_u64(vshrq_n_u64(hi, kRankShift)));
    uint64_t below = vget_lane_u64(
        vreinterpret_u64_u16(vmovn_u32(vcltq_u32(ranks, vbound))), 0);
    if (below != ~uint64_t{0}) {
      return p + kEntry * (__builtin_ctzll(~below) / 16);
    }
    p += 4 * kEntry;
  }
#else
  while (static_cast<size_t>(end - p) >= 4 * kEntry &&
         RankAt(p + 3 * kEntry) < bound) {
    p += 4 * kEntry;
  }
#endif
  while (p < end && RankAt(p) < bound) p += kEntry;
  return p;
}

// First entry in [p, end) with rank >= bound, by exponential probe then
// binary search: O(log gap) per advance. The skewed-join workhorse.
inline const uint8_t* GallopTo(const uint8_t* p, const uint8_t* end,
                               Rank bound) {
  size_t n = static_cast<size_t>(end - p) / kEntry;
  if (n == 0 || RankAt(p) >= bound) return p;
  size_t prev = 0;  // largest index known < bound
  size_t step = 1;
  while (step < n && RankAt(p + step * kEntry) < bound) {
    prev = step;
    step = step * 2 + 1;
  }
  size_t lo = prev + 1;
  size_t hi = step < n ? step : n;  // hi is >= bound, or n (one past the run)
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (RankAt(p + mid * kEntry) < bound) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return p + lo * kEntry;
}

// Reference linear merge of two rank-sorted packed runs — the conformance
// oracle and microbenchmark baseline for the kernels below.
JoinResult JoinPackedLinear(const uint8_t* a, const uint8_t* a_end,
                            const uint8_t* b, const uint8_t* b_end) {
  JoinResult result;
  while (a != a_end && b != b_end) {
    Rank ra = RankAt(a);
    Rank rb = RankAt(b);
    if (ra < rb) {
      a += kEntry;
    } else if (rb < ra) {
      b += kEntry;
    } else {
      Accumulate(result, LoadBits(a), LoadBits(b));
      a += kEntry;
      b += kEntry;
    }
  }
  return result;
}

// Branch-reduced merge whose advances skip with 4-wide rank comparisons —
// the balanced-length fast path.
JoinResult JoinPackedMerge(const uint8_t* a, const uint8_t* a_end,
                           const uint8_t* b, const uint8_t* b_end) {
  JoinResult result;
  while (a != a_end && b != b_end) {
    Rank ra = RankAt(a);
    Rank rb = RankAt(b);
    if (ra == rb) {
      Accumulate(result, LoadBits(a), LoadBits(b));
      a += kEntry;
      b += kEntry;
    } else if (ra < rb) {
      a = SkipBelow(a + kEntry, a_end, rb);
    } else {
      b = SkipBelow(b + kEntry, b_end, ra);
    }
  }
  return result;
}

// Skewed-length path: walk the short run, gallop the long one.
JoinResult JoinPackedSkewed(const uint8_t* s, const uint8_t* s_end,
                            const uint8_t* l, const uint8_t* l_end) {
  JoinResult result;
  for (; s != s_end && l != l_end; s += kEntry) {
    uint64_t s_bits = LoadBits(s);
    Rank rs = static_cast<Rank>(s_bits >> kRankShift);
    l = GallopTo(l, l_end, rs);
    if (l == l_end) break;
    uint64_t l_bits = LoadBits(l);
    if (static_cast<Rank>(l_bits >> kRankShift) != rs) continue;
    Accumulate(result, s_bits, l_bits);
    l += kEntry;
  }
  return result;
}

// Kernel dispatch by run-length skew (cutoffs measured by
// bench_micro_kernels; see the header). The join is symmetric (dist sums
// and count products commute), so the shorter run always drives.
JoinResult JoinPacked(const uint8_t* a, size_t na, const uint8_t* b,
                      size_t nb) {
  if (na > nb) {
    std::swap(a, b);
    std::swap(na, nb);
  }
  if (na == 0) return {};
  if (nb >= LabelArena::kGallopMinLongerRun) {
    size_t skew = nb / na;
    if (skew >= LabelArena::kGallopSkewRatio) {
      return JoinPackedSkewed(a, a + na * kEntry, b, b + nb * kEntry);
    }
    if (skew >= LabelArena::kSimdSkewRatio) {
      return JoinPackedMerge(a, a + na * kEntry, b, b + nb * kEntry);
    }
  }
  return JoinPackedLinear(a, a + na * kEntry, b, b + nb * kEntry);
}

// The same merge over decoding cursors (either side may be varint).
JoinResult JoinCursors(LabelArena::Cursor out, LabelArena::Cursor in) {
  JoinResult result;
  bool out_valid = out.Next();
  bool in_valid = in.Next();
  while (out_valid && in_valid) {
    if (out.rank() < in.rank()) {
      out_valid = out.Next();
    } else if (in.rank() < out.rank()) {
      in_valid = in.Next();
    } else {
      Dist through = out.dist() + in.dist();
      if (through < result.dist) {
        result.dist = through;
        result.count = out.count() * in.count();
      } else if (through == result.dist) {
        result.count += out.count() * in.count();
      }
      out_valid = out.Next();
      in_valid = in.Next();
    }
  }
  return result;
}

}  // namespace

JoinResult LabelArena::Join(const LabelArena& out_arena, Vertex s,
                            const LabelArena& in_arena, Vertex t) {
  if (out_arena.packed() && in_arena.packed()) {
    RunSpan out = out_arena.Run(s);
    RunSpan in = in_arena.Run(t);
    return JoinPacked(out.data, out.length, in.data, in.length);
  }
  return JoinCursors(out_arena.RunCursor(s), in_arena.RunCursor(t));
}

JoinResult LabelArena::JoinLinear(const LabelArena& out_arena, Vertex s,
                                  const LabelArena& in_arena, Vertex t) {
  if (out_arena.packed() && in_arena.packed()) {
    RunSpan out = out_arena.Run(s);
    RunSpan in = in_arena.Run(t);
    return JoinPackedLinear(out.data, out.data + out.length * kEntry, in.data,
                            in.data + in.length * kEntry);
  }
  return JoinCursors(out_arena.RunCursor(s), in_arena.RunCursor(t));
}

std::optional<std::pair<Dist, Count>> LabelArena::FindHub(
    Vertex v, Rank hub_rank) const {
  if (packed()) {
    RunSpan run = Run(v);
    const uint8_t* base = run.data;
    size_t n = run.length;
    size_t lo = 0;
    size_t hi = n;
    while (lo < hi) {
      size_t mid = lo + (hi - lo) / 2;
      if (RankAt(base + mid * kEntry) < hub_rank) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo < n) {
      LabelEntry e = LoadPackedEntry(base + lo * kEntry);
      if (e.hub() == hub_rank) return {{e.dist(), e.count()}};
    }
    return std::nullopt;
  }
  for (Cursor c = RunCursor(v); c.Next();) {
    if (c.rank() < hub_rank) continue;
    if (c.rank() == hub_rank) return {{c.dist(), c.count()}};
    break;  // runs are rank-sorted
  }
  return std::nullopt;
}

void LabelArena::Slice(const std::function<bool(Vertex)>& keep) {
  // Every page is rewritten into owned storage, so slicing a view
  // materializes just the kept runs and drops the mapping.
  LabelArena sliced;
  sliced.encoding_ = encoding_;
  sliced.num_vertices_ = num_vertices_;
  sliced.ResetPages(num_vertices_);
  PageWriter writer(encoding_);
  for (Vertex v = 0; v < num_vertices_; ++v) {
    if (keep(v)) {
      writer.AppendEncoded(Run(v));
      sliced.total_entries_ += RunSize(v);
    } else {
      writer.AppendEmpty();
    }
    if ((v + 1) % kPageRuns == 0 || v + 1 == num_vertices_) {
      writer.Finish(sliced, v / kPageRuns);
    }
  }
  *this = std::move(sliced);
}

bool LabelArena::EditsWellFormed(
    Vertex num_vertices,
    const std::vector<std::pair<Vertex, LabelSet>>& edits) {
  for (size_t i = 0; i < edits.size(); ++i) {
    if (edits[i].first >= num_vertices) return false;
    if (i > 0 && edits[i].first <= edits[i - 1].first) return false;
  }
  return true;
}

LabelArena LabelArena::WithEditedRuns(
    const std::vector<std::pair<Vertex, LabelSet>>& edits) const {
  if (!EditsWellFormed(num_vertices_, edits)) {
    std::fprintf(stderr,
                 "csc: WithEditedRuns needs edits sorted by vertex, without "
                 "duplicates, below %u\n",
                 num_vertices_);
    std::abort();
  }
  LabelArena out = *this;  // shares every payload; touched pages replaced
  PageWriter writer(encoding_);
  size_t next_edit = 0;
  while (next_edit < edits.size()) {
    const size_t page = edits[next_edit].first / kPageRuns;
    const Vertex first = static_cast<Vertex>(page * kPageRuns);
    const Vertex last = std::min<Vertex>(first + kPageRuns, num_vertices_);
    for (Vertex v = first; v < last; ++v) {
      if (next_edit < edits.size() && edits[next_edit].first == v) {
        const LabelSet& labels = edits[next_edit].second;
        out.total_entries_ += labels.size();
        out.total_entries_ -= RunSize(v);
        writer.Append(labels);
        ++next_edit;
      } else {
        writer.AppendEncoded(Run(v));
      }
    }
    writer.Finish(out, page);
  }
  return out;
}

void LabelArena::AppendTo(std::string& out) const {
  out.push_back(static_cast<char>(encoding_));
  uint32_t n = num_vertices_;
  char buf[4];
  std::memcpy(buf, &n, 4);
  out.append(buf, 4);
  std::vector<uint8_t> varints;
  for (Vertex v = 0; v < n; ++v) AppendVarint(varints, Run(v).length);
  out.append(reinterpret_cast<const char*>(varints.data()), varints.size());
  for (size_t page = 0; page < num_pages(); ++page) {
    uint64_t bytes = PageBytes(page);
    if (bytes > 0) {
      out.append(reinterpret_cast<const char*>(page_data_[page]), bytes);
    }
  }
}

bool operator==(const LabelArena& a, const LabelArena& b) {
  if (a.encoding_ != b.encoding_ || a.num_vertices_ != b.num_vertices_ ||
      a.offsets_ != b.offsets_) {
    return false;
  }
  for (size_t page = 0; page < a.num_pages(); ++page) {
    const uint8_t* x = a.page_data_[page];
    const uint8_t* y = b.page_data_[page];
    uint64_t bytes = a.PageBytes(page);
    if (bytes > 0 && x != y && std::memcmp(x, y, bytes) != 0) return false;
  }
  return true;
}

std::optional<LabelArena> LabelArena::ParseImpl(
    const uint8_t* data, size_t size, size_t& pos, bool view,
    std::shared_ptr<const void> keep_alive) {
  if (size < pos || size - pos < 5) return std::nullopt;
  uint8_t enc = data[pos++];
  if (enc > static_cast<uint8_t>(ArenaEncoding::kVarint)) return std::nullopt;
  uint32_t n;
  std::memcpy(&n, data + pos, 4);
  pos += 4;
  // Each vertex contributes at least one run-length byte, so a count the
  // remaining buffer cannot describe is malformed — reject before sizing
  // the page table from attacker-controlled input.
  if (n > size - pos) return std::nullopt;
  LabelArena arena;
  arena.encoding_ = static_cast<ArenaEncoding>(enc);
  arena.num_vertices_ = n;
  arena.ResetPages(n);
  // Pass 1: run lengths into the page table's offsets. `total` is the
  // running absolute payload offset.
  uint64_t total = 0;
  for (uint32_t v = 0; v < n; ++v) {
    // Bounded varint decode: never read past the buffer.
    uint64_t run = 0;
    int shift = 0;
    for (;;) {
      if (pos >= size || shift > 63) return std::nullopt;
      uint8_t byte = data[pos++];
      run |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) break;
      shift += 7;
    }
    // No run (and hence no offset sum) can exceed what the buffer could
    // possibly hold; rejecting here keeps the arithmetic below overflow-free.
    if (run > size || total + run > size) return std::nullopt;
    total += run;
    uint32_t* page = arena.offsets_.data() + v / kPageRuns * kOffsetsPerPage;
    const uint32_t i = v % kPageRuns;
    uint64_t end = page[i] + run;
    if (end > std::numeric_limits<uint32_t>::max()) return std::nullopt;
    page[i + 1] = static_cast<uint32_t>(end);
  }
  if (n % kPageRuns != 0) {
    // Runs past the last vertex are empty.
    uint32_t* last = arena.offsets_.data() + arena.offsets_.size() -
                     kOffsetsPerPage;
    std::fill(last + n % kPageRuns + 1, last + kOffsetsPerPage,
              last[n % kPageRuns]);
  }
  const int unit_shift = arena.unit_shift();
  if (total > (size - pos) >> unit_shift) return std::nullopt;
  // Pass 2: point the pages at their payload (viewed or copied),
  // validating varint streams as they go.
  const uint8_t* payload = data + pos;
  for (size_t p = 0; p < arena.num_pages(); ++p) {
    const uint32_t* page = arena.offsets_.data() + p * kOffsetsPerPage;
    const uint64_t bytes = arena.PageBytes(p);
    if (arena.packed()) {
      arena.total_entries_ += page[kPageRuns];
    } else {
      // Count entries by decoding; also validates the streams terminate on
      // their run boundaries (so a view never walks past a run mid-triple).
      for (Vertex i = 0; i < kPageRuns; ++i) {
        size_t at = page[i];
        const size_t end = page[i + 1];
        while (at < end) {
          for (int field = 0; field < 3; ++field) {
            int shift = 0;
            for (;;) {
              if (at >= end || shift > 63) return std::nullopt;
              uint8_t byte = payload[at++];
              if ((byte & 0x80) == 0) break;
              shift += 7;
            }
          }
          ++arena.total_entries_;
        }
      }
    }
    arena.SetPagePayload(p, payload, bytes, view,
                         view ? keep_alive : nullptr);
    payload += bytes;
  }
  pos += total << unit_shift;
  return arena;
}

std::optional<LabelArena> LabelArena::Parse(const std::string& bytes,
                                            size_t& pos) {
  return ParseImpl(reinterpret_cast<const uint8_t*>(bytes.data()),
                   bytes.size(), pos, /*view=*/false, nullptr);
}

std::optional<LabelArena> LabelArena::Parse(const uint8_t* data, size_t size,
                                            size_t& pos) {
  return ParseImpl(data, size, pos, /*view=*/false, nullptr);
}

std::optional<LabelArena> LabelArena::ParseView(
    const uint8_t* data, size_t size, size_t& pos,
    std::shared_ptr<const void> keep_alive) {
  return ParseImpl(data, size, pos, /*view=*/true, std::move(keep_alive));
}

}  // namespace csc
