#include "labeling/label_set.h"

#include <algorithm>
#include <cassert>

namespace csc {

void LabelSet::Append(LabelEntry entry) {
  assert(entries_.empty() || entries_.back().hub() < entry.hub());
  entries_.push_back(entry);
}

const LabelEntry* LabelSet::Find(Rank hub_rank) const {
  const size_t i = LowerBound(hub_rank);
  return i < entries_.size() && entries_[i].hub() == hub_rank ? &entries_[i]
                                                              : nullptr;
}

size_t LabelSet::LowerBound(Rank hub_rank) const {
  return std::lower_bound(
             entries_.begin(), entries_.end(), hub_rank,
             [](const LabelEntry& e, Rank r) { return e.hub() < r; }) -
         entries_.begin();
}

void LabelSet::InsertOrReplace(LabelEntry entry) {
  const size_t i = LowerBound(entry.hub());
  if (i < entries_.size() && entries_[i].hub() == entry.hub()) {
    entries_[i] = entry;
  } else {
    entries_.insert(entries_.begin() + i, entry);
  }
}

bool LabelSet::Remove(Rank hub_rank) {
  const LabelEntry* e = Find(hub_rank);
  if (e == nullptr) return false;
  entries_.erase(entries_.begin() + (e - entries_.data()));
  return true;
}

JoinResult JoinLabels(const LabelSet& out_labels, const LabelSet& in_labels) {
  JoinResult result;
  const auto& a = out_labels.entries();
  const auto& b = in_labels.entries();
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    Rank ra = a[i].hub();
    Rank rb = b[j].hub();
    if (ra < rb) {
      ++i;
    } else if (rb < ra) {
      ++j;
    } else {
      Dist d = a[i].dist() + b[j].dist();
      Count c = a[i].count() * b[j].count();
      if (d < result.dist) {
        result.dist = d;
        result.count = c;
      } else if (d == result.dist) {
        result.count += c;
      }
      ++i;
      ++j;
    }
  }
  return result;
}

}  // namespace csc
