// Negative fixture for tools/check_contracts.py rule 2
// (view-member-keepalive): a class storing a view-typed member with no
// shared_ptr keep-alive alongside it, and a detached task capturing a
// view-typed local. Never compiled — consumed by
// `check_contracts.py --selftest`.
//
// expect-violation: view-member-keepalive

#include <cstddef>
#include <cstdint>

namespace csc {

// BAD: stores a raw view into someone else's payload but keeps no owner
// handle — when the mapping (IndexFile) is destroyed or re-mapped, data_
// dangles. Compare LabelArena's pages, which pair their payload pointer with
// a mapping shared_ptr, or tag the class CSC_VIEW_TYPE if the caller owns
// lifetime.
class CachedSlice {
 public:
  void Bind(const uint8_t* data, size_t size) {
    data_ = data;
    size_ = size;
  }

 private:
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

struct ThreadPool {
  template <typename F>
  void Submit(F&& task);
};

// BAD: the submitted task can outlive this scope; `view` dangles the moment
// the mapping owner goes away. Capture the shared_ptr owner instead.
inline void ScheduleScan(ThreadPool& pool, const uint8_t* base) {
  const uint8_t* view = base + 16;
  pool.Submit([view] { (void)view; });
}

}  // namespace csc
