// Negative-compile fixture for the lifetime contracts
// (util/lifetime_annotations.h): every statement below creates a view that
// outlives its owner. Under Clang with -Werror=dangling -Werror=dangling-gsl
// -Werror=return-stack-address this file MUST fail to compile (the
// lifetime_negative_compile CTest is WILL_FAIL), proving the annotations on
// the real headers actually fire. The lifetime_ok.cc control does the same
// operations against live owners and must pass. Under the no-op annotation
// path (lifetime_noop_compile, any compiler, no -Werror) this file must
// compile cleanly — the bugs below are exactly the ones the compiler cannot
// see without the annotations.

#include <cstdint>

#include "core/label_arena.h"

namespace {

csc::LabelArena MakeArena() { return csc::LabelArena(); }

// BAD: RunData() is CSC_LIFETIME_BOUND to the arena, which dies at end
// of scope — the returned pointer dangles.
const uint8_t* DanglingReturn() {
  csc::LabelArena arena;
  return arena.RunData(0);
}

// BAD: the view is bound to a temporary arena destroyed at the end of the
// full-expression.
const uint8_t* DanglingFromTemporary() {
  const uint8_t* payload = MakeArena().RunData(0);
  return payload;
}

// BAD: Cursor is CSC_VIEW_TYPE and RunCursor is CSC_LIFETIME_BOUND — the
// cursor's byte pointers walk a payload that no longer exists.
int DanglingCursor() {
  csc::LabelArena::Cursor c = MakeArena().RunCursor(0);
  int n = 0;
  while (c.Next()) ++n;
  return n;
}

}  // namespace

int main() {
  return (DanglingReturn() != nullptr) + (DanglingFromTemporary() != nullptr) +
         DanglingCursor();
}
