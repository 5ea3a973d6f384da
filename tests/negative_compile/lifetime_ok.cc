// Control for lifetime_dangling.cc: the same operations against owners that
// are still alive. Must compile cleanly under Clang with -Werror=dangling
// -Werror=dangling-gsl -Werror=return-stack-address — proving the
// annotations flag the dangling fixture for its bugs, not for using the API.

#include <cstdint>

#include "core/label_arena.h"

namespace {

// OK: the view's owner is the caller's arena, which outlives the call.
const uint8_t* PayloadOf(const csc::LabelArena& arena) {
  return arena.RunData(0);
}

// OK: cursor and arena share a scope; the view never outlives the owner.
int CountRuns(const csc::LabelArena& arena) {
  int n = 0;
  for (csc::LabelArena::Cursor c = arena.RunCursor(0); c.Next();) ++n;
  return n;
}

}  // namespace

int main() {
  csc::LabelArena arena;
  return (PayloadOf(arena) != nullptr) + CountRuns(arena);
}
