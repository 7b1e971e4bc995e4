// Negative fixture for gistcr_lint rule `latch-inside-optimistic-section`,
// shaped like the shared seqlock attempt loop of the Figure 3 traversal:
// node visits and the root lookup copy a page under an
// OptimisticReadScope and fall back to an S latch once the restart budget
// is spent. The fallback must run after the scope has ended; latching
// while it is still live waits on a writer from inside the section.
//
// Not compiled; consumed by `gistcr_lint.py --self-test tests/lint`.

#include "common/optimistic.h"
#include "gist/node.h"
#include "storage/buffer_pool.h"

namespace gistcr {

Status BadFallbackInsideAttemptLoop(PageGuard* g, uint16_t* out) {
  alignas(8) char copy[kPageSize];
  OptimisticReadScope optimistic;
  for (int attempt = 0; attempt < 8; attempt++) {
    uint64_t version = 0;
    if (g->frame()->SnapshotPage(copy, &version, &NodeView::SnapshotBounds)) {
      *out = NodeView(copy).count();
      return Status::OK();
    }
  }
  // VIOLATION: the latched fallback while the scope is still live.
  g->RLatch();
  *out = NodeView(g->view().data()).count();
  return Status::OK();
}

}  // namespace gistcr
