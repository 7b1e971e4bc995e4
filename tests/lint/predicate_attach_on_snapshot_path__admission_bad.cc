// Negative fixture for gistcr_lint rule `predicate-attach-on-snapshot-path`,
// shaped like the single Figure 3 traversal: every node visit runs one
// shared body, and only the leaf-admission step differs between 2PL
// readers and MVCC snapshot readers. The MVCC step lives in a
// Snapshot-named function precisely so this rule can see it; taking a
// record S lock there (as the 2PL step does) would break the snapshot
// reader's zero-lock-manager promise (DESIGN.md section 14.3).
//
// Not compiled; consumed by `gistcr_lint.py --self-test tests/lint`.

#include "gist/gist.h"

namespace gistcr {

bool Gist::AdmitSnapshot(const ReadOp& op, uint64_t rid,
                         TxnId del_txn) const {
  // VIOLATION: the 2PL record lock copied into MVCC admission.
  Status st = ctx_.locks->Lock(op.txn->id(),
                               LockName{LockSpace::kRecord, rid},
                               LockMode::kShared, /*wait=*/true);
  return st.ok() &&
         ctx_.mvcc->Visible(rid, del_txn, op.txn->snapshot_lsn());
}

}  // namespace gistcr
