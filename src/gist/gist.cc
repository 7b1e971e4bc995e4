#include "gist/gist.h"

#include <thread>

#include "db/meta_page.h"
#include "gist/tree_latch.h"
#include "obs/op_context.h"
#include "obs/trace.h"
#include "storage/fault_injector.h"

namespace gistcr {

using internal::TreeLatch;

namespace {
/// Failed validations tolerated per optimistic read before the reader
/// gives up and takes the S latch. Bounds the restart work a write-hot
/// node can inflict on readers (DESIGN.md section 13) and guarantees
/// progress under sustained invalidation.
constexpr int kOptimisticMaxAttempts = 8;
/// Writer sections per optimistic read that may be waited out without
/// spending the budget above: a copy that finds the page X-latched (odd
/// version) meets a queue, not a conflict. The cap keeps a stream of
/// writers from starving the reader; past it, odd copies count as
/// failures.
constexpr int kOptimisticMaxWriterWaits = 64;
}  // namespace

GistStats::GistStats(obs::MetricsRegistry* reg)
    : searches(*reg->GetCounter("gist.searches")),
      inserts(*reg->GetCounter("gist.inserts")),
      deletes(*reg->GetCounter("gist.deletes")),
      splits(*reg->GetCounter("gist.splits")),
      root_grows(*reg->GetCounter("gist.root_grows")),
      rightlink_follows(*reg->GetCounter("gist.rightlink_follows")),
      predicate_waits(*reg->GetCounter("gist.predicate_waits")),
      rid_lock_waits(*reg->GetCounter("gist.rid_lock_waits")),
      gc_removed(*reg->GetCounter("gist.gc_removed")),
      nodes_deleted(*reg->GetCounter("gist.nodes_deleted")),
      optimistic_visits(*reg->GetCounter("gist.read.optimistic_visits")),
      read_restarts(*reg->GetCounter("gist.read.restarts")),
      read_writer_waits(*reg->GetCounter("gist.read.writer_waits")),
      read_fallbacks(*reg->GetCounter("gist.read.fallbacks")) {}

Gist::Gist(const GistContext& ctx, const GistExtension* ext, GistOptions opts)
    : ctx_(ctx),
      ext_(ext),
      opts_(opts),
      stats_(obs::MetricsRegistry::OrFallback(ctx.metrics)),
      latch_wait_ns_(obs::MetricsRegistry::OrFallback(ctx.metrics)
                         ->GetHistogram("gist.latch_wait_ns")) {
  GISTCR_CHECK(ctx_.pool != nullptr && ctx_.txns != nullptr &&
               ctx_.locks != nullptr && ctx_.preds != nullptr &&
               ctx_.alloc != nullptr && ctx_.nsn != nullptr);
}

Status Gist::Create() {
  // Index creation is unlogged: it runs at database-creation time and the
  // caller flushes before the first logged operation (see Database).
  // Allocate the root without logging by reserving through a throwaway
  // transaction would log; instead use the allocator's bitmap directly via
  // a bootstrap transaction whose records are harmless to redo.
  Transaction* boot = ctx_.txns->Begin(IsolationLevel::kReadCommitted);
  auto pid_or = ctx_.alloc->Allocate(boot);
  if (!pid_or.ok()) {
    (void)ctx_.txns->Abort(boot);
    return pid_or.status();
  }
  const PageId root = pid_or.value();
  {
    auto frame_or = ctx_.pool->NewPage(root);
    GISTCR_RETURN_IF_ERROR(frame_or.status());
    PageGuard guard(ctx_.pool, frame_or.value());
    guard.WLatch();
    NodeView node(guard.view().data());
    node.Init(root, /*level=*/0);
    guard.view().set_page_lsn(boot->last_lsn());
    guard.frame()->MarkDirty(boot->last_lsn());
  }
  {
    auto frame_or = ctx_.pool->Fetch(MetaView::kMetaPageId);
    GISTCR_RETURN_IF_ERROR(frame_or.status());
    PageGuard guard(ctx_.pool, frame_or.value());
    guard.WLatch();
    MetaView meta(guard.view().data());
    GISTCR_CHECK(meta.GetRoot(opts_.index_id) == kInvalidPageId);
    meta.SetRoot(opts_.index_id, root);
    guard.view().set_page_lsn(boot->last_lsn());
    guard.frame()->MarkDirty(boot->last_lsn());
  }
  return ctx_.txns->Commit(boot);
}

Status Gist::Open() {
  auto root_or = GetRoot();
  GISTCR_RETURN_IF_ERROR(root_or.status());
  if (root_or.value() == kInvalidPageId) {
    return Status::NotFound("index " + std::to_string(opts_.index_id));
  }
  return Status::OK();
}

template <typename Body>
StatusOr<bool> Gist::ReadOptimistic(Frame* frame,
                                    Frame::SnapshotBoundsFn bounds,
                                    Body&& body) {
  alignas(8) char copy[kPageSize];
  OptimisticReadScope optimistic;
  int failures = 0;
  int writer_waits = 0;
  while (failures < kOptimisticMaxAttempts) {
    uint64_t version = 0;
    if (frame->SnapshotPage(copy, &version, bounds)) {
      auto pass = body(copy, version);
      GISTCR_RETURN_IF_ERROR(pass.status());
      if (pass.value() == Pass::kDone) return true;
      if (pass.value() == Pass::kWait) continue;
    } else if ((version & 1) != 0 &&
               writer_waits < kOptimisticMaxWriterWaits) {
      // A writer holds the X latch. Wait until it publishes, as the S
      // latch would: writers never wait on readers, so this ends.
      writer_waits++;
      stats_.read_writer_waits.Add(1);
      while (frame->version() == version) std::this_thread::yield();
      continue;
    }
    failures++;
    stats_.read_restarts.Add(1);
    obs::BumpRestarts();
    GISTCR_CRASHPOINT("search.optimistic_restart");
  }
  stats_.read_fallbacks.Add(1);
  return false;
}

StatusOr<PageId> Gist::GetRoot() {
  auto frame_or = ctx_.pool->Fetch(MetaView::kMetaPageId);
  GISTCR_RETURN_IF_ERROR(frame_or.status());
  PageGuard guard(ctx_.pool, frame_or.value());
  PageId root = kInvalidPageId;
  const auto read = [&](char* page) -> StatusOr<Pass> {
    MetaView meta(PageView(page).data());
    if (!meta.valid()) return Status::Corruption("bad meta page");
    root = meta.GetRoot(opts_.index_id);
    return Pass::kDone;
  };
  if (UseOptimisticReads(/*hybrid_attach=*/false)) {
    // The meta page is the hottest shared latch in the tree (every
    // operation starts here); read the root pointer from a version-
    // validated copy instead. Root caching is NOT safe -- a stale ex-root
    // could be retired and its page reallocated -- but the validated copy
    // carries no such hazard: it is exactly the latched read, minus the
    // latch.
    auto done = ReadOptimistic(guard.frame(), &MetaView::SnapshotBounds,
                               [&](char* copy, uint64_t) { return read(copy); });
    GISTCR_RETURN_IF_ERROR(done.status());
    if (done.value()) return root;
  }
  guard.RLatch();
  GISTCR_RETURN_IF_ERROR(read(guard.view().data()).status());
  return root;
}

PageId Gist::root_hint() {
  auto r = GetRoot();
  return r.ok() ? r.value() : kInvalidPageId;
}

Status Gist::FetchLatched(PageId pid, bool exclusive, PageGuard* out) {
  auto frame_or = ctx_.pool->Fetch(pid);
  GISTCR_RETURN_IF_ERROR(frame_or.status());
  *out = PageGuard(ctx_.pool, frame_or.value());
  Latch(out, exclusive);
  return Status::OK();
}

void Gist::Latch(PageGuard* g, bool exclusive) {
  // Every acquisition is recorded (uncontended ones land in the low
  // buckets), so the histogram doubles as a latch-traffic count and the
  // tail quantifies contention.
  const uint64_t t0 = obs::NowNanos();
  if (exclusive) {
    g->WLatch();
  } else {
    g->RLatch();
  }
  const uint64_t waited = obs::NowNanos() - t0;
  latch_wait_ns_->Record(waited);
  obs::AddStage(obs::Stage::kLatch, waited);
}

bool Gist::NodeIsFull(NodeView& node, const IndexEntry& e) const {
  if (opts_.max_entries != 0 && node.count() >= opts_.max_entries) {
    return true;
  }
  return !node.HasSpaceFor(e);
}

Status Gist::SignalLock(Transaction* txn, PageId node) {
  return ctx_.locks->Lock(txn->id(), LockName{LockSpace::kNode, node},
                          LockMode::kShared, /*wait=*/true);
}

void Gist::SignalUnlock(Transaction* txn, PageId node) {
  ctx_.locks->Unlock(txn->id(), LockName{LockSpace::kNode, node});
}

Gist::ReadOp Gist::MakeReadOp(Transaction* txn, Slice query,
                              PredKind attach_kind, bool attach,
                              uint64_t op_id) const {
  ReadOp op;
  op.txn = txn;
  op.query = query;
  op.attach_kind = attach_kind;
  op.op_id = op_id;
  op.snapshot = txn->is_snapshot();
  attach = attach && !op.snapshot;
  op.hybrid_attach = attach && opts_.pred_mode == PredicateMode::kHybrid;
  op.global_attach = attach && opts_.pred_mode == PredicateMode::kGlobal;
  op.optimistic = UseOptimisticReads(op.hybrid_attach);
  return op;
}

Status Gist::Search(Transaction* txn, Slice query,
                    std::vector<SearchResult>* out) {
  GISTCR_TRACE_SCOPE("gist.search");
  obs::TreeScope tree_scope;
  stats_.searches.Add(1);
  if (txn->is_snapshot()) {
    GISTCR_CHECK(ctx_.mvcc != nullptr);  // Begin downgrades otherwise
    ctx_.mvcc->CountSnapshotRead();
  }
  ReadOp op = MakeReadOp(txn, query, PredKind::kSearch,
                         txn->isolation() == IsolationLevel::kRepeatableRead,
                         txn->NextOpId());
  op.out = out;
  return SearchInternal(op);
}

Status Gist::SearchInternal(ReadOp op) {
  Transaction* txn = op.txn;
  const Slice query = op.query;
  // Pure predicate locking (section 4.2, ablation mode): one tree-global
  // check-then-register step before the traversal starts.
  if (op.global_attach) {
    for (;;) {
      auto conflicts = ctx_.preds->FindConflicts(
          PredicateManager::kGlobalTable, txn->id(),
          [&](const PredAttachment& a) {
            // Scans conflict with registered insert/delete keys.
            return a.kind == PredKind::kInsert &&
                   ext_->Consistent(a.pred, query);
          });
      if (conflicts.empty()) {
        ctx_.preds->Attach(PredicateManager::kGlobalTable, txn->id(),
                           op.op_id, op.attach_kind, query);
        break;
      }
      stats_.predicate_waits.Add(1);
      for (TxnId owner : conflicts) {
        GISTCR_RETURN_IF_ERROR(ctx_.locks->WaitForTxn(txn->id(), owner));
      }
    }
  }

  // The coarse baseline's tree latch is a latch, not a lock: every search
  // takes it shared for the whole traversal, snapshot readers included.
  TreeLatch tree(&tree_latch_, /*exclusive=*/false,
                 opts_.protocol == ConcurrencyProtocol::kCoarse);
  std::vector<StackEntry> stack;
  std::unordered_set<uint64_t> seen;
  op.tree = &tree;
  op.stack = &stack;
  op.seen = &seen;
  GISTCR_RETURN_IF_ERROR(PushRoot(op));
  return Drain(op, /*until_result=*/false);
}

Status Gist::PushRoot(const ReadOp& op) {
  // Memorize the counter BEFORE reading the root pointer: a root grow in
  // the window between a read-then-memorize pair would assign the old
  // root's new sibling an NSN below the memorized value, making the split
  // undetectable. An older memorized value is always safe -- at worst it
  // costs an extra rightlink check.
  const Nsn root_mem = ctx_.nsn->Current();
  auto root_or = GetRoot();
  GISTCR_RETURN_IF_ERROR(root_or.status());
  const PageId root = root_or.value();
  if (root == kInvalidPageId) return Status::NotFound("index has no root");
  // The root pointer comes from the meta page, not from a node image, so
  // there is nothing to re-validate after its signaling lock.
  if (!op.snapshot) GISTCR_RETURN_IF_ERROR(SignalLock(op.txn, root));
  op.stack->push_back({root, root_mem});
  if (hooks_.after_root_push) hooks_.after_root_push();
  return Status::OK();
}

Status Gist::Drain(const ReadOp& op, bool until_result) {
  const size_t emitted = op.out->size();
  while (!op.stack->empty() && !(until_result && op.out->size() > emitted)) {
    const StackEntry e = op.stack->back();
    op.stack->pop_back();
    if (hooks_.before_visit_node) hooks_.before_visit_node(e.page);
    GISTCR_RETURN_IF_ERROR(VisitNode(op, e));
  }
  return Status::OK();
}

Status Gist::VisitNode(const ReadOp& op, const StackEntry& e) {
  auto frame_or = ctx_.pool->Fetch(e.page);
  GISTCR_RETURN_IF_ERROR(frame_or.status());
  PageGuard g(ctx_.pool, frame_or.value());
  std::unordered_set<PageId> pushed;
  PendingWait wait;
  bool done = false;
  if (op.optimistic) {
    stats_.optimistic_visits.Add(1);
    // Memorize the counter BEFORE each copy: a child that splits after the
    // copy then carries an NSN above it (the copy stands in for the
    // latched pointer read of Figure 3).
    Nsn cur = ctx_.nsn->Current();
    auto done_or = ReadOptimistic(
        g.frame(), &NodeView::SnapshotBounds,
        [&](char* copy, uint64_t version) -> StatusOr<Pass> {
          const NodeImage img{NodeView(copy), cur, g.frame(), version};
          auto pass = ScanNode(op, e, img, &pushed, &wait);
          // No latch is held: a blocking wait happens right here.
          if (pass.ok() && pass.value() == Pass::kWait) {
            GISTCR_RETURN_IF_ERROR(WaitLocked(op, wait));
          }
          cur = ctx_.nsn->Current();
          return pass;
        });
    GISTCR_RETURN_IF_ERROR(done_or.status());
    done = done_or.value();
  }
  if (!done) {
    Latch(&g, /*exclusive=*/false);
    for (;;) {
      // Memorize before reading pointers, as for a copy.
      const NodeImage img{NodeView(g.view().data()), ctx_.nsn->Current()};
      auto pass = ScanNode(op, e, img, &pushed, &wait);
      GISTCR_RETURN_IF_ERROR(pass.status());
      if (pass.value() == Pass::kDone) break;
      // Blocking with a latch held could deadlock against the lock owner:
      // release the latches, wait, re-read (section 5). The re-read redoes
      // split detection against e.nsn; `pushed` and `seen` dedupe.
      g.Unlatch();
      if (op.tree != nullptr) op.tree->Release();
      GISTCR_RETURN_IF_ERROR(WaitLocked(op, wait));
      if (op.tree != nullptr) op.tree->Acquire();
      Latch(&g, /*exclusive=*/false);
    }
  }
  g.Drop();
  // Visited: the signaling lock protecting this stacked pointer can go
  // (section 7.2).
  if (!op.snapshot) SignalUnlock(op.txn, e.page);
  return Status::OK();
}

StatusOr<Gist::Pass> Gist::ScanNode(const ReadOp& op, const StackEntry& e,
                                    const NodeImage& img,
                                    std::unordered_set<PageId>* pushed,
                                    PendingWait* wait) {
  const NodeView& node = img.node;
  *wait = PendingWait{};
  // Split detection (Figure 2): the node split after its pointer was
  // memorized; the right sibling must also be visited, with the same
  // memorized value. The image is S-latched or a validated copy.
  // gistcr-lint: allow(nsn-outside-node)
  const PageId right = node.nsn() > e.nsn ? node.rightlink() : kInvalidPageId;
  if (LinkProtocol() && right != kInvalidPageId && pushed->count(right) == 0) {
    auto ok = PushEntry(op, img, {right, e.nsn}, pushed);
    GISTCR_RETURN_IF_ERROR(ok.status());
    if (!ok.value()) return Pass::kInvalid;
    stats_.rightlink_follows.Add(1);
    obs::BumpRestarts();
  }

  const uint16_t n = node.count();
  if (!node.is_leaf()) {
    for (uint16_t i = 0; i < n; i++) {
      if (!ext_->Consistent(node.entry_key(i), op.query)) continue;
      const PageId child = static_cast<PageId>(node.entry_value(i));
      if (pushed->count(child) != 0) continue;
      auto ok = PushEntry(op, img, {child, img.cur}, pushed);
      GISTCR_RETURN_IF_ERROR(ok.status());
      if (!ok.value()) return Pass::kInvalid;
    }
    if (op.hybrid_attach) AttachLocked(op, e.page, /*leaf=*/false, wait);
    return Pass::kDone;
  }

  // Leaf: verdicts are staged and published only if the image is still
  // valid after the loop. A copy's del_txn marks, and the version store
  // Visible() consults, are trustworthy only as of an unchanged version;
  // record locks taken along the way stay held (2PL). Store mutations
  // that matter pair with a page write on this leaf; the unpaired ones
  // (commit stamping, pruning) preserve every registered snapshot's
  // verdicts.
  if (op.snapshot) GISTCR_CRASHPOINT("search.mvcc_visibility");
  std::vector<std::pair<uint64_t, SearchResult>> staged;
  for (uint16_t i = 0; i < n; i++) {
    if (!ext_->Consistent(node.entry_key(i), op.query)) continue;
    const uint64_t rid = node.entry_value(i);
    if (op.seen->count(rid) != 0) continue;
    bool admit = false;
    if (op.snapshot) {
      admit = AdmitSnapshot(op, rid, node.entry_del_txn(i));
    } else {
      GISTCR_RETURN_IF_ERROR(
          AdmitLocked(op, rid, node.entry_del_txn(i), &admit, wait));
      if (wait->rid) return Pass::kWait;
    }
    if (admit) {
      staged.emplace_back(
          rid, SearchResult{node.entry_key(i).ToString(), Rid::Unpack(rid)});
    }
  }
  if (!img.Valid()) return Pass::kInvalid;
  for (auto& r : staged) {
    op.seen->insert(r.first);
    op.out->push_back(std::move(r.second));
  }
  if (op.hybrid_attach) {
    AttachLocked(op, e.page, /*leaf=*/true, wait);
    // The conflicting insert's entry is visible on the re-read.
    if (!wait->owners.empty()) return Pass::kWait;
  }
  return Pass::kDone;
}

StatusOr<bool> Gist::PushEntry(const ReadOp& op, const NodeImage& img,
                               StackEntry entry,
                               std::unordered_set<PageId>* pushed) {
  if (!op.snapshot) {
    // Blocking on a LOCK is fine on a copy (no latch is held) and under an
    // S latch alike (signal locks conflict only with node retirement's X).
    GISTCR_RETURN_IF_ERROR(SignalLock(op.txn, entry.page));
    // Version unchanged after the lock: the parent still held the pointer,
    // so the node was not retired before the lock landed -- the guarantee
    // the latched read derives from its S latch.
    if (!img.Valid()) {
      SignalUnlock(op.txn, entry.page);
      return false;
    }
  }
  // Snapshot readers stack bare pointers: the registered snapshot defers
  // node retirement (MvccManager::CanRetireNodes), and a validated copy
  // proves the parent held the pointer at copy time.
  op.stack->push_back(entry);
  pushed->insert(entry.page);
  return true;
}

Status Gist::AdmitLocked(const ReadOp& op, uint64_t rid, TxnId del_txn,
                         bool* admit, PendingWait* wait) {
  *admit = false;
  if (del_txn == op.txn->id()) return Status::OK();  // own logical delete
  Status st = ctx_.locks->Lock(op.txn->id(), LockName{LockSpace::kRecord, rid},
                               LockMode::kShared, /*wait=*/false);
  if (st.IsBusy()) {
    stats_.rid_lock_waits.Add(1);
    wait->rid = rid;
    return Status::OK();
  }
  GISTCR_RETURN_IF_ERROR(st);
  // Still marked once the S lock is held: the deleter committed; the entry
  // is logically gone.
  *admit = del_txn == kInvalidTxnId;
  return Status::OK();
}

void Gist::AttachLocked(const ReadOp& op, PageId page, bool leaf,
                        PendingWait* wait) {
  if (!leaf) {
    ctx_.preds->Attach(page, op.txn->id(), op.op_id, op.attach_kind,
                       op.query);
    return;
  }
  // FIFO fairness (section 10.3): block behind conflicting insert
  // predicates attached ahead of ours.
  wait->owners = ctx_.preds->AttachAndFindConflicts(
      page, op.txn->id(), op.op_id, op.attach_kind, op.query,
      [&](const PredAttachment& a) {
        return a.kind == PredKind::kInsert &&
               ext_->Consistent(a.pred, op.query);
      });
  if (!wait->owners.empty()) stats_.predicate_waits.Add(1);
}

Status Gist::WaitLocked(const ReadOp& op, const PendingWait& wait) {
  if (wait.rid) {
    GISTCR_RETURN_IF_ERROR(ctx_.locks->Lock(
        op.txn->id(), LockName{LockSpace::kRecord, *wait.rid},
        LockMode::kShared, /*wait=*/true));
  }
  for (TxnId owner : wait.owners) {
    GISTCR_RETURN_IF_ERROR(ctx_.locks->WaitForTxn(op.txn->id(), owner));
  }
  return Status::OK();
}

bool Gist::AdmitSnapshot(const ReadOp& op, uint64_t rid,
                         TxnId del_txn) const {
  return ctx_.mvcc->Visible(rid, del_txn, op.txn->snapshot_lsn());
}

}  // namespace gistcr
