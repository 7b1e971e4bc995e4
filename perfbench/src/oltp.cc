#include "oltp.h"

#include <cmath>

namespace perfbench {

using gistcr::BtreeExtension;
using gistcr::Database;
using gistcr::Gist;
using gistcr::IsolationLevel;
using gistcr::SearchResult;
using gistcr::Transaction;

uint64_t OltpKey(Rng* r, uint32_t tag, uint64_t seq) {
  return ((r->Next() >> 26) << kLowBits) | TagSeq(tag, seq);
}

uint64_t OltpRangeWidth(uint64_t population) {
  return (uint64_t{1} << 62) / population * 10;
}

OltpStream::OltpStream(uint64_t seed, int stream, uint32_t tag,
                       uint64_t range_width, std::deque<uint64_t> owned)
    : rng_(Mix(seed, 2000 + static_cast<uint64_t>(stream))),
      tag_(tag),
      width_(range_width),
      live_(std::move(owned)) {}

OltpOp OltpStream::Next() {
  OltpOp op;
  op.gap = -std::log(1.0 - rng_.Uniform());
  const uint64_t u = rng_.Below(100);
  if (u < 40 || (u < 80 && live_.empty())) {
    op.kind = kInsert;
    op.key = OltpKey(&rng_, tag_, next_seq_++);
    live_.push_back(op.key);
  } else if (u < 80) {
    op.kind = kDelete;
    op.key = live_.front();
    live_.pop_front();
  } else {
    op.kind = kSearch;
    op.key = rng_.Below((uint64_t{1} << 62) - width_);
    op.hi = op.key + width_ - 1;
  }
  return op;
}

void OltpStream::InsertFailed(uint64_t key) {
  for (auto it = live_.rbegin(); it != live_.rend(); ++it) {
    if (*it == key) {
      live_.erase(std::next(it).base());
      return;
    }
  }
}

KeyState* OltpModel::Prepare(uint64_t key) {
  KeyState* s = table_->Create(TagOf(key), SeqOf(key));
  s->key = key;
  return s;
}

KeyState* OltpModel::Find(uint64_t key) const {
  KeyState* s = table_->Get(TagOf(key), SeqOf(key));
  return s != nullptr && s->key == key ? s : nullptr;
}

void OltpModel::CheckResult(uint64_t key, const std::string& record,
                            uint64_t begin_ns, uint64_t end_ns,
                            Report* rep) const {
  const KeyState* s = Find(key);
  if (s == nullptr) {
    rep->Fail("range search returned a key the generator never made");
    return;
  }
  if (Classify(*s, begin_ns, end_ns) == Expect::kMustNot) {
    rep->Fail("range search returned a key that was not live");
  }
  if (record != RecordFor(key)) {
    rep->Fail("range search returned a wrong record");
  }
}

void OltpModel::RunEmbedded(OltpStream* stream, Database* db, Gist* gist,
                            OpLog* log, Report* rep) {
  const OltpOp op = stream->Next();
  log->attempted++;
  Status st;
  bool traced = false;
  uint64_t lat = 0;
  KeyState* s = nullptr;
  std::vector<SearchResult> out;
  std::vector<std::string> records;
  uint64_t begin_ns = 0, end_ns = 0;
  {
    ReqScope req(KindName(op.kind));
    traced = req.traced();
    begin_ns = NowNs();
    if (op.kind == kInsert) {
      s = Prepare(op.key);
      s->ins_begin.store(begin_ns);
    } else if (op.kind == kDelete) {
      s = Find(op.key);
      s->del_begin.store(begin_ns);
    }
    Transaction* txn;
    {
      SpanScope sp("txn", "Database::Begin");
      txn = db->Begin(IsolationLevel::kRepeatableRead);
    }
    if (op.kind == kInsert) {
      SpanScope sp("db", "Database::InsertRecord");
      auto rid = db->InsertRecord(txn, gist, BtreeExtension::MakeKey(
                                                 static_cast<int64_t>(op.key)),
                                  RecordFor(op.key));
      st = rid.status();
      if (st.ok()) s->rid.store(rid.value().Pack());
    } else if (op.kind == kDelete) {
      SpanScope sp("db", "Database::DeleteRecord");
      st = db->DeleteRecord(
          txn, gist, BtreeExtension::MakeKey(static_cast<int64_t>(op.key)),
          gistcr::Rid::Unpack(s->rid.load()));
    } else {
      {
        SpanScope sp("gist", "Gist::Search/rr");
        st = gist->Search(txn,
                          BtreeExtension::MakeRange(static_cast<int64_t>(op.key),
                                                    static_cast<int64_t>(op.hi)),
                          &out);
      }
      for (size_t i = 0; st.ok() && i < out.size(); i++) {
        SpanScope sp("db", "Database::ReadRecord");
        auto rec = db->ReadRecord(out[i].rid);
        st = rec.status();
        if (st.ok()) records.push_back(std::move(rec.value()));
      }
      end_ns = NowNs();
    }
    if (st.ok()) {
      SpanScope sp("txn", "Database::Commit");
      st = db->Commit(txn);
    } else {
      (void)db->Abort(txn);
    }
    lat = NowNs() - req.start();
  }
  if (!st.ok()) {
    log->failed++;
    if (op.kind == kInsert) {
      s->ins_failed.store(NowNs());
      stream->InsertFailed(op.key);
    } else if (op.kind == kDelete) {
      stream->DeleteFailed(op.key);
    }
    return;
  }
  if (op.kind == kInsert) s->ins_commit.store(NowNs());
  if (op.kind == kDelete) s->del_commit.store(NowNs());
  log->commits++;
  log->Record(op.kind, lat, traced);
  for (size_t i = 0; i < out.size(); i++) {
    CheckResult(static_cast<uint64_t>(BtreeExtension::Lo(out[i].key)),
                records[i], begin_ns, end_ns, rep);
  }
}

uint64_t OltpModel::VerifyAtRest(Database* db, Gist* gist, Report* rep) const {
  Transaction* txn = db->Begin(IsolationLevel::kReadCommitted);
  std::vector<SearchResult> out;
  Status st = gist->Search(
      txn, BtreeExtension::MakeRange(0, INT64_MAX), &out);
  uint64_t live = 0;
  table_->ForEach([&](KeyState& s) {
    if (s.LiveAtRest()) live++;
  });
  uint64_t matched = 0;
  for (size_t i = 0; st.ok() && i < out.size(); i++) {
    const uint64_t key = static_cast<uint64_t>(BtreeExtension::Lo(out[i].key));
    const KeyState* s = Find(key);
    if (s == nullptr || !s->LiveAtRest()) continue;
    matched++;
    if (i % 64 == 0) {
      auto rec = db->ReadRecord(out[i].rid);
      if (!rec.ok() || rec.value() != RecordFor(key)) {
        rep->Fail("at rest: wrong record for a live key");
      }
    }
  }
  (void)db->Commit(txn);
  if (!st.ok()) {
    rep->Fail("at rest: full search failed: " + st.ToString());
    return live;
  }
  if (matched != live || out.size() != live) {
    rep->Fail("at rest: index holds " + std::to_string(out.size()) +
              " keys (" + std::to_string(matched) + " live in model), model " +
              "has " + std::to_string(live));
  }
  st = gist->CheckInvariants();
  if (!st.ok()) rep->Fail("CheckInvariants: " + st.ToString());
  return live;
}

Status OltpModel::Probe(Database* db, Gist* gist, uint32_t tag, uint64_t seq,
                        uint64_t seed) {
  Rng r(Mix(seed, 5000 + seq));
  KeyState* s = Prepare(OltpKey(&r, tag, seq));
  s->ins_begin.store(NowNs());
  Transaction* txn = db->Begin(IsolationLevel::kRepeatableRead);
  auto rid = db->InsertRecord(
      txn, gist, BtreeExtension::MakeKey(static_cast<int64_t>(s->key)),
      RecordFor(s->key));
  Status st = rid.status();
  if (st.ok()) {
    s->rid.store(rid.value().Pack());
    st = db->Commit(txn);
  } else {
    (void)db->Abort(txn);
  }
  (st.ok() ? s->ins_commit : s->ins_failed).store(NowNs());
  return st;
}

void OltpModel::RollBackProbe(uint32_t tag, uint64_t seq, uint64_t seed) {
  Rng r(Mix(seed, 5000 + seq));
  KeyState* s = Find(OltpKey(&r, tag, seq));
  if (s == nullptr) return;
  const uint64_t now = NowNs();
  s->del_begin.store(now);
  s->del_commit.store(now);
}

Status OltpLoad(Database* db, Gist* gist, OltpModel* model,
                const std::vector<uint64_t>& keys, int threads) {
  std::vector<Status> errs(static_cast<size_t>(threads));
  RunThreads(threads, [&](int t) {
    Transaction* txn = nullptr;
    int in_txn = 0;
    for (size_t i = static_cast<size_t>(t); i < keys.size();
         i += static_cast<size_t>(threads)) {
      KeyState* s = model->Find(keys[i]);
      if (txn == nullptr) txn = db->Begin(IsolationLevel::kReadCommitted);
      auto rid = db->InsertRecord(
          txn, gist, BtreeExtension::MakeKey(static_cast<int64_t>(keys[i])),
          RecordFor(keys[i]));
      if (!rid.ok()) {
        errs[static_cast<size_t>(t)] = rid.status();
        (void)db->Abort(txn);
        return;
      }
      s->MarkPreloaded(rid.value().Pack());
      if (++in_txn == 100) {
        errs[static_cast<size_t>(t)] = db->Commit(txn);
        if (!errs[static_cast<size_t>(t)].ok()) return;
        txn = nullptr;
        in_txn = 0;
      }
    }
    if (txn != nullptr) errs[static_cast<size_t>(t)] = db->Commit(txn);
  });
  for (const Status& e : errs) {
    if (!e.ok()) return e;
  }
  return Status::OK();
}

std::vector<std::deque<uint64_t>> Partition(const std::vector<uint64_t>& keys,
                                            int parts) {
  std::vector<std::deque<uint64_t>> out(static_cast<size_t>(parts));
  for (size_t i = 0; i < keys.size(); i++) {
    out[i % static_cast<size_t>(parts)].push_back(keys[i]);
  }
  return out;
}

}  // namespace perfbench
