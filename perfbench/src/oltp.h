// B-tree OLTP traffic shared by wire_oltp and crash_restart: 40% inserts of
// fresh uniform keys, 40% deletes of the stream's oldest live key, 20%
// repeatable-read 10-key range searches that read their records.
#ifndef PERFBENCH_OLTP_H_
#define PERFBENCH_OLTP_H_

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "access/btree_extension.h"
#include "harness.h"

namespace perfbench {

/// Keys are 62-bit: 38 random bits above the (tag, seq) low bits.
uint64_t OltpKey(Rng* r, uint32_t tag, uint64_t seq);
/// Width of a range expected to hold ~10 of `population` uniform keys.
uint64_t OltpRangeWidth(uint64_t population);
constexpr size_t kOltpKeyBytes = 8;

struct OltpOp {
  OpKind kind = kSearch;
  uint64_t key = 0;  ///< insert/delete key, or range low end
  uint64_t hi = 0;   ///< range high end
  double gap = 0;    ///< unit-mean exponential inter-arrival (open loop)
};

/// One client's operation stream; a pure function of (seed, stream, owned
/// keys) as long as every operation succeeds.
class OltpStream {
 public:
  OltpStream(uint64_t seed, int stream, uint32_t tag, uint64_t range_width,
             std::deque<uint64_t> owned);
  uint32_t tag() const { return tag_; }
  OltpOp Next();
  void InsertFailed(uint64_t key);
  void DeleteFailed(uint64_t key) { live_.push_front(key); }

 private:
  Rng rng_;
  uint32_t tag_;
  uint64_t width_;
  uint64_t next_seq_ = 0;
  std::deque<uint64_t> live_;
};

/// Runs OLTP streams in-process (Database + Gist calls) against a model.
class OltpModel {
 public:
  KeyTable& table() { return *table_; }
  /// Drops every state (a crash image is restored for the next cycle).
  void Reset() { table_ = std::make_unique<KeyTable>(); }
  /// Creates the state of a key the generator is about to insert.
  KeyState* Prepare(uint64_t key);
  KeyState* Find(uint64_t key) const;

  /// One operation of `stream` through the embedded API.
  void RunEmbedded(OltpStream* stream, gistcr::Database* db,
                   gistcr::Gist* gist, OpLog* log, Report* rep);
  /// A result of a search that began at begin_ns and returned at end_ns.
  void CheckResult(uint64_t key, const std::string& record, uint64_t begin_ns,
                   uint64_t end_ns, Report* rep) const;
  /// Quiescent: the index holds exactly the model's live keys (records of
  /// a sample of them checked too) and CheckInvariants passes. Returns the
  /// live count.
  uint64_t VerifyAtRest(gistcr::Database* db, gistcr::Gist* gist,
                        Report* rep) const;
  /// Inserts one fresh key (tag `tag`) and commits: the restart probe.
  Status Probe(gistcr::Database* db, gistcr::Gist* gist, uint32_t tag,
               uint64_t seq, uint64_t seed);
  /// The probe (tag, seq) is gone: the image it was committed to has been
  /// replaced by the crash image taken before it.
  void RollBackProbe(uint32_t tag, uint64_t seq, uint64_t seed);

 private:
  std::unique_ptr<KeyTable> table_ = std::make_unique<KeyTable>();
};

/// Bulk-loads `keys` (already Prepared) in transactions of 100 from
/// `threads` threads and marks them committed.
Status OltpLoad(gistcr::Database* db, gistcr::Gist* gist, OltpModel* model,
                const std::vector<uint64_t>& keys, int threads);

/// Partitions keys round-robin into per-stream delete queues.
std::vector<std::deque<uint64_t>> Partition(const std::vector<uint64_t>& keys,
                                            int parts);

}  // namespace perfbench

#endif  // PERFBENCH_OLTP_H_
