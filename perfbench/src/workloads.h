// The three benchmark workloads. Each builds its inputs from Args::seed,
// measures for Args::seconds, checks every output against its model and
// fills the report (end-to-end metrics always, per-layer metrics always;
// the printer picks one set by --trace).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <vector>

#include "harness.h"

namespace perfbench {

/// Returns non-OK only when the run could not complete at all (setup or
/// engine error); failed correctness checks go to Report::Fail.
Status RunEmbeddedSpatial(const Args& args, Report* rep,
                          std::vector<PoolStamp>* pools);
Status RunWireOltp(const Args& args, Report* rep,
                   std::vector<PoolStamp>* pools);
Status RunCrashRestart(const Args& args, Report* rep,
                       std::vector<PoolStamp>* pools);

/// Digest of the first `ops` operations of every generated stream of a
/// workload (preload included), assuming every operation succeeds. Equal
/// seeds must give equal digests; the benchmark's own test checks this.
uint64_t EmbeddedSpatialDigest(uint64_t seed, uint64_t ops);
uint64_t WireOltpDigest(uint64_t seed, uint64_t ops);
uint64_t CrashRestartDigest(uint64_t seed, uint64_t ops);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
