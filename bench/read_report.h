#ifndef GISTCR_BENCH_READ_REPORT_H_
#define GISTCR_BENCH_READ_REPORT_H_

// Machine-readable read-mostly report (BENCH_read.json) for the optimistic
// read path (DESIGN.md section 13), written by the BM_ReadMostly series in
// bench_concurrency. Same shape as commit_report.h: rows accumulate across
// (mix, mode, threads) combinations and the file is rewritten whole each
// time, so a partial sweep still leaves valid JSON. The checked-in
// bench/BENCH_read.seed.json is a single run of the CI read-path step
// (both arms) to compare against.

#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <tuple>

#include "db/database.h"

namespace gistcr {
namespace bench {

/// One (mix, mode, threads) row of the read-mostly report. The restart
/// columns are the proof-of-boundedness half of the story: throughput
/// gains from latch-free reads are only real if restarts stay a small
/// fraction of optimistic visits.
struct ReadReportRow {
  double searches_per_s = 0;
  uint64_t searches = 0;
  double elapsed_s = 0;
  uint64_t optimistic_visits = 0;
  uint64_t read_restarts = 0;
  uint64_t read_fallbacks = 0;
  double restarts_per_search = 0;
};

inline void WriteReadReport(const std::string& out_path,
                            const std::string& mix, const std::string& mode,
                            int threads, double elapsed_s, uint64_t searches,
                            Database* db) {
  static std::mutex mu;
  static std::map<std::tuple<std::string, std::string, int>, ReadReportRow>
      rows;
  obs::MetricsRegistry* reg = db->metrics();
  ReadReportRow row;
  row.searches = searches;
  row.elapsed_s = elapsed_s;
  row.searches_per_s =
      elapsed_s > 0 ? static_cast<double>(searches) / elapsed_s : 0.0;
  row.optimistic_visits =
      reg->GetCounter("gist.read.optimistic_visits")->value();
  row.read_restarts = reg->GetCounter("gist.read.restarts")->value();
  row.read_fallbacks = reg->GetCounter("gist.read.fallbacks")->value();
  row.restarts_per_search =
      searches > 0
          ? static_cast<double>(row.read_restarts) / static_cast<double>(searches)
          : 0.0;

  std::lock_guard<std::mutex> l(mu);
  rows[{mix, mode, threads}] = row;
  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: cannot write %s\n", out_path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"read_mostly\",\n  \"runs\": [\n");
  size_t i = 0;
  for (const auto& [key, r] : rows) {
    std::fprintf(
        f,
        "    {\"mix\": \"%s\", \"mode\": \"%s\", \"threads\": %d, "
        "\"searches\": %llu, \"elapsed_s\": %.3f, \"searches_per_s\": %.1f, "
        "\"optimistic_visits\": %llu, \"read_restarts\": %llu, "
        "\"read_fallbacks\": %llu, \"restarts_per_search\": %.4f}%s\n",
        std::get<0>(key).c_str(), std::get<1>(key).c_str(), std::get<2>(key),
        static_cast<unsigned long long>(r.searches), r.elapsed_s,
        r.searches_per_s, static_cast<unsigned long long>(r.optimistic_visits),
        static_cast<unsigned long long>(r.read_restarts),
        static_cast<unsigned long long>(r.read_fallbacks),
        r.restarts_per_search, ++i < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace bench
}  // namespace gistcr

#endif  // GISTCR_BENCH_READ_REPORT_H_
