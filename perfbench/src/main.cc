// gistcr benchmark program.
//
//   gistcr_perfbench --workload <embedded_spatial|wire_oltp|crash_restart>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    --data-dir <dir> --out-dir <dir>
//   gistcr_perfbench --digest <workload> --seed <n> [--ops <n>]
//
// Prints human-readable lines (environment stamp, every metric with its
// unit and sample count, failed checks) and, as the last line, one JSON
// object {correct, attempted, failed, metrics}: the end-to-end metrics,
// or with --trace 1 the per-layer metrics of a span-recording run.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "harness.h"
#include "workloads.h"

namespace {

int Usage(const char* msg) {
  std::fprintf(stderr, "gistcr_perfbench: %s\n", msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  std::string digest;
  uint64_t digest_ops = 10000;
  for (int i = 1; i < argc; i++) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    if (a == "--workload") {
      args.workload = v;
    } else if (a == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      args.seconds = std::atof(v);
    } else if (a == "--trace") {
      args.trace = std::atoi(v) != 0;
    } else if (a == "--data-dir") {
      args.data_dir = v;
    } else if (a == "--out-dir") {
      args.out_dir = v;
    } else if (a == "--digest") {
      digest = v;
    } else if (a == "--ops") {
      digest_ops = std::strtoull(v, nullptr, 10);
    } else {
      return Usage(("unknown flag " + a).c_str());
    }
  }

  if (!digest.empty()) {
    uint64_t h = 0;
    if (digest == "embedded_spatial") {
      h = perfbench::EmbeddedSpatialDigest(args.seed, digest_ops);
    } else if (digest == "wire_oltp") {
      h = perfbench::WireOltpDigest(args.seed, digest_ops);
    } else if (digest == "crash_restart") {
      h = perfbench::CrashRestartDigest(args.seed, digest_ops);
    } else {
      return Usage("unknown workload");
    }
    std::printf("%016" PRIx64 "\n", h);
    return 0;
  }

  if (args.seconds <= 0) return Usage("--seconds must be positive");
  if (args.data_dir.empty() || args.out_dir.empty()) {
    return Usage("--data-dir and --out-dir are required");
  }
  // One process, at most nproc client threads and connections.
  const unsigned nproc = std::thread::hardware_concurrency();
  if (nproc != 0 && nproc < static_cast<unsigned>(args.threads)) {
    args.threads = static_cast<int>(nproc);
  }
  std::filesystem::create_directories(args.data_dir);
  std::filesystem::create_directories(args.out_dir);

  perfbench::Report rep;
  std::vector<perfbench::PoolStamp> pools;
  gistcr::Status st;
  if (args.workload == "embedded_spatial") {
    st = perfbench::RunEmbeddedSpatial(args, &rep, &pools);
  } else if (args.workload == "wire_oltp") {
    st = perfbench::RunWireOltp(args, &rep, &pools);
  } else if (args.workload == "crash_restart") {
    st = perfbench::RunCrashRestart(args, &rep, &pools);
  } else {
    return Usage("unknown workload");
  }
  if (!st.ok()) {
    std::fprintf(stderr, "gistcr_perfbench: %s aborted: %s\n",
                 args.workload.c_str(), st.ToString().c_str());
    return 1;
  }
  if (args.trace) {
    perfbench::Tracing::Get().Dump(args.out_dir + "/" + args.workload +
                                   ".spans.csv");
  }
  rep.Print(args.trace, perfbench::EnvStampJson(pools, args.trace));
  return 0;
}
