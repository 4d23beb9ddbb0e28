// perfbench — one benchmark run of one workload of the placement stack.
//
//   perfbench --workload <gsrc-anneal|mcnc-race|serve-open> --seed <n>
//             --seconds <s> --trace <0|1> --serve-bin <als_serve>
//             --out <dir>
//
// Prints notes and failed checks on stderr and, as the last stdout line,
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1.  Exits nonzero when any
// correctness check failed.  perfbench/run.py builds this and runs it.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "workloads.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <gsrc-anneal|mcnc-race|serve-open>"
               " --seed <n> --seconds <s> --trace <0|1> --serve-bin <path>"
               " --out <dir>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = v;
    } else if (key == "--seed") {
      args.seed = std::strtoull(v, &end, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(v, &end);
    } else if (key == "--trace") {
      args.trace = std::string(v) == "1";
    } else if (key == "--serve-bin") {
      args.serveBin = v;
    } else if (key == "--out") {
      args.outDir = v;
    } else {
      return usage();
    }
    if (end && *end != '\0') return usage();
  }
  if (argc % 2 == 0 || args.outDir.empty() || !(args.seconds > 0.0)) {
    return usage();
  }
  std::error_code ec;
  std::filesystem::create_directories(args.outDir, ec);

  perfbench::RunOutput out;
  try {
    if (args.workload == "gsrc-anneal") {
      perfbench::runGsrcAnneal(args, out);
    } else if (args.workload == "mcnc-race") {
      perfbench::runMcncRace(args, out);
    } else if (args.workload == "serve-open") {
      perfbench::runServeOpen(args, out);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    ++out.attempted;
    out.fail(std::string("exception: ") + e.what());
  }
  return perfbench::emitResult(out, args.trace);
}
