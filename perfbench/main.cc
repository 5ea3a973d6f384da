// csc_perfbench: one workload of the CSC benchmark per process.
//
//   csc_perfbench --workload <update_inplace|serve_mixed> --seed <n>
//                 --seconds <s> --trace <0|1> --work-dir <dir>
//
// Prints progress to stderr and, last on stdout, `RESULT <json>` with the
// output check's tally, the end-to-end metrics (plus the per-layer metrics
// when tracing) and a stamp of the sizes, threads and machine. perfbench/run.py
// builds this binary and turns that line into the benchmark's result.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "harness.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: csc_perfbench --workload <update_inplace|serve_mixed> "
               "--seed <n> --seconds <s> --trace <0|1> --work-dir <dir>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Config config;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || config.work_dir.empty() || config.seconds <= 0) {
    return Usage();
  }
  std::filesystem::create_directories(config.work_dir);

  perfbench::Report report;
  report.Stamp("workload", config.workload);
  report.Stamp("seed", static_cast<double>(config.seed));
  report.Stamp("seconds", config.seconds);
  report.Stamp("trace", config.trace ? 1.0 : 0.0);
#ifdef __clang__
  report.Stamp("compiler", std::string("clang ") + __clang_version__);
#else
  report.Stamp("compiler", std::string("gcc ") + __VERSION__);
#endif
  report.Stamp("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  const double spin = perfbench::SpinSpeedup();
  report.Stamp("spin_speedup", spin);

  int rc;
  if (config.workload == "update_inplace") {
    rc = perfbench::RunUpdateInplace(config, report);
  } else if (config.workload == "serve_mixed") {
    rc = perfbench::RunServeMixed(config, report);
  } else {
    return Usage();
  }
  if (rc != 0) return rc;
  if (config.trace) report.Metric("util.spin_speedup", spin, "x");
  std::printf("RESULT %s\n", report.ToJson().c_str());
  return 0;
}
