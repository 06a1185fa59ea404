// ranbench — the measured process of the end-to-end benchmark (run.py
// builds it, prepares inputs, and calls it once per workload run).
//
//   ranbench prepare --seed <n> --out <dir>
//       runs the Comcast campaign once and writes corpus.txt, rdns.txt
//       and snapshot.json under <dir>;
//   ranbench <cable_comcast|offline_comcast|serve_loopback>
//            --seed <n> --seconds <s> --trace <0|1> --data <dir>
//       runs one workload and prints one JSON line: metrics with units
//       and sample counts, host context, checks attempted and failed.
//
// Exit status: 0 when every check passed, 1 when one failed, 2 on bad
// arguments or a build that must not report numbers.
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "bench.hpp"

namespace {

int usage() {
  std::cerr << "usage: ranbench prepare --seed N --out DIR\n"
               "       ranbench <cable_comcast|offline_comcast|"
               "serve_loopback> --seed N --seconds S --trace 0|1 "
               "--data DIR\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ranbench;
  if (argc < 2) return usage();
  Options options;
  options.workload = argv[1];
  std::filesystem::path out;
  bool have_seed = false;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--data") {
      options.data_dir = value;
    } else if (flag == "--out") {
      out = value;
    } else {
      return usage();
    }
  }
  if (!have_seed || options.seconds <= 0.0) return usage();

  if (const auto refusal = build_refusal(); !refusal.empty()) {
    std::cerr << "ranbench: refusing to report numbers: " << refusal << "\n";
    return 2;
  }
  if (options.workload == "prepare")
    return out.empty() ? usage() : prepare_inputs(options.seed, out);

  Report report;
  record_context(report, options);
  if (options.workload == "cable_comcast")
    run_cable(options, report);
  else if (options.workload == "offline_comcast")
    run_offline(options, report);
  else if (options.workload == "serve_loopback")
    run_serve(options, report);
  else
    return usage();
  report.metric("peak_rss_mb", peak_rss_mb(), "MB", 1);
  std::cout << report.to_json() << std::endl;
  return report.failed() == 0 ? 0 : 1;
}
