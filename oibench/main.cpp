// oibench: the repository benchmark.
//
//   oibench --workload <oltp-4k|stream-1m|rebuild-under-load> --seed <n>
//           --seconds <s> --trace <0|1>
//
// --trace 0 measures the end-to-end metrics of one workload; --trace 1 runs
// the per-layer ladder on the same workload's op stream. The last stdout line
// is the JSON result; the line before it carries run metadata.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "codes/kernels.hpp"
#include "modes.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "oibench: " << why
            << "\nusage: oibench --workload <oltp-4k|stream-1m|rebuild-under-load>"
               " --seed <n> --seconds <s> --trace <0|1>\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        workload = value;
      } else if (flag == "--seed") {
        seed = std::stoull(value);
      } else if (flag == "--seconds") {
        seconds = std::stod(value);
      } else if (flag == "--trace") {
        trace = std::stoi(value);
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  const oibench::WorkloadDef* w = oibench::find_workload(workload);
  if (w == nullptr) usage("unknown workload '" + workload + "'");
  if (!(seconds > 0) || (trace != 0 && trace != 1)) usage("bad --seconds or --trace");

  try {
    oibench::remove_stale_scratch();
    oibench::settle_filesystem();
    oibench::Result r = trace ? oibench::run_ladder(*w, seed, seconds)
                              : oibench::run_end_to_end(*w, seed, seconds);
    oibench::settle_filesystem();
    r.meta["workload"] = w->name;
    r.meta["seed"] = std::to_string(seed);
    r.meta["seconds"] = std::to_string(seconds);
    r.meta["trace"] = std::to_string(trace);
    r.meta["nproc"] = std::to_string(std::thread::hardware_concurrency());
    r.meta["kernel"] = oibench::kernel_release();
    r.meta["gf_kernel"] = oi::gf::kernel_name(oi::gf::active_kernel());
    oibench::print_result(r);
  } catch (const std::exception& e) {
    std::cerr << "oibench: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
