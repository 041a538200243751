// Shared pieces of the repository benchmark: workload definitions, the
// seeded op streams both modes replay, payload patterns for byte-exact read
// verification, scratch directories, run metadata and the result record.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "layout/oi_raid.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace oibench {

using Clock = std::chrono::steady_clock;

/// The in-process server listens on loopback only.
inline constexpr const char* kHost = "127.0.0.1";
/// Request and warm-up chunk size for whole-array passes.
inline constexpr std::size_t kChunkBytes = 1 << 20;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// One benchmark workload: geometry, op shape and load model.
struct WorkloadDef {
  std::string name;
  bool projective = false;        ///< PG(2,3) when true, Fano otherwise
  std::size_t disks_per_group = 3;
  std::size_t region_height = 240;
  std::size_t strip_bytes = 4096;
  std::size_t op_bytes = 4096;    ///< every op is op_bytes at an op_bytes-aligned offset
  double read_fraction = 0.7;
  std::size_t connections = 2;    ///< foreground connections (closed loop)
  double open_loop_rate = 0.0;    ///< ops/s; 0 = closed loop
};

/// The three workloads, by name; nullptr for an unknown name.
const WorkloadDef* find_workload(const std::string& name);

oi::layout::OiRaidLayout make_layout(const WorkloadDef& w);

/// Each connection owns a disjoint slice [first_unit, first_unit + units) of
/// the array's op-sized units.
struct Slice {
  std::uint64_t first_unit = 0;
  std::uint64_t units = 0;
};
std::vector<Slice> slices(std::uint64_t capacity_bytes, const WorkloadDef& w);

/// The seeded op stream of one connection: the same seed and connection give
/// the same ops in both the untimed and the traced mode.
class OpStream {
 public:
  OpStream(const WorkloadDef& w, const Slice& slice, std::uint64_t seed,
           std::size_t connection);
  struct Op {
    std::uint64_t unit = 0;  ///< absolute unit index
    bool write = false;
  };
  Op next();

 private:
  oi::Rng rng_;
  oi::workload::UniformWorkload gen_;
  std::uint64_t first_unit_;
};

/// Deterministic contents of one unit at one version: 64-bit words derived
/// from (unit, version), so a misplaced, stale or torn unit never matches.
void fill_pattern(std::span<std::uint8_t> out, std::uint64_t unit,
                  std::uint32_t version);
/// True when `data` equals fill_pattern(unit, version); version 0 is the
/// all-zero content of a fresh array.
bool check_pattern(std::span<const std::uint8_t> data, std::uint64_t unit,
                   std::uint32_t version);

/// Nearest-rank percentile (q in [0,1]) of a copy of the samples; 0 if empty.
double percentile(std::vector<double> samples, double q);
double median(std::vector<double> samples);

/// A directory under the checkout's .bench_work/, removed with everything in
/// it when the object dies.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};
/// Removes .bench_work/ left behind by an earlier, killed run.
void remove_stale_scratch();
/// syncfs() on the checkout's filesystem: commits pending journal work
/// (including the discards of deleted backing files) so that it lands in
/// neither this run's window nor the next run's.
void settle_filesystem();

std::string filesystem_type(const std::string& dir);
std::string kernel_release();
double peak_rss_mb();

/// What one run reports: the contract's counters, its metrics, and free-form
/// run metadata printed on the line before the result.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::map<std::string, std::string> meta;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
};

/// Prints the metadata line and then the one-line JSON result.
void print_result(const Result& r);

}  // namespace oibench
