#include "common.hpp"

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <sys/utsname.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <unistd.h>

#include "bibd/constructions.hpp"

namespace oibench {

namespace fs = std::filesystem;

namespace {

const std::vector<WorkloadDef>& all_workloads() {
  static const std::vector<WorkloadDef> defs = [] {
    std::vector<WorkloadDef> d;
    // Small random ops: per-request cost dominates the array work.
    WorkloadDef oltp;
    oltp.name = "oltp-4k";
    d.push_back(oltp);
    // Large ops over 64 KiB strips: bytes dominate.
    WorkloadDef stream;
    stream.name = "stream-1m";
    stream.strip_bytes = 64 * 1024;
    stream.op_bytes = 1024 * 1024;
    stream.read_fraction = 0.5;
    d.push_back(stream);
    // Open-loop foreground while disk 0 is rebuilt online.
    WorkloadDef rebuild;
    rebuild.name = "rebuild-under-load";
    rebuild.projective = true;
    rebuild.region_height = 1920;
    rebuild.connections = 1;
    rebuild.open_loop_rate = 3000.0;
    d.push_back(rebuild);
    return d;
  }();
  return defs;
}

const char* kScratchRoot = ".bench_work";

}  // namespace

const WorkloadDef* find_workload(const std::string& name) {
  for (const auto& w : all_workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

oi::layout::OiRaidLayout make_layout(const WorkloadDef& w) {
  return oi::layout::OiRaidLayout(oi::layout::OiRaidParams{
      w.projective ? oi::bibd::projective_plane(3) : oi::bibd::fano(), w.disks_per_group,
      w.region_height});
}

std::vector<Slice> slices(std::uint64_t capacity_bytes, const WorkloadDef& w) {
  const std::uint64_t units = capacity_bytes / w.op_bytes;
  std::vector<Slice> out;
  for (std::size_t c = 0; c < w.connections; ++c) {
    const std::uint64_t begin = units * c / w.connections;
    const std::uint64_t end = units * (c + 1) / w.connections;
    out.push_back({begin, end - begin});
  }
  return out;
}

OpStream::OpStream(const WorkloadDef& w, const Slice& slice, std::uint64_t seed,
                   std::size_t connection)
    : rng_(seed * 0x9E3779B97F4A7C15ULL + 0x5EED + connection),
      gen_(slice.units, w.read_fraction),
      first_unit_(slice.first_unit) {}

OpStream::Op OpStream::next() {
  const auto access = gen_.next(rng_);
  return {first_unit_ + access.logical, access.is_write};
}

namespace {

std::uint64_t pattern_base(std::uint64_t unit, std::uint32_t version) {
  std::uint64_t x = unit * 0xD1B54A32D192ED03ULL ^
                    (static_cast<std::uint64_t>(version) << 32 | version);
  x ^= x >> 31;
  x *= 0x9E3779B97F4A7C15ULL;
  return x ^ (x >> 29);
}

}  // namespace

void fill_pattern(std::span<std::uint8_t> out, std::uint64_t unit,
                  std::uint32_t version) {
  if (version == 0) {
    std::memset(out.data(), 0, out.size());
    return;
  }
  const std::uint64_t base = pattern_base(unit, version);
  const std::size_t words = out.size() / 8;
  for (std::size_t i = 0; i < words; ++i) {
    const std::uint64_t w = base ^ (i * 0x9E3779B97F4A7C15ULL);
    std::memcpy(out.data() + i * 8, &w, 8);
  }
}

bool check_pattern(std::span<const std::uint8_t> data, std::uint64_t unit,
                   std::uint32_t version) {
  const std::size_t words = data.size() / 8;
  const std::uint64_t base = version == 0 ? 0 : pattern_base(unit, version);
  std::uint64_t diff = 0;
  for (std::size_t i = 0; i < words; ++i) {
    std::uint64_t w;
    std::memcpy(&w, data.data() + i * 8, 8);
    diff |= w ^ (version == 0 ? 0 : base ^ (i * 0x9E3779B97F4A7C15ULL));
  }
  return diff == 0;
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const std::size_t n = samples.size();
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1), samples.end());
  return samples[rank - 1];
}

double median(std::vector<double> samples) { return percentile(std::move(samples), 0.5); }

ScratchDir::ScratchDir(const std::string& tag) {
  fs::create_directories(kScratchRoot);
  path_ = std::string(kScratchRoot) + "/" + tag + "-" + std::to_string(::getpid());
  std::error_code ec;
  fs::remove_all(path_, ec);
  fs::create_directories(path_);
}

ScratchDir::~ScratchDir() {
  std::error_code ec;
  fs::remove_all(path_, ec);
  // Leave no empty .bench_work/ behind either.
  fs::remove(kScratchRoot, ec);
}

void remove_stale_scratch() {
  std::error_code ec;
  fs::remove_all(kScratchRoot, ec);
}

void settle_filesystem() {
  const int fd = ::open(".", O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::syncfs(fd);
  ::close(fd);
}

std::string filesystem_type(const std::string& dir) {
  struct statfs st{};
  if (::statfs(dir.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    default: break;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%lx", static_cast<unsigned long>(st.f_type));
  return buf;
}

std::string kernel_release() {
  struct utsname u{};
  if (::uname(&u) != 0) return "unknown";
  return u.release;
}

double peak_rss_mb() {
  struct rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void print_result(const Result& r) {
  std::ostringstream meta;
  meta << "{\"meta\": {";
  bool first = true;
  for (const auto& [k, v] : r.meta) {
    meta << (first ? "" : ", ") << '"' << json_escape(k) << "\": \""
         << json_escape(v) << '"';
    first = false;
  }
  meta << "}, \"problems\": [";
  for (std::size_t i = 0; i < r.problems.size(); ++i) {
    meta << (i ? ", " : "") << '"' << json_escape(r.problems[i]) << '"';
  }
  meta << "]}";
  std::cout << meta.str() << '\n';

  std::ostringstream out;
  out << "{\"correct\": " << (r.correct ? "true" : "false")
      << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
      << ", \"metrics\": {";
  first = true;
  for (const auto& [name, vu] : r.metrics) {
    out << (first ? "" : ", ") << '"' << json_escape(name) << "\": {\"value\": "
        << json_number(vu.first) << ", \"unit\": \"" << json_escape(vu.second)
        << "\"}";
    first = false;
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

}  // namespace oibench
