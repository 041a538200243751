// Untraced end-to-end run: a file-backed PersistentArray served by an
// in-process BlockServer (oiraidd's default configuration) and driven over
// loopback OIRD through server::Client.
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "modes.hpp"
#include "server/block_server.hpp"
#include "server/persistent_array.hpp"
#include "server/protocol.hpp"
#include "workload/arrival.hpp"

namespace oibench {

namespace {

using oi::server::BlockServer;
using oi::server::BlockServerConfig;
using oi::server::Client;
using oi::server::PersistentArray;

constexpr int kSetupRepeats = 5;
/// Idle rebuilds timed after the window of a healthy workload.
constexpr int kIdleRebuilds = 15;
/// Closed-loop windows are split into this many blocks for the medians.
constexpr int kBlocks = 5;
constexpr double kWarmupSeconds = 1.0;
constexpr double kRebuildTimeoutSeconds = 60.0;
constexpr std::size_t kSweepConnections = 4;

/// One deployed array: scratch directory, persistent array, server. Members
/// are destroyed server first, directory last.
struct Deployment {
  std::unique_ptr<ScratchDir> dir;
  std::unique_ptr<PersistentArray> array;
  std::unique_ptr<BlockServer> server;

  void tear_down() {
    server.reset();
    array.reset();
    dir.reset();
  }
};

/// Writes (`write`) or reads and verifies every unit of the array in
/// kChunkBytes requests over kSweepConnections connections. `shadow` holds
/// each unit's version. Returns failed requests plus mismatching units.
std::uint64_t sweep(std::uint16_t port, const WorkloadDef& w,
                    const std::vector<std::uint32_t>& shadow, bool write) {
  WorkloadDef split = w;
  split.connections = kSweepConnections;
  const auto parts = slices(shadow.size() * w.op_bytes, split);
  std::atomic<std::uint64_t> bad{0};
  std::vector<std::thread> threads;
  for (const Slice& s : parts) {
    threads.emplace_back([&, s] {
      try {
        Client client(kHost, port);
        const std::uint64_t per_chunk = std::max<std::uint64_t>(1, kChunkBytes / w.op_bytes);
        std::vector<std::uint8_t> chunk(per_chunk * w.op_bytes);
        for (std::uint64_t u = 0; u < s.units; u += per_chunk) {
          const std::uint64_t n = std::min(per_chunk, s.units - u);
          const std::uint64_t unit0 = s.first_unit + u;
          const std::uint64_t offset = unit0 * w.op_bytes;
          if (write) {
            for (std::uint64_t i = 0; i < n; ++i) {
              fill_pattern({chunk.data() + i * w.op_bytes, w.op_bytes}, unit0 + i,
                           shadow[unit0 + i]);
            }
            client.write(offset, {chunk.data(), n * w.op_bytes});
            continue;
          }
          const auto data = client.read(offset, static_cast<std::uint32_t>(n * w.op_bytes));
          for (std::uint64_t i = 0; i < n; ++i) {
            if (!check_pattern({data.data() + i * w.op_bytes, w.op_bytes}, unit0 + i,
                               shadow[unit0 + i])) {
              ++bad;
            }
          }
        }
      } catch (const std::exception&) {
        ++bad;
      }
    });
  }
  for (auto& t : threads) t.join();
  return bad.load();
}

/// Reads every byte of every backing file once, so the page cache holds the
/// whole array, parity strips included.
void warm_backing_files(const std::string& dir) {
  std::vector<char> buf(kChunkBytes);
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".img") continue;
    const int fd = ::open(entry.path().c_str(), O_RDONLY);
    if (fd < 0) continue;
    while (::read(fd, buf.data(), buf.size()) > 0) {
    }
    ::close(fd);
  }
}

/// Everything before the timed window: layout, maps, backing files, server,
/// and a warm pass: every user unit is read through the server (verifying the
/// fresh array's zeros) and every backing file through the OS, so the window
/// pays no first-touch page faults. The pass writes nothing: filling the
/// array would push gigabytes through the device on every set-up, and the
/// device's flush latency is what the rebuild measures.
Deployment deploy(const WorkloadDef& w, int index, double& seconds_taken,
                  Result& r) {
  const auto t0 = Clock::now();
  Deployment d;
  d.dir = std::make_unique<ScratchDir>("e2e-" + w.name + "-" + std::to_string(index));
  d.array = std::make_unique<PersistentArray>(d.dir->path() + "/array",
                                              make_layout(w), w.strip_bytes);
  BlockServerConfig config;  // oiraidd defaults
  d.server = std::make_unique<BlockServer>(*d.array, config);
  const std::vector<std::uint32_t> zeros(d.array->array().capacity_bytes() / w.op_bytes, 0);
  if (sweep(d.server->port(), w, zeros, /*write=*/false) != 0) {
    r.fail("warm pass: a fresh array did not read back as zeros");
  }
  warm_backing_files(d.dir->path() + "/array");
  seconds_taken = seconds_between(t0, Clock::now());
  return d;
}

struct OpSamples {
  std::vector<double> read_us;
  std::vector<double> write_us;
  std::uint64_t ops = 0;
  std::uint64_t bytes = 0;
  std::uint64_t errors = 0;
  std::uint64_t mismatches = 0;
};

/// Issues one op and records it; `start` is when the op was due (open loop)
/// or sent (closed loop). Returns false if the op failed.
bool do_op(Client& client, const WorkloadDef& w, const OpStream::Op& op,
           std::vector<std::uint32_t>& shadow, std::vector<std::uint8_t>& buf,
           Clock::time_point start, OpSamples& s, double* latency_us = nullptr) {
  const std::uint64_t offset = op.unit * w.op_bytes;
  try {
    if (op.write) {
      const std::uint32_t version = shadow[op.unit] + 1;
      fill_pattern(buf, op.unit, version);
      // The version is bumped before the request so a failed write leaves the
      // shadow pointing at content that can no longer match: counted, never
      // masked.
      shadow[op.unit] = version;
      client.write(offset, buf);
      const double us = us_between(start, Clock::now());
      s.write_us.push_back(us);
      if (latency_us) *latency_us = us;
    } else {
      const auto data = client.read(offset, static_cast<std::uint32_t>(w.op_bytes));
      const double us = us_between(start, Clock::now());
      s.read_us.push_back(us);
      if (latency_us) *latency_us = us;
      if (!check_pattern(data, op.unit, shadow[op.unit])) ++s.mismatches;
    }
    ++s.ops;
    s.bytes += w.op_bytes;
    return true;
  } catch (const std::exception&) {
    ++s.errors;
    return false;
  }
}

/// Parses "failed N" and "rebuild_active N" from kStatus text.
bool rebuild_finished(const std::string& status) {
  std::istringstream in(status);
  std::string key;
  long failed = -1;
  long active = -1;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    long value = 0;
    if (!(ls >> key >> value)) continue;
    if (key == "failed") failed = value;
    if (key == "rebuild_active") active = value;
  }
  return failed == 0 && active == 0;
}

/// Fails disk 0 and polls kStatus until the rebuild completes. Returns the
/// seconds from the fail acknowledgement to completion, or a negative value
/// when the rebuild did not complete in time. `acked`/`done` receive the
/// window's ends.
double fail_and_rebuild(Client& admin, Clock::time_point& acked,
                        Clock::time_point& done) {
  admin.fail_disk(0);
  acked = Clock::now();
  while (true) {
    if (rebuild_finished(admin.status())) {
      done = Clock::now();
      return seconds_between(acked, done);
    }
    if (seconds_between(acked, Clock::now()) > kRebuildTimeoutSeconds) {
      done = Clock::now();
      return -1.0;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

std::string join(const std::vector<double>& v);

/// Latency percentiles per group (a block of the window, or a rebuild cycle);
/// the run reports the median over groups, so a transient stall moves one
/// group's value, not the run's.
void report_latencies(Result& r, const std::vector<OpSamples>& groups,
                      const std::string& group_name) {
  std::vector<double> rp50, rp99, wp50, wp99;
  std::size_t reads = 0, writes = 0, min_reads = SIZE_MAX, min_writes = SIZE_MAX;
  for (const OpSamples& g : groups) {
    rp50.push_back(percentile(g.read_us, 0.50));
    rp99.push_back(percentile(g.read_us, 0.99));
    wp50.push_back(percentile(g.write_us, 0.50));
    wp99.push_back(percentile(g.write_us, 0.99));
    reads += g.read_us.size();
    writes += g.write_us.size();
    min_reads = std::min(min_reads, g.read_us.size());
    min_writes = std::min(min_writes, g.write_us.size());
  }
  r.metric("read_p50_us", median(rp50), "us");
  r.metric("read_p99_us", median(rp99), "us");
  r.metric("write_p50_us", median(wp50), "us");
  r.metric("write_p99_us", median(wp99), "us");
  const std::string n = std::to_string(groups.size()) + " " + group_name + ", fewest ";
  r.meta["read_samples"] = std::to_string(reads) + " in " + n + std::to_string(min_reads);
  r.meta["write_samples"] = std::to_string(writes) + " in " + n + std::to_string(min_writes);
  r.meta["read_p99_us_per_" + group_name] = join(rp99);
  r.meta["write_p99_us_per_" + group_name] = join(wp99);
}

std::string join(const std::vector<double>& v) {
  std::ostringstream os;
  for (std::size_t i = 0; i < v.size(); ++i) os << (i ? " " : "") << v[i];
  return os.str();
}

void merge(OpSamples& into, const OpSamples& from) {
  into.read_us.insert(into.read_us.end(), from.read_us.begin(), from.read_us.end());
  into.write_us.insert(into.write_us.end(), from.write_us.begin(), from.write_us.end());
  into.ops += from.ops;
  into.bytes += from.bytes;
  into.errors += from.errors;
  into.mismatches += from.mismatches;
}

/// Closed loop: one thread per connection, each on its own slice, until the
/// deadline. Then idle rebuilds of disk 0 give rebuild_s.
void closed_loop(const WorkloadDef& w, std::uint64_t seed, double seconds,
                 Deployment& d, std::vector<std::uint32_t>& shadow, Result& r) {
  const auto parts = slices(d.array->array().capacity_bytes(), w);
  const std::uint16_t port = d.server->port();
  std::vector<std::unique_ptr<Client>> clients;
  for (std::size_t c = 0; c < parts.size(); ++c) {
    clients.push_back(std::make_unique<Client>(kHost, port));
  }
  // The window runs as kBlocks equal blocks; an op belongs to the block in
  // which it was sent.
  const double block_seconds = seconds / kBlocks;
  std::vector<std::vector<OpSamples>> per_conn(parts.size(), std::vector<OpSamples>(kBlocks));
  const auto start = Clock::now();
  auto at = [&](double t) {
    return start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(t));
  };
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < parts.size(); ++c) {
    threads.emplace_back([&, c] {
      OpStream stream(w, parts[c], seed, c);
      std::vector<std::uint8_t> buf(w.op_bytes);
      for (int b = 0; b < kBlocks; ++b) {
        OpSamples& s = per_conn[c][b];
        const auto block_end = at(block_seconds * (b + 1));
        while (true) {
          const auto now = Clock::now();
          if (now >= block_end) break;
          do_op(*clients[c], w, stream.next(), shadow, buf, now, s);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  clients.clear();

  std::vector<OpSamples> blocks(kBlocks);
  std::vector<double> ops_rate, byte_rate;
  OpSamples all;
  for (int b = 0; b < kBlocks; ++b) {
    for (const auto& conn : per_conn) merge(blocks[b], conn[b]);
    ops_rate.push_back(static_cast<double>(blocks[b].ops) / block_seconds);
    byte_rate.push_back(static_cast<double>(blocks[b].bytes) / block_seconds / 1e6);
    merge(all, blocks[b]);
  }
  r.attempted += all.ops + all.errors;
  r.failed += all.errors + all.mismatches;
  if (all.mismatches) r.fail("read verification mismatches in the timed window");
  if (all.errors) r.fail("error frames in the timed window");
  r.metric("ops_per_s", median(ops_rate), "1/s");
  r.metric("mb_per_s", median(byte_rate), "MB/s");
  r.meta["ops_per_s_per_block"] = join(ops_rate);
  report_latencies(r, blocks, "blocks");

  Client admin(kHost, port);
  std::vector<double> rebuilds;
  for (int i = 0; i < kIdleRebuilds; ++i) {
    Clock::time_point acked, done;
    const double s = fail_and_rebuild(admin, acked, done);
    if (s < 0) {
      r.fail("idle rebuild of disk 0 did not complete");
      break;
    }
    rebuilds.push_back(s);
  }
  r.metric("rebuild_s", median(rebuilds), "s");
  r.meta["rebuild_s_samples"] = join(rebuilds);
}

/// Open loop: Poisson arrivals on one connection, timed from each op's due
/// time; an admin connection fails disk 0 after a healthy warm-up and polls
/// until the rebuild completes, in as many cycles as the run length allows.
void open_loop(const WorkloadDef& w, std::uint64_t seed, double seconds,
               Deployment& d, std::vector<std::uint32_t>& shadow, Result& r) {
  const auto parts = slices(d.array->array().capacity_bytes(), w);
  const std::uint16_t port = d.server->port();
  struct Record {
    double due = 0.0;  ///< seconds since start
    double late_us = 0.0;
    double latency_us = 0.0;
    bool write = false;
    bool ok = false;
  };
  std::vector<Record> records;
  records.reserve(static_cast<std::size_t>(w.open_loop_rate * (seconds + 30)));
  std::atomic<double> stop_at{std::numeric_limits<double>::infinity()};
  OpSamples totals;
  Client fg_client(kHost, port);
  Client admin(kHost, port);

  const auto start = Clock::now();
  double fg_end = 0.0;
  std::thread fg([&] {
    OpStream stream(w, parts[0], seed, 0);
    oi::Rng arrival_rng(seed * 0xA24BAED4963EE407ULL + 17);
    oi::workload::PoissonArrivals arrivals(w.open_loop_rate);
    std::vector<std::uint8_t> buf(w.op_bytes);
    double due = 0.0;
    while (true) {
      due += arrivals.next_seconds(arrival_rng);
      if (due >= stop_at.load(std::memory_order_acquire)) break;
      const OpStream::Op op = stream.next();
      const auto due_tp = start + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(due));
      std::this_thread::sleep_until(due_tp);
      Record rec;
      rec.due = due;
      rec.write = op.write;
      rec.late_us = us_between(due_tp, Clock::now());
      rec.ok = do_op(fg_client, w, op, shadow, buf, due_tp, totals, &rec.latency_us);
      records.push_back(rec);
    }
    fg_end = seconds_between(start, Clock::now());
  });

  std::vector<double> rebuilds;
  std::vector<std::pair<double, double>> windows;
  bool rebuild_ok = true;
  auto rel = [&](Clock::time_point t) { return seconds_between(start, t); };
  std::this_thread::sleep_for(std::chrono::duration<double>(kWarmupSeconds));
  try {
    while (true) {
      Clock::time_point acked, done;
      const double s = fail_and_rebuild(admin, acked, done);
      if (s < 0) {
        rebuild_ok = false;
        break;
      }
      rebuilds.push_back(s);
      windows.emplace_back(rel(acked), rel(done));
      // Another cycle only if it fits the run length.
      if (rel(done) + kWarmupSeconds + s > seconds) break;
      std::this_thread::sleep_for(std::chrono::duration<double>(kWarmupSeconds));
    }
  } catch (const std::exception& e) {
    rebuild_ok = false;
    r.fail(std::string("admin connection: ") + e.what());
  }
  stop_at.store(rel(Clock::now()), std::memory_order_release);
  fg.join();
  if (!rebuild_ok) r.fail("online rebuild of disk 0 did not complete");

  // Latency covers ops due between a failure's acknowledgement and the end
  // of its rebuild: the cost of the recovery itself, not of the fail-disk
  // barrier (which poisons the whole disk with every domain locked).
  std::vector<OpSamples> cycles(windows.size());
  std::vector<double> late;
  late.reserve(records.size());
  for (const Record& rec : records) {
    late.push_back(rec.late_us);
    if (!rec.ok) continue;
    for (std::size_t i = 0; i < windows.size(); ++i) {
      if (rec.due >= windows[i].first && rec.due <= windows[i].second) {
        (rec.write ? cycles[i].write_us : cycles[i].read_us).push_back(rec.latency_us);
        break;
      }
    }
  }
  report_latencies(r, cycles, "cycles");
  r.attempted += records.size();
  r.failed += totals.errors + totals.mismatches;
  if (totals.mismatches) r.fail("read verification mismatches in the timed window");
  if (totals.errors) r.fail("error frames in the timed window");
  r.metric("ops_per_s", static_cast<double>(totals.ops) / fg_end, "1/s");
  r.metric("mb_per_s", static_cast<double>(totals.bytes) / fg_end / 1e6, "MB/s");
  r.metric("rebuild_s", median(rebuilds), "s");
  r.meta["rebuild_s_samples"] = join(rebuilds);
  r.meta["late_p99_us"] = std::to_string(percentile(late, 0.99));
  r.meta["latency_origin"] = "due time (open loop)";
}

}  // namespace

Result run_end_to_end(const WorkloadDef& w, std::uint64_t seed, double seconds) {
  Result r;
  std::vector<double> setups;
  Deployment d;
  for (int i = 0; i < kSetupRepeats; ++i) {
    double s = 0.0;
    d.tear_down();  // the previous repeat goes before the next starts
    d = deploy(w, i, s, r);
    setups.push_back(s);
  }
  r.metric("setup_s", median(setups), "s");
  r.meta["setup_s_samples"] = join(setups);
  r.meta["fs_type"] = filesystem_type(d.dir->path());

  std::vector<std::uint32_t> shadow(d.array->array().capacity_bytes() / w.op_bytes, 0);
  if (w.open_loop_rate > 0) {
    open_loop(w, seed, seconds, d, shadow, r);
  } else {
    closed_loop(w, seed, seconds, d, shadow, r);
  }

  // Every unit must read back as last written, rebuilt disk included.
  const std::uint64_t bad = sweep(d.server->port(), w, shadow, /*write=*/false);
  if (bad) {
    r.failed += bad;
    r.fail("final read-back found " + std::to_string(bad) + " bad chunks");
  }
  d.server.reset();
  const std::string scrub = d.array->array().scrub();
  if (!scrub.empty()) r.fail("scrub after the workload: " + scrub);
  r.meta["scrub"] = scrub.empty() ? "clean" : scrub;
  r.meta["error_rate"] = std::to_string(
      r.attempted ? static_cast<double>(r.failed) / static_cast<double>(r.attempted) : 0.0);
  r.metric("peak_rss_mb", peak_rss_mb(), "MB");
  return r;
}

}  // namespace oibench
