// Traced run: the per-layer ladder. It replays the workload's seeded op
// stream rung by rung in one process -- host ceilings, codes, protocol,
// layout lookups, locks, Array over a timing/counting store, PersistentArray
// rebuild steps, Client calls over loopback -- and reports each rung's
// absolute value, its efficiency against its host ceiling, and its added cost
// over the rung below.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "codes/gf256.hpp"
#include "core/array.hpp"
#include "core/block_store.hpp"
#include "core/striped_lock.hpp"
#include "layout/concurrency_map.hpp"
#include "layout/stripe_map.hpp"
#include "modes.hpp"
#include "server/block_server.hpp"
#include "server/persistent_array.hpp"
#include "server/protocol.hpp"
#include "tracing.hpp"
#include "util/metrics.hpp"
#include "workload/arrival.hpp"

namespace oibench {

namespace {

using oi::core::Array;
using oi::core::DomainLockTable;
using oi::server::Client;

constexpr std::size_t kBatchSteps = 8;  // oiraidd's rebuild_batch_steps
constexpr std::size_t kSavedSpans = 100000;

/// Ops replayed per connection: fixed per workload so the counts repeat.
std::size_t replay_ops(const WorkloadDef& w) { return w.op_bytes >= (1u << 20) ? 400 : 20000; }

template <class F>
double time_us(F&& f) {
  const auto t0 = Clock::now();
  f();
  return us_between(t0, Clock::now());
}

// ------------------------------------------------------------ host rung ----

struct Host {
  double memcpy_gbps[3] = {0, 0, 0};  // 1, 2, 4 threads
  double pread_4k_us = 0;
  double pwrite_4k_us = 0;
  double pread_strip_us = 0;
  double fdatasync_us = 0;
  double loopback_rtt_us = 0;
};

/// Aggregate 4 KiB memcpy bandwidth of `threads` threads copying blocks out
/// of one shared working-set-sized source buffer.
double memcpy_gbps(int threads, const std::vector<std::uint8_t>& src) {
  constexpr std::size_t kBlock = 4096;
  const std::size_t blocks = src.size() / kBlock;
  std::atomic<bool> go{false};
  std::atomic<int> ready{0};
  std::vector<std::uint64_t> copied(threads, 0);
  std::vector<double> elapsed(threads, 0);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      std::vector<std::uint8_t> dst(kBlock);
      ++ready;
      while (!go.load(std::memory_order_acquire)) {
      }
      const auto t0 = Clock::now();
      const auto end = t0 + std::chrono::milliseconds(200);
      std::uint64_t n = 0;
      std::size_t b = static_cast<std::size_t>(t) * (blocks / threads);
      while (Clock::now() < end) {
        for (int i = 0; i < 64; ++i) {
          b = (b + 7919) % blocks;
          std::memcpy(dst.data(), src.data() + b * kBlock, kBlock);
          asm volatile("" : : "r"(dst.data()) : "memory");
          ++n;
        }
      }
      elapsed[t] = seconds_between(t0, Clock::now());
      copied[t] = n * kBlock;
    });
  }
  while (ready.load() < threads) {
  }
  go.store(true, std::memory_order_release);
  for (auto& th : pool) th.join();
  double gbps = 0;
  for (int t = 0; t < threads; ++t) gbps += static_cast<double>(copied[t]) / elapsed[t] / 1e9;
  return gbps;
}

/// Median pread/pwrite latency of `bytes` at random aligned offsets of a
/// preallocated file in `dir`.
void file_io(const std::string& dir, std::size_t bytes, double* pread_us,
             double* pwrite_us, double* fdatasync_us) {
  const std::string path = dir + "/host-" + std::to_string(bytes) + ".img";
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw std::runtime_error("cannot create " + path);
  constexpr std::size_t kFileBytes = 32u << 20;
  const std::size_t slots = kFileBytes / bytes;
  std::vector<std::uint8_t> buf(bytes, 0xA5);
  for (std::size_t i = 0; i < slots; ++i) {
    if (::pwrite(fd, buf.data(), bytes, static_cast<off_t>(i * bytes)) !=
        static_cast<ssize_t>(bytes)) {
      ::close(fd);
      throw std::runtime_error("host pwrite failed");
    }
  }
  oi::Rng rng(42);
  const std::size_t n = std::min<std::size_t>(20000, 64 * slots);
  std::vector<double> rd, wr;
  for (std::size_t i = 0; i < n; ++i) {
    const off_t off = static_cast<off_t>(rng.uniform_u64(slots) * bytes);
    rd.push_back(time_us([&] { (void)!::pread(fd, buf.data(), bytes, off); }));
    const off_t off2 = static_cast<off_t>(rng.uniform_u64(slots) * bytes);
    wr.push_back(time_us([&] { (void)!::pwrite(fd, buf.data(), bytes, off2); }));
  }
  if (pread_us) *pread_us = median(rd);
  if (pwrite_us) *pwrite_us = median(wr);
  if (fdatasync_us) {
    ::fdatasync(fd);
    std::vector<double> sync;
    for (int i = 0; i < 30; ++i) {
      const off_t off = static_cast<off_t>(rng.uniform_u64(slots) * bytes);
      (void)!::pwrite(fd, buf.data(), bytes, off);
      sync.push_back(time_us([&] { ::fdatasync(fd); }));
    }
    *fdatasync_us = median(sync);
  }
  ::close(fd);
  ::unlink(path.c_str());
}

/// Median round trip of a 20-byte message to an echo thread over loopback.
double loopback_rtt_us() {
  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  ::inet_pton(AF_INET, kHost, &addr.sin_addr);
  if (lfd < 0 || ::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(lfd, 1) != 0) {
    if (lfd >= 0) ::close(lfd);
    throw std::runtime_error("echo server: cannot listen");
  }
  socklen_t len = sizeof addr;
  ::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len);
  constexpr int kRounds = 5000;
  constexpr std::size_t kMsg = 20;
  auto exact = [](int fd, char* p, std::size_t n, bool send) {
    std::size_t done = 0;
    while (done < n) {
      const ssize_t k = send ? ::send(fd, p + done, n - done, MSG_NOSIGNAL)
                             : ::recv(fd, p + done, n - done, 0);
      if (k <= 0) return false;
      done += static_cast<std::size_t>(k);
    }
    return true;
  };
  std::thread echo([&] {
    const int fd = ::accept(lfd, nullptr, nullptr);
    if (fd < 0) return;
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    char msg[kMsg];
    while (exact(fd, msg, kMsg, false) && exact(fd, msg, kMsg, true)) {
    }
    ::close(fd);
  });
  const int cfd = ::socket(AF_INET, SOCK_STREAM, 0);
  const int one = 1;
  ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  std::vector<double> rtt;
  if (::connect(cfd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) {
    char msg[kMsg] = {};
    for (int i = 0; i < kRounds; ++i) {
      bool ok = true;
      rtt.push_back(time_us([&] { ok = exact(cfd, msg, kMsg, true) && exact(cfd, msg, kMsg, false); }));
      if (!ok) break;
    }
  }
  ::close(cfd);
  ::shutdown(lfd, SHUT_RDWR);  // wakes accept() if connect never arrived
  echo.join();
  ::close(lfd);
  if (rtt.size() < static_cast<std::size_t>(kRounds)) throw std::runtime_error("echo failed");
  return median(rtt);
}

Host host_ceilings(const std::string& dir, const WorkloadDef& w,
                   std::uint64_t capacity_bytes) {
  Host h;
  const std::vector<std::uint8_t> src(std::min<std::uint64_t>(capacity_bytes, 32u << 20), 0x5A);
  const int threads[3] = {1, 2, 4};
  for (int i = 0; i < 3; ++i) h.memcpy_gbps[i] = memcpy_gbps(threads[i], src);
  file_io(dir, 4096, &h.pread_4k_us, &h.pwrite_4k_us, &h.fdatasync_us);
  if (w.strip_bytes == 4096) {
    h.pread_strip_us = h.pread_4k_us;
  } else {
    file_io(dir, w.strip_bytes, &h.pread_strip_us, nullptr, nullptr);
  }
  h.loopback_rtt_us = loopback_rtt_us();
  return h;
}

// ------------------------------------------------ codes, protocol rungs ----

double xor_acc_gbps(std::size_t bytes) {
  std::vector<std::uint8_t> dst(bytes, 1), src(bytes, 2);
  std::vector<double> rates;
  for (int rep = 0; rep < 5; ++rep) {
    std::uint64_t n = 0;
    const auto t0 = Clock::now();
    const auto end = t0 + std::chrono::milliseconds(40);
    while (Clock::now() < end) {
      for (int i = 0; i < 16; ++i) {
        oi::gf::xor_acc(dst, src);
        ++n;
      }
    }
    rates.push_back(static_cast<double>(n * bytes) / seconds_between(t0, Clock::now()) / 1e9);
  }
  asm volatile("" : : "r"(dst.data()) : "memory");
  return median(rates);
}

void protocol_rung(Result& r) {
  oi::server::Frame f;
  f.op = oi::server::Op::kWrite;
  f.arg = 4096;
  f.payload.assign(4096, 0x3C);
  std::vector<double> enc, dec;
  std::vector<std::uint8_t> encoded;
  constexpr int kCalls = 2000;
  for (int rep = 0; rep < 7; ++rep) {
    enc.push_back(time_us([&] {
                    for (int i = 0; i < kCalls; ++i) {
                      f.arg = static_cast<std::uint64_t>(i);
                      encoded = oi::server::encode_frame(f);
                    }
                  }) * 1e3 / kCalls);
    oi::server::Frame out;
    std::uint64_t sink = 0;
    dec.push_back(time_us([&] {
                    for (int i = 0; i < kCalls * 10; ++i) {
                      encoded[8] = static_cast<std::uint8_t>(i);
                      const auto info = oi::server::decode_header(
                          std::span<const std::uint8_t>(encoded.data(), oi::server::kHeaderBytes), out);
                      sink += info ? info->payload_len + out.arg : 0;
                    }
                  }) * 1e3 / (kCalls * 10));
    asm volatile("" : : "r"(sink) : "memory");
  }
  r.metric("server.protocol.encode_ns", median(enc), "ns");
  r.metric("server.protocol.decode_ns", median(dec), "ns");
}

// --------------------------------------------------------- replay state ----

/// The replayed op streams, one per connection, replay_ops() each. The
/// one-connection open-loop workload is replayed as two slices, so the lock
/// rung still has two threads.
std::vector<std::vector<OpStream::Op>> replay_streams(const WorkloadDef& def,
                                                      std::uint64_t capacity_bytes,
                                                      std::uint64_t seed) {
  WorkloadDef split = def;
  split.connections = std::max<std::size_t>(2, def.connections);
  const auto parts = slices(capacity_bytes, split);
  std::vector<std::vector<OpStream::Op>> ops(parts.size());
  for (std::size_t c = 0; c < parts.size(); ++c) {
    OpStream s(def, parts[c], seed, c);
    for (std::size_t i = 0; i < replay_ops(def); ++i) ops[c].push_back(s.next());
  }
  return ops;
}

/// Applies one replayed op to an array, verifying reads against the shadow.
/// Returns false on a verification mismatch.
bool apply(Array& array, const WorkloadDef& w, const OpStream::Op& op,
           std::vector<std::uint32_t>& shadow, std::vector<std::uint8_t>& buf) {
  const std::uint64_t offset = op.unit * w.op_bytes;
  if (op.write) {
    const std::uint32_t version = ++shadow[op.unit];
    fill_pattern(buf, op.unit, version);
    array.write_bytes(offset, buf);
    return true;
  }
  const auto data = array.read_bytes(offset, w.op_bytes);
  return check_pattern(data, op.unit, shadow[op.unit]);
}

struct Percentiles {
  std::vector<double> v;
  double p50() const { return percentile(v, 0.50); }
  double p99() const { return percentile(v, 0.99); }
};

// ------------------------------------------------------------- ladder ----

/// Reads the whole array once, untimed, so the replay pays no first-touch
/// page faults.
void warm(const Array& array) {
  for (std::uint64_t off = 0; off < array.capacity_bytes(); off += kChunkBytes) {
    (void)array.read_bytes(off, std::min<std::uint64_t>(kChunkBytes, array.capacity_bytes() - off));
  }
}

/// True when the byte range touches a strip on `disk`.
bool touches_disk(const Array& array, std::uint64_t offset, std::size_t length,
                  std::size_t disk) {
  const std::size_t sb = array.strip_bytes();
  for (std::uint64_t s = offset / sb; s * sb < offset + length; ++s) {
    if (array.layout().locate(s).disk == disk) return true;
  }
  return false;
}

}  // namespace

Result run_ladder(const WorkloadDef& w, std::uint64_t seed, double /*seconds*/) {
  Result r;
  ScratchDir dir("ladder-" + w.name);
  r.meta["fs_type"] = filesystem_type(dir.path());
  auto count_check = [&](const std::string& what, double a, double b) {
    if (a != b) {
      r.fail(what + " did not repeat exactly: " + std::to_string(a) + " vs " +
             std::to_string(b));
    }
  };

  // --- layout rung: the maps and the plan, timed on a fresh layout ---
  auto layout = std::make_shared<oi::layout::OiRaidLayout>(make_layout(w));
  const double t_map = time_us([&] { (void)layout->stripe_map(); }) / 1e6;
  const double t_conc = time_us([&] { (void)layout->concurrency_map(); }) / 1e6;
  r.metric("layout.stripe_map_build_s", t_map, "s");
  r.metric("layout.concurrency_map_build_s", t_conc, "s");
  std::vector<double> plan_ms;
  std::size_t plan_steps = 0;
  for (int i = 0; i < 3; ++i) {
    std::optional<std::vector<oi::layout::RecoveryStep>> plan;
    plan_ms.push_back(time_us([&] { plan = layout->recovery_plan({0}); }) / 1e3);
    if (!plan) {
      r.fail("no recovery plan for disk 0");
      break;
    }
    if (i > 0) count_check("layout.plan_steps", static_cast<double>(plan_steps),
                           static_cast<double>(plan->size()));
    plan_steps = plan->size();
  }
  r.metric("layout.recovery_plan_ms", median(plan_ms), "ms");
  r.metric("layout.plan_steps", static_cast<double>(plan_steps), "count");

  const std::uint64_t capacity_bytes =
      static_cast<std::uint64_t>(layout->data_strips()) * w.strip_bytes;
  const auto streams = replay_streams(w, capacity_bytes, seed);
  const auto& smap = layout->stripe_map();
  const auto& cmap = layout->concurrency_map();
  double domains_per_op = 0;
  {
    std::uint64_t domains = 0, calls = 0;
    const double us = time_us([&] {
      for (const auto& stream : streams) {
        for (const auto& op : stream) {
          domains += oi::core::domains_of_range(smap, cmap, op.unit * w.op_bytes,
                                                w.op_bytes, w.strip_bytes)
                         .size();
          ++calls;
        }
      }
    });
    r.metric("layout.domains_of_range_ns", us * 1e3 / static_cast<double>(calls), "ns");
    domains_per_op = static_cast<double>(domains) / static_cast<double>(calls);
    r.metric("core.locks.domains_per_op", domains_per_op, "count");
  }

  // --- host ceilings, codes, protocol ---
  const Host host = host_ceilings(dir.path(), w, capacity_bytes);
  r.metric("host.memcpy_4k_gbps_t1", host.memcpy_gbps[0], "GB/s");
  r.metric("host.memcpy_4k_gbps_t2", host.memcpy_gbps[1], "GB/s");
  r.metric("host.memcpy_4k_gbps_t4", host.memcpy_gbps[2], "GB/s");
  r.metric("host.pread_4k_us", host.pread_4k_us, "us");
  r.metric("host.pwrite_4k_us", host.pwrite_4k_us, "us");
  r.metric("host.fdatasync_us", host.fdatasync_us, "us");
  r.metric("host.loopback_rtt_us", host.loopback_rtt_us, "us");
  r.metric("codes.xor_acc_gbps", xor_acc_gbps(w.strip_bytes), "GB/s");
  protocol_rung(r);

  // --- Array over the timing/counting store ---
  auto traced_store = std::make_unique<TracingStore>(std::make_unique<oi::core::FileBlockStore>(
      dir.path() + "/array", layout->disks(), layout->strips_per_disk(), w.strip_bytes));
  TracingStore& store = *traced_store;
  Array array(layout, std::move(traced_store));
  std::vector<std::uint32_t> shadow(capacity_bytes / w.op_bytes, 0);
  std::uint64_t mismatches = 0;
  std::uint64_t replayed = 0;
  warm(array);
  std::vector<std::uint8_t> buf(w.op_bytes);
  // Spans kept for the file written at exit (the first kSavedSpans of them).
  std::vector<Span> saved_spans;
  auto archive_spans = [&] {
    for (const Span& s : tracer::collect()) {
      if (saved_spans.size() >= kSavedSpans) break;
      saved_spans.push_back(s);
    }
    tracer::clear();
  };

  // Phase A: single-threaded traced replay, twice, for spans and exact counts.
  Percentiles a_read, a_write, s_read, s_write, self;
  double reads_per_op[2] = {0, 0}, writes_per_op[2] = {0, 0};
  double read_strips_per_read_op = 0;
  std::uint64_t op_id = 0;
  for (int pass = 0; pass < 2; ++pass) {
    archive_spans();
    tracer::set_enabled(true);
    const std::uint64_t r0 = store.reads(), w0 = store.writes();
    std::uint64_t ops = 0, read_ops = 0, read_op_reads = 0;
    for (const auto& stream : streams) {
      for (const auto& op : stream) {
        tracer::set_op(++op_id);
        const std::uint64_t before = store.reads();
        {
          tracer::Scope span(op.write ? "array.write" : "array.read");
          if (!apply(array, w, op, shadow, buf)) ++mismatches;
        }
        if (!op.write) {
          ++read_ops;
          read_op_reads += store.reads() - before;
        }
        ++ops;
      }
    }
    tracer::set_enabled(false);
    tracer::set_op(0);
    replayed += ops;
    reads_per_op[pass] = static_cast<double>(store.reads() - r0) / static_cast<double>(ops);
    writes_per_op[pass] = static_cast<double>(store.writes() - w0) / static_cast<double>(ops);
    read_strips_per_read_op = static_cast<double>(read_op_reads) /
                              static_cast<double>(std::max<std::uint64_t>(1, read_ops));
    if (pass == 1) {
      // Self time = array span minus the store spans nested under it.
      const auto spans = tracer::collect();
      std::unordered_map<std::uint64_t, double> child_us;
      for (const Span& s : spans) {
        if (s.parent != 0) child_us[s.parent] += s.us();
      }
      for (const Span& s : spans) {
        const std::string name = s.name;
        if (name == "array.read") a_read.v.push_back(s.us());
        if (name == "array.write") a_write.v.push_back(s.us());
        if (name == "store.read") s_read.v.push_back(s.us());
        if (name == "store.write") s_write.v.push_back(s.us());
        if (s.parent == 0) self.v.push_back(s.us() - child_us[s.id]);
      }
    }
  }
  count_check("core.store.reads_per_op", reads_per_op[0], reads_per_op[1]);
  count_check("core.store.writes_per_op", writes_per_op[0], writes_per_op[1]);
  r.metric("core.store.reads_per_op", reads_per_op[1], "count");
  r.metric("core.store.writes_per_op", writes_per_op[1], "count");
  r.metric("core.store.read_us_p50", s_read.p50(), "us");
  r.metric("core.store.read_us_p99", s_read.p99(), "us");
  r.metric("core.store.write_us_p50", s_write.p50(), "us");
  r.metric("core.store.write_us_p99", s_write.p99(), "us");
  r.metric("core.array.read_us_p50", a_read.p50(), "us");
  r.metric("core.array.read_us_p99", a_read.p99(), "us");
  r.metric("core.array.write_us_p50", a_write.p50(), "us");
  r.metric("core.array.write_us_p99", a_write.p99(), "us");
  r.metric("core.array.self_us", self.p50(), "us");

  // Tracing overhead and untraced array rung: the same reads and writes with
  // spans off and on, interleaved in blocks.
  double array_read_p50 = 0;  // spans off, unlocked
  double locked_read_p50 = 0, locked_write_p50 = 0;
  {
    Percentiles off_r, on_r;
    const auto& stream = streams[0];
    const std::size_t block = std::max<std::size_t>(1, stream.size() / 10);
    for (std::size_t b = 0; b < stream.size(); b += block) {
      for (int traced = 0; traced < 2; ++traced) {
        tracer::set_enabled(traced == 1);
        for (std::size_t i = b; i < std::min(stream.size(), b + block); ++i) {
          const auto& op = stream[i];
          double us = 0;
          bool ok = true;
          if (traced) {
            us = time_us([&] {
              tracer::Scope span(op.write ? "array.write" : "array.read");
              ok = apply(array, w, op, shadow, buf);
            });
          } else {
            us = time_us([&] { ok = apply(array, w, op, shadow, buf); });
          }
          if (!ok) ++mismatches;
          ++replayed;
          if (!op.write) (traced ? on_r : off_r).v.push_back(us);
        }
      }
    }
    tracer::set_enabled(false);
    archive_spans();
    array_read_p50 = off_r.p50();
    r.metric("trace.overhead_pct", (on_r.p50() - off_r.p50()) / off_r.p50() * 100.0, "%");
  }

  // Phase B: locked replay from two threads (the server's read and write
  // path minus the request path), plus metrics on/off for the budget line.
  DomainLockTable locks(cmap);
  Percentiles lock_shared, lock_excl;
  struct LockedReplay {
    Percentiles read, write, shared, exclusive;  // op times and lock waits
    std::uint64_t ops = 0, domains = 0, bad = 0;
  };
  // Replays stream c under its domain locks, once through or until `until`.
  auto locked_replay = [&](std::size_t c, const std::atomic<bool>* until, LockedReplay& out) {
    std::vector<std::uint8_t> b(w.op_bytes);
    const auto& stream = streams[c];
    for (std::size_t i = 0;; ++i) {
      if (until ? until->load(std::memory_order_acquire) : i >= stream.size()) break;
      const auto& op = stream[i % stream.size()];
      const auto doms = oi::core::domains_of_range(smap, cmap, op.unit * w.op_bytes,
                                                   w.op_bytes, w.strip_bytes);
      const auto t0 = Clock::now();
      auto guard = op.write ? locks.lock_exclusive(doms) : locks.lock_shared(doms);
      const auto t1 = Clock::now();
      if (!apply(array, w, op, shadow, b)) ++out.bad;
      guard.release();
      const auto t2 = Clock::now();
      (op.write ? out.exclusive : out.shared).v.push_back(us_between(t0, t1));
      (op.write ? out.write : out.read).v.push_back(us_between(t0, t2));
      ++out.ops;
      out.domains += doms.size();
    }
  };
  auto merge_locks = [&](const LockedReplay& from) {
    lock_shared.v.insert(lock_shared.v.end(), from.shared.v.begin(), from.shared.v.end());
    lock_excl.v.insert(lock_excl.v.end(), from.exclusive.v.begin(), from.exclusive.v.end());
    mismatches += from.bad;
    replayed += from.ops;
  };
  {
    LockedReplay res[2];
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < 2; ++c) {
      threads.emplace_back([&, c] { locked_replay(c, nullptr, res[c]); });
    }
    for (auto& t : threads) t.join();
    Percentiles all_r, all_w;
    for (const LockedReplay& x : res) {
      all_r.v.insert(all_r.v.end(), x.read.v.begin(), x.read.v.end());
      all_w.v.insert(all_w.v.end(), x.write.v.begin(), x.write.v.end());
      merge_locks(x);
    }
    locked_read_p50 = all_r.p50();
    locked_write_p50 = all_w.p50();
    count_check("core.locks.domains_per_op", domains_per_op,
                static_cast<double>(res[0].domains + res[1].domains) /
                    static_cast<double>(res[0].ops + res[1].ops));
  }
  {
    // Locked reads, single thread, metrics off vs on in interleaved blocks.
    const auto& stream = streams[0];
    double t_off = 0, t_on = 0;
    for (int rep = 0; rep < 6; ++rep) {
      for (int on = 0; on < 2; ++on) {
        oi::metrics::set_enabled(on == 1);
        const double us = time_us([&] {
          for (const auto& op : stream) {
            if (op.write) continue;
            const auto doms = oi::core::domains_of_range(smap, cmap, op.unit * w.op_bytes,
                                                         w.op_bytes, w.strip_bytes);
            auto guard = locks.lock_shared(doms);
            const auto data = array.read_bytes(op.unit * w.op_bytes, w.op_bytes);
            if (!check_pattern(data, op.unit, shadow[op.unit])) ++mismatches;
          }
        });
        (on ? t_on : t_off) += us;
      }
    }
    oi::metrics::set_enabled(false);
    r.metric("util.metrics_on_overhead_pct", (t_on - t_off) / t_off * 100.0, "%");
  }

  // Degraded reads, then single-threaded rebuilds with per-disk read counts
  // (twice, for the exact-count check) and a flush per batch as the
  // persistence layer's checkpoint does.
  Percentiles degraded, step_us, flush_us;
  double per_strip[2] = {0, 0}, max_over_mean[2] = {0, 0};
  for (int pass = 0; pass < 2; ++pass) {
    array.fail_disk(0);
    if (pass == 0) {
      for (const auto& stream : streams) {
        for (const auto& op : stream) {
          if (op.write || !touches_disk(array, op.unit * w.op_bytes, w.op_bytes, 0)) continue;
          bool ok = true;
          degraded.v.push_back(time_us([&] {
            ok = check_pattern(array.read_bytes(op.unit * w.op_bytes, w.op_bytes), op.unit,
                               shadow[op.unit]);
          }));
          if (!ok) ++mismatches;
        }
      }
    }
    const std::size_t total = array.rebuild_begin();
    count_check("layout.plan_steps vs Array::rebuild_begin", static_cast<double>(plan_steps),
                static_cast<double>(total));
    std::vector<std::uint64_t> before(layout->disks());
    for (std::size_t d = 0; d < layout->disks(); ++d) before[d] = store.reads_of(d);
    std::size_t rebuilt = 0;
    archive_spans();
    tracer::set_enabled(true);
    while (array.rebuild_active()) {
      oi::core::RebuildReport rep;
      step_us.v.push_back(time_us([&] { rep = array.rebuild_step(kBatchSteps); }));
      rebuilt += rep.strips_rebuilt;
      array.flush();
    }
    tracer::set_enabled(false);
    for (const Span& s : tracer::collect()) {
      if (std::string(s.name) == "store.flush") flush_us.v.push_back(s.us());
    }
    std::uint64_t sum = 0, mx = 0;
    std::size_t survivors = 0;
    for (std::size_t d = 0; d < layout->disks(); ++d) {
      if (d == 0) continue;
      const std::uint64_t n = store.reads_of(d) - before[d];
      sum += n;
      mx = std::max(mx, n);
      ++survivors;
    }
    per_strip[pass] = static_cast<double>(sum) / static_cast<double>(std::max<std::size_t>(1, rebuilt));
    max_over_mean[pass] = static_cast<double>(mx) /
                          (static_cast<double>(sum) / static_cast<double>(survivors));
  }
  archive_spans();
  count_check("core.store.rebuild_reads_per_strip", per_strip[0], per_strip[1]);
  count_check("core.store.rebuild_read_max_over_mean", max_over_mean[0], max_over_mean[1]);
  r.metric("core.array.degraded_read_us_p50", degraded.p50(), "us");
  r.metric("core.array.rebuild_step_us_p50", step_us.p50(), "us");
  r.metric("core.store.flush_us_p50", flush_us.p50(), "us");
  r.metric("core.store.rebuild_reads_per_strip", per_strip[1], "count");
  r.metric("core.store.rebuild_read_max_over_mean", max_over_mean[1], "ratio");

  // Locks beside a rebuild: two replay threads while a rebuild thread claims
  // each batch's domains exclusively, as the server's rebuild loop does.
  {
    array.fail_disk(0);
    array.rebuild_begin();
    std::atomic<bool> done{false};
    LockedReplay res[2];
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < 2; ++c) {
      threads.emplace_back([&, c] { locked_replay(c, &done, res[c]); });
    }
    while (array.rebuild_active()) {
      const auto steps = array.peek_rebuild_steps(kBatchSteps);
      const auto doms = oi::core::domains_of_steps(smap, cmap, steps);
      const auto t0 = Clock::now();
      auto guard = locks.lock_exclusive(doms);
      lock_excl.v.push_back(us_between(t0, Clock::now()));
      array.rebuild_step(kBatchSteps);
    }
    done.store(true, std::memory_order_release);
    for (auto& t : threads) t.join();
    for (const LockedReplay& x : res) merge_locks(x);
  }
  r.metric("core.locks.shared_us_p50", lock_shared.p50(), "us");
  r.metric("core.locks.shared_us_p99", lock_shared.p99(), "us");
  r.metric("core.locks.exclusive_us_p50", lock_excl.p50(), "us");
  r.metric("core.locks.exclusive_us_p99", lock_excl.p99(), "us");
  {
    const std::string scrub = array.scrub();
    if (!scrub.empty()) r.fail("scrub after the array rung: " + scrub);
  }

  // --- PersistentArray rebuild steps ---
  oi::server::PersistentArray parray(dir.path() + "/persistent", make_layout(w), w.strip_bytes);
  warm(parray.array());
  Percentiles persist;
  parray.fail_disk(0);
  while (parray.array().any_failed()) {
    persist.v.push_back(time_us([&] { parray.rebuild_step(kBatchSteps); }));
  }
  r.metric("server.persist.rebuild_step_us_p50", persist.p50(), "us");
  r.metric("server.persist.rebuild_step_us_p99", persist.p99(), "us");
  r.metric("server.persist.checkpoint_us", persist.p50() - step_us.p50(), "us");

  // --- Client calls over loopback ---
  std::vector<std::uint32_t> pshadow(capacity_bytes / w.op_bytes, 0);
  Percentiles ping, c_read, c_write, late;
  std::uint64_t gen_ops = 0;
  {
    oi::server::BlockServer server(parray, oi::server::BlockServerConfig{});
    Client client(kHost, server.port());
    for (int i = 0; i < 3000; ++i) ping.v.push_back(time_us([&] { client.ping(); }));
    auto client_op = [&](const OpStream::Op& op) {
      const std::uint64_t offset = op.unit * w.op_bytes;
      if (op.write) {
        const std::uint32_t version = ++pshadow[op.unit];
        fill_pattern(buf, op.unit, version);
        client.write(offset, buf);
        return true;
      }
      return check_pattern(client.read(offset, static_cast<std::uint32_t>(w.op_bytes)),
                           op.unit, pshadow[op.unit]);
    };
    const auto replay_start = Clock::now();
    for (const auto& op : streams[0]) {
      bool ok = true;
      const double us = time_us([&] { ok = client_op(op); });
      (op.write ? c_write : c_read).v.push_back(us);
      if (!ok) ++mismatches;
      ++replayed;
    }
    // Open-loop generator: the workload's rate, or half the closed-loop rate
    // just measured on one connection, for about a second.
    const double closed_rate = static_cast<double>(streams[0].size()) /
                               seconds_between(replay_start, Clock::now());
    const double rate = w.open_loop_rate > 0 ? w.open_loop_rate : closed_rate / 2;
    oi::Rng arrival_rng(seed * 0xA24BAED4963EE407ULL + 17);
    oi::workload::PoissonArrivals arrivals(rate);
    const auto& stream = streams[1];
    const auto t0 = Clock::now();
    double due = 0;
    for (std::size_t i = 0; i < stream.size() && due < 1.0; ++i) {
      due += arrivals.next_seconds(arrival_rng);
      const auto due_tp = t0 + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(due));
      std::this_thread::sleep_until(due_tp);
      late.v.push_back(us_between(due_tp, Clock::now()));
      if (!client_op(stream[i])) ++mismatches;
      ++gen_ops;
    }
    replayed += gen_ops;
  }
  r.metric("server.client.ping_us_p50", ping.p50(), "us");
  r.metric("server.client.ping_us_p99", ping.p99(), "us");
  r.metric("server.client.read_added_us",
           c_read.p50() - locked_read_p50 - host.loopback_rtt_us, "us");
  r.metric("server.client.write_added_us",
           c_write.p50() - locked_write_p50 - host.loopback_rtt_us, "us");
  r.metric("workload.late_p99_us", late.p99(), "us");
  r.metric("workload.ops_attempted", static_cast<double>(gen_ops), "count");
  {
    const std::string scrub = parray.array().scrub();
    if (!scrub.empty()) r.fail("scrub after the client rung: " + scrub);
  }

  // --- The read ladder: value, efficiency vs its host ceiling, added cost ---
  {
    const double strips = read_strips_per_read_op;
    const double copy_us = static_cast<double>(w.op_bytes) / (host.memcpy_gbps[0] * 1e3);
    const double store_ceiling = strips * host.pread_strip_us;
    struct Step {
      const char* name;
      double us;
      double ceiling;
    };
    const Step steps[] = {
        {"memcpy", copy_us, copy_us},
        {"store", s_read.p50() * strips, store_ceiling},
        {"array", array_read_p50, store_ceiling},
        {"locked_array", locked_read_p50, store_ceiling},
        {"client", c_read.p50(), store_ceiling + host.loopback_rtt_us},
    };
    double below = 0;
    for (const Step& s : steps) {
      const std::string base = std::string("ladder.") + s.name;
      r.metric(base + ".us", s.us, "us");
      r.metric(base + ".efficiency", s.ceiling / s.us, "ratio");
      r.metric(base + ".added_us", s.us - below, "us");
      below = s.us;
    }
    r.metric("ladder.client_over_array_x", c_read.p50() / locked_read_p50, "ratio");
  }
  // The sample count behind every percentile above.
  const std::pair<const char*, const Percentiles*> counted[] = {
      {"core.store.read", &s_read},      {"core.store.write", &s_write},
      {"core.store.flush", &flush_us},   {"core.array.read", &a_read},
      {"core.array.write", &a_write},    {"core.array.self", &self},
      {"core.array.degraded_read", &degraded}, {"core.array.rebuild_step", &step_us},
      {"core.locks.shared", &lock_shared}, {"core.locks.exclusive", &lock_excl},
      {"server.persist.rebuild_step", &persist}, {"server.client.ping", &ping},
      {"server.client.read", &c_read},   {"server.client.write", &c_write},
      {"workload.late", &late}};
  for (const auto& [name, p] : counted) r.meta[std::string("samples.") + name] = std::to_string(p->v.size());

  r.attempted = replayed;
  r.failed = mismatches;
  if (mismatches) r.fail(std::to_string(mismatches) + " read verification mismatches");
  std::error_code ec;
  std::filesystem::create_directories(".bench_out", ec);
  const std::string spans_path = ".bench_out/spans-" + w.name + ".jsonl";
  tracer::write_jsonl(spans_path, saved_spans);
  r.meta["spans"] = spans_path + " (" + std::to_string(saved_spans.size()) + " spans)";
  r.meta["peak_rss_mb"] = std::to_string(peak_rss_mb());
  return r;
}

}  // namespace oibench
