// The traced run's instrumentation, all of it in the benchmark: in-memory
// spans recorded around calls into each layer, and a BlockStore decorator
// that times and counts every strip I/O the array issues.
//
// A span records name, start, end, parent span and op id. Spans opened while
// another span is open on the same thread become its children, so a store
// span nests under the array span of the call that made it, and a layer's
// self time is its span minus the time its children cover.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/block_store.hpp"

namespace oibench {

struct Span {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t op = 0;      ///< 0 = not tied to a replayed op
  double us() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

namespace tracer {

/// Spans are recorded only while enabled (process-wide, off by default).
void set_enabled(bool on);
bool enabled();
/// Op id stamped on spans this thread opens from now on.
void set_op(std::uint64_t op);
/// Every span recorded so far, from all threads.
std::vector<Span> collect();
/// Forgets all recorded spans.
void clear();
/// Writes spans as one JSON object per line.
void write_jsonl(const std::string& path, const std::vector<Span>& spans);

/// RAII span; a no-op while tracing is disabled.
class Scope {
 public:
  explicit Scope(const char* name);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Span span_;
  std::uint64_t saved_parent_ = 0;
  bool active_ = false;
};

}  // namespace tracer

/// Times (as spans "store.read", "store.write", "store.flush") and counts
/// every call into the wrapped store. The counts are exact and always on.
class TracingStore final : public oi::core::BlockStore {
 public:
  explicit TracingStore(std::unique_ptr<oi::core::BlockStore> inner);

  std::size_t disks() const override { return inner_->disks(); }
  std::size_t strips_per_disk() const override { return inner_->strips_per_disk(); }
  std::size_t strip_bytes() const override { return inner_->strip_bytes(); }
  void read(std::size_t disk, std::size_t offset,
            std::span<std::uint8_t> out) const override;
  void write(std::size_t disk, std::size_t offset,
             std::span<const std::uint8_t> data) override;
  void trim_disk(std::size_t disk, std::uint8_t fill) override;
  void flush() override;
  std::string describe() const override { return "traced:" + inner_->describe(); }

  std::uint64_t reads() const;
  std::uint64_t writes() const;
  std::uint64_t reads_of(std::size_t disk) const {
    return reads_[disk].load(std::memory_order_relaxed);
  }

 private:
  std::unique_ptr<oi::core::BlockStore> inner_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> reads_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> writes_;
};

}  // namespace oibench
