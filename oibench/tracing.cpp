#include "tracing.hpp"

#include <chrono>
#include <fstream>
#include <mutex>

namespace oibench {

namespace tracer {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{0};

/// Per-thread span buffers, owned here so they outlive their threads.
std::mutex g_mutex;
std::vector<std::unique_ptr<std::vector<Span>>> g_buffers;

struct ThreadState {
  std::vector<Span>* buffer = nullptr;
  std::uint64_t parent = 0;
  std::uint64_t op = 0;
};
thread_local ThreadState t_state;

std::vector<Span>& buffer() {
  if (t_state.buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_mutex);
    g_buffers.push_back(std::make_unique<std::vector<Span>>());
    t_state.buffer = g_buffers.back().get();
  }
  return *t_state.buffer;
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }
void set_op(std::uint64_t op) { t_state.op = op; }

std::vector<Span> collect() {
  std::lock_guard<std::mutex> lock(g_mutex);
  std::vector<Span> all;
  for (const auto& b : g_buffers) all.insert(all.end(), b->begin(), b->end());
  return all;
}

void clear() {
  std::lock_guard<std::mutex> lock(g_mutex);
  for (auto& b : g_buffers) b->clear();
}

void write_jsonl(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  for (const Span& s : spans) {
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"op\":" << s.op << "}\n";
  }
}

Scope::Scope(const char* name) {
  if (!enabled()) return;
  active_ = true;
  span_.name = name;
  span_.id = g_next_id.fetch_add(1, std::memory_order_relaxed) + 1;
  span_.parent = t_state.parent;
  span_.op = t_state.op;
  saved_parent_ = t_state.parent;
  t_state.parent = span_.id;
  span_.start_ns = now_ns();
}

Scope::~Scope() {
  if (!active_) return;
  span_.end_ns = now_ns();
  t_state.parent = saved_parent_;
  buffer().push_back(span_);
}

}  // namespace tracer

TracingStore::TracingStore(std::unique_ptr<oi::core::BlockStore> inner)
    : inner_(std::move(inner)),
      reads_(std::make_unique<std::atomic<std::uint64_t>[]>(inner_->disks())),
      writes_(std::make_unique<std::atomic<std::uint64_t>[]>(inner_->disks())) {}

void TracingStore::read(std::size_t disk, std::size_t offset,
                        std::span<std::uint8_t> out) const {
  reads_[disk].fetch_add(1, std::memory_order_relaxed);
  tracer::Scope span("store.read");
  inner_->read(disk, offset, out);
}

void TracingStore::write(std::size_t disk, std::size_t offset,
                         std::span<const std::uint8_t> data) {
  writes_[disk].fetch_add(1, std::memory_order_relaxed);
  tracer::Scope span("store.write");
  inner_->write(disk, offset, data);
}

void TracingStore::trim_disk(std::size_t disk, std::uint8_t fill) {
  inner_->trim_disk(disk, fill);
}

void TracingStore::flush() {
  tracer::Scope span("store.flush");
  inner_->flush();
}

std::uint64_t TracingStore::reads() const {
  std::uint64_t n = 0;
  for (std::size_t d = 0; d < disks(); ++d) n += reads_[d].load(std::memory_order_relaxed);
  return n;
}

std::uint64_t TracingStore::writes() const {
  std::uint64_t n = 0;
  for (std::size_t d = 0; d < disks(); ++d) n += writes_[d].load(std::memory_order_relaxed);
  return n;
}

}  // namespace oibench
