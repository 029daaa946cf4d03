// In-memory span recorder for the benchmark's traced runs.
//
// Spans are opened by the harness itself around each call into a layer
// of the library (see layers.h), never inside the library. Every thread
// keeps its own stack of open spans and its own per-layer totals, so a
// layer's self time (its duration minus the part its child spans on the
// same thread cover) is exact and costs no shared writes. Completed
// spans are also kept, up to a cap, for a Chrome trace file written when
// the run ends.
//
// While the tracer is inactive a Span is a no-op: no clock read, no
// allocation. Untraced runs never activate it.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace rlbfbench {

/// The layers the harness times. Names follow the library's modules.
enum class Layer : std::uint8_t {
  TraceBuild,         // exp::build_trace
  SimSimulate,        // sim::simulate
  SchedEasy,          // EASY chooser
  SchedConservative,  // conservative chooser
  SchedSlack,         // slack-based chooser
  CoreChoose,         // core::RlBackfillChooser
  NnInferForward,     // no-grad ActorCritic forwards
  NnGraphForward,     // autograd ActorCritic forwards
  RlEpoch,            // core::Trainer::run_epoch
  RlCollect,          // rl::Collector::collect
  RlSequence,         // one SequenceFn call
  kCount,
};
inline constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::kCount);

const char* layer_name(Layer layer);

/// Aggregates of one layer. `units` is the layer's work count: picks for
/// a chooser, rows for a forward, jobs for a simulation.
struct LayerTotals {
  std::uint64_t calls = 0;
  std::uint64_t units = 0;
  std::int64_t inclusive_ns = 0;
  std::int64_t self_ns = 0;
};
using LayerTable = std::array<LayerTotals, kLayerCount>;

std::int64_t now_ns();

class Tracer {
 public:
  static Tracer& instance();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool active() const { return active_.load(std::memory_order_relaxed); }
  /// Callers flip this only between operations, while no span is open.
  void set_active(bool on) { active_.store(on, std::memory_order_relaxed); }

  /// Sum of every thread's totals. Call only while no layer work runs.
  LayerTable totals() const;

  /// Completed spans kept for the Chrome trace (capped).
  std::size_t kept_spans() const;
  std::uint64_t dropped_spans() const { return dropped_.load(std::memory_order_relaxed); }

  /// Chrome trace-event JSON of the kept spans; false on I/O error.
  bool write_chrome_trace(const std::string& path) const;

 private:
  friend class Span;
  Tracer() = default;

  struct Frame {
    Layer layer;
    std::uint64_t id;
    std::int64_t start_ns;
    std::int64_t child_ns;
  };
  struct Event {
    Layer layer;
    std::uint32_t tid;
    std::uint64_t id;
    std::uint64_t parent;
    std::int64_t start_ns;
    std::int64_t dur_ns;
    std::uint64_t units;
  };
  struct ThreadBuffer {
    std::uint32_t tid = 0;
    std::uint64_t next_seq = 0;
    std::vector<Frame> stack;
    std::vector<Event> events;
    LayerTable totals{};
  };

  ThreadBuffer& local();

  static constexpr std::size_t kMaxKeptSpans = 50000;

  std::atomic<bool> active_{false};
  std::atomic<std::size_t> kept_{0};
  std::atomic<std::uint64_t> dropped_{0};
  mutable std::mutex mutex_;  // guards buffers_ (registration only)
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// RAII span around one layer call. `parent` names a span on another
/// thread that caused this one (0 = the enclosing span on this thread).
class Span {
 public:
  explicit Span(Layer layer, std::uint64_t parent = 0);
  ~Span() { finish(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Close the span now; returns its duration in ns (0 when inactive).
  std::int64_t finish();
  void add_units(std::uint64_t n) { units_ += n; }
  /// This span's id (0 when inactive), for cross-thread children.
  std::uint64_t id() const { return id_; }

 private:
  Tracer::ThreadBuffer* buffer_ = nullptr;
  Layer layer_;
  std::uint64_t parent_;
  std::uint64_t id_ = 0;
  std::uint64_t units_ = 0;
};

/// Plain-text per-layer table: calls, units, inclusive and self seconds,
/// self share of the summed self time.
std::string format_layer_table(const LayerTable& table);

}  // namespace rlbfbench
