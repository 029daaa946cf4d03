#include "spans.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace rlbfbench {

namespace {
thread_local void* tls_buffer = nullptr;
}  // namespace

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::TraceBuild: return "workload.trace_build";
    case Layer::SimSimulate: return "sim.simulate";
    case Layer::SchedEasy: return "sched.easy.choose";
    case Layer::SchedConservative: return "sched.conservative.choose";
    case Layer::SchedSlack: return "sched.slack.choose";
    case Layer::CoreChoose: return "core.choose";
    case Layer::NnInferForward: return "nn.infer_forward";
    case Layer::NnGraphForward: return "nn.graph_forward";
    case Layer::RlEpoch: return "rl.epoch";
    case Layer::RlCollect: return "rl.collect";
    case Layer::RlSequence: return "rl.sequence";
    case Layer::kCount: break;
  }
  return "?";
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer& Tracer::instance() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

Tracer::ThreadBuffer& Tracer::local() {
  if (tls_buffer == nullptr) {
    auto buffer = std::make_unique<ThreadBuffer>();
    std::lock_guard<std::mutex> lock(mutex_);
    buffer->tid = static_cast<std::uint32_t>(buffers_.size() + 1);
    tls_buffer = buffer.get();
    buffers_.push_back(std::move(buffer));
  }
  return *static_cast<ThreadBuffer*>(tls_buffer);
}

LayerTable Tracer::totals() const {
  LayerTable sum{};
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& buffer : buffers_) {
    for (std::size_t i = 0; i < kLayerCount; ++i) {
      sum[i].calls += buffer->totals[i].calls;
      sum[i].units += buffer->totals[i].units;
      sum[i].inclusive_ns += buffer->totals[i].inclusive_ns;
      sum[i].self_ns += buffer->totals[i].self_ns;
    }
  }
  return sum;
}

std::size_t Tracer::kept_spans() const { return kept_.load(std::memory_order_relaxed); }

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  std::int64_t origin = 0;
  bool have_origin = false;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& buffer : buffers_) {
    for (const Event& e : buffer->events) {
      if (!have_origin || e.start_ns < origin) origin = e.start_ns;
      have_origin = true;
    }
  }
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char line[320];
  for (const auto& buffer : buffers_) {
    for (const Event& e : buffer->events) {
      std::snprintf(line, sizeof line,
                    "%s\n{\"name\":\"%s\",\"cat\":\"rlbfbench\",\"ph\":\"X\",\"pid\":1,"
                    "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                    "\"parent\":%llu,\"units\":%llu}}",
                    first ? "" : ",", layer_name(e.layer), e.tid,
                    static_cast<double>(e.start_ns - origin) / 1e3,
                    static_cast<double>(e.dur_ns) / 1e3,
                    static_cast<unsigned long long>(e.id),
                    static_cast<unsigned long long>(e.parent),
                    static_cast<unsigned long long>(e.units));
      os << line;
      first = false;
    }
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

Span::Span(Layer layer, std::uint64_t parent) : layer_(layer), parent_(parent) {
  Tracer& tracer = Tracer::instance();
  if (!tracer.active()) return;
  buffer_ = &tracer.local();
  id_ = (static_cast<std::uint64_t>(buffer_->tid) << 40) | ++buffer_->next_seq;
  if (parent_ == 0 && !buffer_->stack.empty()) parent_ = buffer_->stack.back().id;
  buffer_->stack.push_back({layer, id_, now_ns(), 0});
}

std::int64_t Span::finish() {
  if (buffer_ == nullptr) return 0;
  const std::int64_t end = now_ns();
  const Tracer::Frame frame = buffer_->stack.back();
  buffer_->stack.pop_back();
  const std::int64_t dur = end - frame.start_ns;
  LayerTotals& t = buffer_->totals[static_cast<std::size_t>(layer_)];
  t.calls += 1;
  t.units += units_;
  t.inclusive_ns += dur;
  t.self_ns += dur - frame.child_ns;
  if (!buffer_->stack.empty()) buffer_->stack.back().child_ns += dur;

  Tracer& tracer = Tracer::instance();
  if (tracer.kept_.fetch_add(1, std::memory_order_relaxed) < Tracer::kMaxKeptSpans) {
    buffer_->events.push_back(
        {layer_, buffer_->tid, id_, parent_, frame.start_ns, dur, units_});
  } else {
    tracer.kept_.fetch_sub(1, std::memory_order_relaxed);
    tracer.dropped_.fetch_add(1, std::memory_order_relaxed);
  }
  buffer_ = nullptr;
  return dur;
}

std::string format_layer_table(const LayerTable& table) {
  double self_sum = 0.0;
  for (const auto& t : table) self_sum += static_cast<double>(t.self_ns);
  std::ostringstream os;
  char line[200];
  std::snprintf(line, sizeof line, "%-28s %12s %14s %12s %12s %7s\n", "layer", "calls",
                "units", "incl_s", "self_s", "self%");
  os << line;
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    const LayerTotals& t = table[i];
    if (t.calls == 0) continue;
    std::snprintf(line, sizeof line, "%-28s %12llu %14llu %12.6f %12.6f %6.2f%%\n",
                  layer_name(static_cast<Layer>(i)),
                  static_cast<unsigned long long>(t.calls),
                  static_cast<unsigned long long>(t.units),
                  static_cast<double>(t.inclusive_ns) / 1e9,
                  static_cast<double>(t.self_ns) / 1e9,
                  self_sum > 0 ? 100.0 * static_cast<double>(t.self_ns) / self_sum : 0.0);
    os << line;
  }
  return os.str();
}

}  // namespace rlbfbench
