// Shared plumbing of srl_bench: options, the metric report, the closed-loop
// measurement window, and the sampled span log written as a Chrome trace.
#ifndef SRL_BENCHMARK_SRL_BENCH_COMMON_H_
#define SRL_BENCHMARK_SRL_BENCH_COMMON_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "srl_bench/histogram.h"
#include "src/epoch/epoch_domain.h"

namespace srlbench {

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string trace_file;       // Chrome trace output; empty = none
  bool corrupt_record = false;  // test of the checks: damage one record after set-up
};

inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// Every metric srl_bench can emit, end-to-end first. The names and units mirror
// BENCHMARK.json; run.py refuses a run whose output differs from it in either direction.
struct MetricDef {
  const char* name;
  const char* unit;
};
extern const std::vector<MetricDef> kEndToEndMetrics;
extern const std::vector<MetricDef> kPerLayerMetrics;

class Report {
 public:
  // Starts the report with every metric of the mode's list at 0 — the value a
  // per-layer metric keeps on a workload that sends its layer no traffic.
  explicit Report(bool trace);

  // Sets a declared metric; an undeclared name or a unit mismatch fails the run.
  void Set(std::string_view name, double value);
  void Fail(std::string why);
  void AddOps(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  bool Correct() const { return checks_ok_ && failed_ == 0 && attempted_ > 0; }
  // One JSON object on one line: workload, correct, attempted, failed, metrics, errors.
  std::string Json(std::string_view workload) const;

 private:
  struct Entry {
    std::string name;
    std::string unit;
    double value;
  };
  std::vector<Entry> metrics_;
  std::vector<std::string> errors_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool checks_ok_ = true;
};

// Pins the calling thread to the index-th CPU (modulo their count) the process may
// run on. Clients pin themselves because the guest scheduler of the reference host
// starts every new thread on its creator's CPU and takes a second or more to spread
// them: unpinned, four clients share one CPU for a varying part of the warm-up.
void PinToCpu(unsigned index);

double Median(std::vector<double> v);
// Linear-interpolated quantile of a small sample (exact, unlike Histogram).
double SampleQuantile(std::vector<double> v, double q);
double PeakRssMb();

// Runs `fn` (one complete set-up, returning whatever it built) over and over and keeps
// the last result. Set-ups are timed in groups that last at least 50 ms (one set-up,
// if it alone takes that long); a group's sample is its fastest set-up, and
// *median_s is the median of at least 5 samples and 0.5 s of set-ups. One CPU of the
// reference host runs a fixed loop anywhere from 60 to 105 ms from one tenth of a
// second to the next, and other tenants only ever slow a set-up down: the fastest of
// a group is the set-up's own cost, where a plain median of set-ups moved by 40%
// from one run to the next. The previous state is destroyed before the next one is
// built, so peak memory holds one copy.
template <typename Fn>
auto TimedSetup(double* median_s, Fn fn) {
  std::vector<double> samples;
  double spent = 0;
  decltype(fn()) state;
  while (samples.size() < 5 || spent < 0.5) {
    double fastest = 0;
    double group = 0;
    while (group < 0.05) {
      state = {};
      const uint64_t t0 = NowNs();
      state = fn();
      const double s = static_cast<double>(NowNs() - t0) * 1e-9;
      fastest = group == 0 ? s : std::min(fastest, s);
      group += s;
    }
    samples.push_back(fastest);
    spent += group;
  }
  *median_s = Median(samples);
  // A set-up that faults pages from this thread leaves its epoch quantum open; the
  // thread then idles for the whole window, and an open quantum on an idle thread
  // holds back every grace period — retired VMAs pile up at ~0.5 KB per vm-churn
  // cycle. Closing it is the documented duty of a thread that leaves a fault-heavy
  // phase.
  srl::EpochQuantumQuiesce();
  return state;
}

// --- Closed-loop window --------------------------------------------------------------

// Shared switches the clients poll once per op.
struct Control {
  std::atomic<bool> stop{false};
  std::atomic<bool> measure{false};  // latency histograms record
  std::atomic<bool> trace{false};    // per-layer spans record
};

// Completed-op counter a client publishes after every op, on its own cache line.
struct alignas(64) Progress {
  std::atomic<uint64_t> ops{0};
};

struct WindowResult {
  std::vector<double> untraced_rates;  // ops/s of each untraced sub-window
  std::vector<double> traced_rates;    // ops/s of each traced sub-window
};

// Warm-up of min(2 s, seconds / 5), then `seconds` of measurement cut into ten
// sub-windows — with `trace_mode` they alternate untraced and traced, so one process
// yields both the traced numbers and the tracing overhead. `at_start` runs
// when the warm-up ends (counter snapshots). Leaves the clients running; the caller
// stops them.
WindowResult DriveWindow(Control* control, const std::vector<Progress>& progress,
                         double seconds, bool trace_mode,
                         const std::function<void()>& at_start);

// (untraced / traced median rate - 1) x 100: what the span timers cost.
double TraceOverheadPct(const WindowResult& w);

// --- Spans ----------------------------------------------------------------------------

// Span names; the index is what the log stores.
enum SpanName : uint8_t {
  kSpanRead,
  kSpanWrite,
  kSpanTxn,
  kSpanScan,
  kSpanFullScan,
  kSpanCycle,
  kSpanGen,
  kSpanAcquire,
  kSpanCs,
  kSpanFault,
  kSpanRelease,
  kSpanMmap,
  kSpanMprotect,
  kSpanMunmap,
  kSpanNone,  // a lap charged to a layer but not logged on its own
};

// One op in kSampleOneIn of a traced window logs its spans for the Chrome trace.
inline constexpr uint64_t kSampleOneIn = 4096;

// Fixed-capacity per-thread span log: reserved up front, so appending never
// allocates; spans past the capacity are dropped.
class SpanLog {
 public:
  static constexpr std::size_t kCapacity = 1 << 16;
  explicit SpanLog(uint32_t tid) : tid_(tid) { spans_.reserve(kCapacity); }

  void Add(SpanName name, uint64_t op, uint64_t start_ns, uint64_t end_ns) {
    if (spans_.size() < kCapacity) {
      spans_.push_back({name, tid_, op, start_ns, end_ns});
    }
  }

  struct Span {
    SpanName name;
    uint32_t tid;
    uint64_t op;
    uint64_t start_ns;
    uint64_t end_ns;
  };
  const std::vector<Span>& Spans() const { return spans_; }

 private:
  uint32_t tid_;
  std::vector<Span> spans_;
};

// Writes every log as Chrome trace-event JSON (chrome://tracing, ui.perfetto.dev):
// complete ("X") events, one track per thread; nesting on a track is parenthood.
bool WriteChromeTrace(const std::string& path, const std::vector<const SpanLog*>& logs);

// Layers a client op's time is attributed to. Each holds self time: store.cs excludes
// the vm.fault calls made inside the critical section.
enum Layer : uint8_t { kGen, kAcquire, kCs, kFault, kRelease, kStructural, kLayerCount };

// Per-client, per-op tracing state. A traced op is cut into consecutive laps: each
// Lap() reads the clock once, charges the time since the previous boundary to a layer
// and moves the boundary, so the layers tile the op with no gap and a parent span
// (store.cs around its vm.fault children) is rebuilt from its pieces. With `on` false
// every call returns 0 without reading a clock: an untraced op pays one branch per
// boundary.
class Tracer {
 public:
  explicit Tracer(uint32_t tid) : log_(tid) {}

  // Starts an op at `t0`: decides whether it is traced and sampled, and charges the
  // time since the previous traced op began to the traced wall clock.
  void BeginOp(bool traced, uint64_t t0, uint64_t op_id) {
    if (prev_traced_) {
      wall_ns_ += t0 - prev_start_;
    }
    prev_traced_ = traced;
    prev_start_ = t0;
    on = traced;
    mark_ = t0;
    sampled_ = traced && ++traced_ops_ % kSampleOneIn == 0;
    op_id_ = op_id;
    op_spans_ = 0;
  }

  // The last boundary (0 when untraced).
  uint64_t Mark() const { return on ? mark_ : 0; }

  // Ends a lap now: charges it to `layer`, logs it as `name` unless `name` is
  // kSpanNone (a piece of a parent span), and returns its length.
  uint64_t Lap(Layer layer, SpanName name) {
    if (!on) {
      return 0;
    }
    const uint64_t now = NowNs();
    const uint64_t ns = now - mark_;
    self_ns_[layer] += ns;
    if (name != kSpanNone) {
      Span(name, mark_, now);
    }
    mark_ = now;
    return ns;
  }

  // A full scan faults a page per record; only its first kMaxOpSpans spans are kept.
  void Span(SpanName name, uint64_t t0, uint64_t t1) {
    if (sampled_ && op_spans_++ < kMaxOpSpans) {
      log_.Add(name, op_id_, t0, t1);
    }
  }
  // The op's root span, logged once the op is done and never cut by the cap.
  void RootSpan(SpanName name, uint64_t t0, uint64_t t1) {
    if (sampled_) {
      log_.Add(name, op_id_, t0, t1);
    }
  }

  uint64_t SelfNs(Layer l) const { return self_ns_[l]; }
  uint64_t WallNs() const { return wall_ns_; }
  const SpanLog& Log() const { return log_; }

  bool on = false;

 private:
  static constexpr int kMaxOpSpans = 64;
  SpanLog log_;
  int op_spans_ = 0;
  bool sampled_ = false;
  bool prev_traced_ = false;
  uint64_t prev_start_ = 0;
  uint64_t mark_ = 0;
  uint64_t op_id_ = 0;
  uint64_t traced_ops_ = 0;
  uint64_t wall_ns_ = 0;
  uint64_t self_ns_[kLayerCount] = {};
};

// Shares of the summed traced client wall time, one per layer, plus their sum
// (client.attributed_share) — the check that the layers account for the clients' time.
template <typename Clients>
void ReportLayerShares(const Clients& clients, Report* report) {
  uint64_t wall = 0;
  uint64_t self[kLayerCount] = {};
  for (const auto& c : clients) {
    wall += c->tracer.WallNs();
    for (int l = 0; l < kLayerCount; ++l) {
      self[l] += c->tracer.SelfNs(static_cast<Layer>(l));
    }
  }
  if (wall == 0) {
    return;
  }
  static const char* const kShareNames[kLayerCount] = {
      "client.gen_share", "core.acquire_share", "store.cs_share",
      "vm.fault_share",   "core.release_share", "vm.structural_share"};
  double sum = 0;
  for (int l = 0; l < kLayerCount; ++l) {
    const double share = static_cast<double>(self[l]) / static_cast<double>(wall);
    report->Set(kShareNames[l], share);
    sum += share;
  }
  report->Set("client.attributed_share", sum);
}

// Traced runs with --trace-file: the clients' sampled spans as one Chrome trace.
template <typename Clients>
void WriteClientTrace(const Options& opt, const Clients& clients, Report* report) {
  if (!opt.trace || opt.trace_file.empty()) {
    return;
  }
  std::vector<const SpanLog*> logs;
  for (const auto& c : clients) {
    logs.push_back(&c->tracer.Log());
  }
  if (!WriteChromeTrace(opt.trace_file, logs)) {
    report->Fail("cannot write " + opt.trace_file);
  }
}

// --- Workloads -------------------------------------------------------------------------

void RunKvCached(const Options& opt, Report* report);
void RunKvPaged(const Options& opt, Report* report);
void RunVmChurn(const Options& opt, Report* report);
void RunMetisWrmem(const Options& opt, Report* report);

}  // namespace srlbench

#endif  // SRL_BENCHMARK_SRL_BENCH_COMMON_H_
