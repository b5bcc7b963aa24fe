// srl_bench — the repository benchmark program. One process runs one workload:
//
//   srl_bench --workload kv-cached|kv-paged|vm-churn|metis-wrmem --seed N --seconds S
//             --trace 0|1 [--trace-file PATH] [--corrupt-record]
//   srl_bench --selftest
//
// srl_bench sits above every layer: it times only the calls it makes into the
// layers' public functions and reads the counters they already expose. Its last
// stdout line is one JSON object (see Report::Json); it exits 1 when any check fails
// and 2 on a command-line error. The parser is strict: an unknown flag or workload
// name is an error, never a silently ignored default.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <sched.h>
#include <string>
#include <thread>

#include "srl_bench/common.h"
#include "src/harness/prng.h"

namespace srlbench {

const std::vector<MetricDef> kEndToEndMetrics = {
    {"setup_s", "s"},
    {"ops_per_s", "1/s"},
    {"op_p50_us", "us"},
    {"op_p99_us", "us"},
    {"peak_rss_mb", "MiB"},
};

const std::vector<MetricDef> kPerLayerMetrics = {
    {"client.gen_share", "frac"},
    {"client.attributed_share", "frac"},
    {"client.read_p99_us", "us"},
    {"client.write_p99_us", "us"},
    {"client.txn_p99_us", "us"},
    {"client.scan_p99_us", "us"},
    {"client.op_p999_us", "us"},
    {"store.cs_share", "frac"},
    {"store.cs_p50_ns", "ns"},
    {"core.acquire_share", "frac"},
    {"core.release_share", "frac"},
    {"core.point_acquire_p50_ns", "ns"},
    {"core.point_acquire_p99_ns", "ns"},
    {"core.release_p50_ns", "ns"},
    {"core.wide_acquire_p99_ns", "ns"},
    {"core.full_acquire_wait_us", "us"},
    {"core.txn_try_fail_rate", "frac"},
    {"core.txn_retries_per_txn", "count"},
    {"vm.fault_p50_ns", "ns"},
    {"vm.fault_p99_ns", "ns"},
    {"vm.fault_share", "frac"},
    {"vm.structural_share", "frac"},
    {"vm.fault_spec_rate", "frac"},
    {"vm.fault_spec_retry_per_kfault", "count"},
    {"vm.find_retries_per_kfault", "count"},
    {"vm.fault_try_fallback_rate", "frac"},
    {"vm.mmap_p50_ns", "ns"},
    {"vm.mmap_p99_ns", "ns"},
    {"vm.mprotect_p50_ns", "ns"},
    {"vm.mprotect_p99_ns", "ns"},
    {"vm.munmap_p50_ns", "ns"},
    {"vm.munmap_p99_ns", "ns"},
    {"vm.scoped_rate", "frac"},
    {"vm.full_write_acquisitions", "count"},
    {"vm.home_stripes_distinct", "count"},
    {"vm.madvise_p99_us", "us"},
    {"vm.mprotect_spec_rate", "frac"},
    {"vm.lock_read_wait_mean_ns", "ns"},
    {"vm.lock_write_wait_mean_ns", "ns"},
    {"vm.lock_wait_share", "frac"},
    {"epoch.sweep_flushes_per_s", "1/s"},
    {"epoch.swept_pages_per_s", "1/s"},
    {"epoch.sweeps_coalesced_rate", "frac"},
    {"epoch.pending_sweep_pages_end", "count"},
    {"epoch.drain_ms", "ms"},
    {"sync.admission_parks", "count"},
    {"sync.admission_culls", "count"},
    {"trace_overhead_pct", "%"},
};

Report::Report(bool trace) {
  for (const MetricDef& m : trace ? kPerLayerMetrics : kEndToEndMetrics) {
    metrics_.push_back({m.name, m.unit, 0.0});
  }
}

void Report::Set(std::string_view name, double value) {
  for (Entry& e : metrics_) {
    if (e.name == name) {
      e.value = value;
      return;
    }
  }
  // Per-layer names are set in untraced runs too (and vice versa) where computing
  // them is free; only the mode's own list is reported.
  for (const auto* list : {&kEndToEndMetrics, &kPerLayerMetrics}) {
    for (const MetricDef& m : *list) {
      if (name == m.name) {
        return;
      }
    }
  }
  Fail("undeclared metric " + std::string(name));
}

void Report::Fail(std::string why) {
  checks_ok_ = false;
  errors_.push_back(std::move(why));
}

namespace {

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

}  // namespace

std::string Report::Json(std::string_view workload) const {
  std::string out = "{\"workload\": " + JsonString(workload) +
                    ", \"correct\": " + (Correct() ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted_) +
                    ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Entry& e = metrics_[i];
    out += (i ? ", " : "") + JsonString(e.name) + ": {\"value\": " + JsonNumber(e.value) +
           ", \"unit\": " + JsonString(e.unit) + "}";
  }
  out += "}, \"errors\": [";
  for (std::size_t i = 0; i < errors_.size(); ++i) {
    out += (i ? ", " : "") + JsonString(errors_[i]);
  }
  return out + "]}";
}

void PinToCpu(unsigned index) {
  static const std::vector<int> cpus = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> v;
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) {
          v.push_back(c);
        }
      }
    }
    return v;
  }();
  if (cpus.empty()) {
    return;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[index % cpus.size()], &one);
  sched_setaffinity(0, sizeof one, &one);
}

double Median(std::vector<double> v) { return SampleQuantile(std::move(v), 0.5); }

double SampleQuantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double PeakRssMb() {
  // VmHWM, the high-water mark of this process image. ru_maxrss would do, but Linux
  // carries the parent's resident set over an exec into it: started from Python, a
  // small workload would report the interpreter's memory.
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return 0.0;
}

WindowResult DriveWindow(Control* control, const std::vector<Progress>& progress,
                         double seconds, bool trace_mode,
                         const std::function<void()>& at_start) {
  auto total = [&] {
    uint64_t sum = 0;
    for (const Progress& p : progress) {
      sum += p.ops.load(std::memory_order_relaxed);
    }
    return sum;
  };
  using Clock = std::chrono::steady_clock;
  const auto secs = [](double s) {
    return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
  };
  std::this_thread::sleep_for(secs(std::min(2.0, seconds / 5)));

  constexpr int kSubs = 10;
  WindowResult w;
  if (at_start) {
    at_start();
  }
  control->measure.store(true, std::memory_order_relaxed);
  auto start = Clock::now();
  uint64_t ops0 = total();
  for (int i = 0; i < kSubs; ++i) {
    const bool traced = trace_mode && i % 2 == 1;
    control->trace.store(traced, std::memory_order_relaxed);
    std::this_thread::sleep_until(start + secs(seconds / kSubs));
    const auto now = Clock::now();
    const uint64_t ops = total();
    const double dt = std::chrono::duration<double>(now - start).count();
    (traced ? w.traced_rates : w.untraced_rates).push_back(static_cast<double>(ops - ops0) / dt);
    start = now;
    ops0 = ops;
  }
  control->trace.store(false, std::memory_order_relaxed);
  control->measure.store(false, std::memory_order_relaxed);
  return w;
}

double TraceOverheadPct(const WindowResult& w) {
  const double traced = Median(w.traced_rates);
  return traced > 0 ? (Median(w.untraced_rates) / traced - 1.0) * 100.0 : 0.0;
}

bool WriteChromeTrace(const std::string& path, const std::vector<const SpanLog*>& logs) {
  static const char* const kNames[] = {
      "op.read",  "op.write",     "op.txn",   "op.scan",      "op.full_scan",
      "op.cycle", "client.gen",   "core.acquire", "store.cs", "vm.fault",
      "core.release", "vm.mmap",  "vm.mprotect",  "vm.munmap",
  };
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  uint64_t origin = UINT64_MAX;
  for (const SpanLog* log : logs) {
    for (const auto& s : log->Spans()) {
      origin = std::min(origin, s.start_ns);
    }
  }
  out << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [";
  bool first = true;
  for (const SpanLog* log : logs) {
    for (const auto& s : log->Spans()) {
      out << (first ? "\n" : ",\n") << "{\"name\": \"" << kNames[s.name]
          << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.tid
          << ", \"ts\": " << JsonNumber(static_cast<double>(s.start_ns - origin) / 1e3)
          << ", \"dur\": " << JsonNumber(static_cast<double>(s.end_ns - s.start_ns) / 1e3)
          << ", \"args\": {\"op\": " << s.op << "}}";
      first = false;
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

namespace {

// Histogram quantiles against distributions whose quantiles are known in closed form.
int SelfTest() {
  int failures = 0;
  auto expect = [&](const char* what, double got, double want, double rel) {
    const bool ok = std::abs(got - want) <= rel * want;
    std::cout << (ok ? "ok   " : "FAIL ") << what << ": got " << got << ", want " << want
              << " +-" << rel * 100 << "%\n";
    failures += ok ? 0 : 1;
  };
  for (uint64_t v = 0; v < (uint64_t{1} << 20); v += 1 + v / 7) {
    const std::size_t i = Histogram::Index(v);
    if (v < Histogram::Lower(i) || v >= Histogram::Lower(i) + Histogram::Width(i)) {
      std::cout << "FAIL bucket of " << v << "\n";
      ++failures;
    }
  }
  srl::Xoshiro256 rng(42);
  Histogram uniform;
  Histogram expo;
  constexpr int kSamples = 1'000'000;
  for (int i = 0; i < kSamples; ++i) {
    uniform.Record(1000 + rng.NextBelow(2000));
    expo.Record(static_cast<uint64_t>(-1000.0 * std::log(1.0 - rng.NextDouble())));
  }
  expect("uniform[1000,3000) p50", uniform.Quantile(0.5), 2000, 0.01);
  // Values stop at 2999 inside the bucket [2944, 3072): near a distribution's edge the
  // estimate is good to one bucket width, 1/16 of the value.
  expect("uniform[1000,3000) p99", uniform.Quantile(0.99), 2980, 1.0 / 16);
  expect("exp(mean 1000) p50", expo.Quantile(0.5), 1000 * std::log(2.0), 0.02);
  expect("exp(mean 1000) p99", expo.Quantile(0.99), 1000 * std::log(100.0), 0.02);
  expect("exp(mean 1000) p999", expo.Quantile(0.999), 1000 * std::log(1000.0), 0.03);
  Histogram constant;
  for (int i = 0; i < 100; ++i) {
    constant.Record(5);
  }
  expect("constant 5 p50", constant.Quantile(0.5), 5.5, 0.1);
  return failures == 0 ? 0 : 1;
}

int Usage(const std::string& error) {
  std::cerr << "srl_bench: " << error
            << "\nusage: srl_bench --workload kv-cached|kv-paged|vm-churn|metis-wrmem "
               "--seed N --seconds S --trace 0|1 [--trace-file PATH] [--corrupt-record]\n"
               "       srl_bench --selftest\n";
  return 2;
}

bool ParseU64(const std::string& s, uint64_t* out) {
  const auto r = std::from_chars(s.data(), s.data() + s.size(), *out);
  return r.ec == std::errc() && r.ptr == s.data() + s.size() && !s.empty();
}

}  // namespace
}  // namespace srlbench

int main(int argc, char** argv) {
  using srlbench::Usage;
  srlbench::Options opt;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    bool inline_value = false;
    if (const auto eq = flag.find('='); eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag.resize(eq);
      inline_value = true;
    }
    const bool boolean = flag == "--selftest" || flag == "--corrupt-record";
    if (boolean) {
      if (inline_value) {
        return Usage(flag + " takes no value");
      }
      (flag == "--selftest" ? selftest : opt.corrupt_record) = true;
      continue;
    }
    if (!inline_value) {
      if (i + 1 >= argc) {
        return Usage("missing value for " + flag);
      }
      value = argv[++i];
    }
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      if (!srlbench::ParseU64(value, &opt.seed)) {
        return Usage("--seed wants a non-negative integer, got '" + value + "'");
      }
      have_seed = true;
    } else if (flag == "--seconds") {
      char* end = nullptr;
      opt.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(opt.seconds > 0) || opt.seconds > 600) {
        return Usage("--seconds wants a number in (0, 600], got '" + value + "'");
      }
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        return Usage("--trace wants 0 or 1, got '" + value + "'");
      }
      opt.trace = value == "1";
      have_trace = true;
    } else if (flag == "--trace-file") {
      opt.trace_file = value;
    } else {
      return Usage("unknown flag " + flag);
    }
  }
  if (selftest) {
    return argc == 2 ? srlbench::SelfTest() : Usage("--selftest takes no other flags");
  }
  if (!have_seed || !have_seconds || !have_trace || opt.workload.empty()) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }

  srlbench::Report report(opt.trace);
  if (opt.workload == "kv-cached") {
    srlbench::RunKvCached(opt, &report);
  } else if (opt.workload == "kv-paged") {
    srlbench::RunKvPaged(opt, &report);
  } else if (opt.workload == "vm-churn") {
    srlbench::RunVmChurn(opt, &report);
  } else if (opt.workload == "metis-wrmem") {
    srlbench::RunMetisWrmem(opt, &report);
  } else {
    return Usage("unknown workload '" + opt.workload + "'");
  }
  const double rss = srlbench::PeakRssMb();
  if (!(rss > 0)) {
    report.Fail("cannot read VmHWM from /proc/self/status");
  }
  report.Set("peak_rss_mb", rss);
  std::cout << report.Json(opt.workload) << std::endl;
  return report.Correct() ? 0 : 1;
}
