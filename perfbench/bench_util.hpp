// Measurement helpers for the service benchmark: clocks and quantiles,
// process memory, an in-memory span log, a recording trace sink, and the
// benchmark's own residual checks (independent of the library's kernels).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "asyrgs/serve/metrics.hpp"
#include "asyrgs/sparse/csr.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// The time point `seconds` from now.
inline Clock::time_point after_seconds(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

/// q-quantile with linear interpolation between order statistics (the
/// "inclusive" definition: q = 0 is the minimum, q = 1 the maximum).
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

// --- process memory (Linux /proc) --------------------------------------------

/// A "VmXXX:" field of /proc/self/status in KiB; 0 when unavailable.
inline double status_kib(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string key = std::string(field) + ":";
  while (std::getline(in, line))
    if (line.rfind(key, 0) == 0) return std::stod(line.substr(key.size()));
  return 0.0;
}

inline double kib_to_mb(double kib) { return kib * 1024.0 / 1e6; }

/// Resets the VmHWM peak-RSS mark to the current RSS (writing 5 to
/// clear_refs), so a later VmHWM read covers only what happens from here.
inline bool reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

// --- spans -------------------------------------------------------------------

/// In-memory span log: one record per call the benchmark makes into a layer.
/// Spans are kept in memory and written out once, at the end of the run.
/// A disabled log records nothing (the untraced end-to-end runs).
class SpanLog {
 public:
  struct Span {
    std::string name;
    double start = 0.0;  ///< seconds since the log's epoch
    double end = 0.0;
    int id = 0;
    int parent = 0;      ///< 0 = root
    long long request = 0;  ///< benchmark request id; 0 = none
  };

  explicit SpanLog(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  [[nodiscard]] double at(Clock::time_point t) const {
    return seconds_between(epoch_, t);
  }

  /// Times one call: the span opens on construction and is recorded when the
  /// scope ends.
  class Scope {
   public:
    Scope(SpanLog& log, std::string name, int parent = 0,
          long long request = 0)
        : log_(log.enabled() ? &log : nullptr) {
      if (!log_) return;
      span_.name = std::move(name);
      span_.parent = parent;
      span_.request = request;
      span_.id = ++log_->next_id_;
      span_.start = log_->at(Clock::now());
    }
    ~Scope() {
      if (!log_) return;
      span_.end = log_->at(Clock::now());
      log_->add(std::move(span_));
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    [[nodiscard]] int id() const noexcept { return span_.id; }

   private:
    SpanLog* log_;
    Span span_;
  };

  /// Reserves an id for a span recorded later with add(); 0 when disabled.
  int new_id() { return enabled_ ? ++next_id_ : 0; }

  /// Records a span whose bounds were measured elsewhere (the service's own
  /// trace events, open-loop completions); returns its id.
  int add(Span span) {
    if (!enabled_) return 0;
    if (span.id == 0) span.id = ++next_id_;
    const int id = span.id;
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
    return id;
  }

  /// Durations of every span named `name`, in recording order.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> out;
    for (const Span& s : spans_)
      if (s.name == name) out.push_back(s.end - s.start);
    return out;
  }

  [[nodiscard]] std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
  }

  /// One JSON object per line: name, start, end, id, parent, request.
  bool write_jsonl(const std::string& path) const {
    std::ofstream out(path);
    const std::lock_guard<std::mutex> lock(mutex_);
    char buf[96];
    for (const Span& s : spans_) {
      out << "{\"name\":\"" << s.name << "\"";
      std::snprintf(buf, sizeof buf, ",\"start\":%.9f,\"end\":%.9f", s.start,
                    s.end);
      out << buf << ",\"id\":" << s.id << ",\"parent\":" << s.parent
          << ",\"request\":" << s.request << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  bool enabled_;
  Clock::time_point epoch_;
  std::atomic<int> next_id_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Trace sink that keeps every service event in memory (attached through
/// ServiceOptions::trace in the traced run).
class RecordingSink final : public asyrgs::TraceSink {
 public:
  void log(const asyrgs::TraceEvent& event) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    events_.push_back(event);
  }
  [[nodiscard]] std::vector<asyrgs::TraceEvent> events() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return events_;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<asyrgs::TraceEvent> events_;
};

// --- correctness checks --------------------------------------------------------

/// ||b - A x|| / ||b||, by a plain serial CSR loop.
inline double spd_relative_residual(const asyrgs::CsrMatrix& a,
                                    const std::vector<double>& b,
                                    const std::vector<double>& x) {
  const auto& rp = a.row_ptr();
  const auto& ci = a.col_idx();
  const auto& va = a.values();
  double rr = 0.0, bb = 0.0;
  for (asyrgs::index_t i = 0; i < a.rows(); ++i) {
    double r = b[static_cast<std::size_t>(i)];
    for (asyrgs::nnz_t t = rp[i]; t < rp[i + 1]; ++t)
      r -= va[t] * x[static_cast<std::size_t>(ci[t])];
    rr += r * r;
    bb += b[static_cast<std::size_t>(i)] * b[static_cast<std::size_t>(i)];
  }
  return bb > 0.0 ? std::sqrt(rr / bb) : std::sqrt(rr);
}

/// ||A^T (b - A x)|| / ||A^T b||, by plain serial CSR loops.
inline double lsq_relative_residual(const asyrgs::CsrMatrix& a,
                                    const std::vector<double>& b,
                                    const std::vector<double>& x) {
  const auto& rp = a.row_ptr();
  const auto& ci = a.col_idx();
  const auto& va = a.values();
  std::vector<double> atr(static_cast<std::size_t>(a.cols()), 0.0);
  std::vector<double> atb(static_cast<std::size_t>(a.cols()), 0.0);
  for (asyrgs::index_t i = 0; i < a.rows(); ++i) {
    const double bi = b[static_cast<std::size_t>(i)];
    double r = bi;
    for (asyrgs::nnz_t t = rp[i]; t < rp[i + 1]; ++t)
      r -= va[t] * x[static_cast<std::size_t>(ci[t])];
    for (asyrgs::nnz_t t = rp[i]; t < rp[i + 1]; ++t) {
      atr[static_cast<std::size_t>(ci[t])] += va[t] * r;
      atb[static_cast<std::size_t>(ci[t])] += va[t] * bi;
    }
  }
  double num = 0.0, den = 0.0;
  for (std::size_t j = 0; j < atr.size(); ++j) {
    num += atr[j] * atr[j];
    den += atb[j] * atb[j];
  }
  return den > 0.0 ? std::sqrt(num / den) : std::sqrt(num);
}

/// A copy of `a` with its own, empty transpose cache.  Copies made with the
/// copy constructor share the cache, which would make a repeated
/// preparation skip the transpose.
inline asyrgs::CsrMatrix fresh_copy(const asyrgs::CsrMatrix& a) {
  return asyrgs::CsrMatrix(a.rows(), a.cols(), a.row_ptr(), a.col_idx(),
                           a.values());
}

}  // namespace perfbench
