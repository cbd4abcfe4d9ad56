#pragma once

// Benchmark-owned tracing: spans recorded around calls into the program's
// public functions, kept in memory, written as Chrome trace JSON through an
// obs::TraceRecorder and folded into per-name self time. The program itself
// runs with its own tracing off.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

class Tracer {
 public:
  struct Record {
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  /// RAII span; a null tracer makes it a no-op, so traced and untraced code
  /// paths share one body.
  class Span {
   public:
    Span(Tracer* tracer, std::string name, std::uint64_t parent = 0)
        : tracer_(tracer) {
      if (tracer_ == nullptr) return;
      record_.name = std::move(name);
      record_.id = tracer_->chrome_.next_span_id();
      record_.parent = parent;
      record_.start_ns = tracer_->now_ns();
    }
    ~Span() {
      if (tracer_ == nullptr) return;
      record_.end_ns = tracer_->now_ns();
      tracer_->add(std::move(record_));
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    [[nodiscard]] std::uint64_t id() const { return record_.id; }

   private:
    Tracer* tracer_;
    Record record_;
  };

  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  [[nodiscard]] std::vector<Record> records() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return records_;
  }

  /// Summed duration per span name, ms.
  [[nodiscard]] std::map<std::string, double> total_ms() const {
    std::map<std::string, double> out;
    for (const auto& r : records()) out[r.name] += (r.end_ns - r.start_ns) / 1e6;
    return out;
  }

  /// Summed self time per span name, ms: each span's duration minus the
  /// part of its interval that its children cover (children may run in
  /// parallel on other threads, so coverage is an interval union).
  [[nodiscard]] std::map<std::string, double> self_ms() const {
    const auto all = records();
    std::map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
        children;
    for (const auto& r : all) {
      if (r.parent != 0) children[r.parent].push_back({r.start_ns, r.end_ns});
    }
    std::map<std::string, double> out;
    for (const auto& r : all) {
      std::int64_t covered = 0;
      if (auto it = children.find(r.id); it != children.end()) {
        auto& kids = it->second;
        std::sort(kids.begin(), kids.end());
        std::int64_t cursor = r.start_ns;
        for (const auto& [b, e] : kids) {
          const std::int64_t lo = std::max(b, cursor);
          const std::int64_t hi = std::min(e, r.end_ns);
          if (hi > lo) {
            covered += hi - lo;
            cursor = hi;
          }
        }
      }
      out[r.name] += (r.end_ns - r.start_ns - covered) / 1e6;
    }
    return out;
  }

  void write_chrome_json(const std::string& path) const {
    std::ofstream out(path);
    chrome_.write_json(out);
  }

  [[nodiscard]] std::size_t span_count() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return records_.size();
  }

 private:
  void add(Record record) {
    // Emitted from the thread that ran the span, so the Chrome view keeps
    // the per-thread lanes.
    chrome_.add_span(record.name, "perfbench",
                     static_cast<std::uint64_t>(record.start_ns / 1000),
                     static_cast<std::uint64_t>(
                         (record.end_ns - record.start_ns) / 1000),
                     record.id);
    std::lock_guard<std::mutex> lock(mutex_);
    records_.push_back(std::move(record));
  }

  obs::TraceRecorder chrome_;
  std::chrono::steady_clock::time_point origin_ = std::chrono::steady_clock::now();
  mutable std::mutex mutex_;
  std::vector<Record> records_;
};

}  // namespace perfbench
