// Shared helpers of the benchmark: clocks, exact quantiles, process
// memory, the span recorder of the traced run, and the metric report.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace pb {

using steady = std::chrono::steady_clock;

inline double seconds_since(steady::time_point t0) {
  return std::chrono::duration<double>(steady::now() - t0).count();
}

// Exact quantile by linear interpolation between order statistics
// (the same rule as numpy's default). 0 for an empty sample.
double quantile(std::vector<double> v, double q);
double median(const std::vector<double>& v);

// Peak resident memory of the process (VmHWM), MiB; 0 when unreadable.
double peak_rss_mb();
// Bytes currently allocated on the heap (glibc mallinfo2).
double heap_bytes();

// ---- Spans of the traced run --------------------------------------------
// A span covers one call the benchmark makes into a layer. Spans are kept
// in memory and written out once the run ends. Only the thread that drives
// the layers records spans, so the recorder takes no lock.
struct span_record {
  const char* name = "";
  std::int64_t id = 0;
  std::int64_t parent = -1;  // -1 = root
  std::int64_t session = -1;
  std::int64_t index = -1;  // block, window or utterance index
  double start_s = 0.0;     // since the recorder's epoch
  double end_s = 0.0;
};

class span_recorder {
 public:
  bool enabled = false;

  std::int64_t open(const char* name, std::int64_t session,
                    std::int64_t index);
  void close(std::int64_t id);

  const std::vector<span_record>& spans() const { return spans_; }

  double total_s(const std::string& name) const;
  std::size_t count(const std::string& name) const;

  // One JSON object per line: name, id, parent, session, index, start,
  // end (seconds).
  bool write_jsonl(const std::string& path) const;

 private:
  steady::time_point epoch_ = steady::now();
  std::vector<span_record> spans_;
  std::vector<std::int64_t> stack_;
};

// RAII span; a no-op when the recorder is disabled.
class scoped_span {
 public:
  scoped_span(span_recorder& rec, const char* name, std::int64_t session = -1,
              std::int64_t index = -1)
      : rec_{rec}, id_{rec.enabled ? rec.open(name, session, index) : -1} {}
  ~scoped_span() {
    if (id_ >= 0) {
      rec_.close(id_);
    }
  }
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;

 private:
  span_recorder& rec_;
  std::int64_t id_;
};

// ---- Report --------------------------------------------------------------
struct metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  // 0 = not a sampled timing
};

class report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 0);
  // Human-readable line per metric, then nothing else.
  void print_lines(const char* heading) const;
  // {"name": {"value": v, "unit": u}, ...}
  std::string json_object() const;

 private:
  std::vector<metric> metrics_;
};

std::string json_escape(const std::string& s);
std::string fmt_double(double v);

}  // namespace pb
