#include "util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <malloc.h>
#include <sstream>

namespace pb {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

namespace {

double status_field_mb(const char* key) {
  std::ifstream in{"/proc/self/status"};
  std::string line;
  const std::string prefix = std::string{key} + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      std::istringstream fields{line.substr(prefix.size())};
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace

double peak_rss_mb() { return status_field_mb("VmHWM"); }
double heap_bytes() {
  const struct mallinfo2 m = mallinfo2();
  return static_cast<double>(m.uordblks + m.hblkhd);
}

std::int64_t span_recorder::open(const char* name, std::int64_t session,
                                 std::int64_t index) {
  span_record s;
  s.name = name;
  s.id = static_cast<std::int64_t>(spans_.size());
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.session = session;
  s.index = index;
  s.start_s = seconds_since(epoch_);
  spans_.push_back(s);
  stack_.push_back(s.id);
  return s.id;
}

void span_recorder::close(std::int64_t id) {
  spans_[static_cast<std::size_t>(id)].end_s = seconds_since(epoch_);
  if (!stack_.empty() && stack_.back() == id) {
    stack_.pop_back();
  }
}

double span_recorder::total_s(const std::string& name) const {
  double total = 0.0;
  for (const span_record& s : spans_) {
    if (name == s.name) {
      total += s.end_s - s.start_s;
    }
  }
  return total;
}

std::size_t span_recorder::count(const std::string& name) const {
  return static_cast<std::size_t>(
      std::count_if(spans_.begin(), spans_.end(),
                    [&](const span_record& s) { return name == s.name; }));
}

bool span_recorder::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  for (const span_record& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%lld,\"parent\":%lld,"
                 "\"session\":%lld,\"index\":%lld,\"start\":%.9f,"
                 "\"end\":%.9f}\n",
                 s.name, static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.session),
                 static_cast<long long>(s.index), s.start_s, s.end_s);
  }
  return std::fclose(f) == 0;
}

void report::add(const std::string& name, double value,
                 const std::string& unit, std::size_t samples) {
  metrics_.push_back({name, value, unit, samples});
}

void report::print_lines(const char* heading) const {
  std::printf("%s\n", heading);
  for (const metric& m : metrics_) {
    if (m.samples > 0) {
      std::printf("  %-34s %14.6g %-10s n=%zu\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.samples);
    } else {
      std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string fmt_double(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string report::json_object() const {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const metric& m = metrics_[i];
    out += (i == 0 ? "\"" : ", \"");
    out += json_escape(m.name);
    out += "\": {\"value\": ";
    out += fmt_double(m.value);
    out += ", \"unit\": \"";
    out += json_escape(m.unit);
    out += "\"}";
  }
  return out + "}";
}

}  // namespace pb
