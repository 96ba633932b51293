#include "perfbench/runner/bench_common.h"

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/server/wire.h"

namespace perfbench {

double NowS() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

double ProcessCpuS() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

double PidCpuS(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(in, line)) return -1;
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  size_t close = line.rfind(')');
  if (close == std::string::npos) return -1;
  std::istringstream rest(line.substr(close + 2));
  std::string field;
  double utime = 0, stime = 0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::strtod(field.c_str(), nullptr);
    if (i == 15) stime = std::strtod(field.c_str(), nullptr);
  }
  return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double PeakRssMb(pid_t pid) {
  std::string path = pid == 0 ? std::string("/proc/self/status")
                              : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return -1;
}

void ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return;
  std::fputs("5", f);
  std::fclose(f);
}

double CalibrationMs() {
  std::vector<double> runs;
  for (int r = 0; r < 5; ++r) {
    double t0 = NowS();
    volatile uint64_t sink = 0;
    uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (int i = 0; i < 4000000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    sink = x;
    (void)sink;
    runs.push_back((NowS() - t0) * 1e3);
  }
  return Median(runs);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void Hasher::Bytes(const void* data, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
}

uint64_t HashFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return 0;
  Hasher hasher;
  std::vector<char> buf(1 << 20);
  size_t n;
  while ((n = std::fread(buf.data(), 1, buf.size(), f)) > 0) {
    hasher.Bytes(buf.data(), n);
  }
  std::fclose(f);
  return hasher.h;
}

Tracer::Scope::Scope(Tracer* tracer, std::string name, uint64_t request)
    : tracer_(tracer->enabled() ? tracer : nullptr) {
  if (tracer_ == nullptr) return;
  Span span;
  span.name = std::move(name);
  span.id = tracer_->next_id_++;
  span.parent = tracer_->current_;
  span.request = request;
  span.start_s = NowS();
  saved_parent_ = tracer_->current_;
  tracer_->current_ = span.id;
  index_ = tracer_->spans_.size();
  tracer_->spans_.push_back(std::move(span));
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[index_].end_s = NowS();
  tracer_->current_ = saved_parent_;
}

double Tracer::Total(std::string_view name) const {
  double total = 0;
  for (const Span& s : spans_) {
    if (s.name == name) total += s.end_s - s.start_s;
  }
  return total;
}

std::vector<double> Tracer::Durations(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.end_s - s.start_s);
  }
  return out;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  double origin = spans_.empty() ? 0 : spans_.front().start_s;
  std::fputs("{\"traceEvents\":[", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"request\":%llu}}",
                 i == 0 ? "" : ",", JsonString(s.name).c_str(),
                 (s.start_s - origin) * 1e6, (s.end_s - s.start_s) * 1e6,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

void Tally::Fail(const std::string& why) {
  ++attempted;
  ++failed;
  correct = false;
  if (problems.size() < 20) problems.push_back(why);
}

void Tally::Invalid(const std::string& why) {
  correct = false;
  if (problems.size() < 20) problems.push_back(why);
}

void MetricTable::Set(const std::string& name, double value,
                      const std::string& unit) {
  if (values_.find(name) == values_.end()) order_.push_back(name);
  values_[name] = {value, unit};
}

double MetricTable::Get(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? 0 : it->second.first;
}

std::string MetricTable::ToJson() const {
  std::string out = "{";
  for (size_t i = 0; i < order_.size(); ++i) {
    const auto& [value, unit] = values_.at(order_[i]);
    if (i > 0) out += ", ";
    out += JsonString(order_[i]) + ": {\"value\": " + JsonNumber(value) +
           ", \"unit\": " + JsonString(unit) + "}";
  }
  return out + "}";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(std::string_view s) {
  return "\"" + dime::JsonEscape(s) + "\"";
}

}  // namespace perfbench
