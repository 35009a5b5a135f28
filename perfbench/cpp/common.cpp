#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <ctime>
#include <fstream>

#include "util/json.h"

namespace rtbench {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double current_rss_mib() {
  std::ifstream statm("/proc/self/statm");
  double size_pages = 0.0, resident_pages = 0.0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double tail_value(std::vector<double> values, std::size_t beyond,
                  double* percentile) {
  if (values.size() <= beyond) {
    if (percentile != nullptr) *percentile = 0.0;
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (percentile != nullptr)
    *percentile = 100.0 * static_cast<double>(n - beyond) / static_cast<double>(n);
  return values[n - beyond - 1];
}

void require(bool ok, const std::string& what) {
  if (!ok) throw CheckFailure(what);
}

Tracer::Tracer() : t0_(Clock::now()) { spans_.reserve(1 << 16); }

int Tracer::begin(const char* name, std::uint64_t op, bool on_path) {
  Span span;
  span.name = name;
  span.op = op;
  span.on_path = on_path;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.start_us =
      std::chrono::duration<double, std::micro>(Clock::now() - t0_).count();
  spans_.push_back(span);
  const int index = static_cast<int>(spans_.size() - 1);
  stack_.push_back(index);
  return index;
}

void Tracer::end(int index) {
  spans_[static_cast<std::size_t>(index)].end_us =
      std::chrono::duration<double, std::micro>(Clock::now() - t0_).count();
  stack_.pop_back();
}

namespace {

std::vector<double> child_cover(const std::vector<Span>& spans) {
  std::vector<double> cover(spans.size(), 0.0);
  for (const Span& s : spans)
    if (s.parent >= 0)
      cover[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
  return cover;
}

}  // namespace

std::map<std::string, Tracer::SelfTime> Tracer::self_times() const {
  const std::vector<double> cover = child_cover(spans_);
  std::map<std::string, SelfTime> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    SelfTime& st = out[spans_[i].name];
    st.total_us += spans_[i].end_us - spans_[i].start_us - cover[i];
    ++st.count;
  }
  return out;
}

double Tracer::mean_self_us(const std::string& name) const {
  const auto self = self_times();
  const auto it = self.find(name);
  return it == self.end() ? 0.0
                          : it->second.total_us / static_cast<double>(it->second.count);
}

std::map<std::uint64_t, double> Tracer::on_path_us_per_op() const {
  const std::vector<double> cover = child_cover(spans_);
  std::map<std::uint64_t, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent < 0) {
      out[s.op] += 0.0;
      continue;
    }
    if (s.on_path) out[s.op] += s.end_us - s.start_us - cover[i];
  }
  return out;
}

double Tracer::layer_span_us() const {
  double total = 0.0;
  for (const Span& s : spans_)
    if (s.parent >= 0) total += s.end_us - s.start_us;
  return total;
}

void Tracer::write_json(const std::string& path) const {
  std::ofstream os(path);
  rtpool::util::JsonWriter w(os);
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();
  for (const Span& s : spans_) {
    w.begin_object();
    w.kv("name", std::string(s.name));
    w.kv("ph", "X");
    w.kv("ts", s.start_us);
    w.kv("dur", s.end_us - s.start_us);
    w.kv("pid", 1);
    w.kv("tid", 1);
    w.key("args");
    w.begin_object();
    w.kv("op", s.op);
    w.kv("parent", static_cast<std::int64_t>(s.parent));
    w.kv("on_path", s.on_path);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << '\n';
}

}  // namespace rtbench
