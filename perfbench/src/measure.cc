#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <system_error>

#include "cluster/adhoc_cluster.h"
#include "common/cpu_features.h"
#include "expdata/generator.h"
#include "perfbench.h"

namespace perfbench {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

ProcessUsage ReadProcessUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  ProcessUsage usage;
  usage.cpu_seconds =
      static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
      static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
  usage.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
  return usage;
}

int NumCpus() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

Tail TailOf(const std::vector<double>& values) {
  Tail tail;
  tail.samples = values.size();
  tail.windows = std::max<size_t>(1, values.size() / kTailWindowSamples);
  std::vector<double> window_tails;
  for (size_t w = 0; w < tail.windows; ++w) {
    const auto begin = values.begin() + w * values.size() / tail.windows;
    const auto end = values.begin() + (w + 1) * values.size() / tail.windows;
    const double value = Quantile({begin, end}, kTailPercentile / 100.0);
    tail.beyond += static_cast<size_t>(
        std::count_if(begin, end, [&](double v) { return v > value; }));
    window_tails.push_back(value);
  }
  tail.value = Median(window_tails);
  return tail;
}

void RegistryWindow::Begin() {
  before_ = expbsi::obs::MetricsRegistry::Global().Scrape();
}

void RegistryWindow::End() {
  after_ = expbsi::obs::MetricsRegistry::Global().Scrape();
}

uint64_t RegistryWindow::Counter(const std::string& name) const {
  const auto a = after_.counters.find(name);
  if (a == after_.counters.end()) return 0;
  const auto b = before_.counters.find(name);
  return a->second - (b == before_.counters.end() ? 0 : b->second);
}

uint64_t RegistryWindow::HistogramSum(const std::string& name) const {
  const auto a = after_.histograms.find(name);
  if (a == after_.histograms.end()) return 0;
  const auto b = before_.histograms.find(name);
  return a->second.sum - (b == before_.histograms.end() ? 0 : b->second.sum);
}

uint64_t RegistryWindow::HistogramCount(const std::string& name) const {
  const auto a = after_.histograms.find(name);
  if (a == after_.histograms.end()) return 0;
  const auto b = before_.histograms.find(name);
  return a->second.count -
         (b == before_.histograms.end() ? 0 : b->second.count);
}

void MetricSink::Add(const std::string& name, double value,
                     const std::string& unit) {
  if (values_.find(name) == values_.end()) order_.push_back(name);
  values_[name] = {std::isfinite(value) ? value : 0.0, unit};
}

double MetricSink::Get(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second.first;
}

std::string MetricSink::ToJson() const {
  std::string out = "{";
  char buf[64];
  for (size_t i = 0; i < order_.size(); ++i) {
    const auto& [value, unit] = values_.at(order_[i]);
    std::snprintf(buf, sizeof(buf), "%.12g", value);
    if (i > 0) out += ", ";
    out += "\"" + order_[i] + "\": {\"value\": " + buf + ", \"unit\": \"" +
           unit + "\"}";
  }
  return out + "}";
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

std::string HostStampJson() {
  const char* kernel = std::getenv("EXPBSI_KERNEL");
#ifdef EXPBSI_NO_METRICS
  const bool metrics = false;
#else
  const bool metrics = true;
#endif
  return std::string("{\"simd_tier\": ") +
         JsonString(expbsi::SimdTierName(expbsi::ActiveSimdTier())) +
         ", \"simd_detected\": " +
         JsonString(expbsi::SimdTierName(expbsi::DetectedSimdTier())) +
         ", \"kernel_override\": " + JsonString(kernel ? kernel : "") +
         ", \"nproc\": " + std::to_string(NumCpus()) +
         ", \"compiler\": " + JsonString(__VERSION__) +
         ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) +
         ", \"metrics_compiled\": " + (metrics ? "true" : "false") + "}";
}

RunDir::RunDir(const std::string& parent, const std::string& tag) {
  static std::atomic<int> counter{0};
  path_ = parent + "/" + tag + "-" + std::to_string(getpid()) + "-" +
          std::to_string(counter.fetch_add(1));
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
  std::filesystem::create_directories(path_, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s: %s\n", path_.c_str(),
                 ec.message().c_str());
    std::exit(2);
  }
}

RunDir::~RunDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

bool SameValues(const BucketValues& a, const BucketValues& b) {
  return a.sums == b.sums && a.counts == b.counts;
}

bool SameResults(const PairResults& a, const PairResults& b) {
  if (a.size() != b.size()) return false;
  for (const auto& [key, values] : a) {
    const auto it = b.find(key);
    if (it == b.end() || !SameValues(values, it->second)) return false;
  }
  return true;
}

bool SameWarehouse(const expbsi::ExperimentBsiData& a,
                   const expbsi::ExperimentBsiData& b) {
  const expbsi::BsiStore x = expbsi::BuildColdStore(a);
  const expbsi::BsiStore y = expbsi::BuildColdStore(b);
  if (x.NumBlobs() != y.NumBlobs() || x.TotalBytes() != y.TotalBytes()) {
    return false;
  }
  bool same = true;
  x.ForEach([&](const expbsi::BsiStoreKey& key, const std::string& bytes) {
    expbsi::Result<const std::string*> other = y.Get(key);
    if (!other.ok() || *other.value() != bytes) same = false;
  });
  return same;
}

uint64_t RawInputBytes(const expbsi::Dataset& dataset) {
  uint64_t rows = 0;
  for (const expbsi::SegmentData& seg : dataset.segments) {
    rows += seg.expose.size() + seg.metrics.size() + seg.dimensions.size();
  }
  return rows * expbsi::kWalEventBytes;
}

}  // namespace perfbench
