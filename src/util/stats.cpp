#include "util/stats.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "util/check.hpp"

namespace idr {

long peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;  // KiB on Linux
}

double Summary::sum() const noexcept {
  return std::accumulate(samples_.begin(), samples_.end(), 0.0);
}

double Summary::mean() const noexcept {
  if (samples_.empty()) return 0.0;
  return sum() / static_cast<double>(samples_.size());
}

double Summary::min() const noexcept {
  if (samples_.empty()) return 0.0;
  return *std::min_element(samples_.begin(), samples_.end());
}

double Summary::max() const noexcept {
  if (samples_.empty()) return 0.0;
  return *std::max_element(samples_.begin(), samples_.end());
}

double Summary::stddev() const noexcept {
  if (samples_.size() < 2) return 0.0;
  const double m = mean();
  double acc = 0.0;
  for (double x : samples_) acc += (x - m) * (x - m);
  return std::sqrt(acc / static_cast<double>(samples_.size() - 1));
}

double Summary::percentile(double p) const {
  IDR_CHECK(!samples_.empty());
  IDR_CHECK(p >= 0.0 && p <= 100.0);
  std::vector<double> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  if (p <= 0.0) return sorted.front();
  // Nearest-rank definition.
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  return sorted[std::min(rank, sorted.size()) - 1];
}

std::string Summary::brief() const {
  if (samples_.empty()) return "n=0";
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "n=%zu mean=%.3g sd=%.3g min=%.3g p50=%.3g p90=%.3g max=%.3g",
                count(), mean(), stddev(), min(), percentile(50),
                percentile(90), max());
  return buf;
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  IDR_CHECK(hi > lo);
  IDR_CHECK(bins > 0);
}

void Histogram::add(double x) {
  ++total_;
  if (x < lo_) {
    ++underflow_;
    return;
  }
  if (x >= hi_) {
    ++overflow_;
    return;
  }
  const double frac = (x - lo_) / (hi_ - lo_);
  auto idx = static_cast<std::size_t>(frac * static_cast<double>(counts_.size()));
  if (idx >= counts_.size()) idx = counts_.size() - 1;
  ++counts_[idx];
}

std::string Histogram::render(std::size_t width) const {
  std::size_t peak = 1;
  for (std::size_t c : counts_) peak = std::max(peak, c);
  std::string out;
  const double bin_width = (hi_ - lo_) / static_cast<double>(counts_.size());
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    char head[64];
    std::snprintf(head, sizeof head, "[%8.3g,%8.3g) %6zu ",
                  lo_ + bin_width * static_cast<double>(i),
                  lo_ + bin_width * static_cast<double>(i + 1), counts_[i]);
    out += head;
    const auto bar = static_cast<std::size_t>(
        static_cast<double>(counts_[i]) / static_cast<double>(peak) *
        static_cast<double>(width));
    out.append(bar, '#');
    out += '\n';
  }
  return out;
}

}  // namespace idr
