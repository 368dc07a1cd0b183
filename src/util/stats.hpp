// Small statistics helpers used by benchmarks and tests: running summary
// statistics, exact percentiles over collected samples, and the
// process's peak memory.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace idr {

// Peak resident set size of this process so far, in KiB
// (getrusage(RUSAGE_SELF).ru_maxrss: process-wide and monotone).
[[nodiscard]] long peak_rss_kb();

// Accumulates samples; computes summary statistics on demand.
class Summary {
 public:
  void add(double x) { samples_.push_back(x); }
  void add_count(double x, std::size_t n) {
    samples_.insert(samples_.end(), n, x);
  }

  [[nodiscard]] std::size_t count() const noexcept { return samples_.size(); }
  [[nodiscard]] bool empty() const noexcept { return samples_.empty(); }
  [[nodiscard]] double sum() const noexcept;
  [[nodiscard]] double mean() const noexcept;
  [[nodiscard]] double min() const noexcept;
  [[nodiscard]] double max() const noexcept;
  // Sample standard deviation (n-1 denominator); 0 for n < 2.
  [[nodiscard]] double stddev() const noexcept;
  // Exact percentile by nearest-rank on a sorted copy; p in [0, 100].
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] double median() const { return percentile(50.0); }

  // One-line human-readable rendering, e.g. "n=10 mean=3.2 p50=3 max=9".
  [[nodiscard]] std::string brief() const;

 private:
  std::vector<double> samples_;
};

// Fixed-width linear histogram for distribution shaped output.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  [[nodiscard]] std::size_t bin_count(std::size_t i) const {
    return counts_.at(i);
  }
  [[nodiscard]] std::size_t bins() const noexcept { return counts_.size(); }
  [[nodiscard]] std::size_t total() const noexcept { return total_; }
  [[nodiscard]] std::size_t underflow() const noexcept { return underflow_; }
  [[nodiscard]] std::size_t overflow() const noexcept { return overflow_; }
  // ASCII rendering, one bin per line.
  [[nodiscard]] std::string render(std::size_t width = 40) const;

 private:
  double lo_;
  double hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
  std::size_t underflow_ = 0;
  std::size_t overflow_ = 0;
};

}  // namespace idr
