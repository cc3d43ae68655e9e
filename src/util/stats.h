// Online statistics used by monitoring and the benchmark harnesses.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "util/ring_deque.h"

namespace ioc::util {

/// Welford-style running mean/variance with min/max tracking.
class OnlineStats {
 public:
  void add(double x);
  std::size_t count() const { return n_; }
  double mean() const { return n_ > 0 ? mean_ : 0.0; }
  double variance() const;  ///< sample variance (n-1 denominator)
  double stddev() const;
  double min() const { return n_ > 0 ? min_ : 0.0; }
  double max() const { return n_ > 0 ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Mean over the most recent `window` samples; the bottleneck detector uses
/// this so old behaviour ages out after a management action. The window's
/// ring is sized on construction (add() holds one sample past the window
/// before it evicts), so adding never allocates.
class WindowedMean {
 public:
  explicit WindowedMean(std::size_t window) : window_(window) {
    buf_.reserve(window + 1);
  }
  void add(double x);
  double mean() const;
  std::size_t count() const { return buf_.size(); }
  bool full() const { return buf_.size() == window_; }
  void reset();

 private:
  std::size_t window_;
  RingDeque<double> buf_;
  double sum_ = 0.0;
};

/// Least-squares fit of log(y) = a + b*log(x); used by the Table-I bench to
/// recover empirical complexity exponents of the analytics kernels.
struct PowerFit {
  double exponent = 0.0;  ///< b: the fitted power
  double scale = 0.0;     ///< exp(a)
  double r2 = 0.0;        ///< goodness of fit
};
PowerFit fit_power_law(const std::vector<double>& x,
                       const std::vector<double>& y);

}  // namespace ioc::util
