#include "util/stats.h"

#include <cmath>

namespace ioc::util {

void OnlineStats::add(double x) {
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  if (x < min_) min_ = x;
  if (x > max_) max_ = x;
}

double OnlineStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

void WindowedMean::add(double x) {
  buf_.push_back(x);
  sum_ += x;
  if (buf_.size() > window_) {
    sum_ -= buf_.front();
    buf_.pop_front();
  }
}

double WindowedMean::mean() const {
  if (buf_.empty()) return 0.0;
  return sum_ / static_cast<double>(buf_.size());
}

void WindowedMean::reset() {
  buf_.clear();
  sum_ = 0.0;
}

PowerFit fit_power_law(const std::vector<double>& x,
                       const std::vector<double>& y) {
  PowerFit fit;
  const std::size_t n = x.size();
  if (n < 2 || y.size() != n) return fit;
  double sx = 0, sy = 0, sxx = 0, sxy = 0, syy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double lx = std::log(x[i]);
    const double ly = std::log(y[i]);
    sx += lx;
    sy += ly;
    sxx += lx * lx;
    sxy += lx * ly;
    syy += ly * ly;
  }
  const double dn = static_cast<double>(n);
  const double denom = dn * sxx - sx * sx;
  if (denom == 0.0) return fit;
  const double b = (dn * sxy - sx * sy) / denom;
  const double a = (sy - b * sx) / dn;
  fit.exponent = b;
  fit.scale = std::exp(a);
  const double ss_tot = syy - sy * sy / dn;
  double ss_res = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double pred = a + b * std::log(x[i]);
    const double res = std::log(y[i]) - pred;
    ss_res += res * res;
  }
  fit.r2 = ss_tot > 0 ? 1.0 - ss_res / ss_tot : 1.0;
  return fit;
}

}  // namespace ioc::util
