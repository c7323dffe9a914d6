#include "src/ml/transforms.h"

#include <algorithm>
#include <cmath>

#include "src/support/check.h"
#include "src/support/stats.h"

namespace cdmpp {

const char* NormKindName(NormKind kind) {
  switch (kind) {
    case NormKind::kNone:
      return "original Y";
    case NormKind::kBoxCox:
      return "Box-Cox";
    case NormKind::kYeoJohnson:
      return "Yeo-Johnson";
    case NormKind::kQuantile:
      return "Quantile";
  }
  return "unknown";
}

std::vector<double> LabelTransform::TransformAll(const std::vector<double>& y) const {
  std::vector<double> out(y.size());
  for (size_t i = 0; i < y.size(); ++i) {
    out[i] = Transform(y[i]);
  }
  return out;
}

namespace {

// Golden-section maximization of `f` over [lo, hi].
template <typename F>
double GoldenSectionMax(F f, double lo, double hi, int iters = 60) {
  const double phi = (std::sqrt(5.0) - 1.0) / 2.0;
  double a = lo;
  double b = hi;
  double x1 = b - phi * (b - a);
  double x2 = a + phi * (b - a);
  double f1 = f(x1);
  double f2 = f(x2);
  for (int i = 0; i < iters; ++i) {
    if (f1 < f2) {
      a = x1;
      x1 = x2;
      f1 = f2;
      x2 = a + phi * (b - a);
      f2 = f(x2);
    } else {
      b = x2;
      x2 = x1;
      f2 = f1;
      x1 = b - phi * (b - a);
      f1 = f(x1);
    }
  }
  return (a + b) / 2.0;
}

double BoxCoxCore(double y, double lambda) {
  if (std::abs(lambda) < 1e-9) {
    return std::log(y);
  }
  return (std::pow(y, lambda) - 1.0) / lambda;
}

double BoxCoxCoreInverse(double t, double lambda) {
  if (std::abs(lambda) < 1e-9) {
    return std::exp(t);
  }
  double base = lambda * t + 1.0;
  // Clamp to the transform's valid range to stay finite for extrapolated
  // predictions.
  base = std::max(base, 1e-12);
  return std::pow(base, 1.0 / lambda);
}

// Profile log-likelihood of the Box-Cox parameter (Box & Cox 1964):
//   llf = -n/2 log(var(t)) + (lambda - 1) * sum(log y)
double BoxCoxLogLikelihood(const std::vector<double>& y, double lambda) {
  std::vector<double> t(y.size());
  double sum_log = 0.0;
  for (size_t i = 0; i < y.size(); ++i) {
    t[i] = BoxCoxCore(y[i], lambda);
    sum_log += std::log(y[i]);
  }
  double var = Stddev(t);
  var = var * var;
  if (var <= 0.0) {
    return -1e30;
  }
  double n = static_cast<double>(y.size());
  return -n / 2.0 * std::log(var) + (lambda - 1.0) * sum_log;
}

double YeoJohnsonCore(double y, double lambda) {
  if (y >= 0.0) {
    if (std::abs(lambda) < 1e-9) {
      return std::log1p(y);
    }
    return (std::pow(y + 1.0, lambda) - 1.0) / lambda;
  }
  double two_ml = 2.0 - lambda;
  if (std::abs(two_ml) < 1e-9) {
    return -std::log1p(-y);
  }
  return -(std::pow(1.0 - y, two_ml) - 1.0) / two_ml;
}

double YeoJohnsonCoreInverse(double t, double lambda) {
  if (t >= 0.0) {
    if (std::abs(lambda) < 1e-9) {
      return std::expm1(t);
    }
    double base = std::max(lambda * t + 1.0, 1e-12);
    return std::pow(base, 1.0 / lambda) - 1.0;
  }
  double two_ml = 2.0 - lambda;
  if (std::abs(two_ml) < 1e-9) {
    return -std::expm1(-t);
  }
  double base = std::max(1.0 - two_ml * t, 1e-12);
  return 1.0 - std::pow(base, 1.0 / two_ml);
}

double YeoJohnsonLogLikelihood(const std::vector<double>& y, double lambda) {
  std::vector<double> t(y.size());
  double jacobian = 0.0;
  for (size_t i = 0; i < y.size(); ++i) {
    t[i] = YeoJohnsonCore(y[i], lambda);
    jacobian += (lambda - 1.0) * std::copysign(1.0, y[i]) * std::log1p(std::abs(y[i]));
  }
  double var = Stddev(t);
  var = var * var;
  if (var <= 0.0) {
    return -1e30;
  }
  double n = static_cast<double>(y.size());
  return -n / 2.0 * std::log(var) + jacobian;
}

}  // namespace

// ---------------- BoxCox ----------------

void BoxCoxTransform::Fit(const std::vector<double>& y) {
  CDMPP_CHECK(!y.empty());
  for (double v : y) {
    CDMPP_CHECK_MSG(v > 0.0, "Box-Cox requires positive labels");
  }
  lambda_ = GoldenSectionMax([&](double l) { return BoxCoxLogLikelihood(y, l); }, -2.0, 2.0);
  std::vector<double> t(y.size());
  for (size_t i = 0; i < y.size(); ++i) {
    t[i] = BoxCoxCore(y[i], lambda_);
  }
  mean_ = Mean(t);
  std_ = std::max(1e-12, Stddev(t));
}

double BoxCoxTransform::Transform(double y) const {
  return (BoxCoxCore(std::max(y, 1e-12), lambda_) - mean_) / std_ + kLabelShift;
}

double BoxCoxTransform::Inverse(double t) const {
  return BoxCoxCoreInverse((t - kLabelShift) * std_ + mean_, lambda_);
}

// ---------------- YeoJohnson ----------------

void YeoJohnsonTransform::Fit(const std::vector<double>& y) {
  CDMPP_CHECK(!y.empty());
  lambda_ = GoldenSectionMax([&](double l) { return YeoJohnsonLogLikelihood(y, l); }, -2.0, 2.0);
  std::vector<double> t(y.size());
  for (size_t i = 0; i < y.size(); ++i) {
    t[i] = YeoJohnsonCore(y[i], lambda_);
  }
  mean_ = Mean(t);
  std_ = std::max(1e-12, Stddev(t));
}

double YeoJohnsonTransform::Transform(double y) const {
  return (YeoJohnsonCore(y, lambda_) - mean_) / std_ + kLabelShift;
}

double YeoJohnsonTransform::Inverse(double t) const {
  return YeoJohnsonCoreInverse((t - kLabelShift) * std_ + mean_, lambda_);
}

// ---------------- Quantile ----------------

double NormalCdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

double InverseNormalCdf(double p) {
  // Acklam's algorithm.
  CDMPP_CHECK(p > 0.0 && p < 1.0);
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  const double p_low = 0.02425;
  double q, r;
  if (p < p_low) {
    q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p <= 1.0 - p_low) {
    q = p - 0.5;
    r = q * q;
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q /
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  }
  q = std::sqrt(-2.0 * std::log(1.0 - p));
  return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
         ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
}

void QuantileTransform::Fit(const std::vector<double>& y) {
  CDMPP_CHECK(!y.empty());
  std::vector<double> sorted = y;
  std::sort(sorted.begin(), sorted.end());
  quantiles_.resize(static_cast<size_t>(num_quantiles_));
  for (int q = 0; q < num_quantiles_; ++q) {
    double pos = static_cast<double>(q) / (num_quantiles_ - 1) *
                 static_cast<double>(sorted.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, sorted.size() - 1);
    double frac = pos - static_cast<double>(lo);
    quantiles_[static_cast<size_t>(q)] = sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
  }
}

double QuantileTransform::Transform(double y) const {
  CDMPP_CHECK(!quantiles_.empty());
  // Empirical CDF via the quantile grid, clamped away from 0/1.
  auto it = std::lower_bound(quantiles_.begin(), quantiles_.end(), y);
  double p;
  if (it == quantiles_.begin()) {
    p = 0.0;
  } else if (it == quantiles_.end()) {
    p = 1.0;
  } else {
    size_t hi = static_cast<size_t>(it - quantiles_.begin());
    size_t lo = hi - 1;
    double denom = quantiles_[hi] - quantiles_[lo];
    double frac = denom > 0.0 ? (y - quantiles_[lo]) / denom : 0.0;
    p = (static_cast<double>(lo) + frac) / (num_quantiles_ - 1);
  }
  p = std::clamp(p, 1e-6, 1.0 - 1e-6);
  return InverseNormalCdf(p) + kLabelShift;
}

double QuantileTransform::Inverse(double t) const {
  CDMPP_CHECK(!quantiles_.empty());
  double p = std::clamp(NormalCdf(t - kLabelShift), 0.0, 1.0);
  double pos = p * (num_quantiles_ - 1);
  size_t lo = std::min(static_cast<size_t>(pos), quantiles_.size() - 1);
  size_t hi = std::min(lo + 1, quantiles_.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return quantiles_[lo] * (1.0 - frac) + quantiles_[hi] * frac;
}

// ---------------- Identity ----------------

void IdentityTransform::Fit(const std::vector<double>& y) {
  CDMPP_CHECK(!y.empty());
  mean_ = Mean(y);
  std_ = std::max(1e-12, Stddev(y));
}

double IdentityTransform::Transform(double y) const { return (y - mean_) / std_ + kLabelShift; }

double IdentityTransform::Inverse(double t) const { return (t - kLabelShift) * std_ + mean_; }

std::unique_ptr<LabelTransform> MakeLabelTransform(NormKind kind) {
  switch (kind) {
    case NormKind::kNone:
      return std::make_unique<IdentityTransform>();
    case NormKind::kBoxCox:
      return std::make_unique<BoxCoxTransform>();
    case NormKind::kYeoJohnson:
      return std::make_unique<YeoJohnsonTransform>();
    case NormKind::kQuantile:
      return std::make_unique<QuantileTransform>();
  }
  return nullptr;
}

}  // namespace cdmpp
