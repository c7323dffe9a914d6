// Label normalization methods compared in paper §5.4 / Table 3:
// Box-Cox (MLE-fitted lambda), Yeo-Johnson, Quantile-to-normal, and identity.
// All transforms fit on training labels and are invertible so errors are
// measured in the original latency space.
#ifndef SRC_ML_TRANSFORMS_H_
#define SRC_ML_TRANSFORMS_H_

#include <memory>
#include <string>
#include <vector>

namespace cdmpp {

enum class NormKind { kNone, kBoxCox, kYeoJohnson, kQuantile };

// All transforms standardize the post-transform labels and then shift them by
// this constant so the training space is (mostly) positive. This keeps the
// relative-error objectives of the loss ablation (paper Tables 4/5) well
// defined in transformed space; Inverse subtracts it before inverting.
constexpr double kLabelShift = 4.0;

const char* NormKindName(NormKind kind);

// Fitted, invertible 1-D label transform. After Fit, Transform maps labels to
// an approximately standard-normal space (each concrete transform also
// standardizes by the post-transform mean/std); Inverse undoes it exactly
// (up to floating point) for values in the fitted range.
class LabelTransform {
 public:
  virtual ~LabelTransform() = default;
  virtual void Fit(const std::vector<double>& y) = 0;
  virtual double Transform(double y) const = 0;
  virtual double Inverse(double t) const = 0;

  std::vector<double> TransformAll(const std::vector<double>& y) const;
};

// Factory for the four methods of Table 3.
std::unique_ptr<LabelTransform> MakeLabelTransform(NormKind kind);

// ---- Concrete transforms (exposed for unit tests) ---------------------------

// Box-Cox: t = (y^lambda - 1) / lambda (lambda != 0), log(y) otherwise;
// requires y > 0. Lambda is fitted by maximizing the profile log-likelihood
// with golden-section search over [-2, 2].
class BoxCoxTransform : public LabelTransform {
 public:
  void Fit(const std::vector<double>& y) override;
  double Transform(double y) const override;
  double Inverse(double t) const override;
  double lambda() const { return lambda_; }

 private:
  double lambda_ = 0.0;
  double mean_ = 0.0;
  double std_ = 1.0;
};

// Yeo-Johnson: Box-Cox extended to zero/negative values.
class YeoJohnsonTransform : public LabelTransform {
 public:
  void Fit(const std::vector<double>& y) override;
  double Transform(double y) const override;
  double Inverse(double t) const override;
  double lambda() const { return lambda_; }

 private:
  double lambda_ = 1.0;
  double mean_ = 0.0;
  double std_ = 1.0;
};

// Quantile transform to a standard normal via the empirical CDF (linear
// interpolation between stored quantiles) composed with probit.
class QuantileTransform : public LabelTransform {
 public:
  explicit QuantileTransform(int num_quantiles = 256) : num_quantiles_(num_quantiles) {}
  void Fit(const std::vector<double>& y) override;
  double Transform(double y) const override;
  double Inverse(double t) const override;

 private:
  int num_quantiles_;
  std::vector<double> quantiles_;
};

// Identity with standardization (mean/std), the "original Y" column.
class IdentityTransform : public LabelTransform {
 public:
  void Fit(const std::vector<double>& y) override;
  double Transform(double y) const override;
  double Inverse(double t) const override;

 private:
  double mean_ = 0.0;
  double std_ = 1.0;
};

// Inverse standard-normal CDF (Acklam's rational approximation), |err|<1e-8.
double InverseNormalCdf(double p);
// Standard-normal CDF.
double NormalCdf(double x);

}  // namespace cdmpp

#endif  // SRC_ML_TRANSFORMS_H_
