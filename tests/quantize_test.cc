// Quantization tests: round-trip error bounds of the per-row activation
// (adaptive code range, ActivationQMax) and per-output-channel int8 weight
// quantizers, packed-layout integrity, the analytic error bound of an
// int8-packed Linear's int8 forward vs its fp32 forward, batch-size
// invariance of the int8 path (per-row scales), and the Workspace i16
// arena's warm-path reuse.
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/nn/layers.h"
#include "src/nn/quantize.h"
#include "src/nn/transformer.h"
#include "src/nn/workspace.h"
#include "src/support/cpu_features.h"
#include "src/support/rng.h"

namespace cdmpp {
namespace {

using kernels::Activation;
using kernels::PackedQ8Weights;

Matrix RandomMatrix(int rows, int cols, Rng* rng, double scale = 1.0) {
  Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng->Normal(0.0, scale));
  }
  return m;
}

// The int8 forward of a packed Linear.
Matrix* Int8Forward(const Linear& linear, const Matrix& x, Workspace* ws,
                    Activation act = Activation::kNone) {
  return linear.ForwardInference(x, ws, act, Precision::kInt8);
}

TEST(QuantizeActivationsTest, RoundTripErrorIsBoundedByHalfScale) {
  Rng rng(41);
  const int rows = 7, k = 37;
  Matrix x = RandomMatrix(rows, k, &rng, 3.0);
  const int k2 = (k + 1) / 2;
  std::vector<int16_t> q(static_cast<size_t>(rows) * 2 * k2, -1);
  std::vector<float> scales(rows, 0.0f);
  QuantizeActivationsPerRow(rows, k, x.data(), k, q.data(), 2 * k2, scales.data());
  const int qmax = ActivationQMax(k);
  EXPECT_EQ(qmax, 4095);  // every predictor-sized reduction gets 12-bit codes
  for (int i = 0; i < rows; ++i) {
    ASSERT_GT(scales[static_cast<size_t>(i)], 0.0f);
    for (int p = 0; p < k; ++p) {
      const int16_t qv = q[static_cast<size_t>(i) * 2 * k2 + p];
      EXPECT_GE(qv, -qmax);
      EXPECT_LE(qv, qmax);
      // Round-to-nearest: |q*scale - x| <= scale/2 (+ tiny fp slack).
      const double err = std::abs(static_cast<double>(qv) * scales[static_cast<size_t>(i)] -
                                  x.At(i, p));
      EXPECT_LE(err, 0.5 * scales[static_cast<size_t>(i)] * (1.0 + 1e-5))
          << "row " << i << " col " << p;
    }
    // The odd-k pad lane must be zero (exact zero contribution).
    EXPECT_EQ(q[static_cast<size_t>(i) * 2 * k2 + k], 0);
  }
}

TEST(QuantizeActivationsTest, ZeroRowGetsUnitScaleAndZeroCodes) {
  const int k = 6;
  std::vector<float> x(k, 0.0f);
  std::vector<int16_t> q(k, -1);
  float scale = 0.0f;
  QuantizeActivationsPerRow(1, k, x.data(), k, q.data(), k, &scale);
  EXPECT_EQ(scale, 1.0f);
  for (int p = 0; p < k; ++p) {
    EXPECT_EQ(q[static_cast<size_t>(p)], 0);
  }
}

TEST(QuantizePackWeightsTest, PerChannelScalesAndPackedLayoutRoundTrip) {
  Rng rng(42);
  const int k = 13, n = 9;  // odd k: exercises the pad pair
  Matrix w = RandomMatrix(k, n, &rng);
  PackedQ8Weights packed;
  QuantizePackWeights(k, n, w.data(), n, &packed);
  EXPECT_EQ(packed.k, k);
  EXPECT_EQ(packed.n, n);
  EXPECT_EQ(packed.k2, (k + 1) / 2);
  for (int j = 0; j < n; ++j) {
    float absmax = 0.0f;
    for (int p = 0; p < k; ++p) {
      absmax = std::max(absmax, std::abs(w.At(p, j)));
    }
    EXPECT_NEAR(packed.scales[static_cast<size_t>(j)], absmax / 127.0f, 1e-6f);
    int16_t qmax = 0;
    for (int p = 0; p < k; ++p) {
      const int16_t qv = packed.At(p, j);
      EXPECT_GE(qv, -127);
      EXPECT_LE(qv, 127);
      qmax = std::max<int16_t>(qmax, static_cast<int16_t>(std::abs(qv)));
      const double err = std::abs(static_cast<double>(qv) * packed.scales[static_cast<size_t>(j)] -
                                  w.At(p, j));
      EXPECT_LE(err, 0.5 * packed.scales[static_cast<size_t>(j)] * (1.0 + 1e-5));
    }
    // The channel absmax must map to (+-)127: the full int8 range is used.
    EXPECT_EQ(qmax, 127);
    // Odd-k pad row is zero.
    EXPECT_EQ(packed.At(k, j), 0);
  }
}

// |y_q - y| for one output element is bounded by the propagated per-element
// quantization errors: sum_p |w| * ex + sum_p |x| * ew + k * ex * ew with
// ex = a_scale/2 (a_scale = rowabsmax / ActivationQMax(k)), ew = w_scale_j/2.
// The int8 forward must sit inside the analytic bound on every element —
// this is the round-trip error contract of the whole layer, not a tuned
// tolerance.
TEST(Int8LinearTest, OutputErrorStaysWithinAnalyticBound) {
  Rng rng(43);
  const int m = 11, k = 38, n = 17;
  Linear linear(k, n, &rng);
  Matrix x = RandomMatrix(m, k, &rng, 2.0);

  Workspace ws;
  const Matrix& y_fp32 = *linear.ForwardInference(x, &ws);
  linear.PackInt8({});
  Matrix* y_q = Int8Forward(linear, x, &ws);
  ASSERT_EQ(y_q->rows(), m);
  ASSERT_EQ(y_q->cols(), n);
  // Precision is the call's: an fp32 call on a packed Linear is the plain
  // fp32 forward, bit for bit.
  const Matrix& y_fp32_packed = *linear.ForwardInference(x, &ws);
  for (size_t i = 0; i < y_fp32.size(); ++i) {
    ASSERT_EQ(y_fp32.data()[i], y_fp32_packed.data()[i]) << "element " << i;
  }

  // Recover the per-row activation scales the layer used.
  const float qmax = static_cast<float>(ActivationQMax(k));
  std::vector<float> a_scales(m, 0.0f);
  for (int i = 0; i < m; ++i) {
    float absmax = 0.0f;
    for (int p = 0; p < k; ++p) {
      absmax = std::max(absmax, std::abs(x.At(i, p)));
    }
    a_scales[static_cast<size_t>(i)] = absmax > 0.0f ? absmax / qmax : 1.0f;
  }
  const PackedQ8Weights& packed = linear.int8_pack()->weights;
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      const double ex = 0.5 * a_scales[static_cast<size_t>(i)];
      const double ew = 0.5 * packed.scales[static_cast<size_t>(j)];
      double bound = 0.0;
      for (int p = 0; p < k; ++p) {
        bound += std::abs(linear.weight().At(p, j)) * ex + std::abs(x.At(i, p)) * ew;
      }
      bound += k * ex * ew;
      bound = bound * (1.0 + 1e-4) + 1e-5;  // fp accumulation slack
      EXPECT_LE(std::abs(static_cast<double>(y_q->At(i, j)) - y_fp32.At(i, j)), bound)
          << "element (" << i << ", " << j << ")";
    }
  }
}

TEST(Int8LinearTest, FusedReluMatchesSeparateRelu) {
  Rng rng(44);
  Linear linear(24, 16, &rng);
  Matrix x = RandomMatrix(5, 24, &rng);
  linear.PackInt8({});
  Workspace ws1, ws2;
  Matrix* fused = Int8Forward(linear, x, &ws1, Activation::kRelu);
  Matrix* plain = Int8Forward(linear, x, &ws2, Activation::kNone);
  for (int i = 0; i < fused->rows(); ++i) {
    for (int j = 0; j < fused->cols(); ++j) {
      EXPECT_EQ(fused->At(i, j), std::max(0.0f, plain->At(i, j)));
    }
  }
}

// Per-ROW activation scales make the int8 path batch-size-invariant: a
// row's quantized representation (and so its output) depends only on that
// row. This is the property that lets the int8 serving path keep the
// PredictBatched == PredictAst bitwise contract.
TEST(Int8LinearTest, RowResultsAreBatchSizeInvariantBitwise) {
  Rng rng(45);
  const int m = 33, k = 20, n = 31;
  Linear linear(k, n, &rng);
  Matrix x = RandomMatrix(m, k, &rng);
  linear.PackInt8({});
  for (KernelIsa isa : {KernelIsa::kScalar, KernelIsa::kAvx2}) {
    const KernelIsa prev = ActiveKernelIsa();
    if (!SetKernelIsa(isa)) {
      continue;
    }
    Workspace ws;
    Matrix* full = Int8Forward(linear, x, &ws);
    for (int i = 0; i < m; ++i) {
      Matrix row(1, k);
      for (int p = 0; p < k; ++p) {
        row.At(0, p) = x.At(i, p);
      }
      Workspace ws_row;
      Matrix* alone = Int8Forward(linear, row, &ws_row);
      for (int j = 0; j < n; ++j) {
        ASSERT_EQ(full->At(i, j), alone->At(0, j))
            << "isa=" << KernelIsaName(isa) << " row " << i << " col " << j;
      }
    }
    SetKernelIsa(prev);
  }
}

TEST(Int8MlpTest, TracksFp32MlpClosely) {
  Rng rng(46);
  Mlp mlp({30, 24, 16, 1}, &rng);
  Matrix x = RandomMatrix(9, 30, &rng);
  Workspace ws;
  const Matrix& y_fp32 = *mlp.ForwardInference(x, &ws);
  ASSERT_EQ(mlp.num_linear_layers(), 3u);
  for (size_t i = 0; i < mlp.num_linear_layers(); ++i) {
    mlp.linear_layer(i).PackInt8({});
  }
  Matrix* y_q = mlp.ForwardInference(x, &ws, Precision::kInt8);
  // Stacked quantization noise across three layers on random (untrained,
  // Xavier-scale) weights: int8 weight rounding dominates (the 12-bit
  // activation codes contribute ~nothing) and measures well under 2% of the
  // output range; 2% gives seed-independence headroom without masking real
  // breakage.
  double absmax = 1e-12;
  for (size_t i = 0; i < y_fp32.size(); ++i) {
    absmax = std::max(absmax, std::abs(static_cast<double>(y_fp32.data()[i])));
  }
  for (size_t i = 0; i < y_fp32.size(); ++i) {
    EXPECT_LE(std::abs(static_cast<double>(y_q->data()[i]) - y_fp32.data()[i]),
              0.02 * absmax)
        << "element " << i;
  }
}

// An int8 call through layers holding no packs is the fp32 forward bit for
// bit: which GEMMs run int8 is decided by the packs alone.
TEST(Int8EncoderTest, Int8CallWithoutPacksIsFp32Bitwise) {
  Rng rng(54);
  TransformerEncoder enc(/*d_model=*/16, /*num_heads=*/2, /*d_ff=*/32, /*num_layers=*/2, &rng);
  Matrix x = RandomMatrix(3 * 5, 16, &rng);  // 3 samples x seq_len 5
  Workspace ws_fp32, ws_int8;
  const Matrix* fp32 = enc.ForwardInference(x, 5, &ws_fp32);
  const Matrix* int8 = enc.ForwardInference(x, 5, &ws_int8, Precision::kInt8);
  ASSERT_EQ(fp32->size(), int8->size());
  for (size_t i = 0; i < fp32->size(); ++i) {
    ASSERT_EQ(fp32->data()[i], int8->data()[i]) << "element " << i;
  }
}

// ---- Per-channel (column) activation-scale epilogue ------------------------

TEST(QuantizeActivationsScaledTest, UnitColumnScalesReproducePlainPathBitwise) {
  Rng rng(47);
  const int rows = 6, k = 21;
  Matrix x = RandomMatrix(rows, k, &rng, 2.0);
  const int k2 = (k + 1) / 2;
  const std::vector<float> unit(static_cast<size_t>(k), 1.0f);
  std::vector<int16_t> q_plain(static_cast<size_t>(rows) * 2 * k2, -1);
  std::vector<int16_t> q_scaled(static_cast<size_t>(rows) * 2 * k2, -2);
  std::vector<float> s_plain(rows, 0.0f), s_scaled(rows, 0.0f);
  QuantizeActivationsPerRow(rows, k, x.data(), k, q_plain.data(), 2 * k2, s_plain.data());
  QuantizeActivationsPerRowScaled(rows, k, x.data(), k, unit.data(), q_scaled.data(), 2 * k2,
                                  s_scaled.data());
  // x * 1.0f is exact, so the scaled path with unit scales IS the plain path.
  EXPECT_EQ(q_plain, q_scaled);
  EXPECT_EQ(s_plain, s_scaled);
}

// The per-channel analytic round-trip bound: the scaled value x_p / c_p obeys
// the usual half-scale bound, so back in the original domain each channel's
// error is bounded by scale * c_p / 2 — heterogeneous channels get
// proportionally finer treatment, which is the whole point of the variant.
TEST(QuantizeActivationsScaledTest, RoundTripErrorBoundedPerChannel) {
  Rng rng(48);
  const int rows = 5, k = 33;
  Matrix x = RandomMatrix(rows, k, &rng, 2.0);
  std::vector<float> col(static_cast<size_t>(k));
  std::vector<float> inv_col(static_cast<size_t>(k));
  for (int p = 0; p < k; ++p) {
    // Two decades of channel-magnitude disparity, the post-LayerNorm regime.
    col[static_cast<size_t>(p)] = static_cast<float>(0.1 + 10.0 * rng.Uniform(0.0, 1.0));
    inv_col[static_cast<size_t>(p)] = 1.0f / col[static_cast<size_t>(p)];
    for (int i = 0; i < rows; ++i) {
      x.At(i, p) *= col[static_cast<size_t>(p)];
    }
  }
  const int k2 = (k + 1) / 2;
  std::vector<int16_t> q(static_cast<size_t>(rows) * 2 * k2, -1);
  std::vector<float> scales(rows, 0.0f);
  QuantizeActivationsPerRowScaled(rows, k, x.data(), k, inv_col.data(), q.data(), 2 * k2,
                                  scales.data());
  for (int i = 0; i < rows; ++i) {
    ASSERT_GT(scales[static_cast<size_t>(i)], 0.0f);
    for (int p = 0; p < k; ++p) {
      const int16_t qv = q[static_cast<size_t>(i) * 2 * k2 + p];
      // Dequantization recovers x via q * scale * c_p; per-channel bound.
      const double recon = static_cast<double>(qv) * scales[static_cast<size_t>(i)] *
                           col[static_cast<size_t>(p)];
      const double bound =
          0.5 * scales[static_cast<size_t>(i)] * col[static_cast<size_t>(p)];
      EXPECT_LE(std::abs(recon - x.At(i, p)), bound * (1.0 + 1e-4) + 1e-7)
          << "row " << i << " col " << p;
    }
  }
}

TEST(Int8LinearTest, UnitColumnScalesMatchPlainPackBitwise) {
  Rng rng(49);
  const int m = 7, k = 19, n = 13;
  Linear linear(k, n, &rng);
  Matrix x = RandomMatrix(m, k, &rng);
  Workspace ws;
  linear.PackInt8({});
  EXPECT_TRUE(linear.int8_pack()->inv_col_scales.empty());
  const Matrix* y_plain = Int8Forward(linear, x, &ws);
  linear.PackInt8(std::vector<float>(static_cast<size_t>(k), 1.0f));
  EXPECT_EQ(linear.int8_pack()->inv_col_scales.size(), static_cast<size_t>(k));
  const Matrix* y_scaled = Int8Forward(linear, x, &ws);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      EXPECT_EQ(y_plain->At(i, j), y_scaled->At(i, j)) << "(" << i << ", " << j << ")";
    }
  }
}

// The per-channel variant obeys the same analytic error form as the plain
// path, just in the scaled domain: activations x' = x / c, weights w' = w * c
// (both as the fp32 products the layer actually rounded), so
// |y_q - sum x'w'| <= sum_p |w'| ex + sum_p |x'| ew + k ex ew.
TEST(Int8LinearTest, PerChannelEpilogueStaysWithinAnalyticBound) {
  Rng rng(50);
  const int m = 9, k = 26, n = 15;
  Linear linear(k, n, &rng);
  Matrix x = RandomMatrix(m, k, &rng, 2.0);
  std::vector<float> col(static_cast<size_t>(k));
  for (int p = 0; p < k; ++p) {
    col[static_cast<size_t>(p)] = static_cast<float>(0.25 + 4.0 * rng.Uniform(0.0, 1.0));
  }
  linear.PackInt8(col);
  Workspace ws;
  Matrix* y_q = Int8Forward(linear, x, &ws);

  const float qmax = static_cast<float>(ActivationQMax(k));
  const std::vector<float>& inv_col = linear.int8_pack()->inv_col_scales;
  ASSERT_EQ(inv_col.size(), static_cast<size_t>(k));
  const PackedQ8Weights& packed = linear.int8_pack()->weights;
  for (int i = 0; i < m; ++i) {
    // The scaled-domain activations and per-row scale the layer derived.
    std::vector<float> xs(static_cast<size_t>(k));
    float absmax = 0.0f;
    for (int p = 0; p < k; ++p) {
      xs[static_cast<size_t>(p)] = x.At(i, p) * inv_col[static_cast<size_t>(p)];
      absmax = std::max(absmax, std::abs(xs[static_cast<size_t>(p)]));
    }
    const float a_scale = absmax > 0.0f ? absmax / qmax : 1.0f;
    for (int j = 0; j < n; ++j) {
      // Scaled-domain fp32 reference (the exact float operands the layer
      // quantized) and the propagated-error bound over them.
      double ref = linear.bias().data()[j];
      double bound = 0.0;
      const double ex = 0.5 * a_scale;
      const double ew = 0.5 * packed.scales[static_cast<size_t>(j)];
      for (int p = 0; p < k; ++p) {
        const double wp = static_cast<double>(linear.weight().At(p, j)) *
                          (1.0 / inv_col[static_cast<size_t>(p)]);
        ref += static_cast<double>(xs[static_cast<size_t>(p)]) * wp;
        bound += std::abs(wp) * ex + std::abs(xs[static_cast<size_t>(p)]) * ew;
      }
      bound += k * ex * ew;
      bound = bound * (1.0 + 1e-4) + 1e-5;
      EXPECT_LE(std::abs(static_cast<double>(y_q->At(i, j)) - ref), bound)
          << "element (" << i << ", " << j << ")";
    }
  }
}

// ---- Shared quantization across consumers (the attention Q/K/V pattern) ----

TEST(BalancedColumnScalesTest, SingleWeightDelegatesToMultiConsumer) {
  Rng rng(51);
  const int k = 12, n = 10;
  Linear linear(k, n, &rng);
  std::vector<float> est(static_cast<size_t>(k));
  for (int p = 0; p < k; ++p) {
    est[static_cast<size_t>(p)] = static_cast<float>(0.1 + rng.Uniform(0.0, 1.0));
  }
  const std::vector<float> single = BalancedColumnScales(est, linear.weight());
  const std::vector<float> multi = BalancedColumnScales(est, {&linear.weight()});
  EXPECT_EQ(single, multi);
}

TEST(Int8LinearTest, SharedInputQuantizationFeedsEveryConsumer) {
  Rng rng(52);
  const int m = 8, k = 24, n = 24;
  Linear wq(k, n, &rng), wk(k, n, &rng), wv(k, n, &rng);
  Matrix x = RandomMatrix(m, k, &rng);
  std::vector<float> est(static_cast<size_t>(k));
  for (int p = 0; p < k; ++p) {
    est[static_cast<size_t>(p)] = static_cast<float>(0.2 + 2.0 * rng.Uniform(0.0, 1.0));
  }
  // ONE scale vector balanced against all three consumers, folded into each.
  const std::vector<float> shared =
      BalancedColumnScales(est, {&wq.weight(), &wk.weight(), &wv.weight()});
  for (Linear* w : {&wq, &wk, &wv}) {
    w->PackInt8(shared);
  }
  ASSERT_TRUE(wq.SharesInt8Input(wk));
  ASSERT_TRUE(wq.SharesInt8Input(wv));

  // Quantize x once (rows [2, m), as a shard would); feed the same codes to
  // all three GEMMs.
  const int r0 = 2;
  Workspace ws_codes;
  const Linear::QuantizedRows xq = wq.QuantizeRows(x, r0, m, &ws_codes);
  for (const Linear* w : {&wq, &wk, &wv}) {
    Workspace ws_direct;
    Matrix pre(m, n);
    w->ForwardQuantizedRowsInto(xq, r0, m, Activation::kNone, &pre);
    Matrix* direct = Int8Forward(*w, x, &ws_direct);
    for (int i = r0; i < m; ++i) {
      for (int j = 0; j < n; ++j) {
        // The int8 forward is exactly QuantizeRows + ForwardQuantizedRowsInto.
        ASSERT_EQ(pre.At(i, j), direct->At(i, j)) << "(" << i << ", " << j << ")";
      }
    }
  }

  // Different column scales (or none) quantize differently: no sharing.
  wv.PackInt8({});
  EXPECT_FALSE(wq.SharesInt8Input(wv));
  wv.DropInt8();
  EXPECT_FALSE(wq.SharesInt8Input(wv));
}

// ---- ISA dispatch of the quantize pass -------------------------------------

// The vectorized (AVX2) quantizer must be BITWISE identical to the scalar
// body — plain and per-channel, across vector-width tails and round-to-
// nearest-even ties. This is what lets the quantize pass dispatch per ISA
// without splitting the int8 tier's cross-ISA bitwise contract.
TEST(QuantizeIsaTest, VectorizedQuantizerBitwiseMatchesScalar) {
  const KernelIsa prev = ActiveKernelIsa();
  if (!SetKernelIsa(KernelIsa::kAvx2)) {
    GTEST_SKIP() << "AVX2 unavailable on this host/build";
  }
  SetKernelIsa(prev);
  Rng rng(53);
  for (int k : {1, 7, 8, 9, 16, 23, 64, 100}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    const int rows = 5;
    Matrix x = RandomMatrix(rows, k, &rng, 3.0);
    // Row 0 is a tie-stress row: absmax equal to the code range makes the
    // per-row scale exactly 1, so integer-and-a-half values hit exact
    // round-to-nearest-even ties in both implementations.
    const float qmax = static_cast<float>(ActivationQMax(k));
    for (int p = 0; p < k; ++p) {
      x.At(0, p) = (p % 2 == 0 ? 1.0f : -1.0f) * (static_cast<float>(p % 7) + 0.5f);
    }
    x.At(0, 0) = qmax;
    std::vector<float> inv_col(static_cast<size_t>(k));
    for (int p = 0; p < k; ++p) {
      inv_col[static_cast<size_t>(p)] = static_cast<float>(0.25 + 2.0 * rng.Uniform(0.0, 1.0));
    }
    const int k2 = (k + 1) / 2;
    const int ldq = 2 * k2;
    for (bool scaled : {false, true}) {
      SCOPED_TRACE(scaled ? "per-channel" : "plain");
      std::vector<int16_t> q_scalar(static_cast<size_t>(rows) * ldq, -1);
      std::vector<int16_t> q_avx2(static_cast<size_t>(rows) * ldq, -2);
      std::vector<float> s_scalar(rows, -1.0f), s_avx2(rows, -2.0f);
      auto run = [&](std::vector<int16_t>* q, std::vector<float>* s) {
        if (scaled) {
          QuantizeActivationsPerRowScaled(rows, k, x.data(), k, inv_col.data(), q->data(),
                                          ldq, s->data());
        } else {
          QuantizeActivationsPerRow(rows, k, x.data(), k, q->data(), ldq, s->data());
        }
      };
      ASSERT_TRUE(SetKernelIsa(KernelIsa::kScalar));
      run(&q_scalar, &s_scalar);
      ASSERT_TRUE(SetKernelIsa(KernelIsa::kAvx2));
      run(&q_avx2, &s_avx2);
      SetKernelIsa(prev);
      EXPECT_EQ(q_scalar, q_avx2);
      EXPECT_EQ(s_scalar, s_avx2);
    }
  }
}

// ---- i32-overflow headroom across the widened (encoder) shape range --------

// Runtime mirror of the static_asserts in quantize.h: every reduction length
// the data plane can see — and far beyond — keeps k * qmax * 127 inside the
// i32 accumulator, with the code range shrinking gradually once k demands it.
TEST(ActivationQMaxTest, HeadroomHoldsAcrossEncoderShapesAndBeyond) {
  const int64_t cap = (static_cast<int64_t>(1) << 31) - 1;
  // Encoder-era reduction lengths all get the full 12-bit code range:
  // features (38), d_model (64), d_ff (128), head inputs up to 4096.
  for (int k : {1, 38, 64, 128, 256, 4096}) {
    EXPECT_EQ(ActivationQMax(k), 4095) << "k=" << k;
  }
  int prev_qmax = ActivationQMax(1);
  for (int k : {1, 38, 64, 128, 4096, 4131, 4132, 8192, 1 << 16, 1 << 20, 1 << 24}) {
    const int qmax = ActivationQMax(k);
    EXPECT_GE(qmax, 1) << "k=" << k;
    EXPECT_LE(qmax, 4095) << "k=" << k;
    EXPECT_LE(qmax, prev_qmax) << "code range must shrink monotonically, k=" << k;
    EXPECT_LE(static_cast<int64_t>(k) * qmax * 127, cap) << "k=" << k;
    prev_qmax = qmax;
  }
  // The shrink engages exactly where the bound demands, without a cliff.
  EXPECT_LT(ActivationQMax(8192), 4095);
  EXPECT_GE(ActivationQMax(8192), 2048);
}

TEST(WorkspaceTest, I16ArenaReusesBuffersAcrossReset) {
  Workspace ws;
  int16_t* a = ws.NewI16(256);
  ASSERT_NE(a, nullptr);
  const size_t pooled_after_first = ws.pooled_i16();
  EXPECT_GE(pooled_after_first, 256u);
  ws.Reset();
  // Same slot, same backing allocation: warm path allocates nothing.
  int16_t* b = ws.NewI16(128);
  EXPECT_EQ(a, b);
  EXPECT_EQ(ws.pooled_i16(), pooled_after_first);
  // A second live buffer in the same pass gets its own slot.
  int16_t* c = ws.NewI16(64);
  EXPECT_NE(b, c);
}

}  // namespace
}  // namespace cdmpp
