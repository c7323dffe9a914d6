// Int8 symmetric quantization for the inference data plane.
//
// Scheme (the serving tier behind CDMPP_PRECISION=int8):
//   * Weights: int8, quantized once at calibration time, one scale per
//     OUTPUT CHANNEL (column of W): scale_j = colabsmax_j / 127, values
//     round-to-nearest into [-127, 127] and packed into the kernel layer's
//     pair-interleaved PackedQ8Weights layout (src/nn/kernels.h).
//   * Activations: quantized dynamically at every layer, one scale per ROW
//     (per sample): scale_i = rowabsmax_i / ActivationQMax(k). Per-row — not
//     per-batch — scales are deliberate: a row's quantized representation
//     depends only on that row, so the quantized path keeps the serving
//     layer's bitwise batch-size-invariance contract
//     (PredictBatchedQuantized of one request == the same request inside any
//     batch) that a whole-tensor scale would break, and each sample gets its
//     own dynamic range for free. The code range is NOT capped at 127: the
//     madd kernels stage activations in 16-bit lanes either way, so
//     activation codes use that headroom (12 bits on every predictor shape,
//     bounded so the i32 accumulator provably cannot overflow) — measurably
//     tighter accuracy at identical kernel speed and memory traffic.
//   * Accumulation: exact int32; the fused dequantize+bias+ReLU epilogue
//     rounds multiply and add separately, so quantized layer outputs are
//     bitwise identical across kernel ISAs (stronger than the fp32 tier's
//     ~1e-6 cross-ISA agreement).
//
// Accuracy contract: |q*scale - x| <= scale/2 per element (round-to-nearest,
// pinned by tests/quantize_test.cc); end-to-end the int8 predictor agrees
// with fp32 to <= 1% relative on the 1-layer serving fixture
// (tests/serve_test.cc). Deeper encoders measure wider (README "Int8
// quantized serving").
//
// This file holds the scheme's free functions. The layer side is Linear's
// int8 pack (src/nn/layers.h): Linear::PackInt8 quantizes a Linear's weights
// with these functions, and a kInt8 forward through a packed Linear runs
// them on its input rows. Which Linears get packs, and with which column
// scales, is CdmppPredictor::PrepareQuantizedInference's policy (README
// "Int8 quantized serving").
#ifndef SRC_NN_QUANTIZE_H_
#define SRC_NN_QUANTIZE_H_

#include <cstdint>
#include <vector>

#include "src/nn/kernels.h"
#include "src/nn/layers.h"
#include "src/nn/matrix.h"

namespace cdmpp {

// Quantizes + packs a fp32 weight matrix W [k, n] (row-major, ld >= n)
// symmetric per output channel into the kernel layer's packed layout.
void QuantizePackWeights(int k, int n, const float* w, int ldw, kernels::PackedQ8Weights* out);

// Activation code magnitude for a reduction of length k: the full headroom
// the 16-bit madd lanes give for free, bounded so the i32 accumulation
// provably cannot overflow (k * qmax * 127 <= 2^31 - 1) and capped at 12
// bits. Every predictor shape — d_model 64, d_ff 128, and head inputs up to
// leaf_count * d_model = 4096 — gets the full 4095; code bits shrink above
// that exactly as fast as k demands. This is why activations are quantized
// finer than the int8 weights at identical kernel speed and memory traffic —
// the i16 lane is paid for either way. constexpr so the overflow-headroom
// analysis is checked at compile time (static_asserts below).
constexpr int ActivationQMax(int k) {
  const int64_t cap = (static_cast<int64_t>(1) << 31) - 1;
  const int64_t kk = k > 1 ? k : 1;  // floor of 1 keeps the formula total
  const int64_t a = cap / (127 * kk);
  return static_cast<int>(a < 1 ? 1 : (a > 4095 ? 4095 : a));
}

// Compile-time i32-overflow headroom proof across the encoder's reduction
// sizes and beyond. A reduction of length k accumulates k products bounded by
// qmax * 127; the static check is that this magnitude never exceeds the i32
// accumulator for any shape the data plane runs — and that the code range
// actually shrinks (instead of overflowing) once k is large enough to demand
// it.
namespace quantize_headroom_detail {
constexpr bool Fits(int k) {
  return static_cast<int64_t>(k) * ActivationQMax(k) * 127 <=
         (static_cast<int64_t>(1) << 31) - 1;
}
static_assert(ActivationQMax(38) == 4095, "feature dim gets full 12-bit codes");
static_assert(ActivationQMax(64) == 4095, "d_model gets full 12-bit codes");
static_assert(ActivationQMax(128) == 4095, "d_ff gets full 12-bit codes");
static_assert(ActivationQMax(4096) == 4095,
              "largest head input (leaf_count * d_model) still gets full codes");
static_assert(ActivationQMax(8192) < 4095,
              "code bits must shrink once k demands it, not overflow");
static_assert(ActivationQMax(8192) >= 2048, "shrink is gradual, not a cliff");
static_assert(Fits(1) && Fits(38) && Fits(64) && Fits(128) && Fits(4096) &&
                  Fits(4131) && Fits(4132) && Fits(8192) && Fits(1 << 20),
              "k * ActivationQMax(k) * 127 must never exceed the i32 accumulator");
// Past k = (2^31 - 1) / 127 (~16.9M) even 1-bit codes would overflow; the
// qmax floor of 1 keeps the formula total but such k is unreachable (the
// largest data-plane reduction is leaf_count * d_model, and Fits holds with
// two decimal orders of magnitude to spare at k = 2^20).
static_assert(ActivationQMax((1 << 24)) == 1,
              "far past every data-plane shape the floor engages");
}  // namespace quantize_headroom_detail

// Dynamic per-row symmetric activation quantization: for each of `rows` rows
// of x (ldx elements apart), writes 2*k2 i16 lanes (ldq >= 2*k2 apart, the
// [k, 2*k2) pad zeroed) and the row's dequantization scale into scales[i].
// Zero rows get scale 1 (all-zero quantized values). k2 = ceil(k / 2).
void QuantizeActivationsPerRow(int rows, int k, const float* x, int ldx, int16_t* q, int ldq,
                               float* scales);

// Per-channel (column) activation-scale variant: quantizes x'[i, p] =
// x[i, p] * inv_col_scales[p] under the usual dynamic per-row scale. Paired
// with weights that had the matching col_scales folded into their rows at
// calibration time (w'[p, j] = w[p, j] * c_p — Linear::PackInt8 with column
// scales), the integer GEMM and the per-(row, column) dequant epilogue
// are unchanged in form:
//   a_i * s_j * sum_p q(x_ip / c_p) q(w_pj c_p)  ~=  sum_p x_ip w_pj,
// so every bitwise contract of the plain path carries over verbatim: per-row
// scales keep batch-size invariance, row-disjoint writes keep thread-count
// invariance, and the pinned mul+add epilogue keeps cross-ISA identity.
// What changes is the error: dividing out static per-channel magnitudes
// homogenizes heterogeneous feature blocks (post-LayerNorm activations where
// one hot gamma channel would otherwise set the whole row's scale), so the
// remaining channels quantize measurably finer. Unit scales reproduce the
// plain path bitwise (x * 1.0f is exact).
void QuantizeActivationsPerRowScaled(int rows, int k, const float* x, int ldx,
                                     const float* inv_col_scales, int16_t* q, int ldq,
                                     float* scales);

// Data-free per-input-channel activation |absmax| estimate for a GEMM fed by
// the output of `ln`: a post-LayerNorm activation is gamma_p * z + beta_p
// with z normalized per row, so |gamma_p| + |beta_p| tracks each channel's
// magnitude without any calibration data (the serving layer quantizes at
// service construction, where none exists).
std::vector<float> LayerNormActAbsMax(const LayerNorm& ln);

// SmoothQuant-style balanced column scales for the per-channel activation
// path: c_p = sqrt(act_absmax_p / wrow_absmax_p) (alpha = 1/2) migrates half
// of each channel's dynamic-range disparity from the activations into the
// weight rows, where per-output-channel weight scales absorb it. Degenerate
// channels (dead activations or zero weight rows) are floored to 1e-3 of the
// dominant channel so no scale explodes; an all-degenerate input yields unit
// scales. `weight` is the fp32 [k, n] Linear weight the scales will be folded
// into.
std::vector<float> BalancedColumnScales(const std::vector<float>& act_absmax,
                                        const Matrix& weight);

// Multi-consumer variant: balances the activation estimate against the
// row-wise absmax over SEVERAL weight matrices sharing the same input (the
// attention Q/K/V projections). Producing ONE scale vector for all consumers
// is what lets the caller quantize their shared input once and feed the same
// codes to every GEMM (Linear::ForwardQuantizedRowsInto) — per-projection
// scales would force one quantization pass per projection for a marginal
// balance refinement. All matrices must have act_absmax.size() rows.
std::vector<float> BalancedColumnScales(const std::vector<float>& act_absmax,
                                        const std::vector<const Matrix*>& weights);

}  // namespace cdmpp

#endif  // SRC_NN_QUANTIZE_H_
