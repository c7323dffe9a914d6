// Dense row-major float matrix with the operations the NN library needs.
// The MatMul* entry points are thin wrappers over the cache-blocked,
// ParallelFor-parallelized kernel layer in src/nn/kernels.h — one kernel
// layer to optimize instead of per-call-site loops.
#ifndef SRC_NN_MATRIX_H_
#define SRC_NN_MATRIX_H_

#include <cstddef>
#include <vector>

#include "src/support/check.h"
#include "src/support/rng.h"

namespace cdmpp {

class Matrix {
 public:
  Matrix() = default;
  Matrix(int rows, int cols) : rows_(rows), cols_(cols), data_(static_cast<size_t>(rows) * cols) {
    CDMPP_CHECK(rows >= 0 && cols >= 0);
  }

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }
  // Float capacity retained by the backing storage (>= size()).
  size_t capacity() const { return data_.capacity(); }

  // Reshapes to [rows, cols] without shrinking capacity: no heap traffic once
  // the buffer has grown to its steady-state size (the Workspace arena relies
  // on this). Existing element values are NOT preserved in any meaningful
  // layout; treat contents as unspecified after a Resize. Growing past the
  // previous logical size zero-fills the new tail (vector::resize semantics)
  // — a small one-time cost per slot until the request shapes stabilize, not
  // a steady-state one.
  void Resize(int rows, int cols) {
    CDMPP_CHECK(rows >= 0 && cols >= 0);
    rows_ = rows;
    cols_ = cols;
    data_.resize(static_cast<size_t>(rows) * cols);
  }

  float& At(int r, int c) { return data_[static_cast<size_t>(r) * cols_ + c]; }
  float At(int r, int c) const { return data_[static_cast<size_t>(r) * cols_ + c]; }
  float* Row(int r) { return data_.data() + static_cast<size_t>(r) * cols_; }
  const float* Row(int r) const { return data_.data() + static_cast<size_t>(r) * cols_; }
  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  void Fill(float v) { std::fill(data_.begin(), data_.end(), v); }
  void Zero() { Fill(0.0f); }

  // Xavier/Glorot uniform initialization for a (fan_in -> fan_out) weight.
  void XavierInit(Rng* rng);

  // this += other (same shape).
  void AddInPlace(const Matrix& other);
  // this *= scale.
  void Scale(float scale);

  // Frobenius norm squared.
  double SquaredNorm() const;

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<float> data_;
};

// out = a x b. Shapes: [m,k] x [k,n] -> [m,n].
Matrix MatMul(const Matrix& a, const Matrix& b);
// out = a^T x b. Shapes: [k,m] x [k,n] -> [m,n].
Matrix MatMulTransA(const Matrix& a, const Matrix& b);
// out = a x b^T. Shapes: [m,k] x [n,k] -> [m,n].
Matrix MatMulTransB(const Matrix& a, const Matrix& b);

// Adds a [1,n] (or length-n row of `bias`) to every row of x in place.
void AddRowBroadcast(Matrix* x, const Matrix& bias);
// Column-wise sum of x -> [1, n] (gradient of a broadcast bias).
Matrix ColumnSum(const Matrix& x);

// In-place row-wise softmax.
void SoftmaxRows(Matrix* x);

}  // namespace cdmpp

#endif  // SRC_NN_MATRIX_H_
