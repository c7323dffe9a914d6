// Workspace: a bump arena of reusable Matrix buffers for the inference hot
// path, plus WorkspacePool: a thread-safe lending library of such arenas.
//
// Every ForwardInference(..., Workspace*) overload takes its output and all
// intermediate tensors from the workspace instead of the heap. Usage:
//
//   Workspace ws;                       // one per thread (not thread-safe)
//   ws.Reset();                         // rewind before each forward pass
//   Matrix* y = layer.ForwardInference(x, &ws);  // valid until next Reset()
//
// Reset() rewinds the slot cursor without freeing, so after the first pass
// per shape ("warm"), NewMatrix is a pointer bump plus a capacity-preserving
// resize: steady-state forward passes perform zero heap allocations (see
// tests/dataplane_test.cc, which asserts this with a counting allocator).
// Matrices keep stable addresses across Reset() because slots are pooled
// behind unique_ptr.
//
// A single-owner Workspace stays the fast path. The pool exists for the
// places ownership is not one-thread-one-arena: serving workers lease their
// batch arena for the worker's lifetime, and parallel regions (the
// predictor's serving row shards and training sample shards) lease one
// short-lived arena per ParallelFor chunk. Checkout never blocks — the pool
// grows on demand — so nested leases (a worker holding its arena while its
// forward's shards lease more) cannot deadlock by construction.
#ifndef SRC_NN_WORKSPACE_H_
#define SRC_NN_WORKSPACE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/nn/matrix.h"

namespace cdmpp {

class Workspace {
 public:
  Workspace() = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  // Returns a [rows, cols] matrix owned by the workspace, valid until the
  // next Reset(). Contents are unspecified (callers that accumulate must
  // Zero() first); kernels with beta=0 overwrite every element anyway.
  Matrix* NewMatrix(int rows, int cols);

  // Returns an int16 scratch buffer of `n` elements, valid until the next
  // Reset(). The int8-quantized inference path stages its per-row quantized
  // activations here (int8-range values in 16-bit lanes — see
  // src/nn/quantize.h); pooled separately from the Matrix slots but with the
  // same warm-path guarantee: steady-state passes allocate nothing.
  int16_t* NewI16(size_t n);

  // Rewinds the arena. Pooled buffers (and their float capacity) survive, so
  // the next pass with the same shapes allocates nothing.
  void Reset() {
    cursor_ = 0;
    i16_cursor_ = 0;
  }

  // Partial rewind within a pass: Rewind(GetMark()) hands out again the
  // buffers taken since the mark (their contents are then unspecified), so
  // a staged forward can reuse a finished stage's intermediates.
  struct Mark {
    size_t matrices;
    size_t i16;
  };
  Mark GetMark() const { return {cursor_, i16_cursor_}; }
  void Rewind(Mark mark) {
    cursor_ = mark.matrices;
    i16_cursor_ = mark.i16;
  }

  // Introspection (tests, stats).
  size_t num_slots() const { return slots_.size(); }
  size_t live_slots() const { return cursor_; }
  size_t pooled_floats() const;
  size_t pooled_i16() const;

 private:
  std::vector<std::unique_ptr<Matrix>> slots_;
  size_t cursor_ = 0;
  std::vector<std::unique_ptr<std::vector<int16_t>>> i16_slots_;
  size_t i16_cursor_ = 0;
};

// Thread-safe checkout/return pool of Workspace arenas.
//
// Ownership rules (also in README "Threading model"):
//   * Checkout() hands out an exclusive, already-Reset() arena. It never
//     blocks: an empty free list grows the pool instead, which is what makes
//     nested leases deadlock-free. Returned arenas keep their pooled buffer
//     capacity, so a pool that has served a shape before hands out warm
//     arenas and steady-state checkouts allocate nothing.
//   * Return() must receive exactly the pointers Checkout() handed out, once
//     each. Prefer the RAII Lease (exception-safe) over manual pairing.
//   * The free list is LIFO: the most recently returned — cache-hot, already
//     grown — arena is the next one lent.
//   * An arena may be USED by a thread other than the one that checked it
//     out: ParallelForWithScratch checks out every lease on the calling
//     thread before the region forks, and a stealing pool worker then runs
//     the chunk that bumps that arena. This is safe because each chunk has
//     the arena exclusively, the region publish/join path (a mutex in
//     parallel_for.cc) orders the checkout before any stolen chunk runs, and
//     the executors-drained barrier orders every chunk's arena writes before
//     the caller returns the leases.
class WorkspacePool {
 public:
  WorkspacePool() = default;
  WorkspacePool(const WorkspacePool&) = delete;
  WorkspacePool& operator=(const WorkspacePool&) = delete;

  // Exclusive use until Return(); never blocks (grows the pool on demand).
  // The arena comes back Reset() but warm.
  Workspace* Checkout();
  void Return(Workspace* ws);

  // Move-only RAII lease; returns the arena on destruction (including
  // unwinding through an exception).
  class Lease {
   public:
    Lease() = default;
    explicit Lease(WorkspacePool* pool) : pool_(pool), ws_(pool->Checkout()) {}
    ~Lease() { reset(); }
    Lease(Lease&& other) noexcept : pool_(other.pool_), ws_(other.ws_) {
      other.pool_ = nullptr;
      other.ws_ = nullptr;
    }
    Lease& operator=(Lease&& other) noexcept {
      if (this != &other) {
        reset();
        pool_ = other.pool_;
        ws_ = other.ws_;
        other.pool_ = nullptr;
        other.ws_ = nullptr;
      }
      return *this;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    Workspace* get() const { return ws_; }
    Workspace* operator->() const { return ws_; }
    explicit operator bool() const { return ws_ != nullptr; }
    void reset() {
      if (ws_ != nullptr) {
        pool_->Return(ws_);
        ws_ = nullptr;
        pool_ = nullptr;
      }
    }

   private:
    WorkspacePool* pool_ = nullptr;
    Workspace* ws_ = nullptr;
  };
  Lease Acquire() { return Lease(this); }

  // Process-wide pool the data plane leases from: serving workers, the
  // convenience PredictBatched overloads, and the predictor's shard regions
  // all share it, so warm arenas migrate to wherever the load is instead of
  // accumulating per thread.
  static WorkspacePool& Global();

  // Introspection (tests, stats). num_arenas() - num_free() arenas are
  // currently checked out.
  size_t num_arenas() const;
  size_t num_free() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Workspace>> arenas_;  // ownership, append-only
  std::vector<Workspace*> free_;                    // LIFO free list
};

}  // namespace cdmpp

#endif  // SRC_NN_WORKSPACE_H_
