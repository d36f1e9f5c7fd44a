// Layers and the MLP container. All compute runs on allocation-free
// workspace calls that write into caller-owned buffers: forward_into caches
// what backward reads, infer_into skips those caches, and backward_into
// accumulates parameter gradients and writes the input gradient, so layers
// compose by simple chaining (Mlp::forward_ws / infer_ws /
// backward_params_ws, which the DQN learn step runs).
#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "nn/matrix.h"
#include "util/rng.h"

namespace drlnoc::nn {

class Layer {
 public:
  virtual ~Layer() = default;
  virtual std::string name() const = 0;
  /// Inference-only forward, x: (batch, in) -> y: (batch, out). Writes no
  /// backward caches (target-network evaluation, greedy action selection).
  /// `y` must not alias `x`; the same holds for every call below.
  virtual void infer_into(const Matrix& x, Matrix& y) = 0;
  /// infer_into plus the cache that backward_into reads.
  virtual void forward_into(const Matrix& x, Matrix& y) = 0;
  /// grad wrt output -> grad wrt input; accumulates parameter grads.
  virtual void backward_into(const Matrix& grad_out, Matrix& grad_in) = 0;
  /// Backward that only accumulates parameter gradients, skipping the
  /// input-gradient matmul — valid for the FIRST layer of a network, whose
  /// input gradient nobody consumes. Layers without that shortcut run
  /// backward_into with `scratch` as the discarded input gradient.
  virtual void backward_params_only(const Matrix& grad_out, Matrix& scratch) {
    backward_into(grad_out, scratch);
  }
  /// Parameter / gradient views (empty for activations).
  virtual std::vector<Matrix*> params() { return {}; }
  virtual std::vector<Matrix*> grads() { return {}; }
  virtual std::vector<const Matrix*> params() const { return {}; }
  virtual std::vector<const Matrix*> grads() const { return {}; }
  virtual void zero_grads() {}
  virtual std::unique_ptr<Layer> clone() const = 0;
};

/// Fully connected: y = x W + b, W is (in, out), b is (1, out).
class Linear : public Layer {
 public:
  Linear(std::size_t in, std::size_t out);
  /// He-uniform initialisation (good default for ReLU nets).
  void init_he(util::Rng& rng);
  /// Xavier-uniform initialisation (tanh nets).
  void init_xavier(util::Rng& rng);

  std::string name() const override { return "linear"; }
  void forward_into(const Matrix& x, Matrix& y) override;
  void backward_into(const Matrix& grad_out, Matrix& grad_in) override;
  void infer_into(const Matrix& x, Matrix& y) override;
  void backward_params_only(const Matrix& grad_out, Matrix& scratch) override;
  std::vector<Matrix*> params() override { return {&w_, &b_}; }
  std::vector<Matrix*> grads() override { return {&gw_, &gb_}; }
  std::vector<const Matrix*> params() const override { return {&w_, &b_}; }
  std::vector<const Matrix*> grads() const override { return {&gw_, &gb_}; }
  void zero_grads() override;
  std::unique_ptr<Layer> clone() const override;

  Matrix& weights() { return w_; }
  Matrix& bias() { return b_; }
  std::size_t fan_in() const { return w_.rows(); }
  std::size_t fan_out() const { return w_.cols(); }

 private:
  Matrix w_, b_, gw_, gb_, cache_x_;
  // Gradient staging: matmul results land here, then accumulate into
  // gw_/gb_ with an element-wise add (so gradients sum the same way when
  // accumulated across multiple backward calls).
  Matrix gw_stage_, gb_stage_;
  // Wᵀ scratch: the input gradient grad_out·Wᵀ runs through the
  // vectorisable row-major matmul kernel instead of scalar dot products.
  // Bit-identical to matmul_nt_into: each element's terms stay in
  // ascending-k order, and the kernel's ±0-term skip cannot change a
  // +0-seeded accumulator (x + ±0 == x for every x the skip path can see).
  Matrix w_t_;
};

class ReLU : public Layer {
 public:
  std::string name() const override { return "relu"; }
  void forward_into(const Matrix& x, Matrix& y) override;
  void backward_into(const Matrix& grad_out, Matrix& grad_in) override;
  void infer_into(const Matrix& x, Matrix& y) override;
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<ReLU>();
  }

 private:
  Matrix cache_x_;
};

class Tanh : public Layer {
 public:
  std::string name() const override { return "tanh"; }
  void forward_into(const Matrix& x, Matrix& y) override;
  void backward_into(const Matrix& grad_out, Matrix& grad_in) override;
  void infer_into(const Matrix& x, Matrix& y) override;
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<Tanh>();
  }

 private:
  Matrix cache_y_;
};

/// Dueling head (Wang et al. 2016): splits the representation into a state
/// value V and advantages A, combining as Q = V + A - mean(A). Drop-in last
/// layer replacement for the plain Linear output in a Q-network.
class DuelingHead : public Layer {
 public:
  DuelingHead(std::size_t in, std::size_t actions);
  void init_he(util::Rng& rng);

  std::string name() const override { return "dueling"; }
  void forward_into(const Matrix& x, Matrix& y) override;
  void backward_into(const Matrix& grad_out, Matrix& grad_in) override;
  void infer_into(const Matrix& x, Matrix& y) override;
  void backward_params_only(const Matrix& grad_out, Matrix& scratch) override;
  std::vector<Matrix*> params() override;
  std::vector<Matrix*> grads() override;
  std::vector<const Matrix*> params() const override;
  std::vector<const Matrix*> grads() const override;
  void zero_grads() override;
  std::unique_ptr<Layer> clone() const override;

  std::size_t fan_in() const { return value_.fan_in(); }
  std::size_t actions() const { return advantage_.fan_out(); }

 private:
  /// y = V + A - mean(A) from the v_ws_ / a_ws_ the sub-layers just wrote.
  void combine(Matrix& y) const;
  /// Splits dL/dq into the value gradient (dv_ws_) and the mean-centred
  /// advantage gradient (da_ws_): dv_r = Σ_c dq_rc, da_rc = dq_rc - mean.
  void split_grad(const Matrix& grad_out);

  Linear value_;      ///< in -> 1
  Linear advantage_;  ///< in -> actions
  // Workspace for the allocation-free paths.
  Matrix v_ws_, a_ws_, dv_ws_, da_ws_, dx_ws_;
};

enum class Activation { kReLU, kTanh };

/// Multi-layer perceptron: Linear (+activation) stack; the last Linear has no
/// activation (Q-values are unbounded).
class Mlp {
 public:
  Mlp() = default;
  /// sizes = {in, hidden..., out}. With `dueling`, the final layer is a
  /// DuelingHead instead of a plain Linear.
  Mlp(const std::vector<std::size_t>& sizes, Activation act, util::Rng& rng,
      bool dueling = false);

  Mlp(const Mlp& other);
  Mlp& operator=(const Mlp& other);
  Mlp(Mlp&&) = default;
  Mlp& operator=(Mlp&&) = default;

  /// Workspace paths: all intermediate activations/gradients live in
  /// persistent per-layer buffers, so steady-state calls perform zero heap
  /// allocations. The returned reference is valid until the next *_ws call
  /// on this Mlp.
  const Matrix& forward_ws(const Matrix& x);
  /// Inference-only workspace forward: same values as forward_ws but no
  /// backward caches are written (safe for target nets / greedy eval).
  const Matrix& infer_ws(const Matrix& x);
  /// Accumulates parameter gradients for the last forward_ws. Skips the
  /// first layer's input-gradient matmul: training never consumes the
  /// gradient wrt the network input.
  void backward_params_ws(const Matrix& grad_out);

  void zero_grads();

  /// Cached parameter / gradient pointer lists (built once; the layer
  /// structure of an Mlp never changes after construction).
  const std::vector<Matrix*>& params();
  const std::vector<Matrix*>& grads();
  std::vector<const Matrix*> params() const;
  std::vector<const Matrix*> grads() const;
  std::size_t num_parameters() const;

  /// Hard copy of all weights (target-network sync).
  void copy_weights_from(const Mlp& other);
  /// Polyak soft update: θ ← τ·θ_other + (1-τ)·θ.
  void soft_update_from(const Mlp& other, double tau);

  /// Global L2 gradient-norm clipping; returns the pre-clip norm.
  double clip_grad_norm(double max_norm);

  void save(std::ostream& os) const;
  /// Deserializes a save() blob. Strict: unknown activation/head tokens,
  /// implausible layer counts or widths, and truncated or reshaped parameter
  /// matrices are all rejected with errors naming the offending token or
  /// parameter index — a corrupt file never silently becomes a ReLU net.
  static Mlp load(std::istream& is);

  std::size_t input_size() const { return input_size_; }
  std::size_t output_size() const { return output_size_; }
  /// {in, hidden..., out} as passed at construction.
  const std::vector<std::size_t>& sizes() const { return sizes_; }
  Activation activation() const { return activation_; }
  bool dueling() const { return dueling_; }

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
  std::size_t input_size_ = 0;
  std::size_t output_size_ = 0;
  Activation activation_ = Activation::kReLU;
  bool dueling_ = false;
  std::vector<std::size_t> sizes_;
  // Workspace (not copied; rebuilt lazily). acts_[i] holds layer i's
  // output; gradients ping-pong between two buffers through
  // backward_params_ws.
  std::vector<Matrix> acts_;
  Matrix grad_ping_, grad_pong_;
  std::vector<Matrix*> params_cache_, grads_cache_;
};

}  // namespace drlnoc::nn
