#pragma once

#include <vector>

#include "autograd/var.h"
#include "common/rng.h"
#include "nn/module.h"

namespace clfd {
namespace nn {

// Selects the LSTM forward implementation (reads CLFD_LSTM_FUSED on first
// use, default on). Fused = packed-gate kernels + the ag::LstmGates op
// (1-2 matmuls per step); legacy = the original per-gate tape (~8 matmuls
// and ~12 elementwise nodes per step), kept compiled as the equivalence
// oracle. The two paths are bitwise identical — forward values, gradients
// and downstream RunMetrics — locked by tests/nn_test.cc and
// tests/eval_test.cc, so this switch trades speed only.
//
// Scope of the gradient guarantee: forward values are bitwise identical
// for any graph. Gradients are bitwise identical for graphs that consume
// every timestep's output (as every encoder here does, via the masked
// mean). A loss reaching the unroll only through the final h makes the
// legacy tape accumulate the o-gate's dWx in the opposite time order from
// the other gates — an asymmetry no packed accumulator can mirror — so
// such graphs may differ in dWx by summation order (one ulp); see
// LstmTest.FusedMatchesLegacyBitwiseWithInputGrads.
bool LstmFusedEnabled();
void SetLstmFusedEnabled(bool on);

class ScopedLstmFused {
 public:
  explicit ScopedLstmFused(bool on) : saved_(LstmFusedEnabled()) {
    SetLstmFusedEnabled(on);
  }
  ~ScopedLstmFused() { SetLstmFusedEnabled(saved_); }
  ScopedLstmFused(const ScopedLstmFused&) = delete;
  ScopedLstmFused& operator=(const ScopedLstmFused&) = delete;

 private:
  bool saved_;
};

// The values of LstmCell::Packed as plain matrices, for the value-only
// forward (Lstm::ForwardValues).
struct PackedGateValues {
  Matrix wx;  // [in x 4H]
  Matrix wh;  // [H x 4H]
  Matrix b;   // [1 x 4H]
};

// A single LSTM layer with per-gate weight matrices.
//
// Gates (i, f, g, o) each have input weights Wx [in x h], recurrent weights
// Wh [h x h] and a bias [1 x h]. The forget-gate bias is initialized to 1,
// the standard trick for gradient flow through time.
class LstmCell : public Module {
 public:
  LstmCell(int in_dim, int hidden_dim, Rng* rng);

  struct State {
    ag::Var h;  // [B x hidden]
    ag::Var c;  // [B x hidden]
  };

  // Zero state for a batch of the given size.
  State InitialState(int batch) const;

  // One timestep: consumes x_t [B x in] and the previous state. This is
  // the legacy unfused tape; Lstm::Forward uses it when fused mode is off.
  State Step(const ag::Var& x_t, const State& prev) const;

  // Column-packed views of the gate parameters for the fused path:
  // wx [in x 4H], wh [H x 4H], b [1 x 4H], gate blocks in index order
  // (i, f, g, o). Built per forward pass via ag::ConcatCols, so the
  // per-gate matrices remain the canonical parameters — Parameters()
  // order, optimizer state, gradient clipping and serialization are
  // untouched by fusion — and the packed gradient flows back into the
  // per-gate gradients exactly.
  struct Packed {
    ag::Var wx;
    ag::Var wh;
    ag::Var b;
  };
  Packed Pack() const;
  // Pack's values, concatenated without building autograd nodes.
  PackedGateValues PackValues() const;

  std::vector<ag::Var> Parameters() const override;

  int in_dim() const { return wx_[0].rows(); }
  int hidden_dim() const { return wx_[0].cols(); }

 private:
  // Index order: 0 = input gate, 1 = forget, 2 = candidate, 3 = output.
  ag::Var wx_[4];
  ag::Var wh_[4];
  ag::Var b_[4];
};

// Multi-layer LSTM over a padded batch of sequences.
//
// The paper's session encoder is a two-layer LSTM with equal hidden sizes
// (Sec. III-B1); this class implements the general N-layer unroll and
// returns the final layer's hidden state at every timestep so the encoder
// can take the masked mean over valid positions.
class Lstm : public Module {
 public:
  Lstm(int in_dim, int hidden_dim, int num_layers, Rng* rng);

  // steps: time-major inputs, each [B x in]. Returns the final layer's
  // hidden state at each timestep, each [B x hidden].
  std::vector<ag::Var> Forward(const std::vector<ag::Var>& steps) const;

  // Every layer's LstmCell::PackValues, for ForwardValues. Build once and
  // share read-only across calls and threads.
  std::vector<PackedGateValues> PackValues() const;

  // Value-only forward for inference: no ag::Var node, no closure, and
  // bitwise the values Forward computes. `xproj` [T*B x 4H] is layer 0's
  // input projection x_t·Wx0, time-major in B-row blocks; a padded row
  // projects to +0.0, as the tape's zero input row does. Returns the final
  // layer's hidden states in the same layout, [T*B x H] (empty for
  // T == 0). Each later layer projects its inputs with one [T*B x 4H]
  // matmul, which gives each row the bits of the tape's per-step matmul
  // because matmul rows are independent. Buffers come from the current
  // storage context, so a caller's arena recycles them.
  static Matrix ForwardValues(const std::vector<PackedGateValues>& w,
                              Matrix xproj, int batch);

  std::vector<ag::Var> Parameters() const override;

  int hidden_dim() const { return layers_[0].hidden_dim(); }
  int num_layers() const { return static_cast<int>(layers_.size()); }

 private:
  std::vector<LstmCell> layers_;
};

}  // namespace nn
}  // namespace clfd

