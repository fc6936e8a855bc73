#include "nn/lstm.h"

#include <atomic>
#include <cstring>

#include "common/env.h"

namespace clfd {
namespace nn {

namespace {

// -1 = read CLFD_LSTM_FUSED on first use (default on). Like the matmul
// parallel threshold, this selects between two bitwise-identical
// implementations — it can change speed, never values (locked by the
// fused-vs-legacy equality tests).
// clfd-lint: allow(concurrency-mutable-global) clfd-analyze: allow(semantic-mutable-global)
std::atomic<int> g_lstm_fused{-1};

}  // namespace

bool LstmFusedEnabled() {
  int v = g_lstm_fused.load(std::memory_order_relaxed);
  if (v < 0) {
    v = GetEnvBool("CLFD_LSTM_FUSED", true) ? 1 : 0;
    g_lstm_fused.store(v, std::memory_order_relaxed);
  }
  return v != 0;
}

void SetLstmFusedEnabled(bool on) {
  g_lstm_fused.store(on ? 1 : 0, std::memory_order_relaxed);
}

LstmCell::LstmCell(int in_dim, int hidden_dim, Rng* rng) {
  for (int g = 0; g < 4; ++g) {
    wx_[g] = ag::Param(Matrix::Xavier(in_dim, hidden_dim, rng));
    wh_[g] = ag::Param(Matrix::Xavier(hidden_dim, hidden_dim, rng));
    Matrix bias(1, hidden_dim);
    if (g == 1) bias.Fill(1.0f);  // forget gate bias = 1
    b_[g] = ag::Param(bias);
  }
}

LstmCell::State LstmCell::InitialState(int batch) const {
  return {ag::Constant(Matrix(batch, hidden_dim())),
          ag::Constant(Matrix(batch, hidden_dim()))};
}

LstmCell::State LstmCell::Step(const ag::Var& x_t, const State& prev) const {
  auto gate = [&](int g) {
    return ag::AddRowBroadcast(
        ag::Add(ag::MatMul(x_t, wx_[g]), ag::MatMul(prev.h, wh_[g])), b_[g]);
  };
  ag::Var i = ag::Sigmoid(gate(0));
  ag::Var f = ag::Sigmoid(gate(1));
  ag::Var g = ag::Tanh(gate(2));
  ag::Var o = ag::Sigmoid(gate(3));
  ag::Var c = ag::Add(ag::Mul(f, prev.c), ag::Mul(i, g));
  ag::Var h = ag::Mul(o, ag::Tanh(c));
  return {h, c};
}

LstmCell::Packed LstmCell::Pack() const {
  return {ag::ConcatCols({wx_[0], wx_[1], wx_[2], wx_[3]}),
          ag::ConcatCols({wh_[0], wh_[1], wh_[2], wh_[3]}),
          ag::ConcatCols({b_[0], b_[1], b_[2], b_[3]})};
}

PackedGateValues LstmCell::PackValues() const {
  const auto concat = [](const ag::Var (&gates)[4]) {
    const Matrix* blocks[4] = {&gates[0].value(), &gates[1].value(),
                               &gates[2].value(), &gates[3].value()};
    Matrix out;
    ConcatColsInto(blocks, 4, &out);
    return out;
  };
  return {concat(wx_), concat(wh_), concat(b_)};
}

std::vector<ag::Var> LstmCell::Parameters() const {
  std::vector<ag::Var> params;
  for (int g = 0; g < 4; ++g) {
    params.push_back(wx_[g]);
    params.push_back(wh_[g]);
    params.push_back(b_[g]);
  }
  return params;
}

Lstm::Lstm(int in_dim, int hidden_dim, int num_layers, Rng* rng) {
  layers_.reserve(num_layers);
  for (int l = 0; l < num_layers; ++l) {
    layers_.emplace_back(l == 0 ? in_dim : hidden_dim, hidden_dim, rng);
  }
}

std::vector<ag::Var> Lstm::Forward(const std::vector<ag::Var>& steps) const {
  if (steps.empty()) return {};
  if (!LstmFusedEnabled()) {
    // Legacy oracle: the original per-gate unrolled tape.
    std::vector<ag::Var> current = steps;
    int batch = steps[0].rows();
    for (const LstmCell& layer : layers_) {
      LstmCell::State state = layer.InitialState(batch);
      std::vector<ag::Var> next;
      next.reserve(current.size());
      for (const ag::Var& x_t : current) {
        state = layer.Step(x_t, state);
        next.push_back(state.h);
      }
      current = std::move(next);
    }
    return current;
  }

  // Fused path. Per layer: pack the gate weights once, project all T
  // input steps with a single [T*B x 4H] matmul when the inputs carry no
  // gradient (layer 0's constant embeddings — big enough to clear the
  // parallel-dispatch threshold), then run one recurrent matmul plus one
  // fused gate op per step. State threads through as one [B x 2H] = [h|c]
  // Var; the h read for step t+1 and for the layer output is the same
  // SliceCols node, which keeps the gradient accumulation order identical
  // to the legacy tape (recurrent contributions first, then consumers).
  const int batch = steps[0].rows();
  const int T = static_cast<int>(steps.size());
  std::vector<ag::Var> current = steps;
  for (const LstmCell& layer : layers_) {
    const int h_dim = layer.hidden_dim();
    LstmCell::Packed packed = layer.Pack();
    bool const_input = true;
    for (const ag::Var& x_t : current) {
      const_input = const_input && !x_t.requires_grad();
    }
    ag::Var xp_all;
    if (const_input) {
      std::vector<Matrix> xvals;
      xvals.reserve(T);
      for (const ag::Var& x_t : current) xvals.push_back(x_t.value());
      xp_all = ag::LstmInputProjection(clfd::ConcatRows(xvals), packed.wx,
                                       batch);
    }
    ag::Var hc = ag::Constant(Matrix(batch, 2 * h_dim));
    std::vector<ag::Var> next;
    next.reserve(T);
    for (int t = 0; t < T; ++t) {
      ag::Var h_prev = t == 0 ? ag::SliceCols(hc, 0, h_dim) : next.back();
      ag::Var xproj =
          const_input
              ? ag::SliceRows(xp_all, t * batch, (t + 1) * batch)
              : ag::LstmPackedMatMul(current[t], packed.wx);
      ag::Var pre = ag::AddRowBroadcast(
          ag::Add(xproj, ag::LstmPackedMatMul(h_prev, packed.wh)), packed.b);
      hc = ag::LstmGates(pre, hc);
      next.push_back(ag::SliceCols(hc, 0, h_dim));
    }
    current = std::move(next);
  }
  return current;
}

std::vector<PackedGateValues> Lstm::PackValues() const {
  std::vector<PackedGateValues> w;
  w.reserve(layers_.size());
  for (const LstmCell& layer : layers_) w.push_back(layer.PackValues());
  return w;
}

Matrix Lstm::ForwardValues(const std::vector<PackedGateValues>& w,
                           Matrix xproj, int batch) {
  const int rows = xproj.rows();
  const int steps = batch > 0 ? rows / batch : 0;
  Matrix hs, h, hwh, pre, acts;
  Matrix hc[2];
  for (size_t l = 0; l < w.size(); ++l) {
    const PackedGateValues& lw = w[l];
    const int h_dim = lw.wh.rows();
    if (l > 0) MatMulInto(hs, lw.wx, &xproj);
    EnsureShape(&hs, rows, h_dim, /*zeroed=*/false);
    EnsureShape(&h, batch, h_dim, /*zeroed=*/true);
    EnsureShape(&hc[0], batch, 2 * h_dim, /*zeroed=*/true);
    EnsureShape(&pre, batch, 4 * h_dim, /*zeroed=*/false);
    for (int t = 0; t < steps; ++t) {
      MatMulInto(h, lw.wh, &hwh);
      // pre = (xproj_t + h·Wh) + b, rounded in the tape's order: the Add
      // node, then the AddRowBroadcast node.
      for (int i = 0; i < batch; ++i) {
        const float* x = xproj.row(t * batch + i);
        const float* r = hwh.row(i);
        float* p = pre.row(i);
        for (int j = 0; j < 4 * h_dim; ++j) p[j] = (x[j] + r[j]) + lw.b[j];
      }
      LstmGatesForward(pre, hc[t & 1], &hc[(t + 1) & 1], &acts);
      SliceColsInto(hc[(t + 1) & 1], 0, h_dim, &h);
      std::memcpy(hs.row(t * batch), h.data(),
                  static_cast<size_t>(h.size()) * sizeof(float));
    }
  }
  return hs;
}

std::vector<ag::Var> Lstm::Parameters() const {
  std::vector<ag::Var> params;
  for (const LstmCell& layer : layers_) {
    auto lp = layer.Parameters();
    params.insert(params.end(), lp.begin(), lp.end());
  }
  return params;
}

}  // namespace nn
}  // namespace clfd
