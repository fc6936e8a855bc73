#include "encoders/session_encoder.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <stdexcept>
#include <string>

#include "obs/prof.h"
#include "parallel/thread_pool.h"
#include "tensor/arena.h"

namespace clfd {

namespace {

// Throws std::out_of_range when `s` (number `index` of its batch or
// dataset) holds an activity id that is not a row of `embeddings`: a test
// set whose vocabulary outgrew the training set's embedding table.
void CheckActivityIds(const Session& s, int index, const Matrix& embeddings) {
  for (int act : s.activities) {
    if (act < 0 || act >= embeddings.rows()) {
      throw std::out_of_range(
          "session " + std::to_string(index) + " has activity id " +
          std::to_string(act) + ", outside the embedding table of " +
          std::to_string(embeddings.rows()) + " activities");
    }
  }
}

}  // namespace

PaddedBatch BuildPaddedBatch(const std::vector<const Session*>& sessions,
                             const Matrix& embeddings) {
  int batch = static_cast<int>(sessions.size());
  int emb_dim = embeddings.cols();
  int max_len = 0;
  for (const Session* s : sessions) max_len = std::max(max_len, s->length());

  PaddedBatch out;
  out.steps.reserve(max_len);
  out.mean_masks.reserve(max_len);
  for (int t = 0; t < max_len; ++t) {
    Matrix step(batch, emb_dim);
    Matrix mask(batch, 1);
    for (int i = 0; i < batch; ++i) {
      const Session& s = *sessions[i];
      if (t < s.length()) {
        int act = s.activities[t];
        assert(act >= 0 && act < embeddings.rows());
        step.CopyRowFrom(embeddings, act, i);
        mask.at(i, 0) = 1.0f / static_cast<float>(s.length());
      }
    }
    out.steps.push_back(std::move(step));
    out.mean_masks.push_back(std::move(mask));
  }
  return out;
}

SessionEncoder::SessionEncoder(int emb_dim, int hidden_dim, int num_layers,
                               Rng* rng)
    : lstm_(emb_dim, hidden_dim, num_layers, rng),
      input_skip_(emb_dim, hidden_dim, rng) {}

std::vector<ag::Var> SessionEncoder::Parameters() const {
  std::vector<ag::Var> params = lstm_.Parameters();
  auto sp = input_skip_.Parameters();
  params.insert(params.end(), sp.begin(), sp.end());
  return params;
}

ag::Var SessionEncoder::EncodeBatch(
    const std::vector<const Session*>& sessions,
    const Matrix& embeddings) const {
  assert(!sessions.empty());
  int max_len = 0;
  for (size_t i = 0; i < sessions.size(); ++i) {
    CheckActivityIds(*sessions[i], static_cast<int>(i), embeddings);
    max_len = std::max(max_len, sessions[i]->length());
  }
  if (max_len == 0) {
    throw std::invalid_argument(
        "SessionEncoder::EncodeBatch: every session of the batch is empty, "
        "so the LSTM has no step to unroll");
  }
  PaddedBatch padded = BuildPaddedBatch(sessions, embeddings);
  std::vector<ag::Var> steps;
  steps.reserve(padded.steps.size());
  for (Matrix& m : padded.steps) steps.push_back(ag::Constant(std::move(m)));
  std::vector<ag::Var> hiddens = lstm_.Forward(steps);

  // Masked mean over valid timesteps of the final layer.
  ag::Var acc = ag::RowScaleConst(hiddens[0], padded.mean_masks[0]);
  for (size_t t = 1; t < hiddens.size(); ++t) {
    acc = ag::Add(acc, ag::RowScaleConst(hiddens[t], padded.mean_masks[t]));
  }
  // Residual from the masked-mean input embedding.
  ag::Var input_mean =
      ag::RowScaleConst(steps[0], padded.mean_masks[0]);
  for (size_t t = 1; t < steps.size(); ++t) {
    input_mean = ag::Add(
        input_mean, ag::RowScaleConst(steps[t], padded.mean_masks[t]));
  }
  return ag::Add(acc, input_skip_.Forward(input_mean));
}

Matrix SessionEncoder::EncodeChunkValues(
    const std::vector<const Session*>& batch, const Matrix& embeddings,
    const Matrix& xproj_table,
    const std::vector<nn::PackedGateValues>& packed) const {
  const int b = static_cast<int>(batch.size());
  const int e_dim = embeddings.cols();
  const int h_dim = hidden_dim();
  int t_len = 0;
  for (const Session* s : batch) t_len = std::max(t_len, s->length());

  // Layer 0's input projection, gathered: row t*B+i is the table row of
  // session i's t-th activity, and stays +0.0 once the session has ended.
  Matrix xproj(t_len * b, xproj_table.cols());
  for (int i = 0; i < b; ++i) {
    for (int t = 0; t < batch[i]->length(); ++t) {
      xproj.CopyRowFrom(xproj_table, batch[i]->activities[t], t * b + i);
    }
  }
  Matrix hs = nn::Lstm::ForwardValues(packed, std::move(xproj), b);

  // Masked means over the chunk's padded T in the tape's order: the t = 0
  // term, then acc + x_t * m_t, where a padded step contributes
  // x_t * 0 (and a padded input row is zero). T == 0 leaves both at +0.0.
  Matrix acc(b, h_dim);
  Matrix input_mean(b, e_dim);
  for (int i = 0; i < b; ++i) {
    const Session& s = *batch[i];
    const float m = s.length() > 0 ? 1.0f / static_cast<float>(s.length())
                                   : 0.0f;
    float* a = acc.row(i);
    float* in = input_mean.row(i);
    for (int t = 0; t < t_len; ++t) {
      const bool valid = t < s.length();
      const float mt = valid ? m : 0.0f;
      const float* h = hs.row(t * b + i);
      for (int j = 0; j < h_dim; ++j) {
        const float term = h[j] * mt;
        a[j] = t == 0 ? term : a[j] + term;
      }
      const float* x = valid ? embeddings.row(s.activities[t]) : nullptr;
      for (int j = 0; j < e_dim; ++j) {
        const float term = valid ? x[j] * mt : 0.0f;
        in[j] = t == 0 ? term : in[j] + term;
      }
    }
  }
  // acc + (input_mean·W_skip + b_skip).
  Matrix skip = MatMul(input_mean, input_skip_.weight().value());
  const Matrix& bias = input_skip_.bias().value();
  for (int i = 0; i < b; ++i) {
    const float* sk = skip.row(i);
    float* a = acc.row(i);
    for (int j = 0; j < h_dim; ++j) a[j] = a[j] + (sk[j] + bias[j]);
  }
  return acc;
}

Matrix SessionEncoder::EncodeDataset(const SessionDataset& dataset,
                                     const Matrix& embeddings,
                                     int chunk) const {
  CLFD_PROF_SCOPE("encode.dataset");
  const int n = dataset.size();
  Matrix out(n, hidden_dim());
  if (n == 0) return out;
  for (int i = 0; i < n; ++i) {
    CheckActivityIds(dataset.sessions[i].session, i, embeddings);
  }
  // Longest sessions first, ties in input order: chunks then pad little,
  // and the pool, which claims chunks in index order, starts the longest
  // ones first.
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int x, int y) {
    return dataset.sessions[x].session.length() >
           dataset.sessions[y].session.length();
  });
  // Per call, not per chunk: the packed gate weights and layer 0's input
  // projection of every activity, E·Wx0 [vocab x 4H].
  const std::vector<nn::PackedGateValues> packed = lstm_.PackValues();
  const Matrix xproj_table = MatMul(embeddings, packed[0].wx);
  // Forward-only: chunks read the shared values above and write their own
  // rows of `out`.
  parallel::ParallelFor(0, n, chunk, [&](int64_t lo, int64_t hi) {
    // Bump arena for the chunk's buffers, one per thread and kept across
    // chunks and calls, so steady-state encoding allocates nothing: an
    // arena per call leaves it to the heap state whether its blocks are
    // reused or mapped and page-faulted anew, and that varies from one
    // process to the next (DESIGN.md §9). `out` was allocated before the
    // loop so it stays heap-backed, and the encoded rows are copied out
    // before this thread's next chunk resets the arena. No chunk body
    // encodes a nested dataset, so the arena is never reset under live
    // buffers. The arena decides where values live, never what they are
    // (arena on/off equality is locked by test), so this per-thread state
    // cannot make results depend on call interleaving.
    // clfd-lint: allow(concurrency-mutable-global) clfd-analyze: allow(semantic-mutable-global)
    thread_local arena::Arena chunk_arena;
    chunk_arena.Reset();
    arena::ScopedArena scope(&chunk_arena);
    std::vector<const Session*> batch;
    batch.reserve(hi - lo);
    for (int64_t k = lo; k < hi; ++k) {
      batch.push_back(&dataset.sessions[order[k]].session);
    }
    Matrix encoded =
        EncodeChunkValues(batch, embeddings, xproj_table, packed);
    for (int64_t k = lo; k < hi; ++k) {
      out.CopyRowFrom(encoded, static_cast<int>(k - lo), order[k]);
    }
  });
  return out;
}

ProjectionHead::ProjectionHead(int in_dim, int out_dim, Rng* rng)
    : fc1_(in_dim, in_dim, rng), fc2_(in_dim, out_dim, rng) {}

ag::Var ProjectionHead::Forward(const ag::Var& z) const {
  return fc2_.Forward(ag::Relu(fc1_.Forward(z)));
}

std::vector<ag::Var> ProjectionHead::Parameters() const {
  std::vector<ag::Var> params = fc1_.Parameters();
  auto p2 = fc2_.Parameters();
  params.insert(params.end(), p2.begin(), p2.end());
  return params;
}

}  // namespace clfd
