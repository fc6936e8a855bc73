#include "encoders/session_encoder.h"

#include <algorithm>
#include <cassert>

#include "obs/prof.h"
#include "parallel/thread_pool.h"
#include "tensor/arena.h"

namespace clfd {

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

Matrix SessionEncoder::EncodeDataset(const SessionDataset& dataset,
                                     const Matrix& embeddings,
                                     int chunk) const {
  CLFD_PROF_SCOPE("encode.dataset");
  Matrix out(dataset.size(), hidden_dim());
  if (dataset.size() == 0) return out;
  // Forward-only: concurrent EncodeBatch calls read the shared parameter
  // values but never touch gradients, and each chunk writes its own rows.
  parallel::ParallelFor(0, dataset.size(), chunk, [&](int64_t lo,
                                                      int64_t hi) {
    // Bump arena for the forward tape, one per thread and kept across
    // chunks and calls, so steady-state encoding allocates nothing: a tape
    // allocated per call leaves it to the heap state whether its blocks
    // are reused or mapped and page-faulted anew, and that varies from one
    // process to the next (DESIGN.md §9). `out` was allocated before the
    // loop so it stays heap-backed, and the encoded rows are copied out
    // before this thread's next chunk resets the arena. No chunk body
    // encodes a nested dataset, so the arena is never reset under a live
    // tape. The arena decides where values live, never what they are
    // (arena on/off equality is locked by test), so this per-thread state
    // cannot make results depend on call interleaving.
    // clfd-lint: allow(concurrency-mutable-global) clfd-analyze: allow(semantic-mutable-global)
    thread_local arena::Arena chunk_arena;
    chunk_arena.Reset();
    arena::ScopedArena scope(&chunk_arena);
    int start = static_cast<int>(lo), end = static_cast<int>(hi);
    std::vector<const Session*> batch;
    batch.reserve(end - start);
    for (int i = start; i < end; ++i) {
      batch.push_back(&dataset.sessions[i].session);
    }
    Matrix encoded = EncodeBatch(batch, embeddings).value();
    for (int i = start; i < end; ++i) {
      out.CopyRowFrom(encoded, i - start, i);
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
