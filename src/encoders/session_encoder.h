#pragma once

#include <vector>

#include "autograd/var.h"
#include "common/rng.h"
#include "data/session.h"
#include "nn/linear.h"
#include "nn/lstm.h"
#include "nn/module.h"

namespace clfd {

// LSTM session encoder (Sec. III-B1).
//
// Maps a session's raw representation x_i = {x_it} (frozen word2vec activity
// embeddings) to an encoded vector z_i by running a multi-layer LSTM (paper:
// two hidden layers of equal size) and averaging the final layer's hidden
// states over the valid timesteps, plus a linear residual connection from
// the mean input embedding (a randomly initialized deep LSTM otherwise
// attenuates the linearly separable content signal that the paper's
// training scales preserve — see DESIGN.md, "encoder residual"). Batches
// are padded to the longest session; padded positions are excluded from the
// averages and therefore contribute no gradient.
class SessionEncoder : public nn::Module {
 public:
  SessionEncoder(int emb_dim, int hidden_dim, int num_layers, Rng* rng);

  // Encodes a batch of sessions into [B x hidden] on the autograd tape.
  // `embeddings` is the [vocab x emb_dim] activity embedding table. Throws
  // std::out_of_range when an activity id is not a row of `embeddings`, and
  // std::invalid_argument when every session of the batch is empty (the
  // unroll would have no step; EncodeDataset encodes such sessions).
  ag::Var EncodeBatch(const std::vector<const Session*>& sessions,
                      const Matrix& embeddings) const;

  // Inference: encodes every session of `dataset` and returns the
  // [N x hidden] values, bitwise equal to the rows of EncodeBatch(...)
  // .value() but without the tape (Lstm::ForwardValues). Sessions run
  // sorted by length, longest first (ties in input order), in chunks of
  // `chunk` cut from that order on the global pool; each chunk writes its
  // rows back to their input positions. A row's bits depend on neither
  // its chunk nor the chunk's padded length, so the result is identical at
  // any chunk size and thread count. Per call, the gate weights are packed
  // once and layer 0's input projection is tabulated once per activity
  // (E·Wx0, [vocab x 4H]), so a chunk gathers table rows instead of
  // projecting embeddings. A chunk's buffers live in its thread's arena,
  // which each thread keeps for its largest chunk so far (about 1.1 MB of
  // buffers for 32 CERT sessions of up to 31 steps at 50/50 dims). An
  // empty session encodes to the skip bias b_skip. Throws
  // std::out_of_range like EncodeBatch.
  Matrix EncodeDataset(const SessionDataset& dataset, const Matrix& embeddings,
                       int chunk = 32) const;

  std::vector<ag::Var> Parameters() const override;

  int emb_dim() const { return input_skip_.in_dim(); }
  int hidden_dim() const { return lstm_.hidden_dim(); }
  int num_layers() const { return lstm_.num_layers(); }

 private:
  // EncodeDataset's value path for one chunk, given the packed weights
  // and layer 0's input-projection table.
  Matrix EncodeChunkValues(const std::vector<const Session*>& batch,
                           const Matrix& embeddings, const Matrix& xproj_table,
                           const std::vector<nn::PackedGateValues>& packed)
      const;

  nn::Lstm lstm_;
  nn::Linear input_skip_;  // mean input embedding -> hidden residual
};

// Two-layer MLP projection head used on top of the encoder during
// contrastive pre-training (SimCLR-style); discarded at inference time.
class ProjectionHead : public nn::Module {
 public:
  ProjectionHead(int in_dim, int out_dim, Rng* rng);

  ag::Var Forward(const ag::Var& z) const;

  std::vector<ag::Var> Parameters() const override;

 private:
  nn::Linear fc1_;
  nn::Linear fc2_;
};

// Builds the time-major padded input steps for a batch of sessions:
// step t is a [B x emb_dim] matrix whose row i holds the embedding of
// session i's t-th activity (zero when t >= length_i). Also returns the
// per-timestep averaging masks (row i of mask t = 1/length_i when valid).
struct PaddedBatch {
  std::vector<Matrix> steps;
  std::vector<Matrix> mean_masks;  // [B x 1] per step
};
PaddedBatch BuildPaddedBatch(const std::vector<const Session*>& sessions,
                             const Matrix& embeddings);

}  // namespace clfd

