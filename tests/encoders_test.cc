#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>

#include "autograd/grad_check.h"
#include "data/simulators.h"
#include "encoders/session_encoder.h"
#include "parallel/thread_pool.h"
#include "tensor/kernel_backend.h"

namespace clfd {
namespace {

Session MakeSession(std::vector<int> acts) {
  Session s;
  s.activities = std::move(acts);
  return s;
}

uint32_t Bits(float x) {
  uint32_t u;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

// Bit-for-bit row equality (so +0.0 and -0.0 differ).
void ExpectRowBitwise(const Matrix& got, int got_row, const Matrix& want,
                      int want_row, const std::string& what) {
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (int j = 0; j < got.cols(); ++j) {
    ASSERT_EQ(Bits(got.at(got_row, j)), Bits(want.at(want_row, j)))
        << what << ", row " << got_row << ", col " << j << ": "
        << got.at(got_row, j) << " vs " << want.at(want_row, j);
  }
}

// Encodes every session of `ds` on the tape, as one batch in input order.
Matrix TapeEncode(const SessionEncoder& enc, const SessionDataset& ds,
                  const Matrix& emb) {
  std::vector<const Session*> all;
  for (const LabeledSession& ls : ds.sessions) all.push_back(&ls.session);
  return enc.EncodeBatch(all, emb).value();
}

LabeledSession Labeled(Session s) {
  LabeledSession ls;
  ls.session = std::move(s);
  return ls;
}

// `kind`'s simulated sessions reshaped for the chunk layout: the mixed
// dataset adds length-1 sessions and one session longer than the rest,
// then shuffles; the equal dataset truncates every session to one length.
struct EncodeCase {
  std::string name;
  SessionDataset data;
};

std::vector<EncodeCase> EncodeCases(DatasetKind kind, Rng* rng) {
  SessionDataset base = MakeDataset(kind, SplitSpec{70, 6, 10, 2}, rng).train;
  SessionDataset mixed = base;
  Session longest;
  for (int i = 0; i < 5; ++i) {
    const std::vector<int>& acts = base.sessions[i].session.activities;
    longest.activities.insert(longest.activities.end(), acts.begin(),
                              acts.end());
    mixed.sessions.push_back(
        Labeled(MakeSession({base.sessions[i].session.activities[0]})));
  }
  mixed.sessions.push_back(Labeled(longest));
  rng->Shuffle(&mixed.sessions);

  SessionDataset equal = base;
  const int len = std::min(4, base.MaxSessionLength());
  equal.sessions.clear();
  for (const LabeledSession& ls : base.sessions) {
    if (ls.session.length() < len) continue;
    LabeledSession cut = ls;
    cut.session.activities.resize(len);
    equal.sessions.push_back(cut);
  }
  return {{DatasetName(kind) + " mixed", mixed},
          {DatasetName(kind) + " equal", equal}};
}

TEST(PaddedBatchTest, ShapesAndMasks) {
  Rng rng(1);
  Matrix emb = Matrix::Randn(10, 4, 1.0f, &rng);
  Session a = MakeSession({1, 2, 3});
  Session b = MakeSession({4});
  PaddedBatch batch = BuildPaddedBatch({&a, &b}, emb);
  ASSERT_EQ(batch.steps.size(), 3u);
  EXPECT_EQ(batch.steps[0].rows(), 2);
  EXPECT_EQ(batch.steps[0].cols(), 4);
  // Session b is padded after t=0: zero rows and zero mask.
  EXPECT_FLOAT_EQ(batch.mean_masks[0].at(0, 0), 1.0f / 3.0f);
  EXPECT_FLOAT_EQ(batch.mean_masks[0].at(1, 0), 1.0f);
  EXPECT_FLOAT_EQ(batch.mean_masks[1].at(1, 0), 0.0f);
  EXPECT_FLOAT_EQ(batch.steps[1].at(1, 0), 0.0f);
  // Valid rows copy the right embedding.
  EXPECT_FLOAT_EQ(batch.steps[0].at(0, 0), emb.at(1, 0));
  EXPECT_FLOAT_EQ(batch.steps[2].at(0, 2), emb.at(3, 2));
}

TEST(SessionEncoderTest, PaddingInvariance) {
  // Encoding a session alone or alongside a longer session must match:
  // padded timesteps contribute nothing to the masked mean.
  Rng rng(2);
  Matrix emb = Matrix::Randn(10, 5, 1.0f, &rng);
  SessionEncoder enc(5, 6, 2, &rng);
  Session shrt = MakeSession({1, 2});
  Session lng = MakeSession({3, 4, 5, 6, 7, 8});
  Matrix solo = enc.EncodeBatch({&shrt}, emb).value();
  Matrix padded = enc.EncodeBatch({&shrt, &lng}, emb).value();
  EXPECT_LT(MaxAbsDiff(solo, SliceRows(padded, 0, 1)), 1e-5f);
}

TEST(SessionEncoderTest, EncodeDatasetMatchesBatch) {
  Rng rng(3);
  SimulatedData data =
      MakeCertDataset(PaperSplit(DatasetKind::kCert).Scaled(0.003), &rng);
  Matrix emb = Matrix::Randn(data.train.vocab_size(), 5, 1.0f, &rng);
  SessionEncoder enc(5, 6, 2, &rng);
  Matrix all = enc.EncodeDataset(data.train, emb, /*chunk=*/7);
  EXPECT_EQ(all.rows(), data.train.size());
  // Spot-check one row against a direct single encode.
  Matrix solo =
      enc.EncodeBatch({&data.train.sessions[3].session}, emb).value();
  EXPECT_LT(MaxAbsDiff(solo, SliceRows(all, 3, 4)), 1e-5f);
}

TEST(SessionEncoderTest, EncodeDatasetBitwiseAcrossChunksAndCalls) {
  // Neither the chunk size nor the per-thread arena EncodeDataset keeps
  // between calls may change a value: a larger chunk grows that arena,
  // and the repeated default-chunk call then runs on the grown arena.
  Rng rng(5);
  SimulatedData data =
      MakeCertDataset(PaperSplit(DatasetKind::kCert).Scaled(0.003), &rng);
  Matrix emb = Matrix::Randn(data.train.vocab_size(), 5, 1.0f, &rng);
  SessionEncoder enc(5, 6, 2, &rng);
  Matrix base = enc.EncodeDataset(data.train, emb);
  for (int chunk : {7, 128, 0}) {
    Matrix m = chunk > 0 ? enc.EncodeDataset(data.train, emb, chunk)
                         : enc.EncodeDataset(data.train, emb);
    ASSERT_EQ(m.size(), base.size());
    for (int i = 0; i < m.size(); ++i) {
      ASSERT_EQ(m.data()[i], base.data()[i])
          << "chunk " << chunk << " at " << i;
    }
  }
}

TEST(SessionEncoderTest, EncodeDatasetMatchesTapeBitwise) {
  // The value path (sorted chunks, gathered projection table, no tape)
  // must reproduce the tape's bits for every row, whatever the backend,
  // the pool width and the chunk size.
  for (DatasetKind kind : {DatasetKind::kCert, DatasetKind::kWiki}) {
    Rng rng(11);
    std::vector<EncodeCase> cases = EncodeCases(kind, &rng);
    const int vocab = cases[0].data.vocab_size();
    Matrix emb = Matrix::Randn(vocab, 10, 1.0f, &rng);
    SessionEncoder enc(10, 12, 2, &rng);
    for (KernelBackend backend : {KernelBackend::kScalar,
                                  KernelBackend::kSimd}) {
      ScopedKernelBackend scoped(backend);
      for (const EncodeCase& c : cases) {
        Matrix tape = TapeEncode(enc, c.data, emb);
        for (int width : {1, 2, 4}) {
          parallel::SetGlobalThreads(width);
          for (int chunk : {1, 7, 32, 128}) {
            Matrix values = enc.EncodeDataset(c.data, emb, chunk);
            ASSERT_EQ(values.rows(), c.data.size());
            const std::string what =
                c.name + ", " + KernelBackendName(backend) + ", width " +
                std::to_string(width) + ", chunk " + std::to_string(chunk);
            for (int i = 0; i < values.rows(); ++i) {
              ExpectRowBitwise(values, i, tape, i, what);
            }
          }
        }
      }
    }
  }
  parallel::SetGlobalThreads(0);
}

TEST(SessionEncoderTest, EmptySessionsEncodeToSkipBias) {
  Rng rng(12);
  Matrix emb = Matrix::Randn(6, 4, 1.0f, &rng);
  SessionEncoder enc(4, 5, 2, &rng);
  // A nonzero skip bias (the encoder's last parameter), with a -0.0 entry:
  // the encoding is (+0 + b_skip), which maps that entry to +0.0.
  Matrix& bias = enc.Parameters().back().mutable_value();
  for (int j = 0; j < bias.cols(); ++j) bias[j] = 0.25f * (j - 2);
  bias[2] = -0.0f;
  Matrix want(1, bias.cols());
  for (int j = 0; j < bias.cols(); ++j) want[j] = 0.0f + bias[j];

  SessionDataset all_empty;
  all_empty.vocab.resize(6);
  for (int i = 0; i < 3; ++i) all_empty.sessions.push_back(Labeled({}));
  Matrix encoded = enc.EncodeDataset(all_empty, emb);
  for (int i = 0; i < 3; ++i) {
    ExpectRowBitwise(encoded, i, want, 0, "all-empty dataset");
  }
  const Session empty;
  EXPECT_THROW(enc.EncodeBatch({&empty, &empty}, emb), std::invalid_argument);

  // Mixed into a chunk with non-empty sessions, an empty session encodes
  // the same on the tape and on the value path, alone or not.
  SessionDataset mixed = all_empty;
  mixed.sessions.insert(mixed.sessions.begin() + 1,
                        Labeled(MakeSession({1, 2, 3, 4, 5})));
  mixed.sessions.push_back(Labeled(MakeSession({5, 0})));
  Matrix tape = TapeEncode(enc, mixed, emb);
  for (int chunk : {1, 2, 32}) {
    Matrix values = enc.EncodeDataset(mixed, emb, chunk);
    for (int i = 0; i < mixed.size(); ++i) {
      ExpectRowBitwise(values, i, tape, i, "chunk " + std::to_string(chunk));
      if (mixed.sessions[i].session.length() == 0) {
        ExpectRowBitwise(values, i, want, 0, "empty in mixed dataset");
      }
    }
  }
}

TEST(SessionEncoderTest, OutOfVocabularyIdThrowsTypedError) {
  // An id past the embedding table (a test set whose vocabulary outgrew
  // the training set's) is a typed error on both paths, never a read past
  // the table.
  Rng rng(13);
  Matrix emb = Matrix::Randn(4, 3, 1.0f, &rng);
  SessionEncoder enc(3, 4, 1, &rng);
  SessionDataset ds;
  ds.vocab.resize(6);
  ds.sessions.push_back(Labeled(MakeSession({0, 1})));
  ds.sessions.push_back(Labeled(MakeSession({2, 5, 1})));
  try {
    enc.EncodeDataset(ds, emb);
    FAIL() << "EncodeDataset accepted activity id 5";
  } catch (const std::out_of_range& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("session 1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("activity id 5"), std::string::npos) << msg;
  }
  EXPECT_THROW(enc.EncodeBatch({&ds.sessions[1].session}, emb),
               std::out_of_range);
  const Session negative = MakeSession({-1});
  EXPECT_THROW(enc.EncodeBatch({&negative}, emb), std::out_of_range);
}

TEST(SessionEncoderTest, GradCheckThroughMaskedMean) {
  Rng rng(4);
  Matrix emb = Matrix::Randn(8, 3, 1.0f, &rng);
  SessionEncoder enc(3, 4, 1, &rng);
  Session a = MakeSession({1, 2, 3});
  Session b = MakeSession({4, 5});
  auto result = ag::CheckGradientsAllBackends(
      [&](const std::vector<ag::Var>&) {
        ag::Var z = enc.EncodeBatch({&a, &b}, emb);
        return ag::SumAll(ag::Mul(z, z));
      },
      enc.Parameters(), 5e-3f);
  EXPECT_TRUE(result.ok(5e-2f)) << result.max_abs_error;
}

TEST(ProjectionHeadTest, ShapeAndGrad) {
  Rng rng(5);
  ProjectionHead head(6, 4, &rng);
  ag::Var z = ag::Constant(Matrix::Randn(3, 6, 1.0f, &rng));
  ag::Var p = head.Forward(z);
  EXPECT_EQ(p.rows(), 3);
  EXPECT_EQ(p.cols(), 4);
  EXPECT_EQ(head.Parameters().size(), 4u);
}

}  // namespace
}  // namespace clfd
