#include <gtest/gtest.h>

#include "autograd/grad_check.h"
#include "data/simulators.h"
#include "encoders/session_encoder.h"

namespace clfd {
namespace {

Session MakeSession(std::vector<int> acts) {
  Session s;
  s.activities = std::move(acts);
  return s;
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
