// Failure-injection tests: degenerate datasets and edge conditions that a
// production deployment will eventually feed the library. Nothing here may
// crash, hang, or emit non-finite scores.

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "baselines/registry.h"
#include "core/clfd.h"
#include "data/noise.h"
#include "embedding/word2vec.h"

namespace clfd {
namespace {

ClfdConfig MicroConfig() {
  ClfdConfig config = ClfdConfig::Fast();
  config.emb_dim = 8;
  config.hidden_dim = 8;
  config.batch_size = 8;
  config.aux_batch_size = 2;
  config.budget = {1, 5, 1};
  return config;
}

SessionDataset MakeTinyDataset(int normals, int malicious, int vocab,
                               int min_len, int max_len, Rng* rng) {
  SessionDataset ds;
  for (int v = 0; v < vocab; ++v) ds.vocab.push_back("act" + std::to_string(v));
  for (int i = 0; i < normals + malicious; ++i) {
    LabeledSession ls;
    ls.true_label = i < normals ? kNormal : kMalicious;
    ls.noisy_label = ls.true_label;
    int len = rng->LengthBetween(min_len, max_len);
    for (int t = 0; t < len; ++t) {
      ls.session.activities.push_back(rng->UniformInt(vocab));
    }
    ds.sessions.push_back(ls);
  }
  return ds;
}

void ExpectFiniteScores(const std::vector<double>& scores, size_t expected) {
  ASSERT_EQ(scores.size(), expected);
  for (double s : scores) EXPECT_TRUE(std::isfinite(s));
}

TEST(RobustnessTest, AllNormalTrainingSet) {
  // No malicious sessions at all: the pipeline must still train and score.
  Rng rng(1);
  SessionDataset train = MakeTinyDataset(30, 0, 5, 2, 6, &rng);
  SessionDataset test = MakeTinyDataset(10, 2, 5, 2, 6, &rng);
  Matrix emb = TrainActivityEmbeddings(train, 8, &rng);
  ClfdModel model(MicroConfig(), 3);
  model.Train(train, emb);
  ExpectFiniteScores(model.Score(test), 12);
}

TEST(RobustnessTest, AllMaliciousNoisyLabels) {
  // Heuristic annotator gone haywire: everything labeled malicious.
  Rng rng(2);
  SessionDataset train = MakeTinyDataset(24, 4, 5, 2, 6, &rng);
  for (auto& ls : train.sessions) ls.noisy_label = kMalicious;
  Matrix emb = TrainActivityEmbeddings(train, 8, &rng);
  ClfdModel model(MicroConfig(), 3);
  model.Train(train, emb);
  ExpectFiniteScores(model.Score(train), 28);
}

TEST(RobustnessTest, SingleActivitySessions) {
  Rng rng(3);
  SessionDataset train = MakeTinyDataset(20, 4, 4, 1, 1, &rng);
  SessionDataset test = MakeTinyDataset(6, 2, 4, 1, 1, &rng);
  Matrix emb = TrainActivityEmbeddings(train, 8, &rng);
  ClfdModel model(MicroConfig(), 5);
  model.Train(train, emb);
  ExpectFiniteScores(model.Score(test), 8);
}

TEST(RobustnessTest, TinyVocabulary) {
  Rng rng(4);
  SessionDataset train = MakeTinyDataset(20, 4, 2, 2, 5, &rng);
  Matrix emb = TrainActivityEmbeddings(train, 8, &rng);
  ClfdModel model(MicroConfig(), 7);
  model.Train(train, emb);
  ExpectFiniteScores(model.Score(train), 24);
}

TEST(RobustnessTest, EmptyTestSet) {
  Rng rng(5);
  SessionDataset train = MakeTinyDataset(20, 4, 5, 2, 5, &rng);
  Matrix emb = TrainActivityEmbeddings(train, 8, &rng);
  ClfdModel model(MicroConfig(), 9);
  model.Train(train, emb);
  SessionDataset empty;
  empty.vocab = train.vocab;
  EXPECT_TRUE(model.Score(empty).empty());
  EXPECT_TRUE(model.Predict(empty).empty());
}

TEST(RobustnessTest, EmptyTestSessionsScoreFinite) {
  // Empty sessions (which the dataset format accepts) score like any
  // other, whether they share a chunk with non-empty ones or not.
  Rng rng(6);
  SessionDataset train = MakeTinyDataset(20, 4, 5, 2, 5, &rng);
  SessionDataset test = MakeTinyDataset(6, 2, 5, 2, 5, &rng);
  for (int i = 0; i < 3; ++i) test.sessions.push_back(LabeledSession());
  test.sessions[2].session.activities.clear();
  Matrix emb = TrainActivityEmbeddings(train, 8, &rng);
  ClfdModel model(MicroConfig(), 13);
  model.Train(train, emb);
  ExpectFiniteScores(model.Score(test), 11);
}

TEST(RobustnessTest, TestVocabularyBeyondEmbeddingsIsTypedError) {
  // The embeddings are trained on the training set only, so a test set
  // with a larger vocabulary can name an activity with no embedding row:
  // a typed error (clfd_cli reports it and exits 1), never a read past
  // the table.
  Rng rng(7);
  SessionDataset train = MakeTinyDataset(20, 4, 4, 2, 5, &rng);
  SessionDataset test = MakeTinyDataset(6, 2, 7, 2, 5, &rng);
  test.sessions[3].session.activities[0] = 6;
  Matrix emb = TrainActivityEmbeddings(train, 8, &rng);
  ClfdModel model(MicroConfig(), 15);
  model.Train(train, emb);
  EXPECT_THROW(model.Score(test), std::out_of_range);
}

TEST(RobustnessTest, ExtremeNoiseRatesClampBehaviour) {
  Rng rng(6);
  SessionDataset ds = MakeTinyDataset(100, 100, 4, 2, 4, &rng);
  ApplyUniformNoise(&ds, 0.0, &rng);
  EXPECT_DOUBLE_EQ(ObservedNoiseRate(ds), 0.0);
  ApplyUniformNoise(&ds, 1.0, &rng);
  EXPECT_DOUBLE_EQ(ObservedNoiseRate(ds), 1.0);
}

class BaselineRobustnessTest : public ::testing::TestWithParam<std::string> {};

TEST_P(BaselineRobustnessTest, SurvivesDegenerateData) {
  // Every baseline gets: a one-class noisy labeling over very short
  // sessions with a tiny vocabulary.
  Rng rng(7);
  SessionDataset train = MakeTinyDataset(24, 2, 3, 1, 3, &rng);
  for (auto& ls : train.sessions) ls.noisy_label = kNormal;
  SessionDataset test = MakeTinyDataset(6, 2, 3, 1, 3, &rng);
  Matrix emb = TrainActivityEmbeddings(train, 8, &rng);
  ClfdConfig config = MicroConfig();
  auto model = MakeModel(GetParam(), config, 11);
  ASSERT_NE(model, nullptr);
  model->Train(train, emb);
  auto scores = model->Score(test);
  ASSERT_EQ(scores.size(), 8u);
  for (double s : scores) EXPECT_TRUE(std::isfinite(s));
}

INSTANTIATE_TEST_SUITE_P(AllModels, BaselineRobustnessTest,
                         ::testing::Values("DivMix", "ULC", "Sel-CL", "CTRR",
                                           "Few-Shot", "CLDet", "DeepLog",
                                           "LogBert", "CLFD"),
                         [](const auto& info) {
                           std::string out;
                           for (char c : info.param) {
                             if (c != '-') out += c;
                           }
                           return out;
                         });

}  // namespace
}  // namespace clfd
