// Golden digests: the full CLFD pipeline on two small fixed configs must
// reproduce committed hashes of its RunMetrics and final parameter bytes.
//
// The invariance suites (eval_test, kernel_backend_test) show that configs
// agree with each other inside one binary. This test pins the numbers
// themselves, so a compiler, libm or flag change that moves any result bit
// fails here even when every config still agrees with every other.
//
// A change that alters numerics on purpose (a new kernel formula, a new
// transcendental) updates the digests in the same change and says so in
// CHANGES.md. The failure message prints the digest this build produced.

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "core/clfd.h"
#include "eval/experiment.h"
#include "parallel/thread_pool.h"
#include "recovery/checkpoint.h"
#include "recovery/run_checkpointer.h"
#include "tensor/kernel_backend.h"

namespace clfd {
namespace {

// FNV-1a, 64 bit.
class Fnv1a {
 public:
  void Add(const void* data, size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ = (hash_ ^ p[i]) * 0x100000001b3ull;
    }
  }
  void Add(const std::string& s) { Add(s.data(), s.size()); }
  void Add(double v) { Add(&v, sizeof(v)); }
  std::string Hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

ClfdConfig CompactConfig() {
  ClfdConfig config = ClfdConfig::Fast();
  config.emb_dim = 12;
  config.hidden_dim = 12;
  config.batch_size = 24;
  config.aux_batch_size = 4;
  config.budget = {2, 30, 2};
  return config;
}

// Trains and evaluates CLFD at width 1, then hashes f1/fpr/auc and every
// parameter tensor of the final checkpoint (corrector and detector
// encoders, projection, classifiers), section names included.
std::string PipelineDigest(DatasetKind kind, const std::string& tag) {
  const SplitSpec split{40, 6, 20, 4};
  const uint64_t seed = 21;
  const ClfdConfig config = CompactConfig();
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / ("clfd_golden_" + tag);
  std::filesystem::remove_all(dir);

  parallel::SetGlobalThreads(1);
  RunMetrics metrics;
  std::string path;
  {
    recovery::RecoveryOptions options;
    options.dir = dir.string();
    options.resume = false;
    recovery::RunCheckpointer rc(options, "golden");
    ExperimentContext context(kind, split, NoiseSpec::Uniform(0.3),
                              config.emb_dim, seed);
    ClfdModel model(config, seed);
    metrics = TrainAndEvaluate(&model, context, &rc);
    path = rc.path();
  }  // the destructor makes the final snapshot durable
  parallel::SetGlobalThreads(0);

  Fnv1a h;
  h.Add(metrics.f1);
  h.Add(metrics.fpr);
  h.Add(metrics.auc);
  const recovery::Checkpoint ckpt = recovery::LoadCheckpoint(path);
  int param_sections = 0;
  for (const std::string& name : ckpt.SectionNames()) {
    if (name.rfind("params.", 0) != 0) continue;
    h.Add(name);
    h.Add(ckpt.Section(name));
    ++param_sections;
  }
  EXPECT_EQ(param_sections, 5) << "corrector encoder/projection/classifier "
                                  "and detector encoder/classifier";
  std::filesystem::remove_all(dir);
  return h.Hex();
}

// Each config runs under both kernel backends: they must agree with each
// other and with the committed digest.
void ExpectGolden(DatasetKind kind, const std::string& tag,
                  const std::string& golden) {
  for (KernelBackend backend : AllKernelBackends()) {
    ScopedKernelBackend use(backend);
    EXPECT_EQ(PipelineDigest(kind, tag), golden)
        << tag << " backend=" << KernelBackendName(backend);
  }
}

TEST(GoldenDigestTest, CertCompactWidth1) {
  ExpectGolden(DatasetKind::kCert, "cert", "d2c0285fd36da322");
}

TEST(GoldenDigestTest, WikiCompactWidth1) {
  ExpectGolden(DatasetKind::kWiki, "wiki", "33ae2fe5ac0d1b71");
}

}  // namespace
}  // namespace clfd
