// Accuracy and special-value contract of tensor/fmath.h, checked against
// double-precision libm, plus the tensor kernels' use of it.

#include "tensor/fmath.h"

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>

#include <gtest/gtest.h>

#include "common/check.h"
#include "tensor/kernel_backend.h"
#include "tensor/matrix.h"

namespace clfd {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();

// Position of f on the number line in ulps: adjacent floats differ by 1,
// and -0 and +0 share position 0.
int64_t UlpIndex(float f) {
  const int32_t bits = std::bit_cast<int32_t>(f);
  return bits < 0 ? -static_cast<int64_t>(bits & 0x7fffffff) : bits;
}

int64_t UlpDistance(float a, float b) {
  return std::llabs(UlpIndex(a) - UlpIndex(b));
}

// Tracks the largest ulp error against a correctly rounded float reference,
// counted only where the reference is a normal float — the range the
// header's bounds cover.
struct MaxUlp {
  int64_t ulps = 0;
  float worst_x = 0.0f;
  void Check(float x, float got, double want) {
    const float ref = static_cast<float>(want);
    if (!std::isnormal(ref)) return;
    const int64_t d = UlpDistance(got, ref);
    if (d > ulps) {
      ulps = d;
      worst_x = x;
    }
  }
};

// Every 997th float bit pattern (prime stride, so every exponent and a
// spread of mantissas are hit): about 4.3M arguments per function.
TEST(FmathAccuracy, StridedSweepAgainstDoubleLibm) {
  MaxUlp exp_err, sigmoid_err, tanh_err;
  int64_t overflows = 0;
  for (uint64_t bits = 0; bits <= 0xffffffffull; bits += 997) {
    const float x = std::bit_cast<float>(static_cast<uint32_t>(bits));
    if (std::isnan(x)) continue;
    const double xd = x;
    const double exp_ref = std::exp(xd);
    const float got = fmath::Exp(x);
    exp_err.Check(x, got, exp_ref);
    if (static_cast<float>(exp_ref) == kInf) {
      ++overflows;
      ASSERT_EQ(got, kInf) << "Exp(" << x << ") must overflow to +Inf";
    }
    sigmoid_err.Check(x, fmath::Sigmoid(x), 1.0 / (1.0 + std::exp(-xd)));
    tanh_err.Check(x, fmath::Tanh(x), std::tanh(xd));
  }
  EXPECT_GT(overflows, 0);
  EXPECT_LE(exp_err.ulps, 2) << "worst x " << exp_err.worst_x;
  EXPECT_LE(sigmoid_err.ulps, 4) << "worst x " << sigmoid_err.worst_x;
  EXPECT_LE(tanh_err.ulps, 4) << "worst x " << tanh_err.worst_x;
}

// A denser sweep where the LSTM gates and softmax spend their arguments:
// every 61st float with 2^-12 <= |x| < 32, both signs.
TEST(FmathAccuracy, DenseSweepOfGateRange) {
  MaxUlp exp_err, sigmoid_err, tanh_err;
  const uint32_t lo = std::bit_cast<uint32_t>(0x1p-12f);
  const uint32_t hi = std::bit_cast<uint32_t>(32.0f);
  for (uint32_t bits = lo; bits < hi; bits += 61) {
    const float mag = std::bit_cast<float>(bits);
    for (float x : {mag, -mag}) {
      const double xd = x;
      exp_err.Check(x, fmath::Exp(x), std::exp(xd));
      sigmoid_err.Check(x, fmath::Sigmoid(x), 1.0 / (1.0 + std::exp(-xd)));
      tanh_err.Check(x, fmath::Tanh(x), std::tanh(xd));
    }
  }
  EXPECT_LE(exp_err.ulps, 2) << "worst x " << exp_err.worst_x;
  EXPECT_LE(sigmoid_err.ulps, 4) << "worst x " << sigmoid_err.worst_x;
  EXPECT_LE(tanh_err.ulps, 4) << "worst x " << tanh_err.worst_x;
}

TEST(FmathSpecialValues, NanPropagates) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_TRUE(std::isnan(fmath::Exp(nan)));
  EXPECT_TRUE(std::isnan(fmath::Exp(-nan)));
  EXPECT_TRUE(std::isnan(fmath::Sigmoid(nan)));
  EXPECT_TRUE(std::isnan(fmath::Tanh(nan)));
  EXPECT_TRUE(std::isnan(fmath::Tanh(-nan)));
}

TEST(FmathSpecialValues, Infinities) {
  EXPECT_EQ(fmath::Exp(kInf), kInf);
  EXPECT_EQ(fmath::Exp(-kInf), 0.0f);
  EXPECT_FALSE(std::signbit(fmath::Exp(-kInf)));
  EXPECT_EQ(fmath::Sigmoid(kInf), 1.0f);
  EXPECT_EQ(fmath::Sigmoid(-kInf), 0.0f);
  EXPECT_EQ(fmath::Tanh(kInf), 1.0f);
  EXPECT_EQ(fmath::Tanh(-kInf), -1.0f);
}

TEST(FmathSpecialValues, SignedZerosAndTinyArguments) {
  EXPECT_EQ(fmath::Exp(0.0f), 1.0f);
  EXPECT_EQ(fmath::Exp(-0.0f), 1.0f);
  EXPECT_EQ(fmath::Sigmoid(0.0f), 0.5f);
  EXPECT_EQ(std::bit_cast<uint32_t>(fmath::Tanh(0.0f)),
            std::bit_cast<uint32_t>(0.0f));
  EXPECT_EQ(std::bit_cast<uint32_t>(fmath::Tanh(-0.0f)),
            std::bit_cast<uint32_t>(-0.0f));
  // tanh(x) = x to float precision for tiny x, of either sign; the
  // small-argument polynomial keeps that exact.
  for (float x : {1e-30f, FLT_MIN, 1e-10f, 3e-5f}) {
    EXPECT_EQ(fmath::Tanh(x), x);
    EXPECT_EQ(fmath::Tanh(-x), -x);
  }
}

TEST(FmathSpecialValues, OverflowIsInfNeverClamped) {
  for (float x : {88.73f, 89.0f, 100.0f, 1e10f, FLT_MAX}) {
    EXPECT_EQ(fmath::Exp(x), kInf) << x;
    EXPECT_EQ(fmath::Sigmoid(-x), 0.0f) << x;
  }
  // The largest finite result is still finite.
  EXPECT_TRUE(std::isfinite(fmath::Exp(88.72f)));
  // A non-finite kernel output is what the invariant checks (and through
  // them the divergence watchdog) look for.
  check::ScopedEnable checks(true);
  Matrix big(1, 3, 100.0f);
  for (KernelBackend backend : AllKernelBackends()) {
    ScopedKernelBackend use(backend);
    Matrix e = Exp(big);
    EXPECT_EQ(e[0], kInf);
    EXPECT_THROW(CheckFinite(e, "Exp"), check::InvariantError);
  }
}

TEST(FmathSpecialValues, UnderflowIsGradual) {
  const float sub = fmath::Exp(-100.0f);
  EXPECT_GT(sub, 0.0f);
  EXPECT_LT(sub, FLT_MIN);
  EXPECT_LE(UlpDistance(sub, static_cast<float>(std::exp(-100.0))), 1);
  EXPECT_EQ(fmath::Exp(-104.0f), 0.0f);
  EXPECT_EQ(fmath::Exp(-1e10f), 0.0f);
}

// The tensor kernels evaluate exactly these functions, on both backends.
TEST(FmathKernels, MatrixOpsMatchHeaderBitwise) {
  Matrix a(3, 11);
  for (int i = 0; i < a.size(); ++i) {
    a[i] = -12.0f + 0.73f * static_cast<float>(i);
  }
  for (KernelBackend backend : AllKernelBackends()) {
    ScopedKernelBackend use(backend);
    const Matrix e = Exp(a), s = Sigmoid(a), t = Tanh(a);
    for (int i = 0; i < a.size(); ++i) {
      EXPECT_EQ(std::bit_cast<uint32_t>(e[i]),
                std::bit_cast<uint32_t>(fmath::Exp(a[i])));
      EXPECT_EQ(std::bit_cast<uint32_t>(s[i]),
                std::bit_cast<uint32_t>(fmath::Sigmoid(a[i])));
      EXPECT_EQ(std::bit_cast<uint32_t>(t[i]),
                std::bit_cast<uint32_t>(fmath::Tanh(a[i])));
    }
  }
}

}  // namespace
}  // namespace clfd
