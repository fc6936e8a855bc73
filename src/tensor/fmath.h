#pragma once

// Repo-owned single-precision transcendentals for the tensor kernels.
//
// Exp, Sigmoid and Tanh are built from plain float arithmetic only:
// Cephes-style range reduction, a minimax polynomial, and scaling by 2^n
// through integer bit arithmetic. There are no libm calls, intrinsics or
// data-dependent branches — every choice is a select — so:
//
//   * results do not depend on the libm version: the bits are fixed by the
//     source and IEEE-754 float arithmetic (round-to-nearest, no FMA
//     contraction on the baseline x86-64 target);
//   * a loop that calls them auto-vectorizes, and the vectorized lanes
//     perform exactly the operations of the scalar calls, so the scalar
//     oracle and the simd kernel bodies agree bit for bit
//     (tests/kernel_backend_test.cc).
//
// Accuracy against double-precision libm, measured over a strided sweep
// of all float bit patterns (tests/fmath_test.cc), counted as the distance
// in ulps from the correctly rounded float result:
//
//   Exp      <= 2 ulp wherever the result is a normal float
//   Sigmoid  <= 4 ulp wherever the result is a normal float
//   Tanh     <= 4 ulp wherever the result is a normal float
//
// Special values:
//
//   * NaN in gives NaN out (the payload is not preserved).
//   * Exp(+Inf) = +Inf and Exp(-Inf) = +0. An argument whose result
//     overflows gives +Inf, never a clamped finite value, so non-finite
//     checks (check::CheckFinite, the divergence watchdog) still fire.
//     Results below the normal range underflow gradually to subnormals and
//     then to +0.
//   * Sigmoid(+Inf) = 1, Sigmoid(-Inf) = +0.
//   * Tanh(+-0) = +-0 and Tanh(+-Inf) = +-1; Tanh keeps the sign of its
//     argument everywhere.

#include <bit>
#include <cstdint>

namespace clfd {
namespace fmath {

namespace detail {

// Float with the magnitude of `mag` and the sign bit of `sign`.
inline float CopySign(float mag, float sign) {
  const uint32_t m = std::bit_cast<uint32_t>(mag) & 0x7fffffffu;
  const uint32_t s = std::bit_cast<uint32_t>(sign) & 0x80000000u;
  return std::bit_cast<float>(m | s);
}

// `c ? a : b` as bit arithmetic on an all-ones or all-zeros mask. A plain
// conditional lets the compiler sink one arm's arithmetic into a branch,
// and with trapping math on (the default) that branch can no longer be
// if-converted, which stops the calling loop from vectorizing.
inline float Select(bool c, float a, float b) {
  const uint32_t mask = 0u - static_cast<uint32_t>(c);
  return std::bit_cast<float>((std::bit_cast<uint32_t>(a) & mask) |
                              (std::bit_cast<uint32_t>(b) & ~mask));
}

// 2^k for k in [-126, 127], built directly from the exponent field.
inline float Pow2(int32_t k) {
  return std::bit_cast<float>(static_cast<uint32_t>(k + 127) << 23);
}

}  // namespace detail

// e^x.
inline float Exp(float x) {
  // Clamp to a range where n below stays within [-150, 128]: past it the
  // result has already overflowed to +Inf or rounded to +0, and the clamped
  // argument still produces exactly that. NaN fails both compares and
  // passes through unchanged.
  x = detail::Select(x > 89.0f, 89.0f, x);
  x = detail::Select(x < -104.0f, -104.0f, x);
  // n = round(x / ln 2). Adding 1.5 * 2^23 rounds to an integer in the low
  // mantissa bits, which the bit pattern then yields without a float-to-int
  // conversion (that would be undefined for NaN).
  constexpr float kShifter = 12582912.0f;  // 1.5 * 2^23
  const float shifted = x * 1.44269504088896341f + kShifter;
  const float n = shifted - kShifter;
  const int32_t ni = static_cast<int32_t>(std::bit_cast<uint32_t>(shifted) -
                                          std::bit_cast<uint32_t>(kShifter));
  // r = x - n ln 2 in two parts (Cody-Waite): the high part of ln 2 has few
  // enough significant bits that n * hi is exact.
  float r = x - n * 0.693359375f;
  r = r - n * -2.12194440e-4f;
  // e^r on [-ln2/2, ln2/2]: Cephes expf minimax polynomial.
  const float rr = r * r;
  float p = 1.9875691500e-4f;
  p = p * r + 1.3981999507e-3f;
  p = p * r + 8.3334519073e-3f;
  p = p * r + 4.1665795894e-2f;
  p = p * r + 1.6666665459e-1f;
  p = p * r + 5.0000001201e-1f;
  p = p * rr + r + 1.0f;
  // Scale by 2^n as 2^(n/2) * 2^(n - n/2): each factor is a normal float
  // for every n in range, the first product is exact, and the second
  // rounds once — to +Inf on overflow, to a subnormal or +0 on underflow.
  const int32_t n1 = ni >> 1;
  return p * detail::Pow2(n1) * detail::Pow2(ni - n1);
}

// 1 / (1 + e^-x).
inline float Sigmoid(float x) { return 1.0f / (1.0f + Exp(-x)); }

// Hyperbolic tangent.
inline float Tanh(float x) {
  const float ax = detail::CopySign(x, 1.0f);
  // |x| < 0.625: odd minimax polynomial (Cephes tanhf), which keeps full
  // relative accuracy as x -> 0 where 1 - 2/(e^2x + 1) would cancel.
  const float z = ax * ax;
  float p = -5.70498872745e-3f;
  p = p * z + 2.06390887954e-2f;
  p = p * z - 5.37397155531e-2f;
  p = p * z + 1.33314422036e-1f;
  p = p * z - 3.33332819422e-1f;
  const float small = p * z * ax + ax;
  // Otherwise 1 - 2 / (e^2|x| + 1), which reaches exactly 1 once e^2|x|
  // overflows to +Inf.
  const float large = 1.0f - 2.0f / (Exp(2.0f * ax) + 1.0f);
  return detail::CopySign(detail::Select(ax < 0.625f, small, large), x);
}

}  // namespace fmath
}  // namespace clfd
