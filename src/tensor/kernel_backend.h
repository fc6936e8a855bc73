#pragma once

#include <array>
#include <stdexcept>
#include <string>

namespace clfd {

// Which compiled bodies the dense kernels in matrix.cc dispatch to. The
// two backends are bitwise-interchangeable: every output element is
// accumulated over k in the same ascending order with one rounded add per
// term (and the same zero-skip control flow), and the transcendentals are
// the same fmath.h functions, so switching backends — like switching
// thread widths — can never change a single result bit. The equivalence
// suite in tests/kernel_backend_test.cc enforces this against the scalar
// oracle for every kernel; DESIGN.md §12 gives the argument.
//
//   scalar   the original per-row loops: the oracle the tests select, and
//            the fallback for tile remainders inside simd
//   simd     register-tiled (4x8 output tile) matmuls and lane-blocked
//            elementwise bodies with fixed trip counts and __restrict
//            qualified pointers, written so the compiler's portable
//            auto-vectorizer emits packed arithmetic (no intrinsics); the
//            production default
enum class KernelBackend : int {
  kScalar = 0,
  kSimd = 1,
};

// Raised when CLFD_KERNEL_BACKEND names no backend.
class KernelBackendError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

// Active backend. Reads CLFD_KERNEL_BACKEND (scalar|simd, default simd) on
// first use and throws KernelBackendError for any other value, rather than
// silently running a different backend than the one asked for. One relaxed
// atomic load on the hot path, same idiom as MatmulParallelThreshold.
KernelBackend CurrentKernelBackend();

// Process-wide override (the CLI --kernel-backend flag lands here). Also
// stamps the obs report annotation so profiles and rooflines are
// attributed to the backend that produced them.
void SetKernelBackend(KernelBackend backend);

// "scalar" / "simd".
const char* KernelBackendName(KernelBackend backend);

// Parses a backend name; returns false (and leaves *out alone) on an
// unrecognized string.
bool ParseKernelBackend(const std::string& name, KernelBackend* out);

// All backends, scalar first — test sweeps iterate this so a new backend
// is picked up by every equivalence/grad-check suite automatically.
const std::array<KernelBackend, 2>& AllKernelBackends();

// Test helper: force a backend for a lexical scope, restoring the previous
// selection on exit. Not thread-safe (flips the process-wide selector);
// use from single-threaded test bodies only, like
// ScopedMatmulParallelThreshold.
class ScopedKernelBackend {
 public:
  explicit ScopedKernelBackend(KernelBackend backend)
      : saved_(CurrentKernelBackend()) {
    SetKernelBackend(backend);
  }
  ~ScopedKernelBackend() { SetKernelBackend(saved_); }
  ScopedKernelBackend(const ScopedKernelBackend&) = delete;
  ScopedKernelBackend& operator=(const ScopedKernelBackend&) = delete;

 private:
  KernelBackend saved_;
};

}  // namespace clfd
