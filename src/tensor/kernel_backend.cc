#include "tensor/kernel_backend.h"

#include <atomic>

#include "common/env.h"
#include "obs/prof.h"

namespace clfd {

namespace {

// -1 = read CLFD_KERNEL_BACKEND on first use. Deliberate mutable global: a
// dispatch *selector*, not numeric state — every backend produces bitwise-
// identical results (tests/kernel_backend_test.cc), so its value can never
// change what is computed, only which compiled body computes it. Same
// idiom as g_matmul_threshold in matrix.cc.
// clfd-lint: allow(concurrency-mutable-global) clfd-analyze: allow(semantic-mutable-global)
std::atomic<int> g_kernel_backend{-1};

void Annotate(KernelBackend b) {
  obs::prof::SetReportAnnotation("kernel_backend", KernelBackendName(b));
}

}  // namespace

const char* KernelBackendName(KernelBackend backend) {
  switch (backend) {
    case KernelBackend::kScalar: return "scalar";
    case KernelBackend::kSimd: return "simd";
  }
  return "simd";
}

bool ParseKernelBackend(const std::string& name, KernelBackend* out) {
  for (KernelBackend b : AllKernelBackends()) {
    if (name == KernelBackendName(b)) {
      *out = b;
      return true;
    }
  }
  return false;
}

const std::array<KernelBackend, 2>& AllKernelBackends() {
  static const std::array<KernelBackend, 2> all = {KernelBackend::kScalar,
                                                   KernelBackend::kSimd};
  return all;
}

KernelBackend CurrentKernelBackend() {
  int v = g_kernel_backend.load(std::memory_order_relaxed);
  if (v < 0) {
    KernelBackend b = KernelBackend::kSimd;
    const std::string name = GetEnvString("CLFD_KERNEL_BACKEND", "simd");
    if (!ParseKernelBackend(name, &b)) {
      throw KernelBackendError("bad CLFD_KERNEL_BACKEND '" + name +
                               "' (want scalar|simd)");
    }
    v = static_cast<int>(b);
    g_kernel_backend.store(v, std::memory_order_relaxed);
    Annotate(b);
  }
  return static_cast<KernelBackend>(v);
}

void SetKernelBackend(KernelBackend backend) {
  g_kernel_backend.store(static_cast<int>(backend),
                         std::memory_order_relaxed);
  Annotate(backend);
}

}  // namespace clfd
