#pragma once

// Hierarchical always-compiled profiler: the cost-attribution layer on top
// of the metrics/trace substrate.
//
//   void TrainPhase(...) {
//     CLFD_PROF_SCOPE("pretrain");          // phase scope
//     ...
//   }
//   Matrix MatMul(...) {
//     CLFD_PROF_SCOPE("MatMul");            // kernel scope
//     prof::AddFlops(2 * m * k * n);        // attributed to "MatMul"
//     prof::AddBytes(bytes_touched);
//     ...
//   }
//
// Each thread owns a scope tree (phase → op → kernel); a Scope pushes one
// node on construction and adds its elapsed time on destruction. Kernel
// call sites attach FLOP, special-function and byte counts to the innermost
// open scope, which is what the roofline report divides to get achieved
// GFLOP/s, special-function evaluations per second and arithmetic
// intensity per kernel.
//
// Worker threads of parallel::ThreadPool re-root their trees under the
// scope path captured when ParallelFor was issued (ScopedContext), so a
// MatMul running on worker 3 inside the "pretrain" phase lands at
// pretrain/…/MatMul in worker 3's tree, not at its top level.
//
// Snapshot() merges every thread's tree into one report tree. The merge is
// deterministic by construction: integer totals are summed (order-free) and
// children are emitted sorted by name, so two identical runs — at any
// thread width — produce byte-identical deterministic reports
// (ToJson(..., include_timing=false)). Timing fields are naturally
// run-dependent and only appear in the non-deterministic report forms.
//
// Profiling is ON by default (CLFD_PROF=0 disables; measured overhead on
// the corrector end-to-end bench is within the 2% budget, see
// BM_ProfCorrectorE2E). A disabled Scope costs one relaxed atomic load.
// Building with -DCLFD_OBS_FORCE_OFF compiles the whole layer into empty
// shells.
//
// At process exit, CLFD_PROF_OUT=<path> writes the timing JSON report,
// CLFD_PROF_COLLAPSED=<path> writes flamegraph-compatible collapsed stacks
// (feed to flamegraph.pl or speedscope), and CLFD_PROF_ROOFLINE=<path|->
// writes the per-kernel roofline table ("-" = stderr).

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace clfd {
namespace obs {
namespace prof {

// One merged tree node. Totals are inclusive (children included in ns);
// flops/special/bytes are attributed directly to the node by AddFlops/
// AddSpecialEvals/AddBytes at call sites, not rolled up.
struct ReportNode {
  std::string name;
  int64_t ns = 0;
  int64_t count = 0;
  int64_t flops = 0;
  int64_t bytes = 0;
  // Special-function (exp, tanh, sigmoid) evaluations. Counted apart from
  // flops: one costs tens of flops, so a transcendental-bound kernel would
  // otherwise read as a near-idle GFLOP/s.
  int64_t special = 0;
  std::vector<ReportNode> children;  // sorted by name

  const ReportNode* Child(const std::string& child_name) const;
  // Sum of a field over this node and all descendants.
  int64_t TotalFlops() const;
  int64_t TotalBytes() const;
};

#if defined(CLFD_OBS_FORCE_OFF)

inline bool Enabled() { return false; }
inline void SetEnabled(bool) {}
inline void AddFlops(int64_t) {}
inline void AddSpecialEvals(int64_t) {}
inline void AddBytes(int64_t) {}
inline void Reset() {}
inline ReportNode Snapshot() { return ReportNode{"root", 0, 0, 0, 0, 0, {}}; }
inline std::vector<const char*> CurrentPath() { return {}; }

class Scope {
 public:
  explicit Scope(const char* name) { (void)name; }
};

class ScopedContext {
 public:
  explicit ScopedContext(const std::vector<const char*>& path) {
    (void)path;
  }
};

class ScopedEnabled {
 public:
  explicit ScopedEnabled(bool on) { (void)on; }
};

#else

// Whether scopes record. Reads CLFD_PROF (default on) on first use.
bool Enabled();
void SetEnabled(bool on);

// Attributes nominal work to the innermost open scope of the current
// thread (the profile root when no scope is open). One relaxed load + two
// plain adds when enabled.
void AddFlops(int64_t flops);
void AddSpecialEvals(int64_t evals);
void AddBytes(int64_t bytes);

// Scope path of the current thread, outermost first. Captured by
// ParallelFor and re-applied on workers via ScopedContext. Entries are the
// string literals the scopes were opened with.
std::vector<const char*> CurrentPath();

// Merges all thread trees (summed totals, children sorted by name).
// Call while no scopes are running on other threads — in practice after a
// ParallelFor join, whose completion handshake orders worker writes before
// the snapshot read.
ReportNode Snapshot();

// Zeroes and prunes every thread tree. Same quiescence requirement as
// Snapshot; live threads must have exited all scopes (their cursor then
// points at their root, which survives the prune).
void Reset();

// RAII timing scope. `name` must be a string literal (node identity is the
// interned pointer, merged by content).
class Scope {
 public:
  explicit Scope(const char* name);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  void* node_ = nullptr;  // opaque tree node; null when disabled at entry
  int64_t start_ns_ = 0;
};

// Re-roots the current thread's scopes under `path` for its lifetime: the
// pool applies the submitting thread's CurrentPath() on each worker, so
// worker-side scopes nest under the issuing phase deterministically. Adds
// no time or counts to the path nodes themselves.
class ScopedContext {
 public:
  explicit ScopedContext(const std::vector<const char*>& path);
  ~ScopedContext();
  ScopedContext(const ScopedContext&) = delete;
  ScopedContext& operator=(const ScopedContext&) = delete;

 private:
  void* saved_ = nullptr;
  bool active_ = false;
};

// Test/bench helper: force the profiler on or off for a lexical scope.
class ScopedEnabled {
 public:
  explicit ScopedEnabled(bool on) : prev_(Enabled()) { SetEnabled(on); }
  ~ScopedEnabled() { SetEnabled(prev_); }
  ScopedEnabled(const ScopedEnabled&) = delete;
  ScopedEnabled& operator=(const ScopedEnabled&) = delete;

 private:
  bool prev_;
};

#endif  // CLFD_OBS_FORCE_OFF

// ---- Report rendering (operate on a Snapshot; usable in any build) ----

// Small ordered key→value set stamped into every rendered report: ToJson
// emits it as an "annotations" object (both timing and deterministic
// forms) and RooflineReport as a header line. Always compiled — even under
// CLFD_OBS_FORCE_OFF — so layers below obs can label reports
// unconditionally; the tensor kernel layer stamps "kernel_backend" here
// whenever the backend selector resolves or changes, which is what
// attributes a profile/roofline to the backend that produced it.
// Annotations are configuration, not measurements: they are identical at
// every thread width, so the deterministic JSON form stays byte-identical
// across widths. Setting a key again overwrites it.
void SetReportAnnotation(const std::string& key, const std::string& value);
std::vector<std::pair<std::string, std::string>> ReportAnnotations();

// Timing JSON: full tree with ns, achieved GFLOP/s and arithmetic
// intensity per node, plus a "thread_pool" utilization section scraped
// from the "parallel.*" metrics counters. include_timing=false emits the
// deterministic form: structure, counts, flops, bytes only — byte-identical
// across runs and thread widths for identical workloads.
std::string ToJson(const ReportNode& root, bool include_timing = true);

// Flamegraph collapsed-stack text: one "a;b;c <self_micros>" line per node
// with nonzero self time (inclusive ns minus children), deepest paths
// included. Pipe through flamegraph.pl or load into speedscope.
std::string ToCollapsed(const ReportNode& root);

// Human-readable roofline/attribution report: per-phase wall share with
// unattributed remainder, and per-kernel calls / time / GFLOP/s /
// special-function evaluations per second (Gspec/s) / arithmetic
// intensity aggregated by kernel name over the whole tree.
// `peak_gflops` > 0 adds a %-of-peak column (CLFD_PEAK_GFLOPS env at the
// exit-hook call site).
std::string RooflineReport(const ReportNode& root, double peak_gflops = 0.0);

// Fraction of root wall-time attributed to named top-level scopes'
// children at `depth` (1 = phases). Used by the ≥95% attribution test.
double AttributedFraction(const ReportNode& node);

}  // namespace prof
}  // namespace obs
}  // namespace clfd

#if defined(CLFD_OBS_FORCE_OFF)
#define CLFD_PROF_SCOPE(name) \
  do {                        \
  } while (0)
#else
#define CLFD_PROF_CONCAT_INNER_(a, b) a##b
#define CLFD_PROF_CONCAT_(a, b) CLFD_PROF_CONCAT_INNER_(a, b)
// Scoped profiler node covering the rest of the enclosing block.
#define CLFD_PROF_SCOPE(name)                                            \
  ::clfd::obs::prof::Scope CLFD_PROF_CONCAT_(clfd_prof_scope_, __LINE__)( \
      name)
#endif
