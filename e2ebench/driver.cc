// End-to-end benchmark driver for the CLFD pipeline.
//
//   e2ebench_driver --design e2ebench/design.json --workload NAME --seed N
//                   --seconds S --trace 0|1 [--spans-out FILE]
//
// Runs one workload of design.json in this process and prints two lines:
// a record (settings, effective program defaults, host-drift control,
// raw samples) and, last, the result object
// {"correct", "attempted", "failed", "metrics"}.
//
// --trace 0 drives ClfdModel exactly as `clfd_cli run` does and reports the
// end-to-end metrics. --trace 1 runs that untraced path once, then drives
// the same steps through the core layer's public pieces (LabelCorrector ->
// Train -> Correct, FraudDetector -> Train -> Score) with a span around
// every call, and reads the program's own counters, phase timings and
// profiler totals before and after each call to report per-layer metrics.
// The traced path must reproduce the untraced AUC bitwise.
//
// Every input comes from --seed; the program under test only sees the
// generated sessions. Nothing here changes a program default: the only
// setting a workload pins is its thread width.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_lib.h"
#include "common/json.h"
#include "common/rng.h"
#include "core/clfd.h"
#include "core/config.h"
#include "core/fraud_detector.h"
#include "core/label_corrector.h"
#include "data/noise.h"
#include "data/simulators.h"
#include "embedding/word2vec.h"
#include "metrics/metrics.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"

extern char** environ;

namespace e2ebench {
namespace {

using clfd::ClfdConfig;
using clfd::ClfdModel;
using clfd::Matrix;
using clfd::Rng;
using clfd::SessionDataset;

// ---------------------------------------------------------------- settings

struct Workload {
  std::string name;
  bool score_mode = false;  // "score": serve a model trained in set-up
  clfd::DatasetKind dataset = clfd::DatasetKind::kCert;
  double scale = 0.0;
  double noise_eta = 0.0;
  int threads = 1;
  uint64_t model_seed = 7;
  ClfdConfig config;
  int replicas = 1;      // independent datasets and models per run
  int min_requests = 1;  // scoring requests per run, at least
  int pool_normal = 0;   // ground-truth pool the requests draw from
  int pool_malicious = 0;
  int request_sessions = 0;
};

bool ReadInt(const clfd::json::Value& obj, const char* key, int lo,
             int* out, std::string* error) {
  double v = obj.NumberOr(key, -1.0);
  if (v < lo || v != std::floor(v) || v > 1e9) {
    *error = std::string("design: bad or missing integer '") + key + "'";
    return false;
  }
  *out = static_cast<int>(v);
  return true;
}

bool LoadWorkload(const std::string& path, const std::string& name,
                  Workload* w, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot read " + path;
    return false;
  }
  std::stringstream text;
  text << in.rdbuf();
  clfd::json::Value root;
  if (!clfd::json::Parse(text.str(), &root, error)) return false;
  const clfd::json::Value* all = root.Find("workloads");
  const clfd::json::Value* spec = all != nullptr ? all->Find(name) : nullptr;
  if (spec == nullptr || !spec->IsObject()) {
    *error = "unknown workload '" + name + "'";
    return false;
  }
  const clfd::json::Value* model = spec->Find("model");
  if (model == nullptr || !model->IsObject()) {
    *error = "design: workload " + name + " has no model object";
    return false;
  }
  w->name = name;
  const std::string mode = spec->StringOr("mode", "");
  const std::string dataset = spec->StringOr("dataset", "");
  const std::string budget = model->StringOr("budget", "");
  if ((mode != "train" && mode != "score") ||
      (dataset != "cert" && dataset != "wiki") ||
      (budget != "fast" && budget != "paper")) {
    *error = "design: workload " + name + " needs mode train|score, "
             "dataset cert|wiki and model.budget fast|paper";
    return false;
  }
  w->score_mode = mode == "score";
  w->dataset = dataset == "cert" ? clfd::DatasetKind::kCert
                                 : clfd::DatasetKind::kWiki;
  w->scale = spec->NumberOr("scale", 0.0);
  w->noise_eta = spec->NumberOr("noise_eta", -1.0);
  if (!(w->scale > 0.0 && w->scale <= 1.0) ||
      !(w->noise_eta >= 0.0 && w->noise_eta < 0.5)) {
    *error = "design: workload " + name + " needs scale in (0, 1] and "
             "noise_eta in [0, 0.5)";
    return false;
  }
  int model_seed = 0;
  ClfdConfig& c = w->config;
  c.budget = budget == "paper" ? clfd::TrainingBudget::Paper()
                               : clfd::TrainingBudget::Fast();
  if (!ReadInt(*spec, "threads", 1, &w->threads, error) ||
      !ReadInt(*spec, "model_seed", 0, &model_seed, error) ||
      !ReadInt(*spec, "replicas", 1, &w->replicas, error) ||
      !ReadInt(*spec, "min_requests", 1, &w->min_requests, error) ||
      !ReadInt(*model, "emb_dim", 1, &c.emb_dim, error) ||
      !ReadInt(*model, "hidden_dim", 1, &c.hidden_dim, error) ||
      !ReadInt(*model, "num_layers", 1, &c.num_layers, error) ||
      !ReadInt(*model, "batch_size", 1, &c.batch_size, error) ||
      !ReadInt(*model, "aux_batch_size", 1, &c.aux_batch_size, error)) {
    return false;
  }
  w->model_seed = static_cast<uint64_t>(model_seed);
  if (!ReadInt(*spec, "pool_normal", 1, &w->pool_normal, error) ||
      !ReadInt(*spec, "pool_malicious", 1, &w->pool_malicious, error) ||
      !ReadInt(*spec, "request_sessions", 1, &w->request_sessions, error)) {
    return false;
  }
  if ((w->pool_normal + w->pool_malicious) % w->request_sessions != 0) {
    *error = "design: pool size must be a multiple of request_sessions";
    return false;
  }
  return true;
}

// ---------------------------------------------------------- measurement

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Process-wide resource use: CPU covers the pool's worker threads too.
struct Usage {
  double wall_s = 0.0;
  double user_s = 0.0;
  double sys_s = 0.0;
  double minor_faults = 0.0;
  double invol_switches = 0.0;

  static Usage Now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.wall_s = NowSeconds();
    u.user_s = ru.ru_utime.tv_sec + ru.ru_utime.tv_usec * 1e-6;
    u.sys_s = ru.ru_stime.tv_sec + ru.ru_stime.tv_usec * 1e-6;
    u.minor_faults = static_cast<double>(ru.ru_minflt);
    u.invol_switches = static_cast<double>(ru.ru_nivcsw);
    return u;
  }
  double cpu_s() const { return user_s + sys_s; }
  Usage operator-(const Usage& o) const {
    return {wall_s - o.wall_s, user_s - o.user_s, sys_s - o.sys_s,
            minor_faults - o.minor_faults,
            invol_switches - o.invol_switches};
  }
};

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

// Host-drift control: a fixed integer loop that is not part of the
// program. It moves with the host's speed, not with any change under test.
double HostProbeMs() {
  const double t0 = NowSeconds();
  uint64_t x = 88172645463325252ull;
  for (int i = 0; i < (1 << 24); ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  volatile uint64_t sink = x;
  (void)sink;
  return (NowSeconds() - t0) * 1e3;
}

// --------------------------------------------------------------- inputs

struct Inputs {
  SessionDataset train;
  SessionDataset test;
  // Ground-truth pool the scoring requests draw from, cut into
  // request-sized slices.
  std::vector<SessionDataset> slices;
  Matrix embeddings;
  double generate_ms = 0.0;
  double word2vec_ms = 0.0;
};

// The dataset `clfd_cli generate --seed <seed>` writes, then the activity
// embeddings `clfd_cli run --seed <model_seed>` trains.
Inputs MakeInputs(const Workload& w, uint64_t seed) {
  Inputs in;
  double t0 = NowSeconds();
  Rng rng(seed);
  clfd::SimulatedData data = clfd::MakeDataset(
      w.dataset, clfd::PaperSplit(w.dataset).Scaled(w.scale), &rng);
  clfd::NoiseSpec::Uniform(w.noise_eta).Apply(&data.train, &rng);
  in.train = std::move(data.train);
  in.test = std::move(data.test);
  clfd::SimulatedData pool = clfd::MakeDataset(
      w.dataset, clfd::SplitSpec{0, 0, w.pool_normal, w.pool_malicious},
      &rng);
  const int n = pool.test.size();
  for (int lo = 0; lo < n; lo += w.request_sessions) {
    SessionDataset slice;
    slice.vocab = pool.test.vocab;
    slice.sessions.assign(pool.test.sessions.begin() + lo,
                          pool.test.sessions.begin() + lo + w.request_sessions);
    in.slices.push_back(std::move(slice));
  }
  in.generate_ms = (NowSeconds() - t0) * 1e3;
  t0 = NowSeconds();
  Rng model_rng(w.model_seed);
  in.embeddings = clfd::TrainActivityEmbeddings(in.train, w.config.emb_dim,
                                                &model_rng);
  in.word2vec_ms = (NowSeconds() - t0) * 1e3;
  return in;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// ------------------------------------------------------------ scoring

// How far a session's score may move when it is batched with other
// sessions: float rounding only.
constexpr double kRebatchTolerance = 1e-6;

// Scores `data` with `score`, checks the output against `expected` (when
// given) and times the call.
template <typename ScoreFn>
std::vector<double> ScoreRequest(const ScoreFn& score,
                                 const SessionDataset& data,
                                 const std::vector<double>* expected,
                                 double tolerance, Tally* tally,
                                 double* latency_s) {
  const double t0 = NowSeconds();
  std::vector<double> scores = score(data);
  *latency_s = NowSeconds() - t0;
  tally->Op(RequestOk(scores, data.sessions.size(), expected, tolerance),
            "scoring request returned invalid or non-repeatable scores");
  return scores;
}

// Scores every slice once (checked against `reference` when given) and
// adds the time spent in the calls to `*total_s` when given.
template <typename ScoreFn>
std::vector<std::vector<double>> ScoreSlices(
    const ScoreFn& score, const std::vector<SessionDataset>& slices,
    const std::vector<std::vector<double>>* reference, Tally* tally,
    double* total_s) {
  std::vector<std::vector<double>> out(slices.size());
  for (size_t s = 0; s < slices.size(); ++s) {
    double latency = 0.0;
    out[s] = ScoreRequest(score, slices[s],
                          reference != nullptr ? &(*reference)[s] : nullptr,
                          0.0, tally, &latency);
    if (total_s != nullptr) *total_s += latency;
  }
  return out;
}

// AUC over the whole pool from per-slice scores.
double PoolAuc(const std::vector<std::vector<double>>& slice_scores,
               const std::vector<SessionDataset>& slices) {
  std::vector<double> scores;
  std::vector<int> truths;
  for (size_t i = 0; i < slices.size(); ++i) {
    scores.insert(scores.end(), slice_scores[i].begin(),
                  slice_scores[i].end());
    for (const auto& s : slices[i].sessions) truths.push_back(s.true_label);
  }
  return clfd::AucRoc(scores, truths);
}

// ------------------------------------------------------ per-layer readers

// Registry counters the program keeps (read, never reset).
const char* const kCounters[] = {
    "tensor.alloc.count",   "tensor.alloc.bytes",   "tensor.alloc.arena_count",
    "autograd.tape.nodes_created", "autograd.backward.calls",
    "plan.captures",        "plan.replays",         "plan.invalidations",
    "plan.uncapturable",    "optim.adam.steps",     "parallel.jobs",
    "parallel.chunks",
};

struct ProfTotals {
  double matmul_ns = 0, matmul_calls = 0, lstm_fwd_ns = 0, lstm_bwd_ns = 0,
         encode_ns = 0, flops = 0;
};

void WalkProf(const clfd::obs::prof::ReportNode& node, bool in_matmul,
              bool in_encode, ProfTotals* t) {
  const bool matmul = node.name.rfind("MatMul", 0) == 0;
  if (matmul && !in_matmul) {
    t->matmul_ns += node.ns;
    t->matmul_calls += node.count;
  }
  if (node.name == "LstmGatesForward") t->lstm_fwd_ns += node.ns;
  if (node.name == "LstmGatesBackward") t->lstm_bwd_ns += node.ns;
  const bool encode = node.name == "encode.dataset";
  if (encode && !in_encode) t->encode_ns += node.ns;
  for (const auto& child : node.children) {
    WalkProf(child, in_matmul || matmul, in_encode || encode, t);
  }
}

// Everything the traced run reads between two calls into the program.
struct LayerState {
  Usage usage;
  std::map<std::string, double> counters;
  ProfTotals prof;
  double read_ms = 0.0;  // what this read cost: the tracing's own work

  static LayerState Read() {
    const double t0 = NowSeconds();
    LayerState s;
    auto& registry = clfd::obs::MetricsRegistry::Get();
    for (const char* name : kCounters) {
      s.counters[name] =
          static_cast<double>(registry.GetCounter(name)->value());
    }
    clfd::obs::prof::ReportNode root = clfd::obs::prof::Snapshot();
    WalkProf(root, false, false, &s.prof);
    s.prof.flops = static_cast<double>(root.TotalFlops());
    // Taken last: the interval between two reads includes the later read's
    // own cost, which read_ms reports.
    s.usage = Usage::Now();
    s.read_ms = (NowSeconds() - t0) * 1e3;
    return s;
  }
  double Counter(const LayerState& before, const char* name) const {
    return counters.at(name) - before.counters.at(name);
  }
};

// Spans recorded from the benchmark's side of each call, kept in memory and
// written out when the run ends.
class Tracer {
 public:
  explicit Tracer(double origin_s) : origin_s_(origin_s) {}

  int Begin(const char* name, int64_t request = -1) {
    spans_.push_back({name, Micros(), -1, open_, request});
    open_ = static_cast<int>(spans_.size()) - 1;
    return open_;
  }
  // Returns the span's duration in milliseconds.
  double End(int id) {
    spans_[id].end_us = Micros();
    open_ = spans_[id].parent;
    return (spans_[id].end_us - spans_[id].begin_us) / 1e3;
  }
  bool Write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"spans\": [";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i > 0 ? ",\n  " : "\n  ") << "{\"id\": " << i
          << ", \"name\": " << Quote(s.name) << ", \"start_us\": "
          << s.begin_us << ", \"end_us\": " << s.end_us
          << ", \"parent\": " << s.parent << ", \"request\": " << s.request
          << "}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    std::string name;
    int64_t begin_us;
    int64_t end_us;
    int parent;
    int64_t request;  // -1 outside scoring requests
  };
  int64_t Micros() const {
    return static_cast<int64_t>((NowSeconds() - origin_s_) * 1e6);
  }

  double origin_s_;
  std::vector<Span> spans_;
  int open_ = -1;
};

// ------------------------------------------------------------- the runs

struct Options {
  std::string design;
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string spans_out;
};

std::string JsonList(const std::vector<double>& v) {
  std::string s = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    s += (i > 0 ? ", " : "") + FormatNumber(v[i]);
  }
  return s + "]";
}

// One independent copy of the workload's inputs and model. A run holds
// several, each made from its own seed, so its medians and its AUC are
// taken over several datasets and trained models rather than one.
struct Replica {
  Inputs in;
  std::unique_ptr<ClfdModel> model;
  std::vector<std::vector<double>> reference;  // pool scores per slice
};

uint64_t ReplicaSeed(uint64_t seed, int k) { return seed * 1000 + k; }

// Untraced end-to-end run: what `clfd_cli run --model CLFD` does, once per
// replica, followed by a closed serving loop over the trained replicas.
void RunEndToEnd(const Workload& w, const Options& opt, Tally* tally,
                 MetricSet* metrics, std::string* record) {
  std::vector<double> setup_s, train_s, train_cpu_s, auc, latency_s;
  std::vector<Replica> replicas(w.replicas);
  std::vector<std::vector<double>> replica_latency_s(w.replicas);

  auto train = [&](Replica& r) {
    r.model = std::make_unique<ClfdModel>(w.config, w.model_seed);
    const Usage u0 = Usage::Now();
    r.model->Train(r.in.train, r.in.embeddings);
    const Usage du = Usage::Now() - u0;
    train_s.push_back(du.wall_s);
    train_cpu_s.push_back(du.cpu_s());
  };
  // Scores the whole pool once: the AUC, the reference every later request
  // is checked against, and the warm-up before serving.
  auto evaluate = [&](Replica& r) {
    r.reference = ScoreSlices(
        [&](const SessionDataset& d) { return r.model->Score(d); },
        r.in.slices, nullptr, tally, nullptr);
    auc.push_back(PoolAuc(r.reference, r.in.slices));
  };

  for (int k = 0; k < w.replicas; ++k) {
    const double t0 = NowSeconds();
    replicas[k].in = MakeInputs(w, ReplicaSeed(opt.seed, k));
    if (w.score_mode) {
      // Ready to serve: trained, and every pool session scored once.
      train(replicas[k]);
      evaluate(replicas[k]);
    }
    setup_s.push_back(NowSeconds() - t0);
  }

  const Usage timed0 = Usage::Now();
  if (!w.score_mode) {
    for (Replica& r : replicas) {
      train(r);
      // The CLI's evaluation call on the test split.
      double unused = 0.0;
      ScoreRequest([&](const SessionDataset& d) { return r.model->Score(d); },
                   r.in.test, nullptr, 0.0, tally, &unused);
      evaluate(r);
    }
  }

  // Closed loop, one client: the next request is sent when the previous
  // one has returned. Request i goes to replica i mod R and holds
  // request_sessions sessions drawn afresh from that replica's pool, so the
  // latency distribution is the pool's and the models', not that of a few
  // fixed batches. Every score must match the session's reference score up
  // to rounding.
  struct Pool {
    std::vector<const clfd::LabeledSession*> sessions;
    std::vector<double> reference;
    std::vector<int> perm;
  };
  std::vector<Pool> pools(replicas.size());
  for (size_t k = 0; k < replicas.size(); ++k) {
    const Replica& r = replicas[k];
    for (size_t s = 0; s < r.in.slices.size(); ++s) {
      for (const auto& session : r.in.slices[s].sessions) {
        pools[k].sessions.push_back(&session);
      }
      pools[k].reference.insert(pools[k].reference.end(),
                                r.reference[s].begin(), r.reference[s].end());
    }
    pools[k].perm.resize(pools[k].sessions.size());
    for (size_t i = 0; i < pools[k].perm.size(); ++i) pools[k].perm[i] = i;
  }
  Rng request_rng(opt.seed * 7919 + 1);
  SessionDataset request;
  request.vocab = replicas[0].in.train.vocab;
  std::vector<double> expected;
  for (int i = 0;
       i < w.min_requests || NowSeconds() - timed0.wall_s < opt.seconds;
       ++i) {
    const size_t k = i % replicas.size();
    Pool& pool = pools[k];
    request.sessions.clear();
    expected.clear();
    for (int j = 0; j < w.request_sessions; ++j) {
      const int n = static_cast<int>(pool.perm.size()) - j;
      std::swap(pool.perm[j], pool.perm[j + request_rng.UniformInt(n)]);
      request.sessions.push_back(*pool.sessions[pool.perm[j]]);
      expected.push_back(pool.reference[pool.perm[j]]);
    }
    double latency = 0.0;
    ScoreRequest(
        [&](const SessionDataset& d) { return replicas[k].model->Score(d); },
        request, &expected, kRebatchTolerance, tally, &latency);
    latency_s.push_back(latency);
    replica_latency_s[k].push_back(latency);
  }
  const Usage timed = Usage::Now() - timed0;
  std::vector<double> replica_p50_ms;
  for (const auto& l : replica_latency_s) {
    replica_p50_ms.push_back(Median(l) * 1e3);
  }

  double request_total_s = 0.0;
  for (double l : latency_s) request_total_s += l;
  metrics->Add("setup_s", Median(setup_s), "s");
  metrics->Add("train_s", Median(train_s), "s");
  metrics->Add("train_cpu_s", Median(train_cpu_s), "s");
  metrics->Add("sessions_per_s",
               latency_s.size() * w.request_sessions / request_total_s, "1/s");
  metrics->Add("score_p50_ms", Quantile(latency_s, 0.5) * 1e3, "ms");
  metrics->Add("score_p90_ms", Quantile(latency_s, 0.9) * 1e3, "ms");
  metrics->Add("peak_rss_mb", PeakRssMb(), "MB");
  metrics->Add("auc", Median(auc), "AUCx100");

  *record = "\"requests\": " + std::to_string(latency_s.size()) +
            ", \"proc.invol_switches\": " +
            FormatNumber(timed.invol_switches) +
            ", \"samples\": {\"setup_s\": " + JsonList(setup_s) +
            ", \"train_s\": " + JsonList(train_s) +
            ", \"train_cpu_s\": " + JsonList(train_cpu_s) +
            ", \"auc\": " + JsonList(auc) +
            ", \"score_p50_ms\": " + JsonList(replica_p50_ms) + "}";
}

// Traced run: the untraced pipeline once, then the same steps through the
// core layer's public pieces with spans and counter reads around each call.
void RunTraced(const Workload& w, const Options& opt, Tally* tally,
               MetricSet* m, std::string* record) {
  Tracer tracer(NowSeconds());
  int span = tracer.Begin("setup");
  Inputs in = MakeInputs(w, ReplicaSeed(opt.seed, 0));
  tracer.End(span);
  tally->Op(true, "set-up");

  // Untraced: ClfdModel, as clfd_cli run drives it. The pool is scored
  // twice: the first pass is the warm-up and the reference, the second is
  // timed against the traced pass.
  ClfdModel model(w.config, w.model_seed);
  const double u_train0 = NowSeconds();
  model.Train(in.train, in.embeddings);
  const double untraced_train_s = NowSeconds() - u_train0;
  tally->Op(true, "untraced training");
  auto model_score = [&](const SessionDataset& d) { return model.Score(d); };
  double unused = 0.0;
  const std::vector<std::vector<double>> reference =
      ScoreSlices(model_score, in.slices, nullptr, tally, nullptr);
  double untraced_requests_s = 0.0;
  ScoreSlices(model_score, in.slices, &reference, tally, &untraced_requests_s);
  const double untraced_auc = PoolAuc(reference, in.slices);

  // Traced: the same steps, one public call at a time.
  clfd::obs::PhaseCapture phases;
  const LayerState s0 = LayerState::Read();
  const int train_span = tracer.Begin("train");
  int id = tracer.Begin("core.corrector_train");
  clfd::LabelCorrector corrector(w.config, w.model_seed);
  corrector.Train(in.train, in.embeddings);
  const double corrector_train_ms = tracer.End(id);
  const double simclr_ms = phases.Micros("pretrain") / 1e3;
  const double corrector_cls_ms = phases.Micros("corrector") / 1e3;
  id = tracer.Begin("core.correct");
  std::vector<clfd::Correction> corrections = corrector.Correct(in.train);
  const double correct_ms = tracer.End(id);
  id = tracer.Begin("core.detector_train");
  clfd::FraudDetector detector(w.config, w.model_seed + 1);
  detector.Train(in.train, corrections, in.embeddings);
  const double detector_train_ms = tracer.End(id);
  const double train_wall_ms = tracer.End(train_span);
  const LayerState s1 = LayerState::Read();
  tally->Op(true, "traced training");
  const double supcon_ms = phases.Micros("detector") / 1e3;
  const double detector_cls_ms = phases.Micros("classifier") / 1e3;

  const int requests_span = tracer.Begin("score");
  std::vector<std::vector<double>> traced_scores(in.slices.size());
  double score_ms_total = 0.0;
  for (size_t s = 0; s < in.slices.size(); ++s) {
    id = tracer.Begin("core.score", static_cast<int64_t>(s));
    traced_scores[s] = ScoreRequest(
        [&](const SessionDataset& d) { return detector.Score(d); },
        in.slices[s], &reference[s], 0.0, tally, &unused);
    score_ms_total += tracer.End(id);
  }
  const double traced_requests_ms = tracer.End(requests_span);
  const LayerState s2 = LayerState::Read();
  const double traced_auc = PoolAuc(traced_scores, in.slices);
  tally->Op(SameBits(traced_auc, untraced_auc),
            "traced path did not reproduce the untraced AUC bitwise");
  const double n_requests = static_cast<double>(in.slices.size());

  // The unit the layer counters cover: one training (train mode) or the
  // traced scoring requests (score mode).
  const LayerState& a = w.score_mode ? s1 : s0;
  const LayerState& b = w.score_mode ? s2 : s1;
  const Usage du = b.usage - a.usage;
  const Usage dreq = s2.usage - s1.usage;
  const double adam_steps = b.Counter(a, "optim.adam.steps");
  const double steps = w.score_mode ? n_requests : adam_steps;
  const double plan_attempts =
      b.Counter(a, "plan.captures") + b.Counter(a, "plan.replays") +
      b.Counter(a, "plan.invalidations") + b.Counter(a, "plan.uncapturable");
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };

  const double overhead_ms =
      w.score_mode ? traced_requests_ms - untraced_requests_s * 1e3
                   : train_wall_ms - untraced_train_s * 1e3;
  const double phase_ms =
      simclr_ms + corrector_cls_ms + supcon_ms + detector_cls_ms;
  const double encode_ms = (s2.prof.encode_ns - s1.prof.encode_ns) / 1e6;

  m->Add("trace.overhead_ms", overhead_ms, "ms");
  m->Add("trace.read_ms", s0.read_ms + s1.read_ms + s2.read_ms, "ms");
  m->Add("trace.attributed_share",
         w.score_mode
             ? ratio(score_ms_total, traced_requests_ms)
             : ratio(corrector_train_ms + correct_ms + detector_train_ms,
                     train_wall_ms),
         "ratio");
  m->Add("trace.inner_share",
         w.score_mode ? ratio(encode_ms, score_ms_total)
                      : ratio(phase_ms, train_wall_ms),
         "ratio");
  m->Add("data.generate_ms", in.generate_ms, "ms");
  m->Add("embedding.word2vec_ms", in.word2vec_ms, "ms");
  m->Add("encoders.simclr_ms", simclr_ms, "ms");
  m->Add("encoders.supcon_ms", supcon_ms, "ms");
  m->Add("encoders.encode_ms", encode_ms / n_requests, "ms");
  m->Add("core.corrector_train_ms", corrector_train_ms, "ms");
  m->Add("core.correct_ms", correct_ms, "ms");
  m->Add("core.detector_train_ms", detector_train_ms, "ms");
  m->Add("core.corrector_classifier_ms", corrector_cls_ms, "ms");
  m->Add("core.detector_classifier_ms", detector_cls_ms, "ms");
  m->Add("core.score_ms", score_ms_total / n_requests, "ms");
  m->Add("tensor.matmul_ms", (b.prof.matmul_ns - a.prof.matmul_ns) / 1e6,
         "ms");
  m->Add("tensor.matmul_calls", b.prof.matmul_calls - a.prof.matmul_calls,
         "count");
  m->Add("tensor.lstm_gates_fwd_ms",
         (b.prof.lstm_fwd_ns - a.prof.lstm_fwd_ns) / 1e6, "ms");
  m->Add("tensor.lstm_gates_bwd_ms",
         (b.prof.lstm_bwd_ns - a.prof.lstm_bwd_ns) / 1e6, "ms");
  m->Add("tensor.gflop", (b.prof.flops - a.prof.flops) / 1e9, "GFLOP");
  const double allocs = b.Counter(a, "tensor.alloc.count");
  m->Add("tensor.alloc_count", allocs, "count");
  m->Add("tensor.alloc_mb", b.Counter(a, "tensor.alloc.bytes") / 1048576.0,
         "MB");
  m->Add("tensor.arena_alloc_count", b.Counter(a, "tensor.alloc.arena_count"),
         "count");
  m->Add("tensor.alloc_count_per_step", ratio(allocs, steps), "count");
  m->Add("autograd.tape_nodes", b.Counter(a, "autograd.tape.nodes_created"),
         "count");
  m->Add("autograd.backward_calls", b.Counter(a, "autograd.backward.calls"),
         "count");
  m->Add("plan.captures", b.Counter(a, "plan.captures"), "count");
  m->Add("plan.replays", b.Counter(a, "plan.replays"), "count");
  m->Add("plan.invalidations", b.Counter(a, "plan.invalidations"), "count");
  m->Add("plan.replay_ratio",
         ratio(b.Counter(a, "plan.replays"), plan_attempts), "ratio");
  m->Add("nn.adam_steps", adam_steps, "count");
  m->Add("parallel.jobs", b.Counter(a, "parallel.jobs"), "count");
  m->Add("parallel.chunks", b.Counter(a, "parallel.chunks"), "count");
  m->Add("parallel.efficiency",
         ratio(du.cpu_s(), du.wall_s * clfd::parallel::GlobalThreadCount()),
         "ratio");
  m->Add("proc.minor_faults", du.minor_faults, "count");
  m->Add("proc.minor_faults_per_request", dreq.minor_faults / n_requests,
         "count");
  m->Add("proc.sys_cpu_s", du.sys_s, "s");
  m->Add("proc.invol_switches", du.invol_switches, "count");

  *record = "\"requests\": " + std::to_string(in.slices.size()) +
            ", \"untraced_train_s\": " + FormatNumber(untraced_train_s) +
            ", \"traced_train_s\": " + FormatNumber(train_wall_ms / 1e3) +
            ", \"auc\": " + FormatNumber(traced_auc);
  if (!opt.spans_out.empty() && !tracer.Write(opt.spans_out)) {
    tally->Op(false, "cannot write spans to " + opt.spans_out);
  }
}

// ------------------------------------------------------------------ main

bool ParseArgs(int argc, char** argv, Options* opt) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return false;
    args[argv[i] + 2] = argv[i + 1];
  }
  if (argc % 2 != 1 || !args.count("design") || !args.count("workload") ||
      !args.count("seed") || !args.count("seconds") || !args.count("trace")) {
    return false;
  }
  opt->design = args["design"];
  opt->workload = args["workload"];
  opt->spans_out = args.count("spans-out") ? args["spans-out"] : "";
  char* end = nullptr;
  opt->seed = std::strtoull(args["seed"].c_str(), &end, 10);
  if (*end != '\0' || args["seed"].empty()) return false;
  opt->seconds = std::strtod(args["seconds"].c_str(), &end);
  if (*end != '\0' || !(opt->seconds > 0.0)) return false;
  if (args["trace"] != "0" && args["trace"] != "1") return false;
  opt->trace = args["trace"] == "1";
  return true;
}

int Main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: e2ebench_driver --design FILE --workload NAME "
                 "--seed N --seconds S --trace 0|1 [--spans-out FILE]\n");
    return 2;
  }
  // Every knob stays at the program default; run.py clears the caller's
  // CLFD_* variables, and a run that still sees one is refused.
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "CLFD_", 5) == 0) {
      std::fprintf(stderr, "refusing to run with %s set\n", *e);
      return 2;
    }
  }
  Workload w;
  std::string error;
  if (!LoadWorkload(opt.design, opt.workload, &w, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  clfd::parallel::SetGlobalThreads(w.threads);

  std::vector<double> probes;
  for (int i = 0; i < 3; ++i) probes.push_back(HostProbeMs());
  Tally tally;
  MetricSet metrics;
  std::string detail;
  try {
    if (opt.trace) {
      RunTraced(w, opt, &tally, &metrics, &detail);
    } else {
      RunEndToEnd(w, opt, &tally, &metrics, &detail);
    }
  } catch (const std::exception& e) {
    tally.Op(false, std::string("exception: ") + e.what());
  }
  for (int i = 0; i < 3; ++i) probes.push_back(HostProbeMs());
  if (opt.trace) metrics.Add("host.probe_ms", Median(probes), "ms");
  if (!metrics.ok()) {
    std::fprintf(stderr, "malformed result: %s\n", metrics.error().c_str());
    return 1;
  }

  std::string annotations = "{";
  for (const auto& [key, value] : clfd::obs::prof::ReportAnnotations()) {
    annotations += (annotations.size() > 1 ? ", " : "") + Quote(key) +
                   ": " + Quote(value);
  }
  annotations += "}";
  std::string problems = "[";
  for (size_t i = 0; i < tally.problems.size(); ++i) {
    problems += (i > 0 ? ", " : "") + Quote(tally.problems[i]);
  }
  problems += "]";
  std::printf(
      "{\"record\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"threads\": %d, \"annotations\": %s, "
      "\"host.probe_ms\": %s, %s, \"problems\": %s}}\n",
      Quote(w.name).c_str(), static_cast<unsigned long long>(opt.seed),
      FormatNumber(opt.seconds).c_str(), opt.trace ? 1 : 0,
      clfd::parallel::GlobalThreadCount(), annotations.c_str(),
      FormatNumber(Median(probes)).c_str(), detail.c_str(),
      problems.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": %s}\n",
      tally.failed == 0 ? "true" : "false",
      tally.attempted,
      tally.failed, metrics.ToJson().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) { return e2ebench::Main(argc, argv); }
