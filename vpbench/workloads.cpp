// Workload table, seeded inputs, the correctness reference and the untraced
// end-to-end run.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "bench.h"
#include "common/rng.h"
#include "runtime/checkpoint.h"
#include "runtime/reference_trainer.h"
#include "runtime/resilient_trainer.h"
#include "transport/shm_transport.h"
#include "transport/tcp_transport.h"
#include "transport/thread_transport.h"

namespace vpbench {

using vocab::GptWeights;
using vocab::OutputAlgo;
using vocab::PipelineFlavor;
using vocab::Sample;

const char* to_string(Backend backend) {
  switch (backend) {
    case Backend::kThreads: return "threads";
    case Backend::kShm: return "shm";
    case Backend::kTcp: return "tcp";
  }
  return "?";
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"vocab-heavy", 64, 32768, PipelineFlavor::OneFOneBVocab, OutputAlgo::Alg2,
       Backend::kThreads, false, false},
      {"comm-bound-shm", 64, 211, PipelineFlavor::OneFOneBVocab, OutputAlgo::Alg1,
       Backend::kShm, false, false},
      {"auto-bf16-tcp", 128, 8192, PipelineFlavor::Auto, OutputAlgo::Alg2, Backend::kTcp,
       true, false},
      {"recover", 64, 4096, PipelineFlavor::OneFOneBVocab, OutputAlgo::Alg2,
       Backend::kThreads, false, true},
  };
  return all;
}

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return w;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

vocab::GptConfig model_config(const Workload& w) {
  vocab::GptConfig cfg;
  cfg.num_layers = kLayers;
  cfg.heads = kHeads;
  cfg.hidden = w.hidden;
  cfg.seq_len = kSeqLen;
  cfg.vocab = w.vocab;
  return cfg;
}

std::unique_ptr<vocab::transport::Transport> make_transport(Backend backend) {
  namespace tr = vocab::transport;
  switch (backend) {
    case Backend::kThreads: return std::make_unique<tr::ThreadTransport>();
    case Backend::kShm: return std::make_unique<tr::ShmTransport>(tr::ShmTransport::in_process());
    case Backend::kTcp: return std::make_unique<tr::TcpTransport>(tr::TcpTransport::in_process());
  }
  throw std::logic_error("unknown backend");
}

namespace {

/// Independent sub-seeds of the workload seed (splitmix64 finalizer).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// ~1 ThrowInOp per 5 iterations: one fault in each window of 5, at a
/// seeded iteration, device and op. Iteration 0 (set-up) is never hit.
vocab::FaultPlan recover_plan(std::uint64_t seed, std::int64_t max_iterations) {
  vocab::Rng rng(seed);
  vocab::FaultPlan plan;
  for (std::int64_t base = 0; base < max_iterations; base += 5) {
    vocab::FaultSpec spec;
    spec.kind = vocab::FaultKind::ThrowInOp;
    spec.iteration = static_cast<std::uint64_t>(base) + rng.uniform_int(5);
    spec.device = static_cast<int>(rng.uniform_int(kDevices));
    // Every device of a 1F1B-vocab schedule dispatches at least 4m ops.
    spec.op_index = static_cast<int>(rng.uniform_int(4 * kMicrobatches));
    spec.note = "vpbench";
    if (spec.iteration > 0) plan.faults.push_back(spec);
  }
  return plan;
}

}  // namespace

Inputs::Inputs(const Workload& w, std::uint64_t seed, double seconds)
    : weights(GptWeights::init(model_config(w), derive_seed(seed, 0))),
      corpus(w.vocab, kSeqLen, derive_seed(seed, 1)) {
  // The plan covers more iterations than a run of `seconds` can reach; the
  // injector scans it on every op, so it is not made longer than that.
  if (w.resilient) faults = recover_plan(derive_seed(seed, 2), std::llround(seconds * 50.0) + 50);
}

std::vector<Sample> Inputs::batch(std::int64_t iteration) const {
  std::vector<Sample> out;
  out.reserve(kMicrobatches);
  for (int i = 0; i < kMicrobatches; ++i) {
    out.push_back(corpus.sample(static_cast<int>(iteration * kMicrobatches + i)));
  }
  return out;
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

CpuTicks read_cpu_ticks() {
  CpuTicks t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1], &v[2], &v[3],
                  &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (const unsigned long long x : v) t.total += x;
    t.steal = v[7];
  }
  std::fclose(f);
  return t;
}

double steal_fraction(const CpuTicks& a, const CpuTicks& b) {
  return b.total > a.total ? static_cast<double>(b.steal - a.steal) /
                                 static_cast<double>(b.total - a.total)
                           : 0.0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// ---- Session ---------------------------------------------------------------

struct Session::Impl {
  // Declared before the trainer, so it is destroyed after it.
  std::unique_ptr<vocab::transport::Transport> transport;
  std::unique_ptr<vocab::PipelineTrainer> plain;
  std::unique_ptr<vocab::ResilientTrainer> resilient;
};

Session::Session(const Workload& w, const Inputs& inputs, GptWeights weights,
                 const std::string& checkpoint_path, Backend backend)
    : impl_(std::make_unique<Impl>()) {
  if (w.resilient) {
    vocab::RecoveryPolicy policy;
    policy.checkpoint_path = checkpoint_path;
    policy.checkpoint_every = 1;
    impl_->resilient = std::make_unique<vocab::ResilientTrainer>(std::move(weights), kDevices,
                                                                 w.algo, w.flavor, policy);
    impl_->resilient->set_fault_injector(std::make_shared<vocab::FaultInjector>(inputs.faults));
    return;
  }
  impl_->transport = make_transport(backend);
  impl_->plain = std::make_unique<vocab::PipelineTrainer>(std::move(weights), kDevices, w.algo,
                                                          w.flavor, impl_->transport.get());
  if (w.bf16) impl_->plain->set_mixed_precision(vocab::MixedPrecisionConfig{});
}

Session::~Session() = default;

float Session::step(const std::vector<Sample>& batch) {
  const auto opt = vocab::OptimizerConfig::sgd(kLearningRate);
  return impl_->resilient ? impl_->resilient->train_iteration(batch, opt)
                          : impl_->plain->train_iteration(batch, opt);
}

vocab::PipelineTrainer& Session::trainer() {
  return impl_->resilient ? impl_->resilient->trainer() : *impl_->plain;
}

int Session::faults_observed() const {
  return impl_->resilient ? impl_->resilient->stats().faults_observed : 0;
}

int Session::recoveries() const {
  return impl_->resilient ? impl_->resilient->stats().recoveries : 0;
}

// ---- correctness reference -------------------------------------------------

long long count_mismatches(const Workload& w, const Inputs& inputs,
                           const std::vector<Observed>& observed, bool corrupt,
                           std::string* check) {
  std::int64_t n = 0;
  for (const Observed& o : observed) n = std::max(n, o.iteration + 1);
  std::vector<float> expected;
  const auto opt = vocab::OptimizerConfig::sgd(kLearningRate);
  const bool bitwise = w.backend != Backend::kThreads || w.resilient;
  if (!bitwise) {
    // The single-device reference: same weights and batches, different
    // summation order, so a tolerance instead of bit equality.
    vocab::ReferenceTrainer ref(inputs.weights);
    for (std::int64_t i = 0; i < n; ++i) {
      expected.push_back(ref.train_iteration(inputs.batch(i), opt));
    }
  } else {
    // Transports are bit-identical to the threads backend, and a recovered
    // run is bit-identical to one that never failed.
    Workload clean = w;
    clean.resilient = false;
    Session s(clean, inputs, inputs.weights, "", Backend::kThreads);
    for (std::int64_t i = 0; i < n; ++i) expected.push_back(s.step(inputs.batch(i)));
  }
  if (corrupt && !expected.empty()) expected.back() += 1.0f;
  *check = bitwise ? "bitwise" : "5e-3*(1+|ref|)";

  long long mismatched = 0;
  for (const Observed& o : observed) {
    const float ref = expected[static_cast<std::size_t>(o.iteration)];
    const bool ok = bitwise ? std::memcmp(&ref, &o.loss, sizeof ref) == 0
                            : std::isfinite(o.loss) &&
                                  std::abs(o.loss - ref) <= 5e-3f * (1.0f + std::abs(ref));
    if (!ok) ++mismatched;
  }
  return mismatched;
}

// ---- end-to-end run --------------------------------------------------------

namespace {

// Medians over five set-ups and five recovery drills per run: with three,
// recovery_s on auto-bf16-tcp spread by 13-15% across runs.
constexpr int kSetupRepeats = 5;
constexpr int kRecoveryDrills = 5;

}  // namespace

RunResult run_end_to_end(const Workload& w, const RunOptions& opt) {
  const Inputs inputs(w, opt.seed, opt.seconds);
  const std::string ckpt =
      opt.work_dir + "/ckpt-" + w.name + "-" + std::to_string(::getpid()) + ".bin";
  RunResult r;
  std::vector<Observed> observed;
  long long threw = 0;

  // Set-up: construction through the end of the first iteration, several
  // times; the last trainer goes on to the timed loop.
  std::vector<double> setup_s;
  std::unique_ptr<Session> session;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    session.reset();
    const auto t0 = Clock::now();
    session = std::make_unique<Session>(w, inputs, inputs.weights, ckpt, w.backend);
    const float loss = session->step(inputs.batch(0));
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    observed.push_back({0, loss});
  }

  const double setup_rss = peak_rss_mb();

  // Timed loop: fresh microbatches every iteration, for opt.seconds.
  std::vector<double> iter_s;
  std::vector<double> faulted_s;
  std::int64_t it = 1;
  const double cpu0 = process_cpu_seconds();
  const CpuTicks ticks0 = read_cpu_ticks();
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration<double>(opt.seconds);
  while (Clock::now() < deadline) {
    const std::vector<Sample> batch = inputs.batch(it);
    const int faults_before = session->faults_observed();
    const auto t0 = Clock::now();
    try {
      observed.push_back({it, session->step(batch)});
    } catch (const std::exception& e) {
      r.notes.push_back(std::string("iteration threw: ") + e.what());
      ++threw;
      break;  // the trainer is poisoned; the run has failed
    }
    const double dt = std::chrono::duration<double>(Clock::now() - t0).count();
    iter_s.push_back(dt);
    if (session->faults_observed() > faults_before) faulted_s.push_back(dt);
    ++it;
  }
  const double wall = std::chrono::duration<double>(Clock::now() - start).count();
  const double cpu = process_cpu_seconds() - cpu0;
  const double steal = steal_fraction(ticks0, read_cpu_ticks());
  const double rss = peak_rss_mb();

  // Recovery drills (workloads without planned faults): a ThrowInOp in the
  // middle of iteration `it`, then reload the checkpoint, rebuild the
  // trainer and retry — timed from the failed attempt to the retry's end.
  if (!w.resilient && threw == 0) {
    vocab::save_checkpoint(ckpt, session->trainer().export_weights());
    for (int d = 0; d < kRecoveryDrills; ++d) {
      vocab::FaultSpec spec;
      spec.kind = vocab::FaultKind::ThrowInOp;
      spec.iteration = static_cast<std::uint64_t>(it);
      spec.device = 1;
      spec.op_index = 2 * kMicrobatches;
      spec.note = "vpbench drill";
      auto injector = std::make_shared<vocab::FaultInjector>(vocab::FaultPlan::single(spec));
      session->trainer().set_fault_injector(injector);
      injector->begin_iteration(static_cast<std::uint64_t>(it));
      const auto t0 = Clock::now();
      bool failed_attempt = false;
      try {
        (void)session->step(inputs.batch(it));
      } catch (const std::exception&) {
        failed_attempt = true;
      }
      if (!failed_attempt) {
        r.notes.push_back("recovery drill: the injected fault did not fire");
        ++threw;
      }
      try {
        session.reset();
        session = std::make_unique<Session>(w, inputs, vocab::load_checkpoint(ckpt), ckpt,
                                            w.backend);
        observed.push_back({it, session->step(inputs.batch(it))});
      } catch (const std::exception& e) {
        r.notes.push_back(std::string("recovery drill: the retry threw: ") + e.what());
        ++threw;
        break;
      }
      faulted_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    }
  }
  const int faults = session != nullptr ? session->faults_observed() : 0;
  const int recoveries = session != nullptr ? session->recoveries() : 0;
  const std::string selected = session != nullptr ? session->trainer().selected_schedule() : "";
  session.reset();
  std::remove(ckpt.c_str());

  // Correctness: every loss the program produced against the reference.
  std::string check;
  const long long mismatched =
      count_mismatches(w, inputs, observed, opt.corrupt_expected, &check);
  r.attempted = static_cast<long long>(observed.size()) + threw;
  r.failed = mismatched + threw;
  r.correct = r.failed == 0 && !iter_s.empty() && !faulted_s.empty();
  if (faulted_s.empty()) r.notes.push_back("no faulted iteration was measured");

  const double tokens = static_cast<double>(iter_s.size()) * kMicrobatches * kSeqLen;
  const double p50 = percentile(iter_s, 0.5) * 1e3;
  const double p90 = percentile(iter_s, 0.9) * 1e3;
  r.add("tokens_per_s", tokens / wall, "tokens/s");
  r.add("iter_ms_p50", p50, "ms");
  r.add("iter_ms_p90", p90, "ms");
  r.add("cpu_s_per_iter", iter_s.empty() ? 0.0 : cpu / static_cast<double>(iter_s.size()),
        "cpu_s");
  r.add("peak_rss_mb", rss, "MB");
  r.add("setup_s", median(setup_s), "s");
  r.add("recovery_s", median(faulted_s), "s");

  const auto above = std::count_if(iter_s.begin(), iter_s.end(),
                                   [&](double s) { return s * 1e3 > p90; });
  char line[256];
  std::snprintf(line, sizeof line,
                "timed iterations %zu (%ld above p90), recovered iterations %zu "
                "(faults observed %d, recoveries %d)",
                iter_s.size(), static_cast<long>(above), faulted_s.size(), faults, recoveries);
  r.notes.emplace_back(line);
  const Prediction predicted = predict_iteration(w);
  std::snprintf(line, sizeof line,
                "schedule %s (trainer) / %s (sim): sim.predicted_iter_ms %.4f beside measured "
                "iter_ms_p50 %.3f",
                selected.c_str(), predicted.schedule.c_str(), predicted.iter_ms, p50);
  r.notes.emplace_back(line);
  // On a virtual machine the host can take CPU time from every device
  // thread at once; this says how much it took while the loop was timed.
  std::snprintf(line, sizeof line, "host steal %.1f%% of CPU time during the timed loop",
                100.0 * steal);
  r.notes.emplace_back(line);
  std::snprintf(line, sizeof line, "peak RSS %.1f MB after set-up, %.1f MB after the timed loop",
                setup_rss, rss);
  r.notes.emplace_back(line);
  std::snprintf(line, sizeof line, "failed_frac %.6f (%lld failed of %lld attempted, %s check)",
                r.attempted > 0 ? static_cast<double>(r.failed) / static_cast<double>(r.attempted)
                                : 1.0,
                r.failed, r.attempted, check.c_str());
  r.notes.emplace_back(line);
  return r;
}

}  // namespace vpbench
