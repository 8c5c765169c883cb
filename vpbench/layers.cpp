// The traced run: per-layer numbers taken by timing calls into each
// module's public functions at the workload's own shapes.
//
// Spans come from this file only: one root span per train_iteration, one
// around every replayed layer call, and the set-up steps replayed through
// their public functions. Each per-layer metric is the median of its spans.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <thread>

#include "analysis/verifier.h"
#include "bench.h"
#include "comm/channel.h"
#include "comm/device_group.h"
#include "common/rng.h"
#include "core/input_layer_shard.h"
#include "core/vocab_shard.h"
#include "cost/cost_model.h"
#include "model/transformer.h"
#include "parallel/thread_pool.h"
#include "program/compiler.h"
#include "program/program_verifier.h"
#include "runtime/checkpoint.h"
#include "schedule/schedule_1f1b_vocab.h"
#include "schedule/schedule_gpipe.h"
#include "schedule/schedule_zb.h"
#include "search/schedule_search.h"
#include "sim/pipeline_sim.h"
#include "tensor/bf16.h"
#include "tensor/tensor_ops.h"
#include "transport/transport.h"

namespace vpbench {

using vocab::OutputAlgo;
using vocab::PipelineFlavor;
using vocab::Tensor;

namespace {

constexpr std::int64_t kMaxQueue = 1024;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Run `body(rep)` up to `max_reps` times, stopping early (after at least
/// three) once `budget_s` has passed.
void repeat(double budget_s, int max_reps, const std::function<void(int)>& body) {
  const auto t0 = Clock::now();
  for (int rep = 0; rep < max_reps; ++rep) {
    body(rep);
    if (rep >= 2 && seconds_between(t0, Clock::now()) > budget_s) break;
  }
}

/// Median duration of the spans called `name`, in microseconds.
double median_us(const Tracer& tracer, const std::string& name) {
  return median(tracer.durations(name)) * 1e6;
}

/// The cost model the trainer builds its schedule from (PipelineTrainer
/// derives it the same way from the GptConfig).
vocab::CostModel cost_model(const Workload& w) {
  vocab::ModelConfig mc;
  mc.name = "gpt";
  mc.num_layers = kLayers;
  mc.attention_heads = kHeads;
  mc.hidden = w.hidden;
  mc.seq_len = kSeqLen;
  mc.vocab = w.vocab;
  mc.microbatch = 1;
  mc.num_microbatches = kMicrobatches;
  return vocab::CostModel(mc, vocab::HardwareModel{});
}

vocab::search::SearchRequest search_request(const Workload& w) {
  vocab::search::SearchRequest req;
  req.p = kDevices;
  req.algo = w.algo;
  req.runtime_only = true;
  req.include_multi_chunk = false;
  return req;
}

/// What the trainer executes: the generator the flavor names, or for Auto
/// the generator of the family the search picked.
struct GeneratorChoice {
  std::string family;
  int w_delay = 0;
  int inserted_intervals = -1;
};

vocab::PipelineSchedule build_schedule(const vocab::CostModel& cm, const Workload& w,
                                       const GeneratorChoice& g) {
  if (g.family == "zb-vocab") {
    vocab::ZbOptions opts;
    opts.w_delay = g.w_delay;
    opts.inserted_intervals = g.inserted_intervals;
    return vocab::build_zb_vocab(cm, kDevices, w.algo, "", opts);
  }
  if (g.family == "gpipe-vocab") return vocab::build_gpipe_vocab(cm, kDevices, w.algo);
  return vocab::build_1f1b_vocab(cm, kDevices, w.algo, "", g.inserted_intervals);
}

int ops_per_device(const vocab::PipelineSchedule& s) {
  int most = 0;
  for (const vocab::DeviceLanes& d : s.devices) {
    most = std::max(most, static_cast<int>(d.compute.size() + d.comm.size() + d.comm_alt.size()));
  }
  return most;
}

/// The generator behind the workload's flavor; for Auto, that of the
/// family `found` ranks first.
GeneratorChoice generator_for(const Workload& w, const vocab::search::SearchResult& found) {
  if (w.flavor == PipelineFlavor::Auto) {
    const vocab::search::Candidate* best = found.best();
    if (best == nullptr) throw std::runtime_error("search found no certified schedule");
    return {best->family, best->w_delay, best->inserted_intervals};
  }
  if (w.flavor != PipelineFlavor::OneFOneBVocab) {
    throw std::runtime_error("no schedule replay for this workload's flavor");
  }
  return {"1f1b-vocab"};
}

/// Set-up steps replayed through their public functions.
void replay_setup(const Workload& w, const Inputs& inputs, const RunOptions& opt,
                  Tracer& tracer, RunResult& r, double* predicted_ms) {
  ScopedSpan root(tracer, "setup");
  const double budget = 0.03 * opt.seconds;
  const vocab::CostModel cm = cost_model(w);

  vocab::search::SearchResult found;
  repeat(budget, 5, [&](int) {
    ScopedSpan s(tracer, "search.search_schedules");
    found = vocab::search::search_schedules(cm, search_request(w));
  });
  const GeneratorChoice gen = generator_for(w, found);

  vocab::PipelineSchedule sched;
  repeat(budget, 5, [&](int) {
    ScopedSpan s(tracer, "schedule.build");
    sched = build_schedule(cm, w, gen);
  });
  std::vector<vocab::analysis::Diagnostic> diags;
  repeat(budget, 5, [&](int) {
    ScopedSpan s(tracer, "analysis.verify");
    diags = vocab::analysis::verify(sched);
  });
  vocab::program::CompiledProgram prog;
  repeat(budget, 5, [&](int) {
    ScopedSpan s(tracer, "program.compile");
    prog = vocab::program::compile_schedule(sched);
  });
  std::vector<vocab::program::ProgramDiagnostic> pdiags;
  repeat(budget, 5, [&](int) {
    ScopedSpan s(tracer, "program.verify");
    pdiags = vocab::program::verify_program(prog, &sched);
  });
  vocab::SimResult sim;
  repeat(budget, 5, [&](int) {
    ScopedSpan s(tracer, "sim.simulate");
    sim = vocab::simulate(sched, 0.0, vocab::SimVerify::kOff);
  });
  if (!diags.empty() || !pdiags.empty()) {
    r.correct = false;
    r.notes.push_back("the executed schedule failed certification");
  }
  const std::vector<double> peaks = vocab::analysis::activation_peak_microbatches(sched);

  repeat(budget, 3, [&](int) {
    auto transport = make_transport(w.backend);
    std::unique_ptr<vocab::PipelineTrainer> trainer;
    {
      ScopedSpan s(tracer, "runtime.trainer_ctor");
      trainer = std::make_unique<vocab::PipelineTrainer>(inputs.weights, kDevices, w.algo,
                                                         w.flavor, transport.get());
    }
  });
  const std::string ckpt =
      opt.work_dir + "/trace-ckpt-" + w.name + "-" + std::to_string(::getpid()) + ".bin";
  repeat(budget, 5, [&](int) {
    {
      ScopedSpan s(tracer, "runtime.checkpoint_save");
      vocab::save_checkpoint(ckpt, inputs.weights);
    }
    ScopedSpan s(tracer, "runtime.checkpoint_load");
    (void)vocab::load_checkpoint(ckpt);
  });
  std::remove(ckpt.c_str());

  *predicted_ms = sim.makespan * 1e3;
  r.add("schedule.build_ms", median(tracer.durations("schedule.build")) * 1e3, "ms");
  r.add("analysis.verify_ms", median(tracer.durations("analysis.verify")) * 1e3, "ms");
  r.add("program.compile_ms", median(tracer.durations("program.compile")) * 1e3, "ms");
  r.add("program.verify_ms", median(tracer.durations("program.verify")) * 1e3, "ms");
  r.add("schedule.ops_per_device", ops_per_device(sched), "count");
  r.add("analysis.activation_peak_mb", *std::max_element(peaks.begin(), peaks.end()),
        "microbatches");
  r.add("search.search_ms", median(tracer.durations("search.search_schedules")) * 1e3, "ms");
  r.add("search.candidates", static_cast<double>(found.ranked.size()), "count");
  r.add("sim.predicted_iter_ms", *predicted_ms, "ms");
  r.add("sim.peak_bytes_max", sim.max_peak_bytes(), "bytes");
  r.add("sim.peak_bytes_min", sim.min_peak_bytes(), "bytes");
  r.add("runtime.trainer_ctor_ms", median(tracer.durations("runtime.trainer_ctor")) * 1e3, "ms");
  r.add("runtime.checkpoint_save_ms", median(tracer.durations("runtime.checkpoint_save")) * 1e3,
        "ms");
  r.add("runtime.checkpoint_load_ms", median(tracer.durations("runtime.checkpoint_load")) * 1e3,
        "ms");
  r.notes.push_back("executed schedule " + sched.name + " (" + gen.family + "), " +
                    std::to_string(found.ranked.size()) + " search candidates");
}

/// Kernel and pass replays on one device's share of the workload, single
/// threaded like a device thread (nproc / p = 1 intra-op thread each).
void replay_kernels(const Workload& w, const Inputs& inputs, const RunOptions& opt,
                    Tracer& tracer, RunResult& r) {
  ScopedSpan root(tracer, "kernels");
  const vocab::parallel::ScopedPool serial(nullptr);
  const double budget = 0.03 * opt.seconds;
  const vocab::VocabShard shard = vocab::make_shard(w.vocab, 0, kDevices);
  const std::int64_t h = w.hidden;
  vocab::Rng rng(0x5eed);
  const Tensor x = Tensor::randn({kSeqLen, h}, rng, 0.5f);
  const Tensor weight = Tensor::randn({shard.size, h}, rng, 0.02f);
  const vocab::Bf16Tensor weight_bf16 = vocab::Bf16Tensor::from_tensor(weight);

  Tensor logits;
  repeat(budget, 200, [&](int) {
    ScopedSpan s(tracer, "tensor.logits_matmul");
    logits = vocab::matmul_nt(x, weight);
  });
  repeat(budget, 200, [&](int) {
    ScopedSpan s(tracer, "tensor.logits_matmul_bf16");
    (void)vocab::matmul_nt_bf16(x, weight_bf16);
  });
  repeat(budget, 200, [&](int) {
    ScopedSpan s(tracer, "tensor.softmax");
    (void)vocab::softmax_rows(logits);
  });
  const double mm_us = median_us(tracer, "tensor.logits_matmul");
  r.add("tensor.logits_matmul_us", mm_us, "us");
  r.add("tensor.logits_matmul_gflops",
        2.0 * static_cast<double>(kSeqLen * h * shard.size) / (mm_us * 1e3), "GFLOP/s");
  r.add("tensor.logits_matmul_bf16_us", median_us(tracer, "tensor.logits_matmul_bf16"), "us");
  r.add("tensor.softmax_us", median_us(tracer, "tensor.softmax"), "us");

  // Input layer: this shard's embedding gather and its gradient scatter.
  vocab::InputLayerShard input(shard, Tensor::randn({shard.size, h}, rng, 0.02f));
  if (w.bf16) input.enable_bf16();
  const std::vector<vocab::Sample> batch = inputs.batch(0);
  const Tensor grad = Tensor::randn({kSeqLen, h}, rng, 0.1f);
  repeat(budget, 200, [&](int rep) {
    const std::vector<std::int64_t>& tokens =
        batch[static_cast<std::size_t>(rep % kMicrobatches)].tokens;
    {
      ScopedSpan s(tracer, "core.input_fwd");
      (void)input.forward_local(rep, tokens);
    }
    ScopedSpan s(tracer, "core.input_bwd");
    input.backward_local(rep, grad);
  });
  r.add("core.input_fwd_us", median_us(tracer, "core.input_fwd"), "us");
  r.add("core.input_bwd_us", median_us(tracer, "core.input_bwd"), "us");

  // One stage's transformer layers (L / p of them).
  std::vector<vocab::LayerWeights> layers(
      inputs.weights.layers.begin(), inputs.weights.layers.begin() + kLayers / kDevices);
  vocab::TransformerStack stack(std::move(layers), kHeads);
  repeat(budget, 100, [&](int rep) {
    {
      ScopedSpan s(tracer, "model.stage_fwd");
      (void)stack.forward(rep, x);
    }
    ScopedSpan s(tracer, "model.stage_bwd");
    (void)stack.backward(rep, grad);
  });
  r.add("model.stage_fwd_us", median_us(tracer, "model.stage_fwd"), "us");
  r.add("model.stage_bwd_us", median_us(tracer, "model.stage_bwd"), "us");
}

/// Run `body(rank)` on p threads and rethrow the first failure.
void on_ranks(int p, const std::function<void(int)>& body) {
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(p));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(p));
  for (int rank = 0; rank < p; ++rank) {
    threads.emplace_back([&, rank] {
      try {
        const vocab::parallel::ScopedPool serial(nullptr);
        body(rank);
      } catch (...) {
        errors[static_cast<std::size_t>(rank)] = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

/// Rank 0's timed intervals, recorded as spans after the threads join.
struct Intervals {
  std::vector<std::pair<Clock::time_point, Clock::time_point>> spans;
  void add(Clock::time_point a) { spans.emplace_back(a, Clock::now()); }
  void record(Tracer& tracer, const std::string& name) const {
    for (const auto& [a, b] : spans) tracer.record(name, a, b);
  }
};

/// The output layer over p shards and the workload's transport: compute
/// phases of one shard per microbatch, for both algorithms, and the
/// workload algorithm's barriers.
void replay_output_layer(const Workload& w, const Inputs& inputs, Tracer& tracer,
                         RunResult& r) {
  ScopedSpan root(tracer, "output_layer");
  const std::int64_t h = w.hidden;
  const int reps = 3 * kMicrobatches;
  for (const OutputAlgo algo : {OutputAlgo::Alg1, OutputAlgo::Alg2}) {
    const std::string tag = algo == OutputAlgo::Alg1 ? "alg1" : "alg2";
    auto transport = make_transport(w.backend);
    vocab::DeviceGroup group(kDevices, vocab::kCommTimeoutFromEnv, transport.get());
    std::vector<vocab::OutputLayerShard> shards;
    vocab::Rng rng(0x0a7);
    for (const vocab::VocabShard& s : vocab::make_all_shards(w.vocab, kDevices)) {
      shards.emplace_back(algo, s, Tensor::randn({s.size, h}, rng, 0.02f));
      if (w.bf16) shards.back().enable_bf16();
    }
    const Tensor x = Tensor::randn({kSeqLen, h}, rng, 0.5f);
    const std::vector<vocab::Sample> batch = inputs.batch(0);
    Intervals compute, barrier;
    std::vector<double> per_mb_s;
    int barriers_called = 0;
    on_ranks(kDevices, [&](int rank) {
      vocab::OutputLayerShard& shard = shards[static_cast<std::size_t>(rank)];
      for (int mb = 0; mb < reps; ++mb) {
        shard.start_microbatch(mb, x, batch[static_cast<std::size_t>(mb % kMicrobatches)].targets,
                               1.0f);
        double compute_s = 0.0;
        for (int phase = 0; phase < vocab::num_compute_phases(algo); ++phase) {
          const auto a = Clock::now();
          shard.compute_phase(mb, phase);
          if (rank == 0) {
            compute.add(a);
            compute_s += seconds_between(a, compute.spans.back().second);
          }
          if (phase < vocab::num_barriers(algo)) {
            const auto b = Clock::now();
            shard.comm_barrier(mb, phase, group);
            if (rank == 0) {
              barrier.add(b);
              ++barriers_called;
            }
          }
        }
        (void)shard.loss(mb);
        shard.finish_microbatch(mb);
        if (rank == 0) per_mb_s.push_back(compute_s);
      }
    });
    compute.record(tracer, "core.output_compute_phase." + tag);
    barrier.record(tracer, "core.output_barrier." + tag);
    r.add("core.output_compute_us." + tag, median(per_mb_s) * 1e6, "us");
    if (algo == w.algo) {
      r.add("core.output_barrier_us", median_us(tracer, "core.output_barrier." + tag), "us");
      r.add("core.output_barriers_per_mb", static_cast<double>(barriers_called) / reps, "count");
    }
  }
}

/// Point-to-point ping-pong and the DeviceGroup collectives on the
/// workload's transport.
void replay_transport(const Workload& w, const RunOptions& opt, Tracer& tracer, RunResult& r) {
  ScopedSpan root(tracer, "transport");
  const double budget = 0.04 * opt.seconds;
  vocab::Rng rng(0x7a9);
  const Tensor payload = Tensor::randn({kSeqLen, w.hidden}, rng, 1.0f);
  {
    auto transport = make_transport(w.backend);
    vocab::Channel ping(kMaxQueue, vocab::kCommTimeoutFromEnv, transport.get());
    vocab::Channel pong(kMaxQueue, vocab::kCommTimeoutFromEnv, transport.get());
    int trips = 0;
    const double cpu0 = process_cpu_seconds();
    std::thread echo([&] {
      for (;;) {
        vocab::Message m = ping.recv();
        if (m.tag != "ping") break;
        pong.send("pong", std::move(m.payload));
      }
    });
    repeat(budget, 500, [&](int) {
      ScopedSpan s(tracer, "transport.p2p_rtt");
      ping.send("ping", payload);
      (void)pong.recv_tag("pong");
      ++trips;
    });
    const double cpu = process_cpu_seconds() - cpu0;
    ping.send("stop", Tensor({1}, 0.0f));
    echo.join();
    r.add("transport.p2p_rtt_us", median_us(tracer, "transport.p2p_rtt"), "us");
    // Two blocking receives per round trip.
    r.add("transport.cpu_per_wait_us", cpu / (2.0 * trips) * 1e6, "us");
  }

  auto transport = make_transport(w.backend);
  vocab::DeviceGroup group(kDevices, vocab::kCommTimeoutFromEnv, transport.get());
  Intervals allreduce, broadcast, barrier;
  // Rank 0 decides how many rounds fit the budget; the others follow its
  // broadcast of that decision, so every rank runs the same collectives.
  on_ranks(kDevices, [&](int rank) {
    const auto t0 = Clock::now();
    for (int round = 0;; ++round) {
      Tensor data({kSeqLen}, static_cast<float>(rank + round));
      auto a = Clock::now();
      group.all_reduce(rank, data, vocab::ReduceOp::Sum, "vpbench.allreduce");
      if (rank == 0) allreduce.add(a);
      a = Clock::now();
      group.broadcast(rank, 0, data, "vpbench.broadcast");
      if (rank == 0) broadcast.add(a);
      a = Clock::now();
      group.barrier(rank, "vpbench.barrier");
      if (rank == 0) barrier.add(a);
      Tensor more({1}, rank == 0 && (round < 2 || seconds_between(t0, Clock::now()) < budget) &&
                               round < 300
                           ? 1.0f
                           : 0.0f);
      group.broadcast(rank, 0, more, "vpbench.continue");
      if (more.at(0) == 0.0f) break;
    }
  });
  allreduce.record(tracer, "transport.allreduce");
  broadcast.record(tracer, "transport.broadcast");
  barrier.record(tracer, "transport.barrier");
  r.add("transport.allreduce_us", median_us(tracer, "transport.allreduce"), "us");
  r.add("transport.broadcast_us", median_us(tracer, "transport.broadcast"), "us");
  r.add("transport.barrier_us", median_us(tracer, "transport.barrier"), "us");
}

}  // namespace

Prediction predict_iteration(const Workload& w) {
  const vocab::CostModel cm = cost_model(w);
  const vocab::search::SearchResult found =
      w.flavor == PipelineFlavor::Auto ? vocab::search::search_schedules(cm, search_request(w))
                                       : vocab::search::SearchResult{};
  const vocab::PipelineSchedule sched = build_schedule(cm, w, generator_for(w, found));
  return {sched.name, vocab::simulate(sched, 0.0, vocab::SimVerify::kOff).makespan * 1e3};
}

RunResult run_traced(const Workload& w, const RunOptions& opt) {
  const Inputs inputs(w, opt.seed, opt.seconds);
  Tracer tracer;
  RunResult r;
  double predicted_ms = 0.0;
  replay_setup(w, inputs, opt, tracer, r, &predicted_ms);
  replay_kernels(w, inputs, opt, tracer, r);
  replay_output_layer(w, inputs, tracer, r);
  replay_transport(w, opt, tracer, r);

  // Training iterations: alternate traced (root span) and untraced ones so
  // the tracing overhead is measured on the same stretch of the run.
  const std::string ckpt =
      opt.work_dir + "/ckpt-" + w.name + "-" + std::to_string(::getpid()) + ".bin";
  std::vector<Observed> observed;
  long long threw = 0;
  std::vector<double> traced_s, untraced_s, busy_max, busy_min, bubble, collectives, bf16_bytes;
  std::int64_t it = 0;
  {
    Session session(w, inputs, inputs.weights, ckpt, w.backend);
    const auto deadline = Clock::now() + std::chrono::duration<double>(0.5 * opt.seconds);
    while (it < 4 || Clock::now() < deadline) {
      const bool traced = it % 2 == 1;
      const vocab::PipelineTrainer& before = session.trainer();
      const std::uint64_t coll0 =
          before.device_group() != nullptr ? before.device_group()->completed_collectives() : 0;
      const std::size_t bytes0 = before.comm_bf16_bytes();
      const int faults0 = session.faults_observed();
      const std::vector<vocab::Sample> batch = inputs.batch(it);
      const auto t0 = Clock::now();
      try {
        if (traced) {
          ScopedSpan s(tracer, "train_iteration", it);
          observed.push_back({it, session.step(batch)});
        } else {
          observed.push_back({it, session.step(batch)});
        }
      } catch (const std::exception& e) {
        r.notes.push_back(std::string("iteration threw: ") + e.what());
        ++threw;
        break;
      }
      const double dt = seconds_between(t0, Clock::now());
      if (it > 0) (traced ? traced_s : untraced_s).push_back(dt);
      ++it;
      // Counters only from iterations that ran on one trainer throughout.
      if (session.faults_observed() != faults0) continue;
      const vocab::PipelineTrainer& t = session.trainer();
      if (t.device_group() != nullptr) {
        collectives.push_back(
            static_cast<double>(t.device_group()->completed_collectives() - coll0));
      }
      bf16_bytes.push_back(static_cast<double>(t.comm_bf16_bytes() - bytes0));
      if (const vocab::ExecutorStats* stats = t.last_executor_stats()) {
        double hi = 0.0, lo = 1.0, idle = 0.0;
        for (int d = 0; d < kDevices; ++d) {
          const double busy =
              stats->compute_seconds[static_cast<std::size_t>(d)] / stats->wall_seconds;
          hi = std::max(hi, busy);
          lo = std::min(lo, busy);
          idle = std::max(idle, stats->idle_fraction(d));
        }
        busy_max.push_back(hi);
        busy_min.push_back(lo);
        bubble.push_back(idle);
      }
    }
    r.add("runtime.vocab_param_bytes", static_cast<double>(session.trainer().vocab_param_bytes()),
          "bytes");
    if (w.resilient) {
      r.add("fault.faults_injected", session.faults_observed(), "count");
      r.add("fault.recoveries", session.recoveries(), "count");
    }
  }
  std::remove(ckpt.c_str());

  const auto tps = [](const std::vector<double>& s) {
    double total = 0.0;
    for (const double v : s) total += v;
    return total > 0.0 ? static_cast<double>(s.size()) * kMicrobatches * kSeqLen / total : 0.0;
  };
  const double measured_ms = median(untraced_s) * 1e3;
  r.add("comm.collectives_per_iter", median(collectives), "count");
  r.add("comm.bf16_bytes_per_iter", median(bf16_bytes), "bytes");
  r.add("runtime.busy_frac_max", median(busy_max), "fraction");
  r.add("runtime.busy_frac_min", median(busy_min), "fraction");
  r.add("runtime.bubble_max", median(bubble), "fraction");
  r.add("sim.pred_over_meas", measured_ms > 0.0 ? predicted_ms / measured_ms : 0.0, "ratio");
  r.add("trace.tokens_per_s", tps(traced_s), "tokens/s");
  r.add("trace.overhead_frac", tps(untraced_s) > 0.0 ? 1.0 - tps(traced_s) / tps(untraced_s) : 0.0,
        "fraction");

  // Correctness of every loss the traced iterations produced.
  std::string check;
  const long long mismatched =
      count_mismatches(w, inputs, observed, opt.corrupt_expected, &check);
  r.attempted = static_cast<long long>(observed.size()) + threw;
  r.failed = r.failed + mismatched + threw;
  r.correct = r.correct && r.failed == 0;

  // Self time per span name, then the span file.
  const std::vector<std::int64_t> self = tracer.self_ns();
  std::vector<std::pair<std::string, double>> by_name;
  for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
    const std::string& name = tracer.spans()[i].name;
    auto found = std::find_if(by_name.begin(), by_name.end(),
                              [&](const auto& e) { return e.first == name; });
    if (found == by_name.end()) {
      by_name.emplace_back(name, 0.0);
      found = by_name.end() - 1;
    }
    found->second += static_cast<double>(self[i]) * 1e-9;
  }
  std::sort(by_name.begin(), by_name.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  for (std::size_t i = 0; i < std::min<std::size_t>(by_name.size(), 8); ++i) {
    char line[160];
    std::snprintf(line, sizeof line, "self time %-34s %9.3f s", by_name[i].first.c_str(),
                  by_name[i].second);
    r.notes.emplace_back(line);
  }
  const std::string path = opt.work_dir + "/trace-" + w.name + "-" + std::to_string(opt.seed) +
                           ".json";
  tracer.write_json(path);
  r.notes.push_back("spans written to " + path + " (" + std::to_string(tracer.spans().size()) +
                    " spans)");
  char line[200];
  std::snprintf(line, sizeof line,
                "prediction beside measurement: sim.predicted_iter_ms %.4f, measured "
                "iter_ms_p50 %.3f",
                predicted_ms, measured_ms);
  r.notes.emplace_back(line);
  std::snprintf(line, sizeof line, "failed_frac %.6f (%lld failed of %lld attempted, %s check)",
                r.attempted > 0 ? static_cast<double>(r.failed) / static_cast<double>(r.attempted)
                                : 1.0,
                r.failed, r.attempted, check.c_str());
  r.notes.emplace_back(line);
  return r;
}

}  // namespace vpbench
