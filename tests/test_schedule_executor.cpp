// Schedule-driven execution: the executor's derived order must respect every
// schedule dependency, and running the verified schedules with real numerics
// must reproduce the single-device reference trainer — for every flavor,
// pipeline width, and tied/untied embedding configuration.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "cost/cost_model.h"
#include "model/gpt.h"
#include "runtime/pipeline_trainer.h"
#include "runtime/reference_trainer.h"
#include "runtime/schedule_executor.h"
#include "schedule/layer_assignment.h"
#include "schedule/schedule_1f1b.h"
#include "schedule/schedule_1f1b_vocab.h"
#include "tensor/tensor_ops.h"

namespace vocab {
namespace {

// 8 layers so every flavor divides evenly: p | 8 and (V-Half) 2p | 8 for
// p in {2, 4}. Prime vocabulary forces shard padding at every width.
GptConfig exec_config(bool tied) {
  GptConfig cfg;
  cfg.num_layers = 8;
  cfg.heads = 2;
  cfg.hidden = 32;
  cfg.seq_len = 16;
  cfg.vocab = 53;
  cfg.tie_embeddings = tied;
  return cfg;
}

std::vector<Sample> microbatches(const SyntheticCorpus& corpus, int iteration, int count) {
  std::vector<Sample> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) out.push_back(corpus.sample(iteration * count + i));
  return out;
}

CostModel exec_cost_model(int m) {
  ModelConfig mc;
  mc.num_layers = 8;
  mc.attention_heads = 2;
  mc.hidden = 32;
  mc.seq_len = 16;
  mc.vocab = 53;
  mc.microbatch = 1;
  mc.num_microbatches = m;
  return CostModel(mc, HardwareModel{});
}

// ---------------------------------------------------------------------------
// Executor order-derivation unit tests.
// ---------------------------------------------------------------------------

TEST(ScheduleExecutor, ProjectionsCoverEveryOpExactlyOnce) {
  const CostModel cm = exec_cost_model(8);
  const PipelineSchedule s = build_1f1b_vocab(cm, 4, OutputAlgo::Alg2);
  const ScheduleExecutor ex(s);
  std::vector<int> seen(s.ops.size(), 0);
  for (int d = 0; d < s.num_devices; ++d) {
    for (const int id : ex.device_sequence(d)) {
      ASSERT_GE(id, 0);
      ASSERT_LT(id, static_cast<int>(s.ops.size()));
      EXPECT_EQ(s.op(id).device, d) << "op " << id << " projected onto the wrong device";
      ++seen[static_cast<std::size_t>(id)];
    }
  }
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], 1) << "op " << i << " emitted " << seen[i] << " times";
  }
}

TEST(ScheduleExecutor, CommonOrderRespectsEveryDependency) {
  const CostModel cm = exec_cost_model(8);
  for (const OutputAlgo algo : {OutputAlgo::Alg1, OutputAlgo::Alg2}) {
    const PipelineSchedule s = build_1f1b_vocab(cm, 4, algo);
    const ScheduleExecutor ex(s);
    // Reconstruct each op's position in its device sequence.
    std::vector<int> pos(s.ops.size(), -1);
    for (int d = 0; d < s.num_devices; ++d) {
      const auto& seq = ex.device_sequence(d);
      for (std::size_t i = 0; i < seq.size(); ++i) {
        pos[static_cast<std::size_t>(seq[i])] = static_cast<int>(i);
      }
    }
    // Same-device dependencies must point backward in that device's sequence.
    for (const Op& op : s.ops) {
      for (const int dep : op.deps) {
        if (s.op(dep).device != op.device) continue;
        EXPECT_LT(pos[static_cast<std::size_t>(dep)], pos[static_cast<std::size_t>(op.id)])
            << s.name << ": op " << op.id << " ordered before its dependency " << dep;
      }
    }
  }
}

TEST(ScheduleExecutor, CollectiveOrderIsIdenticalAcrossDevices) {
  const CostModel cm = exec_cost_model(8);
  const PipelineSchedule s = build_1f1b_vocab(cm, 4, OutputAlgo::Alg1);
  const ScheduleExecutor ex(s);
  // Per device, the sequence of collective ids must be the same list — that
  // is the property that makes the rendezvous collectives deadlock-free.
  std::vector<std::vector<int>> coll(static_cast<std::size_t>(s.num_devices));
  for (int d = 0; d < s.num_devices; ++d) {
    for (const int id : ex.device_sequence(d)) {
      if (s.op(id).collective >= 0) {
        coll[static_cast<std::size_t>(d)].push_back(s.op(id).collective);
      }
    }
  }
  for (int d = 1; d < s.num_devices; ++d) {
    EXPECT_EQ(coll[static_cast<std::size_t>(d)], coll[0])
        << "device " << d << " issues collectives in a different order than device 0";
  }
}

TEST(ScheduleExecutor, RejectsCorruptedSchedule) {
  const CostModel cm = exec_cost_model(4);
  PipelineSchedule s = build_1f1b(cm, 2, uniform_assignment(8, 2));
  // Introduce a forward dependency cycle: first op depends on the last.
  s.ops.front().deps.push_back(s.ops.back().id);
  EXPECT_THROW(ScheduleExecutor ex(std::move(s)), CheckError);
}

TEST(ScheduleExecutor, PartitionsThreadBudgetAcrossDevices) {
  const CostModel cm = exec_cost_model(4);
  const ScheduleExecutor wide(build_1f1b(cm, 2, uniform_assignment(8, 2)), /*total_threads=*/8);
  EXPECT_EQ(wide.threads_per_device(), 4);
  const ScheduleExecutor narrow(build_1f1b(cm, 2, uniform_assignment(8, 2)), /*total_threads=*/2);
  EXPECT_EQ(narrow.threads_per_device(), 1);  // quotient < 2 → serial kernels
}

// ---------------------------------------------------------------------------
// Numerical equivalence: every scheduled flavor vs the reference trainer.
// ---------------------------------------------------------------------------

struct ExecCase {
  PipelineFlavor flavor;
  OutputAlgo algo;
  int p;
  bool tied;
};

std::string exec_case_name(const testing::TestParamInfo<ExecCase>& info) {
  const ExecCase& c = info.param;
  std::string name = to_string(c.flavor);
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  if (c.flavor != PipelineFlavor::Baseline1F1B) {
    name += c.algo == OutputAlgo::Alg1 ? "_alg1" : "_alg2";
  }
  name += "_p" + std::to_string(c.p);
  name += c.tied ? "_tied" : "_untied";
  return name;
}

class ScheduledEquivalence : public testing::TestWithParam<ExecCase> {};

TEST_P(ScheduledEquivalence, MatchesReferenceStepForStep) {
  const ExecCase c = GetParam();
  const GptConfig cfg = exec_config(c.tied);
  const GptWeights weights = GptWeights::init(cfg, 1234);
  ReferenceTrainer ref(weights);
  PipelineTrainer pipe(weights, c.p, c.algo, c.flavor);
  SyntheticCorpus corpus(cfg.vocab, cfg.seq_len, 555);

  constexpr int kIterations = 4;
  constexpr float kLr = 0.1f;
  for (int it = 0; it < kIterations; ++it) {
    // m = 2p keeps several microbatches genuinely in flight per device.
    const auto mbs = microbatches(corpus, it, /*count=*/2 * c.p);
    const float ref_loss = ref.train_iteration(mbs, kLr);
    const float pipe_loss = pipe.train_iteration(mbs, kLr);
    EXPECT_NEAR(pipe_loss, ref_loss, 5e-3f * (1.0f + std::abs(ref_loss)))
        << "iteration " << it;
  }

  EXPECT_LT(max_abs_diff(pipe.gathered_output_weight(), ref.output_weight()), 5e-3f);
  EXPECT_LT(max_abs_diff(pipe.gathered_input_embedding(), ref.input_embedding()), 5e-3f);

  const ExecutorStats* stats = pipe.last_executor_stats();
  ASSERT_NE(stats, nullptr);
  EXPECT_GT(stats->wall_seconds, 0.0);
  for (int d = 0; d < c.p; ++d) {
    EXPECT_GE(stats->idle_fraction(d), 0.0);
    EXPECT_LE(stats->idle_fraction(d), 1.0);
  }
}

std::vector<ExecCase> exec_cases() {
  std::vector<ExecCase> cases;
  for (const int p : {2, 4}) {
    for (const bool tied : {false, true}) {
      cases.push_back({PipelineFlavor::Baseline1F1B, OutputAlgo::Alg1, p, tied});
      cases.push_back({PipelineFlavor::Gpipe, OutputAlgo::Alg1, p, tied});
      cases.push_back({PipelineFlavor::Gpipe, OutputAlgo::Alg2, p, tied});
      cases.push_back({PipelineFlavor::OneFOneBVocab, OutputAlgo::Alg1, p, tied});
      cases.push_back({PipelineFlavor::OneFOneBVocab, OutputAlgo::Alg2, p, tied});
      cases.push_back({PipelineFlavor::VHalf, OutputAlgo::Alg1, p, tied});
      cases.push_back({PipelineFlavor::ZbVocab, OutputAlgo::Alg1, p, tied});
      cases.push_back({PipelineFlavor::ZbVocab, OutputAlgo::Alg2, p, tied});
    }
  }
  // Auto runs whatever the search ranks best for this configuration; the
  // equivalence bound must hold regardless of which schedule wins.
  cases.push_back({PipelineFlavor::Auto, OutputAlgo::Alg1, 2, true});
  cases.push_back({PipelineFlavor::Auto, OutputAlgo::Alg2, 4, false});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllFlavors, ScheduledEquivalence, testing::ValuesIn(exec_cases()),
                         exec_case_name);

// Adam must also match through the scheduled path (optimizer state lives with
// the shards; no optimizer communication).
TEST(ScheduledEquivalence, AdamMatchesReference) {
  const GptConfig cfg = exec_config(/*tied=*/true);
  const GptWeights weights = GptWeights::init(cfg, 77);
  ReferenceTrainer ref(weights);
  PipelineTrainer pipe(weights, 4, OutputAlgo::Alg2, PipelineFlavor::OneFOneBVocab);
  SyntheticCorpus corpus(cfg.vocab, cfg.seq_len, 888);
  const OptimizerConfig opt = OptimizerConfig::adam(3e-3f);
  for (int it = 0; it < 3; ++it) {
    const auto mbs = microbatches(corpus, it, 8);
    const float ref_loss = ref.train_iteration(mbs, opt);
    const float pipe_loss = pipe.train_iteration(mbs, opt);
    EXPECT_NEAR(pipe_loss, ref_loss, 5e-3f * (1.0f + std::abs(ref_loss))) << "iteration " << it;
  }
  EXPECT_LT(max_abs_diff(pipe.gathered_output_weight(), ref.output_weight()), 5e-3f);
}

// The schedule (hence the executor) is cached per microbatch count; changing
// m mid-training must rebuild rather than misindex.
TEST(ScheduledEquivalence, MicrobatchCountCanChangeBetweenIterations) {
  const GptConfig cfg = exec_config(/*tied=*/false);
  const GptWeights weights = GptWeights::init(cfg, 99);
  ReferenceTrainer ref(weights);
  PipelineTrainer pipe(weights, 2, OutputAlgo::Alg1, PipelineFlavor::OneFOneBVocab);
  SyntheticCorpus corpus(cfg.vocab, cfg.seq_len, 31);
  int index = 0;
  for (const int m : {2, 4, 2, 6}) {
    std::vector<Sample> mbs;
    for (int i = 0; i < m; ++i) mbs.push_back(corpus.sample(index++));
    const float ref_loss = ref.train_iteration(mbs, 0.1f);
    const float pipe_loss = pipe.train_iteration(mbs, 0.1f);
    EXPECT_NEAR(pipe_loss, ref_loss, 5e-3f * (1.0f + std::abs(ref_loss))) << "m=" << m;
  }
}

// ---------------------------------------------------------------------------
// Naive parity: the unpipelined baseline (one microbatch in flight) must be
// bit-identical to 1F1B-vocab with the same algorithm — same losses, same
// exported weights. 1F1B-vocab is the reference because its per-device
// backward accumulation order is microbatch order, like naive's; GPipe-vocab
// accumulates in a different order and is not bitwise comparable.
// ---------------------------------------------------------------------------

struct NaiveCase {
  int p;
  OutputAlgo algo;
  bool tied;
  bool clip;
  bool adam;
  bool bf16;
};

std::string naive_case_name(const testing::TestParamInfo<NaiveCase>& info) {
  const NaiveCase& c = info.param;
  return "p" + std::to_string(c.p) + (c.algo == OutputAlgo::Alg1 ? "_alg1" : "_alg2") +
         (c.tied ? "_tied" : "_untied") + (c.clip ? "_clip" : "_noclip") +
         (c.adam ? "_adam" : "_sgd") + (c.bf16 ? "_bf16" : "");
}

void expect_bitwise_equal(const GptWeights& a, const GptWeights& b) {
  EXPECT_EQ(max_abs_diff(a.input_embedding, b.input_embedding), 0.0f);
  EXPECT_EQ(max_abs_diff(a.pos_embedding, b.pos_embedding), 0.0f);
  EXPECT_EQ(max_abs_diff(a.output_weight, b.output_weight), 0.0f);
  ASSERT_EQ(a.layers.size(), b.layers.size());
  for (std::size_t l = 0; l < a.layers.size(); ++l) {
    const LayerWeights& x = a.layers[l];
    const LayerWeights& y = b.layers[l];
    for (const auto& [ta, tb] : {std::pair{&x.ln1_g, &y.ln1_g}, {&x.ln1_b, &y.ln1_b},
                                 {&x.wq, &y.wq}, {&x.wk, &y.wk}, {&x.wv, &y.wv},
                                 {&x.wo, &y.wo}, {&x.ln2_g, &y.ln2_g}, {&x.ln2_b, &y.ln2_b},
                                 {&x.w1, &y.w1}, {&x.b1, &y.b1}, {&x.w2, &y.w2},
                                 {&x.b2, &y.b2}}) {
      EXPECT_EQ(max_abs_diff(*ta, *tb), 0.0f) << "layer " << l;
    }
  }
}

class NaiveParity : public testing::TestWithParam<NaiveCase> {};

TEST_P(NaiveParity, BitIdenticalTo1F1BVocab) {
  const NaiveCase c = GetParam();
  const GptConfig cfg = exec_config(c.tied);
  const GptWeights weights = GptWeights::init(cfg, 2468);
  PipelineTrainer naive(weights, c.p, c.algo, PipelineFlavor::Naive);
  PipelineTrainer vocab(weights, c.p, c.algo, PipelineFlavor::OneFOneBVocab);
  if (c.bf16) {
    naive.set_mixed_precision(MixedPrecisionConfig{});
    vocab.set_mixed_precision(MixedPrecisionConfig{});
  }
  OptimizerConfig opt = c.adam ? OptimizerConfig::adam(3e-3f) : OptimizerConfig::sgd(0.1f);
  opt.max_grad_norm = c.clip ? 1.0f : 0.0f;
  SyntheticCorpus corpus(cfg.vocab, cfg.seq_len, 1357);

  constexpr int kIterations = 3;
  for (int it = 0; it < kIterations; ++it) {
    const auto mbs = microbatches(corpus, it, /*count=*/2 * c.p);
    const float naive_loss = naive.train_iteration(mbs, opt);
    const float vocab_loss = vocab.train_iteration(mbs, opt);
    EXPECT_EQ(naive_loss, vocab_loss) << "iteration " << it;
  }
  expect_bitwise_equal(naive.export_weights(), vocab.export_weights());
}

std::vector<NaiveCase> naive_cases() {
  std::vector<NaiveCase> cases;
  for (const int p : {2, 4}) {
    for (const OutputAlgo algo : {OutputAlgo::Alg1, OutputAlgo::Alg2}) {
      for (const bool tied : {false, true}) {
        for (const bool clip : {false, true}) {
          for (const bool adam : {false, true}) {
            cases.push_back({p, algo, tied, clip, adam, /*bf16=*/false});
          }
        }
      }
    }
  }
  cases.push_back({2, OutputAlgo::Alg1, /*tied=*/false, /*clip=*/false, /*adam=*/true,
                   /*bf16=*/true});
  cases.push_back({4, OutputAlgo::Alg2, /*tied=*/true, /*clip=*/true, /*adam=*/true,
                   /*bf16=*/true});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, NaiveParity, testing::ValuesIn(naive_cases()),
                         naive_case_name);

}  // namespace
}  // namespace vocab
