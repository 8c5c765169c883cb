// Property-style sweeps over every schedule generator: for all pipeline
// widths and vocabulary sizes, the generated schedule must validate, run
// deadlock-free, hit sane efficiency, and respect the paper's memory laws.
// These are the repo's broadest integration tests.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <tuple>

#include "analysis/verifier.h"
#include "common/crc32.h"
#include "cost/cost_model.h"
#include "program/compiler.h"
#include "schedule/building_block.h"
#include "schedule/layer_assignment.h"
#include "schedule/schedule_1f1b.h"
#include "schedule/schedule_1f1b_vocab.h"
#include "schedule/schedule_gpipe.h"
#include "schedule/schedule_interlaced.h"
#include "schedule/schedule_vhalf.h"
#include "schedule/schedule_zb.h"
#include "sim/pipeline_sim.h"

namespace vocab {
namespace {

using Param = std::tuple<int, std::int64_t>;  // (gpus, vocab)

std::string param_name(const testing::TestParamInfo<Param>& info) {
  return "p" + std::to_string(std::get<0>(info.param)) + "_V" +
         std::to_string(std::get<1>(info.param) / 1024) + "k";
}

class AllSchedules : public testing::TestWithParam<Param> {
 protected:
  [[nodiscard]] CostModel cm() const {
    const auto [gpus, v] = GetParam();
    return {preset_1f1b(gpus, 2048, v), HardwareModel{}};
  }
};

TEST_P(AllSchedules, EveryGeneratorSimulatesDeadlockFree) {
  const auto [gpus, v] = GetParam();
  const CostModel model = cm();
  const std::vector<PipelineSchedule> schedules = [&] {
    std::vector<PipelineSchedule> out;
    out.push_back(build_1f1b(model, gpus, uniform_assignment(model.config().num_layers, gpus)));
    out.push_back(build_1f1b(model, gpus, redis_assignment(model, gpus), "redis"));
    out.push_back(build_1f1b_vocab(model, gpus, OutputAlgo::Alg1));
    out.push_back(build_1f1b_vocab(model, gpus, OutputAlgo::Alg2));
    out.push_back(build_interlaced(model, gpus, true));
    out.push_back(build_interlaced(model, gpus, false));
    return out;
  }();
  for (const auto& sched : schedules) {
    ASSERT_NO_THROW(sched.validate()) << sched.name;
    const SimResult sim = simulate(sched);
    EXPECT_GT(sim.makespan, 0) << sched.name;
    // Iteration can never beat the per-device serial work bound.
    double max_busy = 0;
    for (int d = 0; d < gpus; ++d) {
      max_busy = std::max(max_busy, sim.compute_busy[static_cast<std::size_t>(d)]);
    }
    EXPECT_GE(sim.makespan, max_busy - 1e-9) << sched.name;
    // All devices fully retire their ops: every op got a finite interval.
    for (const auto& t : sim.times) EXPECT_GE(t.end, t.start);
  }
}

TEST_P(AllSchedules, EveryGeneratorIsStaticallyCertified) {
  // The static verifier must certify every shipped generator with zero
  // diagnostics — deadlock-freedom, semantic order, collective grouping and
  // memory balance proved on the IR, before any simulation.
  const auto [gpus, v] = GetParam();
  const CostModel model = cm();
  const std::vector<PipelineSchedule> schedules = [&] {
    std::vector<PipelineSchedule> out;
    const LayerAssignment uniform = uniform_assignment(model.config().num_layers, gpus);
    out.push_back(build_1f1b(model, gpus, uniform));
    out.push_back(build_1f1b(model, gpus, redis_assignment(model, gpus), "redis"));
    out.push_back(build_1f1b_vocab(model, gpus, OutputAlgo::Alg1));
    out.push_back(build_1f1b_vocab(model, gpus, OutputAlgo::Alg2));
    out.push_back(build_interlaced(model, gpus, true));
    out.push_back(build_interlaced(model, gpus, false));
    out.push_back(build_gpipe(model, gpus, uniform));
    out.push_back(build_gpipe_vocab(model, gpus, OutputAlgo::Alg1));
    out.push_back(build_gpipe_vocab(model, gpus, OutputAlgo::Alg2));
    for (const OutputAlgo algo : {OutputAlgo::Alg1, OutputAlgo::Alg2}) {
      out.push_back(build_naive_vocab(model, gpus, algo));
      for (const int w : {0, 1}) {
        out.push_back(build_zb_vocab(model, gpus, algo, "", ZbOptions{w, -1}));
      }
    }
    return out;
  }();
  for (const auto& sched : schedules) {
    const auto diags = analysis::verify(sched);
    EXPECT_TRUE(diags.empty()) << sched.name << ":\n" << analysis::render_report(diags);
  }
}

TEST_P(AllSchedules, PeakActivationMatchesPaperClosedForms) {
  // Paper §5.3: peak activation rises by exactly one in-flight microbatch
  // per communication barrier over 1F1B's p — proved here symbolically from
  // the issue order, for every (p, V) of the sweep.
  const auto [gpus, v] = GetParam();
  const CostModel model = cm();

  auto peak = [](const PipelineSchedule& s) {
    const auto peaks = analysis::activation_peak_microbatches(s);
    return *std::max_element(peaks.begin(), peaks.end());
  };
  EXPECT_DOUBLE_EQ(
      peak(build_1f1b(model, gpus, uniform_assignment(model.config().num_layers, gpus))), gpus);
  EXPECT_DOUBLE_EQ(peak(build_1f1b_vocab(model, gpus, OutputAlgo::Alg2)), gpus + 1);
  EXPECT_DOUBLE_EQ(peak(build_1f1b_vocab(model, gpus, OutputAlgo::Alg1)), gpus + 2);

  // Same facts through the verifier's assertion form.
  analysis::VerifyOptions opt;
  opt.expected_peak_microbatches = gpus + 1;
  EXPECT_TRUE(analysis::verify(build_1f1b_vocab(model, gpus, OutputAlgo::Alg2), opt).empty());
}

TEST_P(AllSchedules, VocabMethodsBeatBaselineAtLargeVocab) {
  const auto [gpus, v] = GetParam();
  if (v < 131072) GTEST_SKIP() << "headline claim is about large vocabularies";
  const CostModel model = cm();
  const double baseline =
      simulate(build_1f1b(model, gpus, uniform_assignment(model.config().num_layers, gpus)))
          .makespan;
  EXPECT_LT(simulate(build_1f1b_vocab(model, gpus, OutputAlgo::Alg1)).makespan, baseline);
  EXPECT_LT(simulate(build_1f1b_vocab(model, gpus, OutputAlgo::Alg2)).makespan, baseline);
}

TEST_P(AllSchedules, VocabBalancesParameterMemory) {
  const auto [gpus, v] = GetParam();
  const CostModel model = cm();
  const auto sched = build_1f1b_vocab(model, gpus, OutputAlgo::Alg2);
  // Resident (parameter) bytes are identical on every device by design.
  for (int d = 1; d < gpus; ++d) {
    EXPECT_DOUBLE_EQ(sched.base_bytes[static_cast<std::size_t>(d)], sched.base_bytes[0]);
  }
  // And the shards cover exactly both vocabulary layers (padded).
  const double vocab_per_dev = 2.0 * model.vocab_shard_param_bytes(gpus);
  const double layers_per_dev =
      (model.config().num_layers / gpus) * model.transformer_layer_param_bytes();
  EXPECT_DOUBLE_EQ(sched.base_bytes[0], layers_per_dev + vocab_per_dev);
}

TEST_P(AllSchedules, Alg2NeverUsesMoreActivationThanAlg1) {
  const auto [gpus, v] = GetParam();
  const CostModel model = cm();
  const auto s1 = build_1f1b_vocab(model, gpus, OutputAlgo::Alg1);
  const auto s2 = build_1f1b_vocab(model, gpus, OutputAlgo::Alg2);
  const double a1 = simulate(s1).max_peak_bytes() - s1.base_bytes[0];
  const double a2 = simulate(s2).max_peak_bytes() - s2.base_bytes[0];
  EXPECT_LE(a2, a1 * 1.02) << "p+1 must not exceed p+2";
}

TEST_P(AllSchedules, BuildingBlockLifespanMatchesGeneratorOffsets) {
  const auto [gpus, v] = GetParam();
  const CostModel model = cm();
  for (const OutputAlgo algo : {OutputAlgo::Alg1, OutputAlgo::Alg2}) {
    const auto off = vocab_block_offsets(model, gpus, algo);
    const auto analysis = analyze_1f1b_vocab(model, gpus, algo);
    ASSERT_EQ(analysis.lifespan.size(), static_cast<std::size_t>(gpus));
    EXPECT_DOUBLE_EQ(analysis.interval, off.interval);
    // Lifespans decrease monotonically from device 0 (B wave ascends).
    for (int d = 1; d < gpus; ++d) {
      EXPECT_LE(analysis.lifespan[static_cast<std::size_t>(d)],
                analysis.lifespan[static_cast<std::size_t>(d - 1)] + 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, AllSchedules,
                         testing::Combine(testing::Values(8, 16, 32),
                                          testing::Values(std::int64_t{32768},
                                                          std::int64_t{262144})),
                         param_name);

// ---- naive (unpipelined) vocabulary schedule ---------------------------------------

TEST(NaiveSchedule, CertifiedWithOneMicrobatchInFlight) {
  // The naive baseline is 1F1B-vocab's building block issued strictly one
  // microbatch at a time: certified like every generator, with a symbolic
  // activation peak of exactly one microbatch on every device — including
  // the single-device pipeline.
  ModelConfig mc;
  mc.num_layers = 8;
  mc.attention_heads = 2;
  mc.hidden = 32;
  mc.seq_len = 16;
  mc.vocab = 53;
  mc.microbatch = 1;
  mc.num_microbatches = 6;
  const CostModel model(mc, HardwareModel{});
  for (const int p : {1, 2, 4}) {
    for (const OutputAlgo algo : {OutputAlgo::Alg1, OutputAlgo::Alg2}) {
      const PipelineSchedule sched = build_naive_vocab(model, p, algo);
      SCOPED_TRACE(sched.name + " p=" + std::to_string(p));
      analysis::VerifyOptions opt;
      opt.expected_peak_microbatches = 1.0;
      const auto diags = analysis::verify(sched, opt);
      EXPECT_TRUE(diags.empty()) << analysis::render_report(diags);
      const auto peaks = analysis::activation_peak_microbatches(sched);
      for (const double peak : peaks) EXPECT_DOUBLE_EQ(peak, 1.0);
      EXPECT_GT(simulate(sched).makespan, 0.0);
      // Sequential by construction: no lane returns to an earlier microbatch.
      for (const DeviceLanes& lanes : sched.devices) {
        for (const Stream stream : {Stream::Compute, Stream::Comm, Stream::CommAlt}) {
          int last_mb = 0;
          for (const int id : lanes.lane(stream)) {
            EXPECT_GE(sched.op(id).microbatch, last_mb) << "op " << id;
            last_mb = sched.op(id).microbatch;
          }
        }
      }
    }
  }
}

// ---- V-Half sweep ------------------------------------------------------------------

class VHalfSweep : public testing::TestWithParam<Param> {};

TEST_P(VHalfSweep, BothVariantsRunAndVocabBalances) {
  const auto [gpus, v] = GetParam();
  const CostModel model(preset_vhalf(gpus, 2048, v), HardwareModel{});
  const auto base_sched = build_vhalf(model, gpus);
  const auto voc_sched = build_vhalf_vocab(model, gpus);
  for (const auto* sched : {&base_sched, &voc_sched}) {
    const auto diags = analysis::verify(*sched);
    EXPECT_TRUE(diags.empty()) << sched->name << ":\n" << analysis::render_report(diags);
  }
  const auto base = simulate(base_sched);
  const auto voc = simulate(voc_sched);
  // Vocab variant: near-perfect per-device balance (the Figure 14 claim).
  const double range = voc.max_peak_bytes() - voc.min_peak_bytes();
  EXPECT_LT(range, 0.02 * voc.max_peak_bytes());
  // Baseline piles both vocabulary layers onto device 0.
  EXPECT_GT(base.max_peak_bytes() - base.min_peak_bytes(), range * 5);
  // And the vocab variant is at least as fast.
  EXPECT_LE(voc.makespan, base.makespan * 1.01);
}

INSTANTIATE_TEST_SUITE_P(Sweep, VHalfSweep,
                         testing::Combine(testing::Values(16, 24, 32),
                                          testing::Values(std::int64_t{32768},
                                                          std::int64_t{262144})),
                         param_name);

// ---- cross-method orderings (the paper's qualitative table) -------------------------

TEST(MethodOrdering, InterlacedTiesVocabOnOneNodeLosesMultiNode) {
  for (const int gpus : {8, 32}) {
    const CostModel model(preset_1f1b(gpus, 2048, 262144), HardwareModel{});
    const double vocab2 = simulate(build_1f1b_vocab(model, gpus, OutputAlgo::Alg2)).makespan;
    const double inter = simulate(build_interlaced(model, gpus, true)).makespan;
    if (gpus == 8) {
      EXPECT_NEAR(inter / vocab2, 1.0, 0.05) << "single node: roughly tied";
    } else {
      EXPECT_GT(inter, vocab2 * 1.03) << "multi-node: sync all-reduces cost interlaced";
    }
  }
}

TEST(MethodOrdering, RedisBetweenBaselineAndVocab) {
  const CostModel model(preset_1f1b(16, 2048, 262144), HardwareModel{});
  const double baseline =
      simulate(build_1f1b(model, 16, uniform_assignment(model.config().num_layers, 16)))
          .makespan;
  const double redis =
      simulate(build_1f1b(model, 16, redis_assignment(model, 16), "redis")).makespan;
  const double vocab = simulate(build_1f1b_vocab(model, 16, OutputAlgo::Alg2)).makespan;
  EXPECT_LT(redis, baseline);
  EXPECT_LT(vocab, redis);
}

TEST(MethodOrdering, BaselineDegradesMonotonicallyWithVocab) {
  double prev = 0.0;
  for (const std::int64_t v : paper_vocab_sweep()) {
    const CostModel model(preset_1f1b(8, 2048, v), HardwareModel{});
    const double t =
        simulate(build_1f1b(model, 8, uniform_assignment(model.config().num_layers, 8)))
            .makespan;
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(MethodOrdering, VocabThroughputFlatWithin5Percent) {
  for (const OutputAlgo algo : {OutputAlgo::Alg1, OutputAlgo::Alg2}) {
    double lo = 1e30, hi = 0.0;
    for (const std::int64_t v : paper_vocab_sweep()) {
      const CostModel model(preset_1f1b(8, 2048, v), HardwareModel{});
      const double mfu =
          model.mfu(simulate(build_1f1b_vocab(model, 8, algo)).makespan, 8);
      lo = std::min(lo, mfu);
      hi = std::max(hi, mfu);
    }
    EXPECT_LT((hi - lo) / hi, 0.06) << to_string(algo);
  }
}

// ---- schedule identity pins ---------------------------------------------------------
//
// A CRC32 of each vocabulary generator's integer structure, pinned per case
// so that a refactor of the generators is provably behaviour-preserving:
// every lane's issue order as (kind, microbatch, chunk, label), each op's
// dependencies and collective peers named by op signature rather than id,
// and the compiled per-device dispatch order. No floating-point value is
// hashed; durations and bytes are covered by the simulator and verifier
// suites above.

std::string op_signature(const Op& op) {
  return std::to_string(op.device) + ":" + std::to_string(static_cast<int>(op.stream)) + ":" +
         to_string(op.kind) + ":" + std::to_string(op.microbatch) + ":" +
         std::to_string(op.chunk) + ":" + op.label;
}

std::uint32_t structure_crc(const PipelineSchedule& sched) {
  std::map<int, std::string> peers;  // collective id -> members in op-id order
  for (const Op& op : sched.ops) {
    if (op.collective >= 0) peers[op.collective] += " " + op_signature(op);
  }
  std::string text = sched.name + "\n";
  for (const DeviceLanes& lanes : sched.devices) {
    for (const Stream stream : {Stream::Compute, Stream::Comm, Stream::CommAlt}) {
      text += "lane\n";
      for (const int id : lanes.lane(stream)) {
        const Op& op = sched.op(id);
        text += op_signature(op) + " <-";
        for (const int dep : op.deps) text += " " + op_signature(sched.op(dep));
        if (op.collective >= 0) text += " |" + peers[op.collective];
        text += "\n";
      }
    }
  }
  for (const std::vector<int>& seq : program::device_sequences(program::compile_schedule(sched))) {
    text += "dispatch\n";
    for (const int id : seq) text += op_signature(sched.op(id)) + "\n";
  }
  return crc32(text.data(), text.size());
}

struct IdentityCase {
  const char* family;  ///< "1f1b-vocab", "naive", "zb-vocab", "gpipe-vocab", "vhalf-vocab"
  int p;
  int m;
  OutputAlgo algo;
  int variant;  ///< inserted_intervals (1f1b-vocab) or w_delay (zb-vocab); else -1
  std::uint32_t crc;
};

PipelineSchedule build_identity_case(const IdentityCase& c) {
  ModelConfig mc;
  mc.num_layers = 2 * c.p;
  mc.attention_heads = 4;
  mc.hidden = 512;
  mc.seq_len = 128;
  mc.vocab = 32768;
  mc.microbatch = 1;
  mc.num_microbatches = c.m;
  const CostModel cm(mc, HardwareModel{});
  const std::string family = c.family;
  if (family == "1f1b-vocab") return build_1f1b_vocab(cm, c.p, c.algo, "", c.variant);
  if (family == "naive") return build_naive_vocab(cm, c.p, c.algo);
  if (family == "zb-vocab") return build_zb_vocab(cm, c.p, c.algo, "", ZbOptions{c.variant, -1});
  if (family == "gpipe-vocab") return build_gpipe_vocab(cm, c.p, c.algo);
  return build_vhalf_vocab(cm, c.p);
}

// p in {2,4,8} x m in {p,2p} x {Alg1,Alg2}. 1F1B-vocab runs its default and
// every certified inserted-interval ablation in [0, 4] (Alg2 at 0 is not
// certifiable); V-Half-vocab exists for Alg1 only.
const IdentityCase kIdentityPins[] = {
    {"1f1b-vocab", 2, 2, OutputAlgo::Alg1, -1, 0xbb318af0u},
    {"1f1b-vocab", 2, 2, OutputAlgo::Alg1, 0, 0x3f94d82bu},
    {"1f1b-vocab", 2, 2, OutputAlgo::Alg1, 1, 0x3f94d82bu},
    {"1f1b-vocab", 2, 2, OutputAlgo::Alg1, 3, 0x0fcb2530u},
    {"1f1b-vocab", 2, 2, OutputAlgo::Alg1, 4, 0x0fcb2530u},
    {"naive", 2, 2, OutputAlgo::Alg1, -1, 0x8e735b6au},
    {"zb-vocab", 2, 2, OutputAlgo::Alg1, 0, 0xba09b592u},
    {"zb-vocab", 2, 2, OutputAlgo::Alg1, 1, 0x3cf74bc2u},
    {"zb-vocab", 2, 2, OutputAlgo::Alg1, 2, 0x95128f34u},
    {"gpipe-vocab", 2, 2, OutputAlgo::Alg1, -1, 0xca0ab21fu},
    {"vhalf-vocab", 2, 2, OutputAlgo::Alg1, -1, 0x9983e13du},
    {"1f1b-vocab", 2, 2, OutputAlgo::Alg2, -1, 0x508acf35u},
    {"1f1b-vocab", 2, 2, OutputAlgo::Alg2, 2, 0x732b919au},
    {"1f1b-vocab", 2, 2, OutputAlgo::Alg2, 3, 0x6e7d38d8u},
    {"1f1b-vocab", 2, 2, OutputAlgo::Alg2, 4, 0x6e7d38d8u},
    {"naive", 2, 2, OutputAlgo::Alg2, -1, 0x17c38348u},
    {"zb-vocab", 2, 2, OutputAlgo::Alg2, 0, 0x265629b6u},
    {"zb-vocab", 2, 2, OutputAlgo::Alg2, 1, 0x6f8c6e8bu},
    {"zb-vocab", 2, 2, OutputAlgo::Alg2, 2, 0x9bbc0ce0u},
    {"gpipe-vocab", 2, 2, OutputAlgo::Alg2, -1, 0x423d2141u},
    {"1f1b-vocab", 2, 4, OutputAlgo::Alg1, -1, 0x64b07467u},
    {"1f1b-vocab", 2, 4, OutputAlgo::Alg1, 0, 0xcd4a16beu},
    {"1f1b-vocab", 2, 4, OutputAlgo::Alg1, 1, 0xcd4a16beu},
    {"1f1b-vocab", 2, 4, OutputAlgo::Alg1, 3, 0xba68757bu},
    {"1f1b-vocab", 2, 4, OutputAlgo::Alg1, 4, 0xd58724d8u},
    {"naive", 2, 4, OutputAlgo::Alg1, -1, 0xd7940168u},
    {"zb-vocab", 2, 4, OutputAlgo::Alg1, 0, 0x5f7d7bf8u},
    {"zb-vocab", 2, 4, OutputAlgo::Alg1, 1, 0xf5b1d030u},
    {"zb-vocab", 2, 4, OutputAlgo::Alg1, 2, 0x89b3b895u},
    {"gpipe-vocab", 2, 4, OutputAlgo::Alg1, -1, 0xbea1b8a1u},
    {"vhalf-vocab", 2, 4, OutputAlgo::Alg1, -1, 0xed1a3fa5u},
    {"1f1b-vocab", 2, 4, OutputAlgo::Alg2, -1, 0x3192ab86u},
    {"1f1b-vocab", 2, 4, OutputAlgo::Alg2, 2, 0x5854e874u},
    {"1f1b-vocab", 2, 4, OutputAlgo::Alg2, 3, 0x918ff7afu},
    {"1f1b-vocab", 2, 4, OutputAlgo::Alg2, 4, 0xea118ff6u},
    {"naive", 2, 4, OutputAlgo::Alg2, -1, 0xb60bc067u},
    {"zb-vocab", 2, 4, OutputAlgo::Alg2, 0, 0xf140aa1du},
    {"zb-vocab", 2, 4, OutputAlgo::Alg2, 1, 0x5de7f6edu},
    {"zb-vocab", 2, 4, OutputAlgo::Alg2, 2, 0x66659587u},
    {"gpipe-vocab", 2, 4, OutputAlgo::Alg2, -1, 0x4872e9e5u},
    {"1f1b-vocab", 4, 4, OutputAlgo::Alg1, -1, 0xed6a0376u},
    {"1f1b-vocab", 4, 4, OutputAlgo::Alg1, 0, 0x1b87b05cu},
    {"1f1b-vocab", 4, 4, OutputAlgo::Alg1, 1, 0x1b87b05cu},
    {"1f1b-vocab", 4, 4, OutputAlgo::Alg1, 3, 0xb9ae684au},
    {"1f1b-vocab", 4, 4, OutputAlgo::Alg1, 4, 0xe0cf6f15u},
    {"naive", 4, 4, OutputAlgo::Alg1, -1, 0x1c252812u},
    {"zb-vocab", 4, 4, OutputAlgo::Alg1, 0, 0x1a60f9a1u},
    {"zb-vocab", 4, 4, OutputAlgo::Alg1, 1, 0x0d5fe578u},
    {"zb-vocab", 4, 4, OutputAlgo::Alg1, 2, 0x7b3ea9bdu},
    {"gpipe-vocab", 4, 4, OutputAlgo::Alg1, -1, 0x5066d710u},
    {"vhalf-vocab", 4, 4, OutputAlgo::Alg1, -1, 0x811e6968u},
    {"1f1b-vocab", 4, 4, OutputAlgo::Alg2, -1, 0x586e3394u},
    {"1f1b-vocab", 4, 4, OutputAlgo::Alg2, 2, 0xb6cf5f52u},
    {"1f1b-vocab", 4, 4, OutputAlgo::Alg2, 3, 0x1e62ac24u},
    {"1f1b-vocab", 4, 4, OutputAlgo::Alg2, 4, 0xc5cf5d34u},
    {"naive", 4, 4, OutputAlgo::Alg2, -1, 0x562403d2u},
    {"zb-vocab", 4, 4, OutputAlgo::Alg2, 0, 0x90466923u},
    {"zb-vocab", 4, 4, OutputAlgo::Alg2, 1, 0xa2843704u},
    {"zb-vocab", 4, 4, OutputAlgo::Alg2, 2, 0xd75a16e8u},
    {"gpipe-vocab", 4, 4, OutputAlgo::Alg2, -1, 0xc3ab10bdu},
    {"1f1b-vocab", 4, 8, OutputAlgo::Alg1, -1, 0x7c327d8fu},
    {"1f1b-vocab", 4, 8, OutputAlgo::Alg1, 0, 0xf1a037beu},
    {"1f1b-vocab", 4, 8, OutputAlgo::Alg1, 1, 0xf1a037beu},
    {"1f1b-vocab", 4, 8, OutputAlgo::Alg1, 3, 0x354e4aabu},
    {"1f1b-vocab", 4, 8, OutputAlgo::Alg1, 4, 0xf38e25a8u},
    {"naive", 4, 8, OutputAlgo::Alg1, -1, 0x1b0c56c3u},
    {"zb-vocab", 4, 8, OutputAlgo::Alg1, 0, 0x7bcd9e52u},
    {"zb-vocab", 4, 8, OutputAlgo::Alg1, 1, 0xb3366f63u},
    {"zb-vocab", 4, 8, OutputAlgo::Alg1, 2, 0x4998feb9u},
    {"gpipe-vocab", 4, 8, OutputAlgo::Alg1, -1, 0xa395965au},
    {"vhalf-vocab", 4, 8, OutputAlgo::Alg1, -1, 0xa1de7396u},
    {"1f1b-vocab", 4, 8, OutputAlgo::Alg2, -1, 0x663a6b6bu},
    {"1f1b-vocab", 4, 8, OutputAlgo::Alg2, 2, 0xde9d4411u},
    {"1f1b-vocab", 4, 8, OutputAlgo::Alg2, 3, 0x10dafa46u},
    {"1f1b-vocab", 4, 8, OutputAlgo::Alg2, 4, 0x9bc157f7u},
    {"naive", 4, 8, OutputAlgo::Alg2, -1, 0x76cd62f4u},
    {"zb-vocab", 4, 8, OutputAlgo::Alg2, 0, 0xddc266bau},
    {"zb-vocab", 4, 8, OutputAlgo::Alg2, 1, 0xb2194525u},
    {"zb-vocab", 4, 8, OutputAlgo::Alg2, 2, 0x6fe9deb9u},
    {"gpipe-vocab", 4, 8, OutputAlgo::Alg2, -1, 0x8bb2a525u},
    {"1f1b-vocab", 8, 8, OutputAlgo::Alg1, -1, 0x28eb395cu},
    {"1f1b-vocab", 8, 8, OutputAlgo::Alg1, 0, 0xd8f38130u},
    {"1f1b-vocab", 8, 8, OutputAlgo::Alg1, 1, 0xd8f38130u},
    {"1f1b-vocab", 8, 8, OutputAlgo::Alg1, 3, 0xab3909b4u},
    {"1f1b-vocab", 8, 8, OutputAlgo::Alg1, 4, 0x6659cfa2u},
    {"naive", 8, 8, OutputAlgo::Alg1, -1, 0x043ada1bu},
    {"zb-vocab", 8, 8, OutputAlgo::Alg1, 0, 0x81a316b3u},
    {"zb-vocab", 8, 8, OutputAlgo::Alg1, 1, 0x2ff04324u},
    {"zb-vocab", 8, 8, OutputAlgo::Alg1, 2, 0xff4a27a5u},
    {"gpipe-vocab", 8, 8, OutputAlgo::Alg1, -1, 0xca9e50a1u},
    {"vhalf-vocab", 8, 8, OutputAlgo::Alg1, -1, 0x351ff8cfu},
    {"1f1b-vocab", 8, 8, OutputAlgo::Alg2, -1, 0xe2ace248u},
    {"1f1b-vocab", 8, 8, OutputAlgo::Alg2, 2, 0xa53d0f4fu},
    {"1f1b-vocab", 8, 8, OutputAlgo::Alg2, 3, 0xee16e6dau},
    {"1f1b-vocab", 8, 8, OutputAlgo::Alg2, 4, 0x4d5feb5au},
    {"naive", 8, 8, OutputAlgo::Alg2, -1, 0x7043de36u},
    {"zb-vocab", 8, 8, OutputAlgo::Alg2, 0, 0x66b8e997u},
    {"zb-vocab", 8, 8, OutputAlgo::Alg2, 1, 0x194684dfu},
    {"zb-vocab", 8, 8, OutputAlgo::Alg2, 2, 0x739d731du},
    {"gpipe-vocab", 8, 8, OutputAlgo::Alg2, -1, 0xbef4e05du},
    {"1f1b-vocab", 8, 16, OutputAlgo::Alg1, -1, 0xa33d8bf6u},
    {"1f1b-vocab", 8, 16, OutputAlgo::Alg1, 0, 0x697a8fa6u},
    {"1f1b-vocab", 8, 16, OutputAlgo::Alg1, 1, 0x697a8fa6u},
    {"1f1b-vocab", 8, 16, OutputAlgo::Alg1, 3, 0xec973664u},
    {"1f1b-vocab", 8, 16, OutputAlgo::Alg1, 4, 0x5c385ae3u},
    {"naive", 8, 16, OutputAlgo::Alg1, -1, 0x89f89aebu},
    {"zb-vocab", 8, 16, OutputAlgo::Alg1, 0, 0xdddd64afu},
    {"zb-vocab", 8, 16, OutputAlgo::Alg1, 1, 0xcf19f9a3u},
    {"zb-vocab", 8, 16, OutputAlgo::Alg1, 2, 0x5c3ddf06u},
    {"gpipe-vocab", 8, 16, OutputAlgo::Alg1, -1, 0x9a678b02u},
    {"vhalf-vocab", 8, 16, OutputAlgo::Alg1, -1, 0x875e27e8u},
    {"1f1b-vocab", 8, 16, OutputAlgo::Alg2, -1, 0x6b99e421u},
    {"1f1b-vocab", 8, 16, OutputAlgo::Alg2, 2, 0x5fde80fbu},
    {"1f1b-vocab", 8, 16, OutputAlgo::Alg2, 3, 0x246b922fu},
    {"1f1b-vocab", 8, 16, OutputAlgo::Alg2, 4, 0xf6578267u},
    {"naive", 8, 16, OutputAlgo::Alg2, -1, 0xa16e4d6du},
    {"zb-vocab", 8, 16, OutputAlgo::Alg2, 0, 0xc7568194u},
    {"zb-vocab", 8, 16, OutputAlgo::Alg2, 1, 0x5791da65u},
    {"zb-vocab", 8, 16, OutputAlgo::Alg2, 2, 0xf95fb2a3u},
    {"gpipe-vocab", 8, 16, OutputAlgo::Alg2, -1, 0xe095998bu},
};

TEST(ScheduleIdentity, VocabGeneratorsMatchPinnedStructure) {
  for (const IdentityCase& c : kIdentityPins) {
    char name[96];
    std::snprintf(name, sizeof(name), "%s p=%d m=%d %s variant=%d", c.family, c.p, c.m,
                  to_string(c.algo), c.variant);
    char actual[16];
    const std::uint32_t crc = structure_crc(build_identity_case(c));
    std::snprintf(actual, sizeof(actual), "0x%08xu", crc);
    EXPECT_EQ(crc, c.crc) << name << ": structure CRC is now " << actual;
  }
}

}  // namespace
}  // namespace vocab
