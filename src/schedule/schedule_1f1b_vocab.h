#pragma once

// 1F1B with Vocabulary Parallelism (paper §5, Figures 9/10).
//
// Construction follows the paper's building-block methodology: take 1F1B's
// building block, insert 2 (Algorithm 1) or 1 (Algorithm 2) repeating
// intervals between the last transformer layer's F and B, place the output
// layer's S/T passes (plus the piggybacked input-layer passes, Appendix C)
// inside them, put every communication barrier on the comm stream, and
// repeat the block once per microbatch. Peak activation memory rises by
// exactly the number of communication barriers: p+2 microbatches for
// Algorithm 1, p+1 for Algorithm 2.
//
// The same block builds two more schedules in schedule_1f1b_vocab.cpp: the
// naive baseline below (one microbatch at a time) and the zero-bubble
// member with a split backward (build_zb_vocab, schedule_zb.h).

#include <string>

#include "core/output_layer_shard.h"
#include "cost/cost_model.h"
#include "schedule/ops.h"

namespace vocab {

/// Build 1F1B + Vocabulary Parallelism for `p` devices.
/// `algo` must be Alg1 (Vocab-1) or Vocab-2 (Alg2). `inserted_intervals`
/// overrides how many repeating intervals separate the last transformer
/// layer's F and B (default: the algorithm's barrier count, the paper's
/// choice); used by the ablation bench to show why fewer stalls and more
/// wastes memory.
PipelineSchedule build_1f1b_vocab(const CostModel& cm, int p, OutputAlgo algo,
                                  const std::string& name = "",
                                  int inserted_intervals = -1);

/// The unpipelined baseline as a schedule: 1F1B-vocab's building block
/// (i, iAR, F, C0, S, C1, T, C2, B, jBC, j) issued strictly one microbatch
/// at a time — every op of microbatch mb precedes every op of mb+1 on each
/// lane, so one microbatch is in flight. Any m >= 1 and p >= 1.
PipelineSchedule build_naive_vocab(const CostModel& cm, int p, OutputAlgo algo,
                                   const std::string& name = "");

/// The building-block offsets used by the generator, exposed for the
/// lifespan/interval analysis of Figures 9/10 (see building_block.h).
struct VocabBlockOffsets {
  double interval = 0.0;        ///< per-device work per microbatch
  std::vector<double> f;        ///< F offset per device
  std::vector<double> b;        ///< B offset per device
  double s = 0.0;               ///< S offset (same on all devices)
  std::vector<double> t;        ///< T offset per device
  double c0 = 0.0, c1 = 0.0, c2 = -1.0;  ///< barrier offsets (c2 < 0 for Alg2)
};

VocabBlockOffsets vocab_block_offsets(const CostModel& cm, int p, OutputAlgo algo);

}  // namespace vocab
