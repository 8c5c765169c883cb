#pragma once

// Zero-bubble vocabulary-parallel schedules (ZB-H1 lineage).
//
// 1F1B-vocab's building block with each transformer backward split into BI
// (activation gradients, on the pipeline critical path) and BW (parameter
// gradients, deferrable filler), following *Zero Bubble Pipeline
// Parallelism* (arXiv:2401.10241). One generator builds both: the cycle
// layout, packer and emitter live in schedule_1f1b_vocab.cpp, where this
// header's build_zb_vocab is defined. The backward wave propagates at tBI
// per hop instead of tB, and the BW passes are packed into the residual
// intervals alongside the paper's vocabulary S/T passes — the same §5.2
// bin-packing freedom, with one more movable block. The `w_delay` knob is
// the controllable-memory dial of *Pipeline Parallelism with Controllable
// Memory* (arXiv:2405.15362):
// each +1 cycle of BW deferral holds one more third of a microbatch's
// activations but gives the drain phase another tBW of fill per device.
//
//   w_delay = 0: V-Min-style member — BW runs in the same cycle as its BI,
//                peak activation memory identical to 1F1B-vocab.
//   w_delay > 0: ZB-H1-style members — peak grows by w_delay/3 microbatches.

#include <string>

#include "core/output_layer_shard.h"
#include "cost/cost_model.h"
#include "schedule/ops.h"

namespace vocab {

struct ZbOptions {
  /// Whole cycles each BW lags its BI. 0 keeps 1F1B-vocab's peak memory.
  int w_delay = 1;
  /// Override the inserted-interval count (barrier overlap); -1 = the
  /// algorithm's default (num_barriers), as in build_1f1b_vocab.
  int inserted_intervals = -1;
};

/// Build the zero-bubble vocabulary-parallel schedule for p devices.
/// Requires m >= p microbatches and algo in {Alg1, Alg2}.
PipelineSchedule build_zb_vocab(const CostModel& cm, int p, OutputAlgo algo,
                                const std::string& name = "", ZbOptions opts = {});

}  // namespace vocab
