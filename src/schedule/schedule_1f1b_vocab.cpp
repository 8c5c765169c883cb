#include "schedule/schedule_1f1b_vocab.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>

#include "common/error.h"
#include "schedule/builder.h"
#include "schedule/layer_assignment.h"
#include "schedule/schedule_zb.h"

namespace vocab {

namespace {

// ---------------------------------------------------------------------------
// Per-device steady-state cycle layout.
//
// Each device repeats an interval I = tF + tB + tS + tT + tIF + tIB of work
// per microbatch. F is anchored at position 0 of the device's cycle (device
// d's cycle grid is phase-shifted by phi_d = d*tF — the pipeline skew). The
// backward pass B must satisfy the ascending wave constraint
//     start(B(mb, d)) >= start(B(mb, d+1)) + tB,
// which, because I > tF + tB once vocabulary work exists, forces B's
// position *within* the cycle to rotate from device to device. The paper's
// §5.2 freedom — "output layer passes can be scheduled arbitrarily in each
// pipeline device" — is exactly what makes this feasible: the small passes
// {S, T, i, j} are bin-packed per device into the two gaps the rotated B
// leaves, and B's position is rounded up to the nearest packing boundary
// (the tiny rounding becomes wave slack, not a bubble).
//
// Split backward (the zero-bubble member, arXiv:2401.10241): B becomes BI
// (activation gradients) + BW (parameter gradients). BI takes B's place as
// the rotating wave block, so the wave propagates at tBI per hop instead of
// tB; BW joins the small passes as one more packable item, forced after BI
// (F < BI < BW is the verifier's semantic order), and lags its BI by
// `w_delay` whole cycles — the controllable-memory dial of arXiv:2405.15362:
// each deferred BW holds one more third of a microbatch's activations.
// ---------------------------------------------------------------------------

struct Item {
  char kind;  // 'w', 'S', 'T', 'i', 'j'
  double duration;
};

struct DeviceLayout {
  int b_lag = 0;          ///< B(mb) (BI when split) runs in device-local cycle mb + b_lag
  double b_pos = 0.0;     ///< B's position within the cycle
  double global_b = 0.0;  ///< steady-state global start of B(0) on this device
  // Position within the cycle of each small pass, keyed by kind.
  double pos_s = 0, pos_t = 0, pos_i = 0, pos_j = 0, pos_w = 0;
  int lag_s = 0, lag_t = 0, lag_i = 0, lag_j = 0, lag_w = 0;
};

double& pos_of(DeviceLayout& dl, char kind) {
  switch (kind) {
    case 'S': return dl.pos_s;
    case 'T': return dl.pos_t;
    case 'i': return dl.pos_i;
    case 'w': return dl.pos_w;
    default: return dl.pos_j;
  }
}

/// Pack `items` into gap1 [tF, b_pos) and gap2 [b_pos + tB, I), choosing the
/// smallest feasible b_pos >= `b_pos_req`. Returns the chosen b_pos and
/// writes item positions into `dl`. `forced_gap2_mask` marks items that must
/// come after B (a split backward's BW); `forced_gap1_mask` marks items that
/// must come before it (Alg1's S and T, which gate B via barrier C2).
double pack_cycle(DeviceLayout& dl, const std::vector<Item>& items, double tF, double tB,
                  double interval, double b_pos_req, unsigned forced_gap1_mask,
                  unsigned forced_gap2_mask) {
  const auto n = items.size();
  VOCAB_CHECK(n <= 8, "too many small passes to pack");
  double best_pos = -1.0;
  unsigned best_mask = 0;
  for (unsigned mask = 0; mask < (1u << n); ++mask) {
    if ((mask & forced_gap2_mask) != 0) continue;   // forced-gap2 items excluded
    if ((mask & forced_gap1_mask) != forced_gap1_mask) continue;  // must include
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (mask & (1u << i)) sum += items[i].duration;
    }
    const double pos = tF + sum;
    if (pos + 1e-12 >= b_pos_req && (best_pos < 0 || pos < best_pos)) {
      best_pos = pos;
      best_mask = mask;
    }
  }
  if (best_pos < 0) return -1.0;  // infeasible at this b_pos_req: caller carries
  // Lay out gap1 items after F, then B, then gap2 items.
  double cursor = tF;
  for (std::size_t i = 0; i < n; ++i) {
    if (best_mask & (1u << i)) {
      pos_of(dl, items[i].kind) = cursor;
      cursor += items[i].duration;
    }
  }
  cursor = best_pos + tB;
  for (std::size_t i = 0; i < n; ++i) {
    if (!(best_mask & (1u << i))) {
      pos_of(dl, items[i].kind) = cursor;
      cursor += items[i].duration;
    }
  }
  VOCAB_CHECK(cursor <= interval + 1e-9, "cycle overpacked: " << cursor << " > " << interval);
  dl.b_pos = best_pos;
  return best_pos;
}

/// Duration of the wave-carrying backward block: B, or BI when split.
double wave_backward_time(const CostModel& cm, int layers, bool split) {
  return split ? cm.time_b_input(layers) : cm.time_b_full(layers);
}

struct VocabLayout {
  double interval = 0.0;
  double s_global = 0.0;  ///< global steady-state offset of S(0) (all devices)
  int gap = 0;            ///< effective inserted-interval count
  std::vector<DeviceLayout> devices;
};

VocabLayout compute_layout(const CostModel& cm, int p, OutputAlgo algo,
                           int inserted_intervals = -1, bool split = false, int w_delay = 0) {
  VOCAB_CHECK(algo == OutputAlgo::Alg1 || algo == OutputAlgo::Alg2,
              "vocabulary-parallel schedules use Alg1 or Alg2");
  const int layers = cm.config().num_layers / p;
  const double tF = cm.time_f(layers);
  const double tB = wave_backward_time(cm, layers, split);
  const double tBW = split ? cm.time_b_weight(layers) : 0.0;
  const double tS = cm.time_output_s(algo, p);
  const double tT = cm.time_output_t(algo, p);
  const double tIF = cm.time_input_shard_fwd(p);
  const double tIB = cm.time_input_shard_bwd(p);

  VocabLayout lay;
  lay.interval = tF + tB + tBW + tS + tT + tIF + tIB;
  const double I = lay.interval;
  lay.s_global = p * tF + cm.time_x_broadcast(p);
  lay.devices.resize(static_cast<std::size_t>(p));

  // §5.2: B on the last stage runs num_barriers(algo) whole intervals after
  // S, so each communication barrier overlaps an interval of other
  // microbatches' compute (peak activation memory grows by exactly that many
  // microbatches: p+2 for Alg1, p+1 for Alg2).
  // Alg1 needs at least one interval: B transitively waits on S -> C1 -> T
  // -> C2, which cannot complete inside B's own cycle.
  const int min_gap = algo == OutputAlgo::Alg1 ? 1 : 0;
  lay.gap = std::max(min_gap, inserted_intervals >= 0 ? inserted_intervals
                                                      : num_barriers(algo));
  const double b_last_global = lay.s_global + lay.gap * I;

  // Item order fixes the mask bit layout and the packer's tie-break. A split
  // BW leads the vector so the gap2 cursor lays it out directly after BI —
  // filler work that overlaps the jBC broadcast latency instead of stacking
  // on top of it (j, the only latency-bound gap2 item, must come last).
  std::vector<Item> items{{'S', tS}, {'T', tT}, {'i', tIF}, {'j', tIB}};
  if (split) items.insert(items.begin(), Item{'w', tBW});
  const unsigned w_bit = split ? 1u : 0u;
  // BW must follow its own BI, so it can never sit in gap1.
  // Alg1: S and T both precede B in every lane (items lay out in S-then-T
  // order within the gap), since B transitively waits on both via C2.
  // Alg2's T is free — "arbitrarily delayed" in the paper means it has no
  // consumers, so it may sit anywhere after C1; leaving it packable keeps
  // the B-wave boundaries reachable and releases the S->T shard state early.
  const unsigned forced_gap2 = w_bit;
  const unsigned forced_gap1 = algo == OutputAlgo::Alg1 ? 0b0011u << w_bit : 0u;

  double wave = b_last_global;  // required global start of B on this device
  for (int d = p - 1; d >= 0; --d) {
    DeviceLayout& dl = lay.devices[static_cast<std::size_t>(d)];
    const double phi = d * tF;
    int lag = static_cast<int>(std::floor((wave - phi) / I));
    double pos_req = wave - phi - lag * I;
    if (pos_req < tF) {
      pos_req = tF;  // B can at best follow this cycle's F
    }
    if (pos_req > I - tB - tBW + 1e-9) {  // doesn't fit this cycle: carry into next
      ++lag;
      pos_req = tF;
    }
    double pos = pack_cycle(dl, items, tF, tB, I, pos_req, forced_gap1, forced_gap2);
    if (pos < 0) {  // no feasible boundary >= pos_req in this cycle: carry
      ++lag;
      pos = pack_cycle(dl, items, tF, tB, I, tF, forced_gap1, forced_gap2);
      VOCAB_CHECK(pos >= 0, "cycle packing failed even at the cycle head");
    }
    dl.b_lag = lag;
    dl.global_b = phi + lag * I + pos;
    // The rounding slack feeds the wave upstream.
    wave = dl.global_b + tB;
    // BW lags its BI by w_delay whole cycles (0 = same cycle, packed after).
    dl.lag_w = dl.b_lag + w_delay;

    // Small-pass cycle lags. S(mb) needs C0(mb), done by lay.s_global; with
    // ceil() the hosting cycle starts at or after that, so S never waits.
    dl.lag_s = static_cast<int>(std::ceil((lay.s_global - phi - dl.pos_s) / I - 1e-9));
    if (algo == OutputAlgo::Alg1) {
      // T must start after barrier C1 and *finish early enough* that barrier
      // C2 completes before B(mb, p-1)'s slot at s_global + 2I — otherwise
      // the slowest device's T delays every backward wave. The window is
      // wider than one interval, so a feasible cycle always exists; place T
      // as late as the deadline allows (maximizing C1 overlap).
      const double c1_end = lay.s_global + tS + cm.time_stats_allreduce(p);
      const double deadline = b_last_global - cm.time_gradx_allreduce(p) - tT;
      const int lo = static_cast<int>(std::ceil((c1_end - phi - dl.pos_t) / I - 1e-9));
      const int hi = static_cast<int>(std::floor((deadline - phi - dl.pos_t) / I + 1e-9));
      // T must precede B in this device's issue order (B waits on C2 <- T);
      // with fewer inserted intervals than barriers the deadline window can
      // close — clamp to the latest legal cycle and let the barrier stall,
      // which is exactly the behaviour the interval ablation demonstrates.
      dl.lag_t = std::min(std::max({lo, hi, dl.lag_s}), dl.b_lag);
    } else {
      // Alg2: one interval after S, like Alg1 — early enough to release the
      // S->T shard state quickly, late enough that waiting on C1 can never
      // stall a lane ahead of the forward wave the barrier itself needs.
      dl.lag_t = dl.lag_s + 1;
    }
    // i(mb) must complete (on every device) before F(mb, 0): place it one
    // global interval early.
    dl.lag_i = static_cast<int>(std::floor((-I - phi - dl.pos_i) / I)) + 1;
    lay.devices[static_cast<std::size_t>(d)] = dl;
  }
  // j(mb) follows the jBC broadcast of B(mb, 0)'s gradient.
  const double j_ready = lay.devices[0].global_b + tB + cm.time_x_broadcast(p);
  for (int d = 0; d < p; ++d) {
    DeviceLayout& dl = lay.devices[static_cast<std::size_t>(d)];
    const double phi = d * tF;
    dl.lag_j = static_cast<int>(std::ceil((j_ready - phi - dl.pos_j) / I - 1e-9));
  }
  return lay;
}

/// The passes of one microbatch's vocabulary-parallel building block, in the
/// order a lone microbatch would issue them.
enum class Pass { i, iAR, F, C0, S, C1, T, C2, B, W, jBC, j };

/// Issue slot of `pass` for microbatch `mb` on device `d`. Collectives are
/// asked once per microbatch (d = 0) and share that slot on every member.
using SlotFn = std::function<double(Pass pass, int d, int mb)>;

/// Emit every microbatch's building block — the same ops, dependencies and
/// memory accounting for every vocab schedule; only `slot` (hence each lane's
/// issue order) differs between 1F1B-vocab and the sequential naive order.
/// `split` emits each backward as BI + BW (the zero-bubble member).
PipelineSchedule emit_vocab_schedule(const CostModel& cm, int p, OutputAlgo algo,
                                     const std::string& name, bool split, const SlotFn& slot) {
  const int m = cm.config().num_microbatches;
  const LayerAssignment assign = uniform_assignment(cm.config().num_layers, p);
  const int layers = assign.layers_per_stage[0];
  ScheduleBuilder b(name, p, m);

  const double tF = cm.time_f(layers);
  const double tB = wave_backward_time(cm, layers, split);
  const double tS = cm.time_output_s(algo, p);
  const double tT = cm.time_output_t(algo, p);
  const double tIF = cm.time_input_shard_fwd(p);
  const double tIB = cm.time_input_shard_bwd(p);

  std::vector<int> all_devices(static_cast<std::size_t>(p));
  std::iota(all_devices.begin(), all_devices.end(), 0);

  const double act = cm.activation_bytes_per_mb(layers);
  const double out_state = cm.output_shard_state_bytes(algo, p);
  const double in_state = cm.activation_bytes();  // held input-layer output

  for (int mb = 0; mb < m; ++mb) {
    // --- input layer forward (well ahead of F(mb, 0), Appendix C) ----------
    std::vector<int> if_ids(static_cast<std::size_t>(p));
    for (int d = 0; d < p; ++d) {
      Op op;
      op.device = d;
      op.kind = OpKind::InputFwd;
      op.microbatch = mb;
      op.duration = tIF;
      op.label = "i" + std::to_string(mb);
      op.alloc_bytes = in_state;
      if_ids[static_cast<std::size_t>(d)] = b.add(std::move(op), slot(Pass::i, d, mb));
    }
    std::vector<std::vector<int>> iar_deps(static_cast<std::size_t>(p));
    for (int d = 0; d < p; ++d) iar_deps[static_cast<std::size_t>(d)] = {if_ids[static_cast<std::size_t>(d)]};
    const std::vector<int> iar = b.add_collective(
        all_devices, Stream::CommAlt, cm.time_input_allreduce(p), mb, "iAR" + std::to_string(mb),
        iar_deps, slot(Pass::iAR, 0, mb));

    // --- transformer forwards ------------------------------------------------
    std::vector<int> f_ids(static_cast<std::size_t>(p));
    for (int d = 0; d < p; ++d) {
      Op op;
      op.device = d;
      op.kind = OpKind::Forward;
      op.microbatch = mb;
      op.duration = tF;
      op.label = "F" + std::to_string(mb);
      op.alloc_bytes = act;
      if (d == 0) {
        op.deps.push_back(iar[0]);
      } else {
        op.deps.push_back(f_ids[static_cast<std::size_t>(d - 1)]);
      }
      f_ids[static_cast<std::size_t>(d)] = b.add(std::move(op), slot(Pass::F, d, mb));
    }
    // The held input-layer output is dropped once consumed / all-reduced.
    for (int d = 0; d < p; ++d) {
      b.add_free(d == 0 ? f_ids[0] : iar[static_cast<std::size_t>(d)], in_state);
    }

    // --- C0: broadcast X to all shards --------------------------------------
    std::vector<std::vector<int>> c0_deps(static_cast<std::size_t>(p),
                                          {f_ids[static_cast<std::size_t>(p - 1)]});
    const std::vector<int> c0 =
        b.add_collective(all_devices, Stream::Comm, cm.time_x_broadcast(p), mb,
                         "C0." + std::to_string(mb), c0_deps, slot(Pass::C0, 0, mb));

    // --- S pass on every device ----------------------------------------------
    std::vector<int> s_ids(static_cast<std::size_t>(p));
    for (int d = 0; d < p; ++d) {
      Op op;
      op.device = d;
      op.kind = OpKind::OutputS;
      op.microbatch = mb;
      op.duration = tS;
      op.label = "S" + std::to_string(mb);
      op.alloc_bytes = out_state;
      op.deps.push_back(c0[static_cast<std::size_t>(d)]);
      s_ids[static_cast<std::size_t>(d)] = b.add(std::move(op), slot(Pass::S, d, mb));
    }

    // --- C1 barrier ------------------------------------------------------------
    std::vector<std::vector<int>> c1_deps(static_cast<std::size_t>(p));
    for (int d = 0; d < p; ++d) c1_deps[static_cast<std::size_t>(d)] = {s_ids[static_cast<std::size_t>(d)]};
    const double c1_time = algo == OutputAlgo::Alg1
                               ? cm.time_stats_allreduce(p)
                               : cm.time_stats_allreduce(p) + cm.time_gradx_allreduce(p);
    const std::vector<int> c1 =
        b.add_collective(all_devices, Stream::Comm, c1_time, mb, "C1." + std::to_string(mb),
                         c1_deps, slot(Pass::C1, 0, mb));

    // --- T passes / C2 / backwards ----------------------------------------------
    std::vector<int> t_ids(static_cast<std::size_t>(p));
    std::vector<int> b_ids(static_cast<std::size_t>(p));
    auto make_t = [&](int d) {
      Op op;
      op.device = d;
      op.kind = OpKind::OutputT;
      op.microbatch = mb;
      op.duration = tT;
      op.label = "T" + std::to_string(mb);
      op.free_bytes = out_state;
      op.deps.push_back(c1[static_cast<std::size_t>(d)]);
      t_ids[static_cast<std::size_t>(d)] = b.add(std::move(op), slot(Pass::T, d, mb));
    };
    // A split BI frees the two thirds of the activations the weight pass
    // won't need; BW (below) releases the final third.
    auto make_b = [&](int d, int gate_op) {
      Op op;
      op.device = d;
      op.kind = split ? OpKind::BackwardInput : OpKind::BackwardFull;
      op.microbatch = mb;
      op.duration = tB;
      op.label = "B" + std::to_string(mb);
      op.free_bytes = split ? act * (2.0 / 3.0) : act;
      op.deps.push_back(f_ids[static_cast<std::size_t>(d)]);
      op.deps.push_back(gate_op);
      b_ids[static_cast<std::size_t>(d)] = b.add(std::move(op), slot(Pass::B, d, mb));
    };

    if (algo == OutputAlgo::Alg1) {
      for (int d = 0; d < p; ++d) make_t(d);
      std::vector<std::vector<int>> c2_deps(static_cast<std::size_t>(p));
      for (int d = 0; d < p; ++d) c2_deps[static_cast<std::size_t>(d)] = {t_ids[static_cast<std::size_t>(d)]};
      const std::vector<int> c2 =
          b.add_collective(all_devices, Stream::Comm, cm.time_gradx_allreduce(p), mb,
                           "C2." + std::to_string(mb), c2_deps, slot(Pass::C2, 0, mb));
      for (int d = p - 1; d >= 0; --d) {
        make_b(d, d == p - 1 ? c2[static_cast<std::size_t>(d)]
                             : b_ids[static_cast<std::size_t>(d + 1)]);
      }
    } else {
      for (int d = p - 1; d >= 0; --d) {
        make_b(d, d == p - 1 ? c1[static_cast<std::size_t>(d)]
                             : b_ids[static_cast<std::size_t>(d + 1)]);
      }
      for (int d = 0; d < p; ++d) make_t(d);
    }

    // --- deferred weight passes (split backward only) --------------------------
    // Per-device lane slots are monotone in mb (equal lags), so each stage's
    // BW ops execute in microbatch order — the property that keeps parameter
    // gradient accumulation bit-identical to the combined backward.
    for (int d = 0; split && d < p; ++d) {
      Op op;
      op.device = d;
      op.kind = OpKind::BackwardWeight;
      op.microbatch = mb;
      op.duration = cm.time_b_weight(layers);
      op.label = "W" + std::to_string(mb);
      op.free_bytes = act / 3.0;
      op.deps.push_back(b_ids[static_cast<std::size_t>(d)]);
      b.add(std::move(op), slot(Pass::W, d, mb));
    }

    // --- input layer backward ------------------------------------------------
    std::vector<std::vector<int>> ibb_deps(static_cast<std::size_t>(p), {b_ids[0]});
    const std::vector<int> ibb =
        b.add_collective(all_devices, Stream::CommAlt, cm.time_x_broadcast(p), mb,
                         "jBC" + std::to_string(mb), ibb_deps, slot(Pass::jBC, 0, mb));
    for (int d = 0; d < p; ++d) {
      Op op;
      op.device = d;
      op.kind = OpKind::InputBwd;
      op.microbatch = mb;
      op.duration = tIB;
      op.label = "j" + std::to_string(mb);
      op.deps.push_back(ibb[static_cast<std::size_t>(d)]);
      b.add(std::move(op), slot(Pass::j, d, mb));
    }
  }

  // Resident bytes: uniform transformer params + both vocab shards.
  std::vector<double> base_bytes(static_cast<std::size_t>(p),
                                 layers * cm.transformer_layer_param_bytes() +
                                     2.0 * cm.vocab_shard_param_bytes(p));
  return b.finalize(std::move(base_bytes));
}

/// 1F1B-vocab's building block repeated per microbatch under the packed
/// cycle layout; `split` selects the zero-bubble member (B = BI + BW).
PipelineSchedule build_packed_vocab(const CostModel& cm, int p, OutputAlgo algo,
                                    const std::string& name, int inserted_intervals,
                                    bool split, int w_delay) {
  VOCAB_CHECK(cm.config().num_microbatches >= p, "need at least p microbatches");
  VOCAB_CHECK(p >= 2, "vocabulary parallelism needs >= 2 devices");
  const int layers = cm.config().num_layers / p;
  const VocabLayout lay = compute_layout(cm, p, algo, inserted_intervals, split, w_delay);
  const double I = lay.interval;
  const double tF = cm.time_f(layers);
  const double tB = wave_backward_time(cm, layers, split);
  const double tS = cm.time_output_s(algo, p);
  const double tT = cm.time_output_t(algo, p);

  // Device-local slot: the op's steady-state time under the packed layout.
  const auto slot = [&](Pass pass, int d, int mb) {
    const DeviceLayout& dl = lay.devices[static_cast<std::size_t>(d)];
    const auto local = [&](int lag, double pos) { return d * tF + (mb + lag) * I + pos; };
    switch (pass) {
      case Pass::i: return local(dl.lag_i, dl.pos_i);
      case Pass::iAR: return (mb - 1) * I;
      case Pass::F: return local(0, 0.0);
      case Pass::C0: return p * tF + mb * I;
      case Pass::S: return local(dl.lag_s, dl.pos_s);
      case Pass::C1: return lay.s_global + tS + mb * I;
      case Pass::T: return local(dl.lag_t, dl.pos_t);
      // C2's comm-lane position must follow every device's T issue slot —
      // place it at the backward wave's start (gap intervals after S).
      case Pass::C2:
        return std::max(lay.s_global + lay.gap * I - 0.5 * tT, lay.s_global + tS + tT) +
               mb * I;
      case Pass::B: return local(dl.b_lag, dl.b_pos);
      case Pass::W: return local(dl.lag_w, dl.pos_w);
      case Pass::jBC: return lay.devices[0].global_b + tB + mb * I;
      case Pass::j: return local(dl.lag_j, dl.pos_j);
    }
    return 0.0;
  };
  return emit_vocab_schedule(cm, p, algo, name, split, slot);
}

}  // namespace

VocabBlockOffsets vocab_block_offsets(const CostModel& cm, int p, OutputAlgo algo) {
  const VocabLayout lay = compute_layout(cm, p, algo);
  const int layers = cm.config().num_layers / p;
  const double tF = cm.time_f(layers);

  VocabBlockOffsets off;
  off.interval = lay.interval;
  off.f.resize(static_cast<std::size_t>(p));
  off.b.resize(static_cast<std::size_t>(p));
  off.t.resize(static_cast<std::size_t>(p));
  for (int d = 0; d < p; ++d) {
    const DeviceLayout& dl = lay.devices[static_cast<std::size_t>(d)];
    off.f[static_cast<std::size_t>(d)] = d * tF;
    off.b[static_cast<std::size_t>(d)] = dl.global_b;
    off.t[static_cast<std::size_t>(d)] = d * tF + dl.lag_t * lay.interval + dl.pos_t;
  }
  off.c0 = p * tF;
  off.s = lay.s_global;
  off.c1 = off.s + cm.time_output_s(algo, p);
  off.c2 = algo == OutputAlgo::Alg1 ? off.s + lay.interval + cm.time_output_t(algo, p) : -1.0;
  return off;
}

PipelineSchedule build_1f1b_vocab(const CostModel& cm, int p, OutputAlgo algo,
                                  const std::string& name, int inserted_intervals) {
  return build_packed_vocab(cm, p, algo,
                            name.empty() ? std::string("1f1b-") + to_string(algo) : name,
                            inserted_intervals, false, 0);
}

PipelineSchedule build_zb_vocab(const CostModel& cm, int p, OutputAlgo algo,
                                const std::string& name, ZbOptions opts) {
  VOCAB_CHECK(opts.w_delay >= 0 && opts.w_delay <= 8,
              "w_delay must be in [0, 8], got " << opts.w_delay);
  return build_packed_vocab(
      cm, p, algo,
      name.empty() ? std::string("zb-vocab-") + (algo == OutputAlgo::Alg1 ? "1" : "2") + "-w" +
                         std::to_string(opts.w_delay)
                   : name,
      opts.inserted_intervals, true, opts.w_delay);
}

PipelineSchedule build_naive_vocab(const CostModel& cm, int p, OutputAlgo algo,
                                   const std::string& name) {
  VOCAB_CHECK(algo == OutputAlgo::Alg1 || algo == OutputAlgo::Alg2,
              "vocabulary-parallel schedules use Alg1 or Alg2");
  const int layers = cm.config().num_layers / p;
  const double tF = cm.time_f(layers);
  const double tB = cm.time_b_full(layers);
  const double tBC = cm.time_x_broadcast(p);

  // One microbatch's serial timeline; microbatch mb starts once mb-1 has
  // fully retired, so no lane ever holds two microbatches at once.
  const double f0 = cm.time_input_shard_fwd(p) + cm.time_input_allreduce(p);
  const double c0 = f0 + p * tF;
  const double s = c0 + tBC;
  const double c1 = s + cm.time_output_s(algo, p);
  const double t = c1 + cm.time_stats_allreduce(p) +
                   (algo == OutputAlgo::Alg2 ? cm.time_gradx_allreduce(p) : 0.0);
  const double c2 = t + cm.time_output_t(algo, p);
  const double b_last = algo == OutputAlgo::Alg1 ? c2 + cm.time_gradx_allreduce(p) : c2;
  const double jbc = b_last + p * tB;
  const double span = jbc + tBC + cm.time_input_shard_bwd(p);

  const auto slot = [&](Pass pass, int d, int mb) {
    double offset = 0.0;
    switch (pass) {
      case Pass::i: offset = 0.0; break;
      case Pass::iAR: offset = cm.time_input_shard_fwd(p); break;
      case Pass::F: offset = f0 + d * tF; break;
      case Pass::C0: offset = c0; break;
      case Pass::S: offset = s; break;
      case Pass::C1: offset = c1; break;
      case Pass::T: offset = t; break;
      case Pass::C2: offset = c2; break;
      case Pass::B: offset = b_last + (p - 1 - d) * tB; break;
      case Pass::W: break;  // the naive schedule never splits its backward
      case Pass::jBC: offset = jbc; break;
      case Pass::j: offset = jbc + tBC; break;
    }
    return mb * span + offset;
  };
  return emit_vocab_schedule(cm, p, algo,
                             name.empty() ? std::string("naive-") + to_string(algo) : name,
                             false, slot);
}

}  // namespace vocab
