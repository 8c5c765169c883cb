#include "schedule/builder.h"

#include <algorithm>
#include <numeric>

#include "common/error.h"

namespace vocab {

ScheduleBuilder::ScheduleBuilder(std::string name, int num_devices, int num_microbatches)
    : name_(std::move(name)), num_devices_(num_devices), num_microbatches_(num_microbatches) {
  VOCAB_CHECK(num_devices >= 1, "schedule needs at least one device");
  VOCAB_CHECK(num_microbatches >= 1, "schedule needs at least one microbatch");
}

int ScheduleBuilder::add(Op op, double slot) {
  VOCAB_CHECK(op.device >= 0 && op.device < num_devices_,
              "op device " << op.device << " out of range");
  op.id = static_cast<int>(ops_.size());
  ops_.push_back(std::move(op));
  slots_.push_back(slot);
  return ops_.back().id;
}

std::vector<int> ScheduleBuilder::add_collective(const std::vector<int>& devices, Stream stream,
                                                 double duration, int microbatch,
                                                 const std::string& label,
                                                 const std::vector<std::vector<int>>& per_device_deps,
                                                 double slot) {
  return add_collective(devices, stream, duration, microbatch, label, per_device_deps,
                        std::vector<double>(devices.size(), slot));
}

std::vector<int> ScheduleBuilder::add_collective(const std::vector<int>& devices, Stream stream,
                                                 double duration, int microbatch,
                                                 const std::string& label,
                                                 const std::vector<std::vector<int>>& per_device_deps,
                                                 const std::vector<double>& slots) {
  VOCAB_CHECK(slots.size() == devices.size(), "per-member slot arity mismatch");
  VOCAB_CHECK(!devices.empty(), "collective '" << label << "' needs a participant");
  VOCAB_CHECK(per_device_deps.empty() || per_device_deps.size() == devices.size(),
              "per_device_deps arity mismatch for collective '" << label << "'");
  // A lone member has nobody to rendezvous with: it stays an ungrouped op.
  const int cid = devices.size() >= 2 ? next_collective_++ : -1;
  std::vector<int> ids;
  ids.reserve(devices.size());
  for (std::size_t i = 0; i < devices.size(); ++i) {
    Op op;
    op.device = devices[i];
    op.stream = stream;
    op.kind = OpKind::Collective;
    op.microbatch = microbatch;
    op.duration = duration;
    op.collective = cid;
    op.label = label;
    if (!per_device_deps.empty()) op.deps = per_device_deps[i];
    ids.push_back(add(std::move(op), slots[i]));
  }
  return ids;
}

void ScheduleBuilder::add_dep(int op_id, int dep_id) {
  VOCAB_CHECK(op_id >= 0 && op_id < static_cast<int>(ops_.size()), "bad op id " << op_id);
  VOCAB_CHECK(dep_id >= 0 && dep_id < static_cast<int>(ops_.size()), "bad dep id " << dep_id);
  ops_[static_cast<std::size_t>(op_id)].deps.push_back(dep_id);
}

void ScheduleBuilder::add_alloc(int op_id, double bytes) {
  VOCAB_CHECK(op_id >= 0 && op_id < static_cast<int>(ops_.size()), "bad op id " << op_id);
  ops_[static_cast<std::size_t>(op_id)].alloc_bytes += bytes;
}

void ScheduleBuilder::add_free(int op_id, double bytes) {
  VOCAB_CHECK(op_id >= 0 && op_id < static_cast<int>(ops_.size()), "bad op id " << op_id);
  ops_[static_cast<std::size_t>(op_id)].free_bytes += bytes;
}

const Op& ScheduleBuilder::op(int id) const {
  VOCAB_CHECK(id >= 0 && id < static_cast<int>(ops_.size()), "bad op id " << id);
  return ops_[static_cast<std::size_t>(id)];
}

PipelineSchedule ScheduleBuilder::finalize(std::vector<double> base_bytes) {
  PipelineSchedule sched;
  sched.name = name_;
  sched.num_devices = num_devices_;
  sched.num_microbatches = num_microbatches_;
  sched.ops = ops_;
  sched.devices.resize(static_cast<std::size_t>(num_devices_));
  sched.base_bytes = std::move(base_bytes);

  // Stable sort each lane by (slot, microbatch, id).
  std::vector<int> order(ops_.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const auto sa = slots_[static_cast<std::size_t>(a)];
    const auto sb = slots_[static_cast<std::size_t>(b)];
    if (sa != sb) return sa < sb;
    const auto& oa = ops_[static_cast<std::size_t>(a)];
    const auto& ob = ops_[static_cast<std::size_t>(b)];
    if (oa.microbatch != ob.microbatch) return oa.microbatch < ob.microbatch;
    return a < b;
  });
  for (const int id : order) {
    const Op& o = ops_[static_cast<std::size_t>(id)];
    sched.devices[static_cast<std::size_t>(o.device)].lane(o.stream).push_back(id);
  }

  sched.validate();
  return sched;
}

}  // namespace vocab
