#include "program/program_verifier.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "common/error.h"

namespace vocab::program {

using analysis::Severity;

const char* to_string(ProgramCheck c) {
  switch (c) {
    case ProgramCheck::Shape: return "program-shape";
    case ProgramCheck::KernelCoverage: return "kernel-coverage";
    case ProgramCheck::CollectiveShape: return "program-collective-shape";
    case ProgramCheck::TagMatching: return "tag-matching";
    case ProgramCheck::Deadlock: return "program-deadlock";
    case ProgramCheck::CollectiveOrder: return "program-collective-order";
    case ProgramCheck::MemoryBalance: return "program-memory-balance";
    case ProgramCheck::PeakMemory: return "peak-memory";
    case ProgramCheck::PeakActivation: return "program-peak-activation";
    case ProgramCheck::SemanticOrder: return "program-semantic-order";
    case ProgramCheck::SourceDep: return "source-dep";
  }
  return "?";
}

std::string to_string(const ProgramDiagnostic& d) {
  std::ostringstream oss;
  oss << analysis::to_string(d.severity) << " [" << to_string(d.check) << "]";
  if (d.lane >= 0) {
    oss << " lane " << d.lane;
    if (d.pc >= 0) oss << " pc " << d.pc;
  }
  if (!d.kernels.empty()) {
    oss << " kernels{";
    for (std::size_t i = 0; i < d.kernels.size(); ++i) oss << (i ? "," : "") << d.kernels[i];
    oss << "}";
  }
  oss << ": " << d.message;
  if (!d.hint.empty()) oss << " (hint: " << d.hint << ")";
  return oss.str();
}

std::string render_report(const std::vector<ProgramDiagnostic>& diags) {
  std::ostringstream oss;
  for (const ProgramDiagnostic& d : diags) oss << to_string(d) << "\n";
  return oss.str();
}

namespace {

bool is_backward_pass(OpKind k) {
  return k == OpKind::BackwardFull || k == OpKind::BackwardInput || k == OpKind::BackwardWeight;
}

class ProgramVerifier {
 public:
  ProgramVerifier(const CompiledProgram& p, const PipelineSchedule* source,
                  const VerifyProgramOptions& opt)
      : p_(p), source_(source), opt_(opt) {}

  std::vector<ProgramDiagnostic> run() {
    if (!check_shape()) return std::move(diags_);
    check_kernel_coverage();
    check_collective_shape();
    check_tag_matching();
    check_deadlock();
    check_collective_order();
    check_memory();
    check_semantic_order();
    if (source_ != nullptr) check_source_deps();
    return std::move(diags_);
  }

 private:
  void report(Severity sev, ProgramCheck check, int lane, int pc, std::vector<int> kernels,
              std::string message, std::string hint) {
    diags_.push_back(
        {sev, check, lane, pc, std::move(kernels), std::move(message), std::move(hint)});
  }

  [[nodiscard]] int num_kernels() const { return static_cast<int>(p_.kernels.size()); }
  [[nodiscard]] bool kernel_in_range(int k) const { return k >= 0 && k < num_kernels(); }

  // --- (a) shape -----------------------------------------------------------

  bool check_shape() {
    if (p_.num_devices <= 0 ||
        static_cast<int>(p_.lanes.size()) != p_.num_devices) {
      report(Severity::Error, ProgramCheck::Shape, -1, -1, {},
             "program has " + std::to_string(p_.lanes.size()) + " lane(s) for " +
                 std::to_string(p_.num_devices) + " device(s)",
             "the compiler must emit exactly one lane per device");
      return false;
    }
    bool ok = true;
    for (int d = 0; d < p_.num_devices; ++d) {
      const std::vector<Instr>& code = p_.lanes[static_cast<std::size_t>(d)];
      if (code.empty() || code.back().op != Opcode::kHalt) {
        report(Severity::Error, ProgramCheck::Shape, d,
               static_cast<int>(code.size()) - 1, {},
               "lane " + std::to_string(d) + " does not end with HALT",
               "every lane must terminate so the executor knows where to stop");
        ok = false;
      }
      for (std::size_t pc = 0; pc < code.size(); ++pc) {
        const Instr& in = code[pc];
        const int ipc = static_cast<int>(pc);
        switch (in.op) {
          case Opcode::kHalt:
            if (pc + 1 != code.size()) {
              report(Severity::Error, ProgramCheck::Shape, d, ipc, {},
                     "HALT before the end of lane " + std::to_string(d),
                     "instructions after HALT are unreachable");
              ok = false;
            }
            break;
          case Opcode::kCall:
            if (!kernel_in_range(in.a)) {
              report(Severity::Error, ProgramCheck::Shape, d, ipc, {in.a},
                     "CALL references kernel " + std::to_string(in.a) + " of " +
                         std::to_string(num_kernels()),
                     "kernel ids index the program's kernel table");
              ok = false;
            }
            break;
          case Opcode::kColl:
            if (in.a < 0 || !kernel_in_range(in.b)) {
              report(Severity::Error, ProgramCheck::Shape, d, ipc, {in.b},
                     "COLL carries group " + std::to_string(in.a) + ", kernel " +
                         std::to_string(in.b),
                     "collective instructions need a group id and a kernel id");
              ok = false;
            }
            break;
          case Opcode::kSend:
          case Opcode::kRecv:
            if (in.a < 0 || in.b < 0 || in.b >= p_.num_devices) {
              report(Severity::Error, ProgramCheck::Shape, d, ipc, {},
                     std::string(to_string(in.op)) + " with tag " + std::to_string(in.a) +
                         " and lane operand " + std::to_string(in.b),
                     "token tags are >= 0 and lane operands index a device");
              ok = false;
            }
            break;
          case Opcode::kAlloc:
          case Opcode::kFree:
            if (!kernel_in_range(in.a) || in.bytes < 0.0) {
              report(Severity::Error, ProgramCheck::Shape, d, ipc, {in.a},
                     std::string(to_string(in.op)) + " with kernel " + std::to_string(in.a) +
                         " and " + std::to_string(in.bytes) + " bytes",
                     "memory instructions reference a kernel and a non-negative size");
              ok = false;
            }
            break;
          case Opcode::kBarrier:
            if (in.a < 0) {
              report(Severity::Error, ProgramCheck::Shape, d, ipc, {},
                     "BARRIER with negative id", "barrier ids are >= 0");
              ok = false;
            }
            break;
        }
      }
    }
    const auto check_size = [&](const std::vector<double>& v, const char* what) {
      if (static_cast<int>(v.size()) != p_.num_devices) {
        report(Severity::Error, ProgramCheck::Shape, -1, -1, {},
               std::string(what) + " has " + std::to_string(v.size()) + " entries for " +
                   std::to_string(p_.num_devices) + " device(s)",
               "the compiler stamps one reference value per device");
        return false;
      }
      return true;
    };
    ok = check_size(p_.expected_peak_bytes, "expected_peak_bytes") && ok;
    ok = check_size(p_.expected_peak_microbatches, "expected_peak_microbatches") && ok;
    return ok;
  }

  // --- (a') kernel coverage ------------------------------------------------

  void check_kernel_coverage() {
    std::vector<int> count(static_cast<std::size_t>(num_kernels()), 0);
    for (int d = 0; d < p_.num_devices; ++d) {
      const std::vector<Instr>& code = p_.lanes[static_cast<std::size_t>(d)];
      for (std::size_t pc = 0; pc < code.size(); ++pc) {
        const Instr& in = code[pc];
        const int kid = in.op == Opcode::kCall ? in.a : in.op == Opcode::kColl ? in.b : -1;
        if (kid < 0) continue;
        const KernelMeta& k = p_.kernels[static_cast<std::size_t>(kid)];
        ++count[static_cast<std::size_t>(kid)];
        if (k.device != d) {
          report(Severity::Error, ProgramCheck::KernelCoverage, d, static_cast<int>(pc), {kid},
                 "kernel " + std::to_string(kid) + " (" + k.label + ") dispatched on lane " +
                     std::to_string(d) + " but belongs to device " + std::to_string(k.device),
                 "the compiler projects each op onto its own device's lane");
        }
      }
    }
    for (int kid = 0; kid < num_kernels(); ++kid) {
      const KernelMeta& k = p_.kernels[static_cast<std::size_t>(kid)];
      if (count[static_cast<std::size_t>(kid)] != 1) {
        report(Severity::Error, ProgramCheck::KernelCoverage, k.device, -1, {kid},
               "kernel " + std::to_string(kid) + " (" + k.label + ") dispatched " +
                   std::to_string(count[static_cast<std::size_t>(kid)]) + " time(s)",
               "every source op must compile to exactly one CALL/COLL");
      }
    }
  }

  // --- (a'') collective instructions vs the kernel table -------------------

  void check_collective_shape() {
    for (int d = 0; d < p_.num_devices; ++d) {
      const std::vector<Instr>& code = p_.lanes[static_cast<std::size_t>(d)];
      for (std::size_t pc = 0; pc < code.size(); ++pc) {
        const Instr& in = code[pc];
        if (in.op == Opcode::kColl) {
          const KernelMeta& k = p_.kernels[static_cast<std::size_t>(in.b)];
          if (k.collective != in.a) {
            report(Severity::Error, ProgramCheck::CollectiveShape, d, static_cast<int>(pc),
                   {in.b},
                   "COLL group " + std::to_string(in.a) + " dispatches kernel " +
                       std::to_string(in.b) + " which belongs to group " +
                       std::to_string(k.collective),
                   "a collective instruction's group must match its kernel's group");
          }
        } else if (in.op == Opcode::kCall) {
          const KernelMeta& k = p_.kernels[static_cast<std::size_t>(in.a)];
          if (k.collective >= 0) {
            report(Severity::Error, ProgramCheck::CollectiveShape, d, static_cast<int>(pc),
                   {in.a},
                   "kernel " + std::to_string(in.a) + " is a member of collective group " +
                       std::to_string(k.collective) + " but compiled to a plain CALL",
                   "collective members must compile to COLL so the rendezvous happens");
          }
        }
      }
    }
  }

  // --- (b) tag matching ----------------------------------------------------

  struct TokenSite {
    int lane = -1;
    int pc = -1;
    int other = -1;  // SEND: dst lane; RECV: claimed source lane
  };

  void check_tag_matching() {
    std::map<int, std::vector<TokenSite>> sends;
    std::map<int, std::vector<TokenSite>> recvs;
    for (int d = 0; d < p_.num_devices; ++d) {
      const std::vector<Instr>& code = p_.lanes[static_cast<std::size_t>(d)];
      for (std::size_t pc = 0; pc < code.size(); ++pc) {
        const Instr& in = code[pc];
        if (in.op == Opcode::kSend) sends[in.a].push_back({d, static_cast<int>(pc), in.b});
        if (in.op == Opcode::kRecv) recvs[in.a].push_back({d, static_cast<int>(pc), in.b});
      }
    }
    for (const auto& [tag, sites] : sends) {
      if (sites.size() > 1) {
        report(Severity::Error, ProgramCheck::TagMatching, sites[1].lane, sites[1].pc, {},
               "tag " + std::to_string(tag) + " is sent " + std::to_string(sites.size()) +
                   " times",
               "token tags are unique per dependency edge");
      }
      const TokenSite& s = sites.front();
      const auto rit = recvs.find(tag);
      if (rit == recvs.end()) {
        report(Severity::Error, ProgramCheck::TagMatching, s.lane, s.pc, {},
               "tag " + std::to_string(tag) + " sent to lane " + std::to_string(s.other) +
                   " is never received — an orphaned mailbox token",
               "drop the SEND or restore the RECV the compiler lost");
        continue;
      }
      const TokenSite& r = rit->second.front();
      if (r.lane != s.other) {
        report(Severity::Error, ProgramCheck::TagMatching, s.lane, s.pc, {},
               "SEND posts tag " + std::to_string(tag) + " to lane " +
                   std::to_string(s.other) + " but its RECV is on lane " +
                   std::to_string(r.lane),
               "a mistargeted token never reaches its consumer's mailbox");
      } else if (r.other != s.lane) {
        report(Severity::Error, ProgramCheck::TagMatching, r.lane, r.pc, {},
               "RECV of tag " + std::to_string(tag) + " claims source lane " +
                   std::to_string(r.other) + " but the SEND is on lane " +
                   std::to_string(s.lane),
               "the RECV's source operand must name the sending lane");
      }
      if (s.lane == r.lane) {
        report(Severity::Error, ProgramCheck::TagMatching, s.lane, s.pc, {},
               "tag " + std::to_string(tag) + " is a self-send on lane " +
                   std::to_string(s.lane),
               "intra-lane ordering needs no token; the lane is serial");
      }
    }
    for (const auto& [tag, sites] : recvs) {
      if (sites.size() > 1) {
        report(Severity::Error, ProgramCheck::TagMatching, sites[1].lane, sites[1].pc, {},
               "tag " + std::to_string(tag) + " is received " + std::to_string(sites.size()) +
                   " times",
               "token tags are unique per dependency edge");
      }
      if (!sends.contains(tag)) {
        const TokenSite& r = sites.front();
        report(Severity::Error, ProgramCheck::TagMatching, r.lane, r.pc, {},
               "tag " + std::to_string(tag) + " is received but never sent",
               "this RECV blocks forever; restore the SEND the compiler lost");
      }
    }
  }

  // --- (c) deadlock-freedom by model-checking the blocking ops -------------
  //
  // Greedy abstract interpretation of all lanes. Every blocking condition is
  // monotone (tokens accumulate, rendezvous arrivals accumulate), so the
  // execution is confluent and a single maximal run decides whether the
  // all-HALT state is reachable; a blocked residue is a real deadlock.

  void check_deadlock() {
    const std::size_t n = static_cast<std::size_t>(p_.num_devices);
    std::vector<std::size_t> pc(n, 0);
    std::vector<std::multiset<int>> mailbox(n);

    // Rendezvous membership from the kernel table (authoritative): group id
    // -> lanes hosting a member kernel.
    std::map<int, std::set<int>> group_lanes;
    for (const KernelMeta& k : p_.kernels) {
      if (k.collective >= 0) group_lanes[k.collective].insert(k.device);
    }
    std::set<int> barrier_lanes;  // every lane participates in barriers
    for (int d = 0; d < p_.num_devices; ++d) barrier_lanes.insert(d);

    auto at = [&](std::size_t lane) -> const Instr& {
      return p_.lanes[lane][pc[lane]];
    };
    auto halted = [&](std::size_t lane) {
      return pc[lane] >= p_.lanes[lane].size() || at(lane).op == Opcode::kHalt;
    };
    // A rendezvous fires when every participating lane is parked at a
    // matching instruction; then all of them advance together.
    auto try_rendezvous = [&](Opcode opcode, int id, const std::set<int>& members) {
      for (const int m : members) {
        const auto lm = static_cast<std::size_t>(m);
        if (halted(lm) || at(lm).op != opcode || at(lm).a != id) return false;
      }
      for (const int m : members) ++pc[static_cast<std::size_t>(m)];
      return true;
    };

    bool progress = true;
    while (progress) {
      progress = false;
      for (std::size_t lane = 0; lane < n; ++lane) {
        while (!halted(lane)) {
          const Instr& in = at(lane);
          bool advanced = false;
          switch (in.op) {
            case Opcode::kCall:
            case Opcode::kAlloc:
            case Opcode::kFree:
              ++pc[lane];
              advanced = true;
              break;
            case Opcode::kSend:
              mailbox[static_cast<std::size_t>(in.b)].insert(in.a);
              ++pc[lane];
              advanced = true;
              break;
            case Opcode::kRecv: {
              const auto it = mailbox[lane].find(in.a);
              if (it != mailbox[lane].end()) {
                mailbox[lane].erase(it);
                ++pc[lane];
                advanced = true;
              }
              break;
            }
            case Opcode::kColl: {
              const auto git = group_lanes.find(in.a);
              const std::set<int> solo = {static_cast<int>(lane)};
              advanced = try_rendezvous(Opcode::kColl, in.a,
                                        git != group_lanes.end() ? git->second : solo);
              break;
            }
            case Opcode::kBarrier:
              advanced = try_rendezvous(Opcode::kBarrier, in.a, barrier_lanes);
              break;
            case Opcode::kHalt:
              break;
          }
          if (!advanced) break;
          progress = true;
        }
      }
    }

    for (std::size_t lane = 0; lane < n; ++lane) {
      if (halted(lane)) continue;
      const Instr& in = at(lane);
      std::ostringstream msg;
      msg << "lane " << lane << " is permanently blocked at pc " << pc[lane] << " on "
          << to_string(in.op) << " ";
      std::vector<int> kernels;
      switch (in.op) {
        case Opcode::kRecv:
          msg << "tag " << in.a << " (never posted to this mailbox)";
          break;
        case Opcode::kColl: {
          msg << "group " << in.a << " (peer lanes never arrive)";
          kernels.push_back(in.b);
          break;
        }
        case Opcode::kBarrier:
          msg << "id " << in.a << " (some lane never reaches it)";
          break;
        default:
          msg << "operand " << in.a;
          break;
      }
      report(Severity::Error, ProgramCheck::Deadlock, static_cast<int>(lane),
             static_cast<int>(pc[lane]), std::move(kernels), msg.str(),
             "the compiled program deadlocks under the interpreter's blocking semantics");
    }
  }

  // --- (d) collective order agreement --------------------------------------

  void check_collective_order() {
    std::vector<std::vector<std::pair<int, int>>> order(  // (group, pc) per lane
        static_cast<std::size_t>(p_.num_devices));
    for (int d = 0; d < p_.num_devices; ++d) {
      const std::vector<Instr>& code = p_.lanes[static_cast<std::size_t>(d)];
      for (std::size_t pc = 0; pc < code.size(); ++pc) {
        if (code[pc].op == Opcode::kColl) {
          order[static_cast<std::size_t>(d)].emplace_back(code[pc].a, static_cast<int>(pc));
        }
      }
    }
    for (int a = 0; a < p_.num_devices; ++a) {
      for (int b = a + 1; b < p_.num_devices; ++b) {
        std::set<int> on_a, on_b;
        for (const auto& [g, pc] : order[static_cast<std::size_t>(a)]) on_a.insert(g);
        for (const auto& [g, pc] : order[static_cast<std::size_t>(b)]) on_b.insert(g);
        std::vector<std::pair<int, int>> sub_a, sub_b;
        for (const auto& site : order[static_cast<std::size_t>(a)]) {
          if (on_b.contains(site.first)) sub_a.push_back(site);
        }
        for (const auto& site : order[static_cast<std::size_t>(b)]) {
          if (on_a.contains(site.first)) sub_b.push_back(site);
        }
        for (std::size_t i = 0; i < std::min(sub_a.size(), sub_b.size()); ++i) {
          if (sub_a[i].first != sub_b[i].first) {
            report(Severity::Error, ProgramCheck::CollectiveOrder, a, sub_a[i].second, {},
                   "lanes " + std::to_string(a) + " and " + std::to_string(b) +
                       " issue shared collective groups in different orders (" +
                       std::to_string(sub_a[i].first) + " vs " +
                       std::to_string(sub_b[i].first) + " at shared position " +
                       std::to_string(i) + ")",
                   "every lane must enqueue shared groups identically (NCCL discipline)");
            return;  // one pair suffices; further pairs repeat the same story
          }
        }
      }
    }
  }

  // --- (e) memory accounting -----------------------------------------------

  void check_memory() {
    for (int d = 0; d < p_.num_devices; ++d) {
      const std::vector<Instr>& code = p_.lanes[static_cast<std::size_t>(d)];
      double alloc = 0.0, freed = 0.0, live = 0.0, peak = 0.0;
      int peak_pc = -1;
      for (std::size_t pc = 0; pc < code.size(); ++pc) {
        const Instr& in = code[pc];
        if (in.op == Opcode::kAlloc) {
          alloc += in.bytes;
          live += in.bytes;
          if (live > peak) {
            peak = live;
            peak_pc = static_cast<int>(pc);
          }
        } else if (in.op == Opcode::kFree) {
          freed += in.bytes;
          live -= in.bytes;
        }
      }
      const double balance_tol = opt_.memory_balance_rtol * std::max({alloc, freed, 1.0});
      if (std::abs(alloc - freed) > balance_tol) {
        report(Severity::Error, ProgramCheck::MemoryBalance, d, -1, {},
               "lane " + std::to_string(d) + " allocates " + std::to_string(alloc) +
                   " bytes but frees " + std::to_string(freed),
               "an unbalanced lane leaks (or double-frees) every iteration");
      }
      const double expected = p_.expected_peak_bytes[static_cast<std::size_t>(d)];
      const double peak_tol = opt_.peak_bytes_rtol * std::max({peak, expected, 1.0});
      if (std::abs(peak - expected) > peak_tol) {
        report(Severity::Error, ProgramCheck::PeakMemory, d, peak_pc, {},
               "lane " + std::to_string(d) + " instruction stream peaks at " +
                   std::to_string(peak) + " bytes; the source schedule proves " +
                   std::to_string(expected),
               "the compiler dropped, duplicated or reordered a memory instruction");
      }
    }

    const std::vector<double> peaks = program_activation_peak_microbatches(p_);
    for (int d = 0; d < p_.num_devices; ++d) {
      const double got = peaks[static_cast<std::size_t>(d)];
      const double expected = p_.expected_peak_microbatches[static_cast<std::size_t>(d)];
      if (std::abs(got - expected) > opt_.peak_microbatch_atol) {
        report(Severity::Error, ProgramCheck::PeakActivation, d, -1, {},
               "lane " + std::to_string(d) + " recomputes a peak of " + std::to_string(got) +
                   " activation microbatches; the schedule verifier proves " +
                   std::to_string(expected),
               "the paper's p / p+1 / p+2 closed forms must survive compilation");
      }
    }
  }

  // --- (f) semantic order on the CALL streams ------------------------------

  void check_semantic_order() {
    for (int d = 0; d < p_.num_devices; ++d) {
      const std::vector<Instr>& code = p_.lanes[static_cast<std::size_t>(d)];
      struct Site {
        int kid;
        int pc;
        const KernelMeta* k;
      };
      std::map<int, std::vector<Site>> by_mb;
      for (std::size_t pc = 0; pc < code.size(); ++pc) {
        const Instr& in = code[pc];
        const int kid = in.op == Opcode::kCall ? in.a : in.op == Opcode::kColl ? in.b : -1;
        if (!kernel_in_range(kid)) continue;
        const KernelMeta& k = p_.kernels[static_cast<std::size_t>(kid)];
        if (k.microbatch >= 0) by_mb[k.microbatch].push_back({kid, static_cast<int>(pc), &k});
      }
      auto require_before = [&](const Site& first, const Site& second, const char* what,
                                const char* hint) {
        if (first.pc >= second.pc) {
          report(Severity::Error, ProgramCheck::SemanticOrder, d, second.pc,
                 {second.kid, first.kid},
                 std::string(what) + " violated for microbatch " +
                     std::to_string(first.k->microbatch) + " on lane " + std::to_string(d) +
                     ": " + second.k->label + " dispatched before " + first.k->label,
                 hint);
        }
      };
      for (const auto& [mb, sites] : by_mb) {
        (void)mb;
        for (const Site& a : sites) {
          for (const Site& b : sites) {
            if (a.k->kind == OpKind::Forward && is_backward_pass(b.k->kind) &&
                a.k->chunk == b.k->chunk && b.k->kind != OpKind::BackwardWeight) {
              require_before(a, b, "forward-before-backward",
                             "a microbatch's B/BI cannot run ahead of its F");
            }
            if (a.k->kind == OpKind::BackwardInput && b.k->kind == OpKind::BackwardWeight &&
                a.k->chunk == b.k->chunk) {
              require_before(a, b, "activation-grad-before-weight-grad",
                             "W consumes BI's intermediate; dispatch BI first");
            }
            if (a.k->kind == OpKind::OutputS && b.k->kind == OpKind::OutputT) {
              require_before(a, b, "S-before-T",
                             "the T pass consumes the S pass's softmax statistics");
            }
            if (a.k->kind == OpKind::InputFwd && b.k->kind == OpKind::InputBwd) {
              require_before(a, b, "input-layer fwd/bwd bracketing",
                             "the input layer's backward must follow its forward");
            }
          }
        }
      }
    }
  }

  // --- (g) source dependency realization -----------------------------------

  void check_source_deps() {
    const PipelineSchedule& s = *source_;
    if (static_cast<int>(s.ops.size()) != num_kernels()) {
      report(Severity::Error, ProgramCheck::SourceDep, -1, -1, {},
             "program carries " + std::to_string(num_kernels()) + " kernels for " +
                 std::to_string(s.ops.size()) + " source ops",
             "compile and verify against the same schedule");
      return;
    }
    // Locate every kernel's dispatch site and every token site.
    std::vector<int> k_lane(static_cast<std::size_t>(num_kernels()), -1);
    std::vector<int> k_pc(static_cast<std::size_t>(num_kernels()), -1);
    std::map<int, TokenSite> send_at, recv_at;
    for (int d = 0; d < p_.num_devices; ++d) {
      const std::vector<Instr>& code = p_.lanes[static_cast<std::size_t>(d)];
      for (std::size_t pc = 0; pc < code.size(); ++pc) {
        const Instr& in = code[pc];
        const int kid = in.op == Opcode::kCall ? in.a : in.op == Opcode::kColl ? in.b : -1;
        if (kernel_in_range(kid) && k_pc[static_cast<std::size_t>(kid)] < 0) {
          k_lane[static_cast<std::size_t>(kid)] = d;
          k_pc[static_cast<std::size_t>(kid)] = static_cast<int>(pc);
        }
        if (in.op == Opcode::kSend && !send_at.contains(in.a)) {
          send_at[in.a] = {d, static_cast<int>(pc), in.b};
        }
        if (in.op == Opcode::kRecv && !recv_at.contains(in.a)) {
          recv_at[in.a] = {d, static_cast<int>(pc), in.b};
        }
      }
    }
    for (const Op& op : s.ops) {
      for (const int dep : op.deps) {
        const Op& producer = s.op(dep);
        const int up = k_pc[static_cast<std::size_t>(dep)];
        const int vp = k_pc[static_cast<std::size_t>(op.id)];
        if (up < 0 || vp < 0) continue;  // KernelCoverage already reported
        if (producer.device == op.device) {
          if (up >= vp &&
              !(producer.collective >= 0 && producer.collective == op.collective)) {
            report(Severity::Error, ProgramCheck::SourceDep, op.device, vp, {op.id, dep},
                   "dependency " + std::to_string(dep) + " -> " + std::to_string(op.id) +
                       " not preserved by lane order (producer at pc " + std::to_string(up) +
                       ", consumer at pc " + std::to_string(vp) + ")",
                   "the projection must keep same-device deps backward in the lane");
          }
          continue;
        }
        // Cross-device: some token must bridge the edge — sent on the
        // producer's lane after its dispatch, received on the consumer's
        // lane before its dispatch.
        bool realized = false;
        for (const auto& [tag, send] : send_at) {
          if (send.lane != producer.device || send.pc <= up) continue;
          const auto rit = recv_at.find(tag);
          if (rit == recv_at.end()) continue;
          const TokenSite& recv = rit->second;
          if (recv.lane == op.device && recv.pc < vp) {
            realized = true;
            break;
          }
        }
        if (!realized) {
          report(Severity::Error, ProgramCheck::SourceDep, op.device, vp, {op.id, dep},
                 "cross-device dependency " + std::to_string(dep) + " -> " +
                     std::to_string(op.id) + " has no SEND/RECV token pair realizing it",
                 "the compiler must emit a token per cross-device edge");
        }
      }
    }
  }

  const CompiledProgram& p_;
  const PipelineSchedule* source_;
  const VerifyProgramOptions& opt_;
  std::vector<ProgramDiagnostic> diags_;
};

}  // namespace

std::vector<ProgramDiagnostic> verify_program(const CompiledProgram& prog,
                                              const PipelineSchedule* source,
                                              const VerifyProgramOptions& options) {
  return ProgramVerifier(prog, source, options).run();
}

void verify_program_or_throw(const CompiledProgram& prog, const PipelineSchedule* source,
                             const VerifyProgramOptions& options) {
  const std::vector<ProgramDiagnostic> diags = verify_program(prog, source, options);
  const bool fatal = std::any_of(diags.begin(), diags.end(), [](const ProgramDiagnostic& d) {
    return d.severity == Severity::Error;
  });
  if (fatal) {
    VOCAB_FAIL("compiled program '" << prog.schedule_name
                                    << "' failed static verification:\n"
                                    << render_report(diags));
  }
}

std::vector<double> program_activation_peak_microbatches(const CompiledProgram& prog) {
  std::vector<double> peaks(static_cast<std::size_t>(std::max(0, prog.num_devices)), 0.0);
  for (int d = 0; d < prog.num_devices && d < static_cast<int>(prog.lanes.size()); ++d) {
    // Mirror of analysis::activation_peak_microbatches, driven by the
    // compiled CALL stream instead of the source lanes. The projection
    // preserves the compute lane's relative order (lane edges feed the
    // topological sort), so the two scans walk the same op sequence — any
    // difference is a compilation defect, not a modeling choice.
    const std::vector<Instr>& code = prog.lanes[static_cast<std::size_t>(d)];
    double unit = 0.0;
    for (const Instr& in : code) {
      const int kid = in.op == Opcode::kCall ? in.a : in.op == Opcode::kColl ? in.b : -1;
      if (kid < 0 || kid >= static_cast<int>(prog.kernels.size())) continue;
      const KernelMeta& k = prog.kernels[static_cast<std::size_t>(kid)];
      if (k.stream == Stream::Compute && k.kind == OpKind::Forward && k.alloc_bytes > 0) {
        unit = k.alloc_bytes;
        break;
      }
    }
    if (unit <= 0) continue;
    double live = 0.0, peak = 0.0;
    for (const Instr& in : code) {
      const int kid = in.op == Opcode::kCall ? in.a : in.op == Opcode::kColl ? in.b : -1;
      if (kid < 0 || kid >= static_cast<int>(prog.kernels.size())) continue;
      const KernelMeta& k = prog.kernels[static_cast<std::size_t>(kid)];
      if (k.stream != Stream::Compute) continue;
      if (k.kind == OpKind::Forward && k.alloc_bytes > 0) {
        live += k.alloc_bytes / unit;
        peak = std::max(peak, live);
      } else if (is_backward_pass(k.kind) && k.free_bytes > 0) {
        live -= k.free_bytes / unit;
      }
    }
    peaks[static_cast<std::size_t>(d)] = peak;
  }
  return peaks;
}

}  // namespace vocab::program
