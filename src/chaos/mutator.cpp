#include "chaos/mutator.hpp"

#include <algorithm>
#include <bit>
#include <span>
#include <unordered_map>
#include <utility>
#include <variant>

#include "net/wire.hpp"

namespace leopard::chaos {

namespace {

constexpr std::size_t kMaxOps = 6;       // total ops per plan (corpus parent + fresh)
constexpr std::size_t kMaxCorpus = 256;  // coverage corpus cap

bool is_eligible(const protocol::Event& event) {
  return std::holds_alternative<protocol::MessageIn>(event) ||
         std::holds_alternative<protocol::ClientRequest>(event);
}

std::uint32_t count_eligible(const protocol::Trace& trace) {
  std::uint32_t n = 0;
  for (const auto& step : trace.steps) {
    if (is_eligible(step.event)) ++n;
  }
  return n;
}

/// Returns `payload` with one bit of its wire body flipped (the bit chosen by
/// `param`) and decoded again at `now`: a frame a network peer can deliver,
/// reaching every field the codec carries. The length header and the tag are
/// never touched. nullptr when the payload has no wire form or the flipped
/// body does not decode (the op is then a no-op, not a drop — classes stay
/// distinct for coverage accounting).
sim::PayloadPtr corrupt_payload(const sim::Payload& payload, std::uint64_t param,
                                sim::SimTime now) {
  util::Bytes frame;
  if (!net::encode_frame(payload, /*instance=*/0, frame)) return nullptr;
  const auto type = static_cast<net::MsgType>(frame[net::kFrameHeaderBytes]);
  const std::span<std::uint8_t> body(frame.data() + net::kFrameHeaderBytes + 1,
                                     frame.size() - net::kFrameHeaderBytes - 1);
  if (body.empty()) return nullptr;
  const auto bit = param % (body.size() * 8);
  body[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  return net::decode_payload(type, body, now);
}

void corrupt_event(protocol::TraceStep& step, std::uint64_t param) {
  if (auto* in = std::get_if<protocol::MessageIn>(&step.event)) {
    if (auto corrupted = corrupt_payload(*in->payload, param, step.at)) {
      in->payload = std::move(corrupted);
    }
  } else if (auto* cr = std::get_if<protocol::ClientRequest>(&step.event)) {
    if (auto corrupted = corrupt_payload(*cr->request, param, step.at)) {
      // The body was encoded as kClientRequest, so it decodes to one.
      cr->request = std::static_pointer_cast<const proto::ClientRequestMsg>(std::move(corrupted));
    }
  }
}

std::uint64_t mix64(std::uint64_t v) {
  std::uint64_t state = v;
  return util::splitmix64(state);
}

}  // namespace

const char* mutation_class_name(MutationClass cls) {
  switch (cls) {
    case MutationClass::kFieldCorruption: return "corrupt";
    case MutationClass::kDrop: return "drop";
    case MutationClass::kDuplicate: return "dup";
    case MutationClass::kReorder: return "reorder";
    case MutationClass::kDelay: return "delay";
    case MutationClass::kSpoofSender: return "spoof";
  }
  return "?";
}

std::string MutationPlan::describe() const {
  std::string out = "seed=" + std::to_string(seed) + " ops=[";
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (i != 0) out += ' ';
    out += mutation_class_name(ops[i].cls);
    out += '@';
    out += std::to_string(ops[i].step);
  }
  out += ']';
  return out;
}

TraceMutator::TraceMutator(std::uint64_t sweep_seed, std::uint32_t n_replicas)
    : sweep_seed_(sweep_seed), n_(n_replicas == 0 ? 1 : n_replicas) {}

MutationPlan TraceMutator::plan(std::uint64_t case_seed, const protocol::Trace& base) {
  MutationPlan p;
  p.seed = case_seed;
  const std::uint32_t eligible = count_eligible(base);
  if (eligible == 0) return p;

  util::Rng rng(mix64(sweep_seed_) ^ (case_seed * 0x9E3779B97F4A7C15ull));
  if (!corpus_.empty() && rng.uniform(2) == 0) {
    p.ops = corpus_[rng.uniform(corpus_.size())].ops;
  }
  const auto fresh = 1 + rng.uniform(3);
  for (std::uint64_t i = 0; i < fresh && p.ops.size() < kMaxOps; ++i) {
    Mutation op;
    op.cls = static_cast<MutationClass>(rng.uniform(kMutationClassCount));
    op.step = static_cast<std::uint32_t>(rng.uniform(eligible));
    op.param = rng.next_u64();
    p.ops.push_back(op);
  }
  return p;
}

protocol::Trace TraceMutator::mutated_input(const MutationPlan& plan,
                                            const protocol::Trace& base) const {
  protocol::Trace t = base;
  for (const auto& op : plan.ops) {
    if (op.cls != MutationClass::kDuplicate && op.cls != MutationClass::kReorder &&
        op.cls != MutationClass::kDelay) {
      continue;
    }
    std::vector<std::size_t> eligible;
    for (std::size_t i = 0; i < t.steps.size(); ++i) {
      if (is_eligible(t.steps[i].event)) eligible.push_back(i);
    }
    if (eligible.empty()) continue;
    const std::size_t raw = eligible[op.step % eligible.size()];
    switch (op.cls) {
      case MutationClass::kDuplicate:
        t.steps.insert(t.steps.begin() + static_cast<std::ptrdiff_t>(raw) + 1, t.steps[raw]);
        break;
      case MutationClass::kReorder: {
        const std::size_t other = eligible[op.param % eligible.size()];
        std::swap(t.steps[raw], t.steps[other]);
        break;
      }
      case MutationClass::kDelay: {
        auto step = std::move(t.steps[raw]);
        t.steps.erase(t.steps.begin() + static_cast<std::ptrdiff_t>(raw));
        const std::size_t dst = std::min(raw + 1 + op.param % 5, t.steps.size());
        t.steps.insert(t.steps.begin() + static_cast<std::ptrdiff_t>(dst), std::move(step));
        break;
      }
      default: break;
    }
  }
  // The moves above scramble step timestamps; the replay clock must still be
  // non-decreasing (cores compare against `now`).
  for (std::size_t i = 1; i < t.steps.size(); ++i) {
    t.steps[i].at = std::max(t.steps[i].at, t.steps[i - 1].at);
  }
  return t;
}

protocol::ReplayEnv::EventFilter TraceMutator::make_filter(const MutationPlan& plan) const {
  std::unordered_map<std::uint32_t, std::vector<Mutation>> targets;
  for (const auto& op : plan.ops) {
    if (op.cls == MutationClass::kFieldCorruption || op.cls == MutationClass::kDrop ||
        op.cls == MutationClass::kSpoofSender) {
      targets[op.step].push_back(op);
    }
  }
  if (targets.empty()) return nullptr;

  return [targets = std::move(targets), n = n_,
          counter = std::uint32_t{0}](protocol::TraceStep& step) mutable {
    if (!is_eligible(step.event)) return true;
    const auto idx = counter++;
    const auto it = targets.find(idx);
    if (it == targets.end()) return true;
    for (const auto& op : it->second) {
      switch (op.cls) {
        case MutationClass::kDrop:
          return false;
        case MutationClass::kSpoofSender:
          if (auto* in = std::get_if<protocol::MessageIn>(&step.event)) {
            in->from = static_cast<protocol::NodeId>(op.param % n);
          } else if (auto* cr = std::get_if<protocol::ClientRequest>(&step.event)) {
            cr->from = static_cast<protocol::NodeId>(op.param % (2 * n));
          }
          break;
        case MutationClass::kFieldCorruption:
          corrupt_event(step, op.param);
          break;
        default:
          break;  // structural ops were applied to the input stream
      }
    }
    return true;
  };
}

bool TraceMutator::record_coverage(const MutationPlan& plan, const protocol::Trace& replayed) {
  bool fresh = false;
  for (const auto& step : replayed.steps) {
    std::uint64_t kinds = 0;
    for (const auto& action : step.actions) kinds |= 1ull << action.index();
    const std::uint64_t bucket = std::bit_width(step.actions.size());
    const std::uint64_t feature =
        mix64(static_cast<std::uint64_t>(step.event.index()) | (kinds << 8) | (bucket << 40));
    if (features_.insert(feature).second) fresh = true;
  }
  if (fresh && corpus_.size() < kMaxCorpus) corpus_.push_back(plan);
  return fresh;
}

}  // namespace leopard::chaos
