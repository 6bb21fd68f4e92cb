// Leopard protocol configuration (§IV parameters).
#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace leopard::core {

struct LeopardConfig {
  /// Number of replicas n = 3f + 1.
  std::uint32_t n = 4;

  /// Datablock batch size in requests (the paper's α expressed in requests;
  /// α_bits = datablock_requests × payload_bits). Table II uses 2000–4000.
  std::uint32_t datablock_requests = 2000;

  /// BFTblock batch size: number of datablock links per consensus proposal
  /// (the paper's τ). Table II uses 100–400.
  std::uint32_t bftblock_links = 100;

  /// Maximum number of parallel agreement instances (the paper's k; PBFT-style
  /// watermark window is (lw, lw + k]).
  std::uint32_t max_parallel_instances = 100;

  /// Checkpoint every k/2 confirmed serial numbers (Appendix A).
  [[nodiscard]] std::uint32_t checkpoint_interval() const {
    return max_parallel_instances / 2;
  }

  /// Request payload size in bytes (paper default: 128).
  std::uint32_t payload_size = 128;

  /// Mempool capacity in requests; ingress beyond this is shed (open-loop
  /// saturation keeps the pool full, which is how §VI stress-tests).
  std::uint32_t mempool_capacity = 12000;

  /// Flush a partial datablock if its oldest request waited this long.
  sim::SimTime datablock_max_wait = 500 * sim::kMillisecond;

  /// Leader: flush a partial BFTblock if ready links waited this long.
  sim::SimTime proposal_max_wait = 50 * sim::kMillisecond;

  /// Wait before multicasting a Query for a missing linked datablock.
  sim::SimTime retrieval_timeout = 10 * sim::kMillisecond;

  /// Replica-side progress timeout that triggers the view-change (§Appendix A).
  sim::SimTime view_timeout = 4 * sim::kSecond;

  /// Ablation switch: when false, the leader links datablocks as soon as it
  /// holds them, WITHOUT waiting for 2f+1 Ready acknowledgements. Removes the
  /// extra voting round of Algorithm 3 — and with it the guarantee that a
  /// committee of f+1 honest holders exists for retrieval. Keep true except
  /// in the ready-round ablation bench.
  bool enable_ready_round = true;

  /// Maximum faulty replicas tolerated.
  [[nodiscard]] std::uint32_t f() const { return (n - 1) / 3; }
  /// Votes needed for notarization/confirmation proofs (2f + 1).
  [[nodiscard]] std::uint32_t quorum() const { return 2 * f() + 1; }
};

}  // namespace leopard::core
