// MuxEnv: protocol::Env adapter for ONE shard's core hosted over a SHARED
// net::SocketEnv — the real-wire twin of protocol::SimEnv. S MuxEnvs
// multiplex S unmodified sans-I/O cores over the same TCP connections, timer
// wheels and event loop:
//
//   - outbound Send/Broadcast route through SocketEnv::send_payload /
//     broadcast_payload tagged with this shard's instance id (shard 0
//     travels as bare frames, byte-compatible with unsharded peers);
//   - SetTimer/CancelTimer land in this instance's private wheel, so token
//     spaces of different shards never collide;
//   - inbound frames arrive through the InstanceHooks this env registers,
//     already demuxed by the transport;
//   - Execute feeds the host's observer (which pushes into the
//     shard::Sequencer), MetricsUpdate a per-shard ProtocolMetrics.
//
// Identity model matches the sim (rotate_out/rotate_in in sequencer.hpp):
// core-level replica c of shard s lives on transport node (c + s) mod n, so
// each shard's leader lands on a different machine. Ids >= n (clients) pass
// through unrotated; sends to pseudo-clients (>= kNoopClientBase) are
// dropped here — their acks have no consumer.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "core/metrics.hpp"
#include "net/socket_env.hpp"
#include "protocol/protocol.hpp"
#include "shard/sequencer.hpp"

namespace leopard::shard {

class MuxEnv final : public protocol::Env {
 public:
  /// Registers instance `shard` on `socket` immediately (so construction
  /// must precede SocketEnv::run()). `n_replicas` is the shard's cluster
  /// size, used for the id rotation. `metrics` is host-owned — pass one per
  /// shard for per-shard reports or share one to merge histograms (clients).
  MuxEnv(net::SocketEnv& socket, core::ProtocolMetrics& metrics, std::uint32_t n_replicas,
         std::uint32_t shard, std::uint32_t shards);

  MuxEnv(const MuxEnv&) = delete;
  MuxEnv& operator=(const MuxEnv&) = delete;

  /// Binds the core this env hosts (not owned). Must precede run().
  void attach(protocol::Protocol& core) { core_ = &core; }

  using ExecuteObserver = std::function<void(const protocol::Execute&)>;
  void set_execute_observer(ExecuteObserver obs) { execute_observer_ = std::move(obs); }

  /// Direct client-request injection into the core (stall no-ops), from the
  /// SocketEnv transport thread only; hops to the owning io-thread when the
  /// transport runs with --io-threads.
  void inject_request(sim::NodeId from, std::shared_ptr<const proto::ClientRequestMsg> msg);

  [[nodiscard]] std::uint32_t shard() const { return shard_; }

  // -- protocol::Env ---------------------------------------------------------
  [[nodiscard]] sim::SimTime now() const override { return socket_.now(); }
  [[nodiscard]] const sim::CostModel& costs() const override { return socket_.costs(); }
  void apply(protocol::Action action) override;

 private:
  void on_start();
  void deliver(sim::NodeId from, const sim::PayloadPtr& payload);

  net::SocketEnv& socket_;
  protocol::Protocol* core_ = nullptr;
  std::uint32_t n_;
  std::uint32_t shard_;
  core::ProtocolMetrics& metrics_;
  ExecuteObserver execute_observer_;
};

}  // namespace leopard::shard
