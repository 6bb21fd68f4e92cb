#include "shard/mux_env.hpp"

#include <utility>

#include "protocol/sim_env.hpp"  // apply_metrics_update
#include "util/check.hpp"

namespace leopard::shard {

MuxEnv::MuxEnv(net::SocketEnv& socket, core::ProtocolMetrics& metrics,
               std::uint32_t n_replicas, std::uint32_t shard, std::uint32_t shards)
    : socket_(socket), n_(n_replicas), shard_(shard), metrics_(metrics) {
  util::expects(shard < shards, "MuxEnv: shard out of range");
  util::expects(shards <= kMaxShards, "MuxEnv: too many shards");
  net::SocketEnv::InstanceHooks hooks;
  hooks.on_start = [this] { on_start(); };
  hooks.deliver = [this](sim::NodeId from, const sim::PayloadPtr& payload) {
    deliver(from, payload);
  };
  hooks.on_timer = [this](std::uint64_t token) {
    core_->on_timer(*this, static_cast<protocol::TimerToken>(token));
  };
  socket_.register_instance(shard, std::move(hooks));
}

void MuxEnv::on_start() {
  util::expects(core_ != nullptr, "MuxEnv: run() without an attached core");
  core_->on_start(*this);
}

void MuxEnv::deliver(sim::NodeId from, const sim::PayloadPtr& payload) {
  const auto core_from = rotate_in(from, shard_, n_);
  if (auto cr = std::dynamic_pointer_cast<const proto::ClientRequestMsg>(payload)) {
    core_->on_client_request(*this, core_from, cr);
  } else {
    core_->on_message(*this, core_from, payload);
  }
}

void MuxEnv::inject_request(sim::NodeId from,
                            std::shared_ptr<const proto::ClientRequestMsg> msg) {
  // Hop to the thread that owns this shard's core (inline outside io-thread
  // mode): the caller is the transport, the core may live on a worker.
  socket_.post_to_instance(shard_, [this, from, msg = std::move(msg)]() mutable {
    core_->on_client_request(*this, from, std::move(msg));
  });
}

void MuxEnv::apply(protocol::Action action) {
  std::visit(
      [&](auto& a) {
        using T = std::decay_t<decltype(a)>;
        if constexpr (std::is_same_v<T, protocol::Send>) {
          // Pseudo-client acks (stall no-ops) die here: the transport would
          // only shed them per-frame anyway, with noisier stats.
          if (a.to >= kNoopClientBase) return;
          socket_.send_payload(shard_, rotate_out(a.to, shard_, n_), *a.payload);
        } else if constexpr (std::is_same_v<T, protocol::Broadcast>) {
          // Rotation is a bijection on [0, n): "all replicas but self" is
          // the same transport set, so broadcasts need no per-target rotation.
          socket_.broadcast_payload(shard_, *a.payload);
        } else if constexpr (std::is_same_v<T, protocol::SetTimer>) {
          socket_.arm_instance_timer(shard_, a.token, a.delay);
        } else if constexpr (std::is_same_v<T, protocol::CancelTimer>) {
          socket_.cancel_instance_timer(shard_, a.token);
        } else if constexpr (std::is_same_v<T, protocol::Execute>) {
          // The observer pushes into the host's cross-shard Sequencer, which
          // the transport thread owns — hop there (inline outside io-thread
          // mode). Per-producer FIFO preserves this shard's Execute order,
          // which is all the Sequencer's determinism needs.
          if (execute_observer_) {
            socket_.post_to_transport([this, e = a] { execute_observer_(e); });
          }
        } else if constexpr (std::is_same_v<T, protocol::MetricsUpdate>) {
          // `metrics_` may be shared across shards (the host merges
          // histograms), so it belongs to the transport thread too.
          socket_.post_to_transport(
              [this, m = a] { protocol::apply_metrics_update(metrics_, m); });
        } else {
          // ChargeCpu: the real CPU already charged itself.
        }
      },
      action);
}

}  // namespace leopard::shard
