// perfbench_client: the wire workloads' open-loop client (open_loop.hpp)
// hosted on a real SocketEnv that dials every replica of a manifest.
//
//   perfbench_client --manifest FILE --id ID --rate REQ_PER_S --payload BYTES
//                    --seed N --seconds SEC --samples FILE [--slices K]
//
// Prints an "edge k" line (flushed) at each slice edge of the measured
// window, k = 0..K, so a parent process can sample the replicas' CPU at the
// same instants, then one "result {json}" line with whole-window counts.
// The latency samples (one per request due in the window, in ns) go to
// --samples as native int64s, so a parent can pool the windows of several
// clusters. Exits 0 when the run completed, 1 when the cluster never
// answered the probes.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "net/manifest.hpp"
#include "net/socket_env.hpp"
#include "obs/json.hpp"
#include "open_loop.hpp"
#include "stats.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench_client --manifest FILE --id ID --rate R --payload B "
               "--seed N --seconds SEC --samples FILE [--slices K]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  namespace lp = leopard;
  std::string manifest_path;
  std::string samples_path;
  std::uint32_t id = 0;
  perfbench::OpenLoopConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage();
    const char* v = argv[++i];
    if (arg == "--manifest") {
      manifest_path = v;
    } else if (arg == "--id") {
      id = static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (arg == "--rate") {
      cfg.rate = std::strtod(v, nullptr);
    } else if (arg == "--payload") {
      cfg.payload = static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      cfg.window = lp::sim::from_seconds(std::strtod(v, nullptr));
    } else if (arg == "--samples") {
      samples_path = v;
    } else if (arg == "--slices") {
      cfg.slices = static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
    } else {
      usage();
    }
  }
  if (manifest_path.empty() || samples_path.empty() || cfg.rate <= 0 || cfg.window <= 0) {
    usage();
  }

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::signal(SIGPIPE, SIG_IGN);

  const auto manifest = lp::net::Manifest::parse_file(manifest_path);
  cfg.n = manifest.n;
  cfg.leader = manifest.initial_leader();

  perfbench::OpenLoopClient client(cfg, id);
  client.set_edge_hook([](std::uint32_t k) {
    std::printf("edge %u\n", k);
    std::fflush(stdout);
  });

  lp::net::SocketEnv env(manifest.client_env_options(id));
  env.attach(client);
  // The probe phase may take a while on a cold cluster; bound the whole run.
  const auto deadline = cfg.warmup + cfg.window + cfg.drain_timeout + 30 * lp::sim::kSecond;
  env.run([&] { return g_stop != 0 || client.done() || env.now() >= deadline; });

  auto r = client.finish(env.now());
  const bool started = client.phase() != perfbench::OpenLoopClient::Phase::kProbing;
  lp::obs::JsonWriter out;
  out.object_begin()
      .key("started").value(started)
      .key("attempted").value(r.attempted)
      .key("acked").value(r.acked)
      .key("failed").value(r.failed)
      .key("resubmits").value(r.resubmits)
      .key("duplicate_acks").value(r.duplicate_acks)
      .key("unknown_acks").value(r.unknown_acks)
      .key("window_requests").value(r.window_requests)
      .key("window_acks").value(r.window_acks)
      .key("window_seconds").value(r.window_seconds)
      .key("gen_lag_p99_ns").value(perfbench::percentile(r.lag_ns, 0.99))
      .object_end();
  std::FILE* samples = std::fopen(samples_path.c_str(), "wb");
  if (samples == nullptr) return 1;
  const auto written =
      std::fwrite(r.latency_ns.data(), sizeof(r.latency_ns[0]), r.latency_ns.size(), samples);
  if (std::fclose(samples) != 0 || written != r.latency_ns.size()) return 1;
  std::printf("result %s\n", out.str().c_str());
  std::fflush(stdout);
  return started ? 0 : 1;
}
