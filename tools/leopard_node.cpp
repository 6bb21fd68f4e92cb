// leopard_node: run one replica of a real-wire Leopard/HotStuff/PBFT cluster,
// or a closed-loop client driver, from a cluster manifest (net/manifest.hpp).
// The node is node::Replica / node::Client (src/node/node.hpp); this daemon
// parses flags, handles signals and prints the node's report on exit.
//
//   leopard_node --manifest cluster.conf --id 2 [--run-for SECONDS]
//   leopard_node --manifest cluster.conf --client --id 100 --requests 500
//
// A replica runs until SIGINT/SIGTERM (or --run-for elapses); a client until
// every request is acked, SIGINT/SIGTERM or --timeout. Exit codes: 0 clean
// shutdown, 1 client timed out, 2 usage or manifest error, 3 unusable data
// dir or unbindable --metrics-addr. See docs/DEPLOY.md.
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "chaos/interposer.hpp"
#include "net/manifest.hpp"
#include "node/node.hpp"
#include "obs/http.hpp"
#include "obs/metrics.hpp"
#include "shard/sequencer.hpp"

namespace {

namespace lp = leopard;

struct Args {
  std::string manifest_path;
  bool id_set = false;
  bool client = false;
  lp::node::ReplicaOptions replica;
  lp::node::ClientOptions client_opts;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --manifest FILE --id ID [--run-for SEC] [--shards S]\n"
               "          [--io-threads N]\n"
               "          [--byzantine equivocate|silence|garbage-shares|laggard]\n"
               "          [--byzantine-lag-ms MS]\n"
               "          [--data-dir DIR] [--recover strict|truncate]\n"
               "          [--fsync always|interval|none] [--fsync-interval-ms MS]\n"
               "          [--snapshot-every N]\n"
               "          [--metrics-addr HOST:PORT] [--trace-sample N]\n"
               "       %s --manifest FILE --id ID --client --requests N [--window W]\n"
               "          [--payload BYTES] [--resubmit-ms MS] [--timeout SEC]\n"
               "          [--shards S] [--metrics-addr HOST:PORT]\n"
               "       (see docs/DEPLOY.md)\n",
               argv0, argv0);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  auto& rep = args.replica;
  auto& cli = args.client_opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    const auto fail = [&](const std::string& why) {
      std::fprintf(stderr, "%s\n", why.c_str());
      usage(argv[0]);
    };
    // Every integer flag: a whole decimal in [min, max], else a usage error.
    const auto decimal = [&](std::uint64_t min, std::uint64_t max,
                             const char* what = "must be a decimal in range") {
      const auto value = lp::obs::parse_decimal(next(), max);
      if (!value || *value < min) fail(arg + " " + what);
      return *value;
    };
    const auto u32 = [&] { return static_cast<std::uint32_t>(decimal(0, UINT32_MAX)); };
    // The seconds flags: a finite number with nothing after it.
    const auto seconds = [&] {
      const char* text = next();
      char* end = nullptr;
      errno = 0;
      const double value = std::strtod(text, &end);
      if (end == text || *end != '\0' || errno != 0 || !std::isfinite(value)) {
        fail(arg + " must be a number of seconds");
      }
      return value;
    };
    if (arg == "--manifest") {
      args.manifest_path = next();
    } else if (arg == "--id") {
      rep.id = cli.id =
          static_cast<lp::sim::NodeId>(decimal(0, UINT32_MAX, "must be a decimal node id"));
      args.id_set = true;
    } else if (arg == "--client") {
      args.client = true;
    } else if (arg == "--run-for") {
      rep.run_for = seconds();
    } else if (arg == "--timeout") {
      cli.timeout = seconds();
    } else if (arg == "--requests") {
      cli.requests = decimal(0, UINT64_MAX);
    } else if (arg == "--window") {
      cli.window = u32();
    } else if (arg == "--payload") {
      cli.payload = u32();
    } else if (arg == "--resubmit-ms") {
      cli.resubmit_ms = u32();
    } else if (arg == "--shards") {
      rep.shards = cli.shards =
          static_cast<std::uint32_t>(decimal(1, lp::shard::kMaxShards, "out of range"));
    } else if (arg == "--io-threads") {
      rep.io_threads = static_cast<std::uint32_t>(decimal(1, 64, "out of range"));
    } else if (arg == "--metrics-addr") {
      rep.metrics_addr = cli.metrics_addr = lp::obs::parse_listen_addr(next());
      if (!rep.metrics_addr) {
        fail("--metrics-addr must be HOST:PORT, :PORT or PORT (port <= 65535)");
      }
    } else if (arg == "--trace-sample") {
      rep.trace_sample = u32();
    } else if (arg == "--byzantine") {
      rep.byzantine = next();
      if (!lp::chaos::parse_wire_attack(rep.byzantine)) {
        fail("unknown --byzantine mode '" + rep.byzantine + "'");
      }
    } else if (arg == "--byzantine-lag-ms") {
      rep.byzantine_lag_ms = u32();
    } else if (arg == "--data-dir") {
      rep.data_dir = next();
    } else if (arg == "--recover") {
      const std::string_view mode = next();
      if (mode != "strict" && mode != "truncate") fail("--recover must be strict or truncate");
      rep.recover = mode == "strict" ? lp::store::RecoverMode::kStrict
                                     : lp::store::RecoverMode::kTruncate;
    } else if (arg == "--fsync") {
      const std::string_view policy = next();
      if (policy == "always") {
        rep.fsync = lp::store::FsyncPolicy::kAlways;
      } else if (policy == "interval") {
        rep.fsync = lp::store::FsyncPolicy::kInterval;
      } else if (policy == "none") {
        rep.fsync = lp::store::FsyncPolicy::kNever;
      } else {
        fail("--fsync must be always, interval, or none");
      }
    } else if (arg == "--fsync-interval-ms") {
      rep.fsync_interval_ms = u32();
    } else if (arg == "--snapshot-every") {
      rep.snapshot_every = decimal(0, UINT64_MAX);
    } else {
      fail("unknown argument: " + arg);
    }
  }
  if (args.manifest_path.empty() || !args.id_set) usage(argv[0]);
  if (args.client && cli.requests == 0) usage(argv[0]);
  return args;
}

/// Set by SIGINT/SIGTERM; a signal that lands before the node runs stops it
/// as soon as it starts.
volatile std::sig_atomic_t g_stop = 0;

void on_early_signal(int) { g_stop = 1; }

/// Runs `node` with SIGINT/SIGTERM wired to its stop(), then prints the
/// shutdown report: its fields followed by every series of its registry.
template <typename Node>
void run_and_report(Node& node) {
  static Node* running = nullptr;
  running = &node;
  const auto on_signal = [](int) { running->stop(); };
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  if (g_stop != 0) node.stop();
  const auto report = lp::node::render_fields(node.run()) + node.final_series();
  std::fputs(report.c_str(), stdout);
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  std::signal(SIGINT, on_early_signal);
  std::signal(SIGTERM, on_early_signal);
  std::signal(SIGPIPE, SIG_IGN);

  try {
    const auto manifest = lp::net::Manifest::parse_file(args.manifest_path);
    auto& registry = lp::obs::Registry::global();
    if (args.client) {
      lp::node::Client client(manifest, args.client_opts, registry);
      run_and_report(client);
      return client.done() ? 0 : 1;
    }
    if (args.replica.id >= manifest.n) {
      std::fprintf(stderr, "replica id %u out of range (n=%u); did you mean --client?\n",
                   args.replica.id, manifest.n);
      return 2;
    }
    lp::node::size_worker_pool(manifest);
    lp::node::Replica replica(manifest, args.replica, registry);
    run_and_report(replica);
    return 0;
  } catch (const lp::node::StartError& e) {
    std::fprintf(stderr, "leopard_node: %s\n", e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "leopard_node: %s\n", e.what());
    return 2;
  }
}
