#pragma once

// The ext_fleet rack fabric, composed from the public sim/net/tcp/cca
// classes so that a traced run can wrap every hop in a timing decorator.
// With no recorder it builds exactly what bench/ext_fleet.cc builds and
// reproduces its event count and completions for the same flags.

#include <cstdint>

#include "span.h"

namespace greencc::robust {
class CellContext;
}

namespace perfbench {

/// The ext_fleet fabric's fixed settings: MTU, flow-size cap, run horizon.
/// Every flow runs cubic.
constexpr std::int32_t kFabricMtu = 9000;
constexpr std::int64_t kMaxFlowBytes = 256 * 1024;
constexpr double kFabricHorizonSec = 60.0;

struct FabricConfig {
  std::int64_t flows = 30'000;
  std::int64_t racks = 64;
  std::int64_t ramp_ms = 20;
  std::uint64_t seed = 1;
};

struct FabricOutcome {
  std::int64_t flows = 0;
  std::int64_t completed = 0;
  std::int64_t peak_open = 0;
  std::uint64_t events = 0;
  std::uint64_t peak_pending = 0;
  double sim_sec = 0.0;
  double build_s = 0.0;  ///< host seconds building ports, flows and starts
  double run_s = 0.0;    ///< host seconds inside Simulator::run_until
  // Layer counts, summed over every port and flow.
  std::uint64_t segments = 0;  ///< delivered data segments
  std::uint64_t segments_sent = 0;
  std::uint64_t acks = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t enqueued = 0;
  std::uint64_t drops = 0;
};

/// Builds and runs one fabric. With `spans`, every DrrPort / QueuedPort /
/// TcpReceiver / TcpSender hop and every CongestionControl::on_ack is
/// timed under the layers "net.drr", "net.port", "tcp.receiver",
/// "tcp.sender" and "cca.on_ack", inside a "sim.run" span around the run;
/// the build before it is an "app.build" span.
/// With `ctx`, the simulator is registered with the sweep supervisor.
FabricOutcome run_fabric(const FabricConfig& config, SpanRecorder* spans,
                         greencc::robust::CellContext* ctx);

}  // namespace perfbench
