#pragma once

// The benchmark's three workloads. One pass runs a workload's whole input
// once, closed-loop (cells back to back, one simulation thread), and
// reports host times, exact counts and the canonical simulated outputs
// whose digest tells a speed change from a behaviour change.

#include <cstdint>
#include <string>
#include <vector>

#include "replay.h"
#include "span.h"

namespace perfbench {

inline const char* const kWorkloads[] = {"paper_grid", "fleet_burst",
                                         "open_loop_mix"};

struct WorkloadInput {
  std::string name;
  std::string root = ".";      ///< checkout root (scenario files)
  std::string work_dir = ".";  ///< journals and CSVs of the run
  std::uint64_t seed = 1;
};

/// Exact counts of one pass; they repeat exactly for a given seed.
struct Counts {
  std::uint64_t events = 0;
  std::uint64_t peak_pending = 0;  ///< highest over the pass's cells
  std::uint64_t segments = 0;      ///< delivered data segments
  std::uint64_t segments_sent = 0;
  std::uint64_t acks = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t enqueued = 0;
  std::uint64_t drops = 0;
  std::uint64_t meter_ticks = 0;  ///< metered hosts x simulated ms
  std::uint64_t flows = 0;        ///< flows built or spawned
};

struct PassResult {
  double wall_s = 0.0;   ///< the whole pass, set-up included
  double setup_s = 0.0;  ///< DSL parse/expand/compile + building cells
  double run_s = 0.0;    ///< inside Simulator::run / run_until
  Counts counts;
  std::size_t attempted = 0;  ///< cells
  std::size_t failed = 0;     ///< cells not finishing ok
  std::string outputs;      ///< canonical outputs, %.17g
  std::string digest_text;  ///< outputs plus per-cell event counts
  ReplayShape shape;        ///< the shapes the layer replay reuses
};

/// One pass of the benchmark's composition of the workload from public
/// calls, which exposes the counts, the host time inside the simulator and
/// the layer spans. With `spans`, the pass records its layer spans there.
PassResult run_pass(const WorkloadInput& input, SpanRecorder* spans);

/// Whether the workload runs through the scenario DSL. Such a workload
/// has a program path of its own (run_program_pass), and its set-up can
/// be timed alone (run_setup). fleet_burst bypasses the DSL: its
/// composition is the workload.
bool dsl_driven(const std::string& workload);

/// One pass through the program's own entry points: dsl::run_sweep for
/// paper_grid (what cca_grid and greencc_sweep run), app::WorkloadBuilder::run
/// (app::run_workload, what the DSL runner calls for workload cells) for
/// open_loop_mix. Fills wall_s, attempted, failed and outputs, which must
/// equal the composed pass's outputs.
PassResult run_program_pass(const WorkloadInput& input);

/// Host seconds of the workload's set-up alone: DSL parse, expand and
/// compile, then building every cell's scenario; no event is dispatched.
double run_setup(const WorkloadInput& input);

}  // namespace perfbench
