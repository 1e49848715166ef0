#pragma once

// Layer replay: the public functions of the layers that app::Scenario
// hides, timed in isolation at shapes taken from a workload (its peak
// pending-event count, MTU, DRR flow count, SACK hole count, CCAs, meters
// and journal traffic). Each figure is the median of several timed rounds.
// A layer the workload does not use is not replayed and reads 0.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct ReplayShape {
  std::size_t pending = 10'000;   ///< events pending in the event core
  std::int32_t mtu = 1500;
  std::size_t drr_flows = 0;      ///< active flows at a DRR port; 0 = FIFO
  std::size_t holes = 8;          ///< SACK holes in a receive scoreboard
  std::vector<std::string> ccas;  ///< CCAs whose on_ack is timed
  bool metered = false;           ///< hosts carry energy meters
  std::size_t journal_lines = 1;  ///< journal appends in one pass
  std::size_t payload_bytes = 64; ///< bytes per journal payload
};

struct ReplayResult {
  double hold_ns = 0.0;       ///< EventQueue pop_move + push, per pair
  double cancel_ns = 0.0;     ///< EventQueue cancel
  double timer_arm_ns = 0.0;  ///< Timer::arm (push-out and pull-in mix)
  double fifo_ns = 0.0;       ///< QueuedPort handle -> delivered, per packet
  double drr_ns = 0.0;        ///< DrrPort handle -> delivered, per packet
  double seqrange_ns = 0.0;   ///< SeqRangeSet insert / erase_below
  double tick_ns = 0.0;       ///< one HostEnergyMeter tick, dispatch included
  double journal_append_s = 0.0;  ///< one pass's journal appends
  std::vector<std::pair<std::string, double>> on_ack_ns;  ///< per CCA
};

/// `scratch_dir` receives the replayed journal file.
ReplayResult run_replays(const ReplayShape& shape,
                         const std::string& scratch_dir, std::uint64_t seed);

}  // namespace perfbench
