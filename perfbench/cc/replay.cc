#include "replay.h"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "cca/cca.h"
#include "energy/cpu.h"
#include "energy/meter.h"
#include "energy/power_model.h"
#include "net/drr.h"
#include "net/packet.h"
#include "net/port.h"
#include "robust/journal.h"
#include "sample_stats.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "span.h"
#include "tcp/seq_range_set.h"
#include "tcp/tcp_config.h"

using namespace greencc;

namespace perfbench {

namespace {

constexpr int kRounds = 5;

/// Median over kRounds of ns per operation; `round` returns the ops done.
template <typename Round>
double ns_per_op(Round&& round) {
  std::vector<double> samples;
  for (int r = 0; r < kRounds; ++r) {
    const std::int64_t t0 = now_ns();
    const std::size_t ops = round(r);
    const std::int64_t t1 = now_ns();
    samples.push_back(static_cast<double>(t1 - t0) /
                      static_cast<double>(std::max<std::size_t>(ops, 1)));
  }
  return median(samples);
}

class NullSink : public net::PacketHandler {
 public:
  void handle(net::Packet /*pkt*/) override { ++received; }
  std::uint64_t received = 0;
};

net::Packet data_packet(std::size_t flow, std::int64_t seq, std::int32_t mtu) {
  net::Packet pkt;
  pkt.flow = static_cast<net::FlowId>(flow);
  pkt.seq = seq;
  pkt.size_bytes = units::Bytes{mtu};
  return pkt;
}

/// Hold model at `pending`: pop the minimum, push a replacement a uniform
/// increment ahead (mean gap 1 us per pending event).
double replay_hold(std::size_t pending, std::uint64_t seed) {
  return ns_per_op([&](int round) {
    sim::CalendarQueue q;
    sim::Rng rng(seed + static_cast<std::uint64_t>(round));
    std::uint64_t seq = 0;
    const auto span_ns = static_cast<std::uint64_t>(pending) * 1000;
    for (std::size_t i = 0; i < pending; ++i) {
      q.push({sim::SimTime::nanoseconds(
                  static_cast<std::int64_t>(rng.next_below(span_ns))),
              seq++, [] {}});
    }
    const std::size_t ops = 200'000;
    for (std::size_t i = 0; i < ops; ++i) {
      sim::EventQueue::Event ev = q.pop_move();
      ev.when = ev.when + sim::SimTime::nanoseconds(static_cast<std::int64_t>(
                              rng.next_below(2 * span_ns)));
      ev.seq = seq++;
      q.push(std::move(ev));
    }
    return ops;
  });
}

/// Cancel every other event of a queue holding `pending` events.
double replay_cancel(std::size_t pending, std::uint64_t seed) {
  std::vector<double> samples;
  for (int round = 0; round < kRounds; ++round) {
    sim::CalendarQueue q;
    sim::Rng rng(seed + static_cast<std::uint64_t>(round));
    const auto span_ns = static_cast<std::uint64_t>(pending) * 1000;
    for (std::size_t i = 0; i < pending; ++i) {
      q.push({sim::SimTime::nanoseconds(
                  static_cast<std::int64_t>(rng.next_below(span_ns))),
              i, [] {}});
    }
    const std::int64_t t0 = now_ns();
    std::size_t cancels = 0;
    for (std::size_t i = 0; i < pending; i += 2) {
      cancels += q.cancel(i) ? 1 : 0;
    }
    const std::int64_t t1 = now_ns();
    samples.push_back(static_cast<double>(t1 - t0) /
                      static_cast<double>(std::max<std::size_t>(cancels, 1)));
  }
  return median(samples);
}

/// Re-arm `pending` RTO-style timers: mostly pushed out (kept event), one
/// in four pulled in (cancel + new event).
double replay_timer(std::size_t pending) {
  return ns_per_op([&](int /*round*/) {
    sim::Simulator sim;
    std::vector<std::unique_ptr<sim::Timer>> timers;
    timers.reserve(pending);
    for (std::size_t i = 0; i < pending; ++i) {
      timers.push_back(std::make_unique<sim::Timer>(sim, [] {}));
      timers.back()->arm(sim::SimTime::microseconds(
          200 + static_cast<std::int64_t>(i % 1000)));
    }
    const std::size_t ops = std::max<std::size_t>(200'000, pending);
    for (std::size_t i = 0; i < ops; ++i) {
      const std::int64_t base = (i % 4 == 3) ? 50 : 300;
      timers[i % pending]->arm(sim::SimTime::microseconds(
          base + static_cast<std::int64_t>(i % 97)));
    }
    return ops;
  });
}

/// Bursts of `depth` packets through a port into a sink, drained by the
/// simulator: enqueue, serialization and propagation events, delivery.
template <typename MakePort>
double replay_port(std::int32_t mtu, std::size_t flows, MakePort make_port) {
  return ns_per_op([&](int /*round*/) {
    sim::Simulator sim;
    NullSink sink;
    auto port = make_port(sim, &sink);
    const std::size_t depth = 32;
    const std::size_t bursts = 2'000;
    std::int64_t seq = 0;
    for (std::size_t b = 0; b < bursts; ++b) {
      for (std::size_t i = 0; i < depth; ++i) {
        port->handle(data_packet((b * depth + i) % flows, seq++, mtu));
      }
      sim.run();
    }
    return static_cast<std::size_t>(sink.received);
  });
}

double replay_seqrange(std::size_t holes) {
  return ns_per_op([&](int /*round*/) {
    std::size_t ops = 0;
    for (int rep = 0; rep < 2'000; ++rep) {
      tcp::SeqRangeSet set;
      // Every other segment received: `holes` gaps below the highest.
      for (std::size_t h = 0; h <= holes; ++h) {
        const auto start = static_cast<std::int64_t>(2 * h + 1);
        set.insert(start, start + 1);
        ++ops;
      }
      // Retransmissions fill the holes from the left; the cumulative
      // point moves past each.
      for (std::size_t h = 0; h < holes; ++h) {
        const auto hole = static_cast<std::int64_t>(2 * h);
        set.insert(hole, hole + 1);
        set.erase_below(hole + 2);
        ops += 2;
      }
    }
    return ops;
  });
}

double replay_on_ack(const std::string& name, std::int32_t mtu) {
  return ns_per_op([&](int /*round*/) {
    tcp::TcpConfig tcp_config;
    tcp_config.mtu_bytes = units::Bytes{mtu};
    cca::CcaConfig config;
    config.mss_bytes = tcp_config.mss_bytes();
    auto cc = cca::make_cca(name, config);
    cca::AckEvent ev;
    ev.acked_segments = 2;
    ev.rtt = sim::SimTime::microseconds(50);
    ev.srtt = ev.rtt;
    ev.min_rtt = sim::SimTime::microseconds(30);
    ev.delivery_rate = units::BitRate::gbps(10);
    const std::size_t acks = 100'000;
    for (std::size_t i = 0; i < acks; ++i) {
      ev.now = sim::SimTime::microseconds(10 * static_cast<std::int64_t>(i));
      ev.delivered += 2;
      ev.inflight = static_cast<std::int64_t>(cc->cwnd_segments());
      ev.ecn_echoed = (i % 64 == 0) ? 1 : 0;
      cc->on_ack(ev);
      if (i % 4096 == 4095) {  // an occasional loss keeps cwnd bounded
        cca::LossEvent loss;
        loss.now = ev.now;
        loss.inflight = ev.inflight;
        loss.lost_segments = 1;
        cc->on_loss(loss);
        cc->on_recovered(ev.now);
      }
    }
    return acks;
  });
}

/// Meter ticks of one host over 20 simulated seconds (1 ms tick).
double replay_tick() {
  return ns_per_op([&](int /*round*/) {
    sim::Simulator sim;
    energy::CpuCore core;
    energy::HostEnergyMeter meter(sim, energy::PackagePowerModel{});
    meter.attach_core(&core);
    meter.start();
    sim.run_until(sim::SimTime::seconds(20.0));
    return static_cast<std::size_t>(sim.events_executed());
  });
}

double replay_journal(std::size_t lines, std::size_t payload_bytes,
                      const std::string& dir) {
  const std::string path = dir + "/replay_journal.jsonl";
  const std::string payload(payload_bytes, '7');
  std::vector<double> samples;
  for (int round = 0; round < kRounds; ++round) {
    robust::SweepJournal journal(path, /*config_hash=*/1, /*preserve=*/false);
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < lines; ++i) journal.append(i, payload);
    samples.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  std::remove(path.c_str());
  return median(samples);
}

}  // namespace

ReplayResult run_replays(const ReplayShape& shape,
                         const std::string& scratch_dir, std::uint64_t seed) {
  ReplayResult out;
  const std::size_t pending = std::max<std::size_t>(shape.pending, 16);
  out.hold_ns = replay_hold(pending, seed);
  out.cancel_ns = replay_cancel(pending, seed);
  out.timer_arm_ns = replay_timer(pending);
  const std::int32_t mtu = shape.mtu;
  out.fifo_ns = replay_port(mtu, 1, [](sim::Simulator& sim,
                                       net::PacketHandler* next) {
    return std::make_unique<net::QueuedPort>(sim, "replay", net::PortConfig{},
                                             next);
  });
  if (shape.drr_flows > 0) {
    out.drr_ns = replay_port(mtu, shape.drr_flows, [](sim::Simulator& sim,
                                                      net::PacketHandler* next) {
      return std::make_unique<net::DrrPort>(sim, "replay",
                                            net::DrrPort::Config{}, next);
    });
  }
  out.seqrange_ns = replay_seqrange(std::max<std::size_t>(shape.holes, 1));
  for (const std::string& name : shape.ccas) {
    out.on_ack_ns.emplace_back(name, replay_on_ack(name, mtu));
  }
  if (shape.metered) out.tick_ns = replay_tick();
  out.journal_append_s =
      replay_journal(shape.journal_lines, shape.payload_bytes, scratch_dir);
  return out;
}

}  // namespace perfbench
