#include "fabric.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "app/workload.h"
#include "cca/cca.h"
#include "energy/cpu.h"
#include "net/drr.h"
#include "net/packet.h"
#include "net/port.h"
#include "robust/supervisor.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "tcp/receiver.h"
#include "tcp/sender.h"

using namespace greencc;

namespace perfbench {

namespace {

/// Dense flow-id demultiplexer, as in ext_fleet.
class Demux : public net::PacketHandler {
 public:
  explicit Demux(std::size_t n) : sinks_(n, nullptr) {}
  void set(std::size_t flow, net::PacketHandler* sink) { sinks_[flow] = sink; }
  void handle(net::Packet pkt) override {
    sinks_[static_cast<std::size_t>(pkt.flow)]->handle(pkt);
  }

 private:
  std::vector<net::PacketHandler*> sinks_;
};

/// Times every handle() of the wrapped hop as one span of `layer`.
class TimedHandler : public net::PacketHandler {
 public:
  TimedHandler(net::PacketHandler* inner, SpanRecorder* spans, int layer)
      : inner_(inner), spans_(spans), layer_(layer) {}
  void handle(net::Packet pkt) override {
    spans_->begin(layer_);
    inner_->handle(pkt);
    spans_->end();
  }

 private:
  net::PacketHandler* inner_;
  SpanRecorder* spans_;
  int layer_;
};

/// Forwards every CongestionControl call; times on_ack.
class TimedCca : public cca::CongestionControl {
 public:
  TimedCca(std::unique_ptr<cca::CongestionControl> inner, SpanRecorder* spans,
           int layer)
      : inner_(std::move(inner)), spans_(spans), layer_(layer) {}

  void on_ack(const cca::AckEvent& ev) override {
    spans_->begin(layer_);
    inner_->on_ack(ev);
    spans_->end();
  }
  void on_loss(const cca::LossEvent& ev) override { inner_->on_loss(ev); }
  void on_rto(sim::SimTime now) override { inner_->on_rto(now); }
  void on_recovered(sim::SimTime now) override { inner_->on_recovered(now); }
  double cwnd_segments() const override { return inner_->cwnd_segments(); }
  units::BitRate pacing_rate() const override {
    return inner_->pacing_rate();
  }
  energy::CcaCost cost() const override { return inner_->cost(); }
  bool wants_ecn() const override { return inner_->wants_ecn(); }
  bool wants_int() const override { return inner_->wants_int(); }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<cca::CongestionControl> inner_;
  SpanRecorder* spans_;
  int layer_;
};

double seconds_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) / 1e9;
}

}  // namespace

FabricOutcome run_fabric(const FabricConfig& config, SpanRecorder* spans,
                         robust::CellContext* ctx) {
  const std::int64_t t_build = now_ns();
  sim::Simulator sim;
  const auto n = static_cast<std::size_t>(config.flows);
  const auto racks = static_cast<std::size_t>(
      std::max<std::int64_t>(1, std::min(config.racks, config.flows)));

  int build_layer = 0, drr_layer = 0, port_layer = 0, rx_layer = 0,
      tx_layer = 0, cca_layer = 0, run_layer = 0;
  if (spans != nullptr) {
    build_layer = spans->layer("app.build", true);
    drr_layer = spans->layer("net.drr");
    port_layer = spans->layer("net.port");
    rx_layer = spans->layer("tcp.receiver");
    tx_layer = spans->layer("tcp.sender");
    cca_layer = spans->layer("cca.on_ack");
    run_layer = spans->layer("sim.run");
  }
  // Wraps a hop when tracing; the untraced fabric wires hops directly.
  std::vector<std::unique_ptr<TimedHandler>> timed;
  auto hop = [&](net::PacketHandler* inner, int layer) -> net::PacketHandler* {
    if (spans == nullptr) return inner;
    timed.push_back(std::make_unique<TimedHandler>(inner, spans, layer));
    return timed.back().get();
  };

  tcp::TcpConfig tcp_config;
  tcp_config.mtu_bytes = units::Bytes{kFabricMtu};
  cca::CcaConfig cca_config;
  cca_config.mss_bytes = tcp_config.mss_bytes();

  // Same fabric and rates as ext_fleet: 40G DRR rack uplinks -> shared
  // 400G core -> receivers; ACKs return over one shared 400G port.
  Demux rx_demux(n);
  Demux tx_demux(n);
  net::PortConfig core_config;
  core_config.rate = units::BitRate::bps(400e9);
  core_config.queue_capacity_bytes = units::Bytes{8 << 20};
  net::QueuedPort core(sim, "core", core_config, &rx_demux);
  net::PortConfig ack_config;
  ack_config.rate = units::BitRate::bps(400e9);
  ack_config.queue_capacity_bytes = units::Bytes{8 << 20};
  net::QueuedPort ack_port(sim, "ack", ack_config, &tx_demux);
  net::PacketHandler* core_in = hop(&core, port_layer);
  net::PacketHandler* ack_in = hop(&ack_port, port_layer);

  net::DrrPort::Config rack_config;
  rack_config.rate = units::BitRate::bps(40e9);
  rack_config.per_flow_queue_bytes = units::Bytes{1 << 16};
  std::vector<std::unique_ptr<net::DrrPort>> uplinks;
  std::vector<net::PacketHandler*> uplink_in;
  uplinks.reserve(racks);
  for (std::size_t r = 0; r < racks; ++r) {
    uplinks.push_back(std::make_unique<net::DrrPort>(
        sim, "rack" + std::to_string(r), rack_config, core_in));
    uplink_in.push_back(hop(uplinks.back().get(), drr_layer));
  }

  std::vector<energy::CpuCore> cores(n);
  std::vector<std::unique_ptr<tcp::TcpSender>> senders(n);
  std::vector<std::unique_ptr<tcp::TcpReceiver>> receivers(n);

  const auto websearch = app::websearch_workload();
  const auto datamining = app::datamining_workload();
  sim::Rng size_rng(config.seed);
  const std::int64_t mss = tcp_config.mss_bytes().count();

  std::int64_t open = 0;
  std::int64_t peak_open = 0;
  std::int64_t completed = 0;
  const std::int64_t ramp_ns = config.ramp_ms * 1'000'000;
  for (std::size_t f = 0; f < n; ++f) {
    const app::FlowSizeDistribution& dist =
        (f % 2 == 0) ? *websearch : *datamining;
    std::int64_t bytes = std::clamp(dist.sample(size_rng), mss, kMaxFlowBytes);
    bytes = (bytes + mss - 1) / mss * mss;

    std::unique_ptr<cca::CongestionControl> cc =
        cca::make_cca("cubic", cca_config);
    if (spans != nullptr) {
      cc = std::make_unique<TimedCca>(std::move(cc), spans, cca_layer);
    }
    senders[f] = std::make_unique<tcp::TcpSender>(
        sim, static_cast<net::FlowId>(f), static_cast<net::HostId>(f),
        static_cast<net::HostId>(f + n), tcp_config, std::move(cc), &cores[f],
        uplink_in[f % racks]);
    receivers[f] = std::make_unique<tcp::TcpReceiver>(
        sim, static_cast<net::FlowId>(f), static_cast<net::HostId>(f + n),
        tcp_config, ack_in);
    rx_demux.set(f, hop(receivers[f].get(), rx_layer));
    tx_demux.set(f, hop(senders[f].get(), tx_layer));

    tcp::TcpSender* sender = senders[f].get();
    sender->add_app_data(units::Bytes{bytes});
    sender->mark_app_eof();
    sender->set_on_complete([&open, &completed] {
      --open;
      ++completed;
    });
    const sim::SimTime start = sim::SimTime::nanoseconds(
        n > 1 ? ramp_ns * static_cast<std::int64_t>(f) /
                    static_cast<std::int64_t>(n - 1)
              : 0);
    sim.schedule_at(start, [sender, &open, &peak_open] {
      ++open;
      peak_open = std::max(peak_open, open);
      sender->start();
    });
  }

  std::optional<robust::CellContext::WatchGuard> watch;
  if (ctx != nullptr) watch.emplace(*ctx, sim);
  const std::int64_t t_run = now_ns();
  if (spans != nullptr) {
    spans->begin(build_layer, t_build);
    spans->end(t_run);
    spans->begin(run_layer, t_run);
  }
  sim.run_until(sim::SimTime::seconds(kFabricHorizonSec));
  const std::int64_t t_done = now_ns();
  if (spans != nullptr) spans->end(t_done);

  FabricOutcome out;
  out.flows = config.flows;
  out.completed = completed;
  out.peak_open = peak_open;
  out.events = sim.events_executed();
  out.peak_pending = sim.peak_pending_events();
  out.sim_sec = sim.now().sec();
  out.build_s = seconds_between(t_build, t_run);
  out.run_s = seconds_between(t_run, t_done);
  for (const auto& sender : senders) {
    const tcp::TcpStats& s = sender->stats();
    out.segments += static_cast<std::uint64_t>(s.delivered_segments);
    out.segments_sent += static_cast<std::uint64_t>(s.segments_sent);
    out.acks += static_cast<std::uint64_t>(s.acks_received);
    out.retransmissions += static_cast<std::uint64_t>(s.retransmissions);
    out.recoveries += static_cast<std::uint64_t>(s.recoveries);
    out.timeouts += static_cast<std::uint64_t>(s.timeouts);
  }
  for (const net::QueuedPort* port : {&core, &ack_port}) {
    out.enqueued += port->queue_stats().enqueued;
    out.drops += port->queue_stats().dropped;
  }
  for (const auto& uplink : uplinks) {
    out.enqueued += uplink->packets_sent() +
                    static_cast<std::uint64_t>(uplink->total_queued_packets());
    out.drops += uplink->dropped();
  }
  return out;
}

}  // namespace perfbench
