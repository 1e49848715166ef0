#include "workloads.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "app/parallel_runner.h"
#include "app/scenario.h"
#include "app/scenario_builder.h"
#include "app/workload.h"
#include "cca/cca.h"
#include "fabric.h"
#include "robust/journal.h"
#include "robust/supervisor.h"
#include "scenario_dsl/compile.h"
#include "scenario_dsl/doc.h"
#include "scenario_dsl/runner.h"
#include "scenario_dsl/sweep.h"
#include "sim/rng.h"
#include "stats/csv.h"
#include "stats/stats.h"

using namespace greencc;

namespace perfbench {

namespace {

// paper_grid: the ten paper CCAs x MTU {1500, 9000}, one bulk flow per
// cell, one repeat (perfbench/paper_grid.toml).
constexpr const char* kPaperGridDoc = "perfbench/paper_grid.toml";

// open_loop_mix: the committed load-0.7 web-search and data-mining cells
// with the horizon lengthened, each repeat a seed of its own. Data-mining's
// offered load in a run is set by the few 100 MB - 1 GB flows it draws, so
// a seed moves the cost of a pass by about 10 %. Its runs therefore keep
// the document's own seed, as the fleet thrash point does; the web-search
// runs, thousands of flows each, draw from the run's seed.
struct OpenLoopDoc {
  const char* path;
  const char* horizon;
  bool pinned;  ///< the document's seed, not the run's seed
};
constexpr OpenLoopDoc kOpenLoopDocs[] = {
    {"scenarios/pack/workload/workload_websearch_l07_cubic.toml",
     "workload.horizon=6s", false},
    {"scenarios/pack/workload/workload_datamining_l07_cubic.toml",
     "workload.horizon=1s", true},
};

// fleet_burst: one flow count, three start-up burst widths. Whether a
// burst lands in the calendar-queue rebuild thrash is a knife edge: it
// flips with the flow sizes a seed draws (at 2 ms, ext_fleet seeds 2 and 4
// thrash and seed 3 does not; at 3 ms the cost varies 1.0-1.3x by seed),
// and at 5 ms seed 1 costs 14x. So the thrash point keeps the inputs of
// `ext_fleet --flows 30000 --ramp-ms 2 --seed 1`, about 2.5x the per-event
// cost of the 20 ms point; the 20 ms and 10 ms points draw their flow
// sizes from the run's seed.
constexpr std::int64_t kFleetFlows = 30'000;
struct FleetPoint {
  std::int64_t ramp_ms;
  bool pinned;  ///< inputs from kThrashSeed, not the run's seed
};
constexpr FleetPoint kFleetPoints[] = {{20, false}, {10, false}, {2, true}};
constexpr std::uint64_t kThrashSeed = 1;

constexpr sim::SimTime kMeterTick = sim::SimTime::milliseconds(1);

double seconds_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e9;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string g17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Layer ids of the spans every DSL-driven pass records.
struct DslLayers {
  explicit DslLayers(SpanRecorder* spans) {
    if (spans == nullptr) return;
    parse = spans->layer("scenario_dsl.parse", true);
    expand = spans->layer("scenario_dsl.expand", true);
    compile = spans->layer("scenario_dsl.compile", true);
    sweep = spans->layer("robust.sweep", true);
    cell = spans->layer("robust.cell");
    build = spans->layer("app.build", true);
    run = spans->layer("sim.run", true);
    spawn = spans->layer("app.spawn");
    csv = spans->layer("stats.csv_write", true);
  }
  int parse = 0, expand = 0, compile = 0, sweep = 0, cell = 0, build = 0,
      run = 0, spawn = 0, csv = 0;
};

/// Parse, apply the run's seed and overrides, expand and compile.
struct Compiled {
  dsl::ScenarioDoc base;
  dsl::SweepGrid grid;
  std::vector<dsl::CompiledCell> cells;
};

dsl::RunOptions run_options(const WorkloadInput& input,
                            std::vector<std::string> overrides) {
  dsl::RunOptions options;
  options.have_seed = true;
  options.seed = input.seed;
  options.progress = false;
  options.overrides = std::move(overrides);
  return options;
}

Compiled compile_doc(const std::string& path, const dsl::RunOptions& options,
                     SpanRecorder* spans, const DslLayers& layers) {
  Compiled out;
  dsl::ScenarioDoc doc;
  {
    Span span(spans, layers.parse);
    doc = dsl::load_scenario_file(path);
  }
  {
    Span span(spans, layers.expand);
    out.base = dsl::effective_doc(doc, options);
    out.grid = dsl::expand_sweep(out.base);
  }
  Span span(spans, layers.compile);
  for (const dsl::SweepCell& cell : out.grid.cells) {
    out.cells.push_back(
        dsl::compile_scenario(dsl::doc_for_cell(out.base, cell)));
  }
  return out;
}

std::uint64_t counter_sum(
    const std::vector<std::pair<std::string, std::uint64_t>>& counters,
    const std::string& suffix) {
  std::uint64_t sum = 0;
  for (const auto& [name, value] : counters) {
    if (name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      sum += value;
    }
  }
  return sum;
}

/// Folds one finished app::Scenario run into the pass counts.
void add_scenario_counts(const app::ScenarioResult& result,
                         sim::SimTime end_time, Counts& counts) {
  counts.events += result.profile.events_executed;
  counts.peak_pending =
      std::max<std::uint64_t>(counts.peak_pending,
                              result.profile.peak_pending_events);
  for (const app::FlowResult& flow : result.flows) {
    counts.segments += counter_sum(flow.counters, "sender.delivered_segments");
    counts.segments_sent += counter_sum(flow.counters, "sender.segments_sent");
    counts.acks += counter_sum(flow.counters, "sender.acks_received");
    counts.retransmissions +=
        counter_sum(flow.counters, "sender.retransmissions");
    counts.recoveries += counter_sum(flow.counters, "sender.recoveries");
    counts.timeouts += counter_sum(flow.counters, "sender.timeouts");
  }
  counts.enqueued += counter_sum(result.counters, ".enqueued");
  counts.drops += counter_sum(result.counters, ".dropped");
  counts.meter_ticks += result.hosts.size() *
                        static_cast<std::uint64_t>(end_time.ns() /
                                                   kMeterTick.ns());
  counts.flows += result.flows.size();
}

std::size_t count_failed(const robust::SweepReport& report) {
  return static_cast<std::size_t>(std::count_if(
      report.cells.begin(), report.cells.end(),
      [](const robust::CellRecord& cell) {
        return cell.outcome != robust::CellOutcome::kOk;
      }));
}

bool truncated(const app::ScenarioResult& result, robust::CellContext& ctx) {
  return ctx.cut() || result.stop_reason == "stopped" ||
         result.stop_reason == "budget_exhausted";
}

std::string journal_path(const WorkloadInput& input) {
  return input.work_dir + "/" + input.name + ".journal.jsonl";
}

robust::SupervisorOptions supervisor_options(const WorkloadInput& input) {
  robust::SupervisorOptions sup;
  sup.jobs = 1;
  sup.journal_path = journal_path(input);
  sup.config_hash = robust::fnv1a64("perfbench " + input.name +
                                    " seed=" + std::to_string(input.seed));
  return sup;
}

robust::SweepReport supervise(const WorkloadInput& input, std::size_t tasks,
                              const robust::CellHooks& hooks,
                              SpanRecorder* spans, int layer) {
  std::remove(journal_path(input).c_str());
  robust::SweepSupervisor supervisor(supervisor_options(input));
  Span span(spans, layer);
  return supervisor.run(tasks, hooks);
}

// ---------------------------------------------------------------- paper_grid

/// The runner's per-run metrics for a scenario cell, in the order of the
/// metric columns of paper_grid.toml.
std::vector<double> paper_metrics(const app::ScenarioResult& run) {
  std::int64_t delivered = 0, retx = 0, timeouts = 0;
  for (const app::FlowResult& flow : run.flows) {
    delivered += flow.delivered_bytes.count();
    retx += flow.retransmissions;
    timeouts += flow.timeouts;
  }
  const double gb = static_cast<double>(delivered) / 1e9;
  return {run.total_energy.joules(),
          run.avg_power.watts(),
          run.duration_sec,
          run.flows.empty() ? 0.0 : run.flows[0].fct_sec,
          run.flows.empty() ? 0.0 : run.flows[0].avg_rate.gbps(),
          static_cast<double>(delivered),
          static_cast<double>(retx),
          static_cast<double>(timeouts),
          static_cast<double>(run.bottleneck.dropped),
          static_cast<double>(run.rx_backlog.dropped),
          static_cast<double>(run.bottleneck.ecn_marked),
          gb > 0 ? run.total_energy.joules() / gb : 0.0};
}

void emit_axis(stats::CsvWriter& csv, const dsl::TomlValue& v) {
  if (v.kind == dsl::TomlValue::Kind::kString) {
    csv.text(v.str);
  } else {
    csv.integer(v.integer);
  }
}

std::string paper_csv_path(const WorkloadInput& input) {
  return input.work_dir + "/paper_grid.csv";
}

PassResult paper_grid_pass(const WorkloadInput& input, SpanRecorder* spans) {
  const DslLayers layers(spans);
  PassResult pass;
  const std::int64_t t0 = now_ns();
  const Compiled doc = compile_doc(input.root + "/" + kPaperGridDoc,
                                   run_options(input, {}), spans, layers);
  double setup_s = seconds_since(t0);
  const std::size_t n = doc.cells.size();

  std::vector<std::vector<double>> rows(n);
  std::vector<std::string> cell_counts(n);
  robust::CellHooks hooks;
  hooks.run = [&](std::size_t cell, robust::CellContext& ctx) -> std::string {
    Span cell_span(spans, layers.cell);
    const std::uint64_t seed = app::derive_seed(doc.base.seed, cell, 0);
    ctx.set_seed(seed);
    app::ScenarioBuilder builder = doc.cells[cell].scenario;
    builder.seed(seed);
    const std::int64_t b0 = now_ns();
    std::unique_ptr<app::Scenario> scenario;
    {
      Span span(spans, layers.build);
      scenario = builder.build();
    }
    setup_s += seconds_since(b0);
    auto watch = ctx.watch(scenario->simulator());
    app::ScenarioResult result;
    {
      Span span(spans, layers.run);
      result = scenario->run();
    }
    if (truncated(result, ctx)) return {};
    pass.run_s += result.profile.wall_seconds;
    add_scenario_counts(result, scenario->simulator().now(), pass.counts);
    rows[cell] = paper_metrics(result);
    cell_counts[cell] = "cell " + std::to_string(cell) + " events " +
                        std::to_string(result.profile.events_executed) +
                        " peak_pending " +
                        std::to_string(result.profile.peak_pending_events);
    std::string payload;
    for (double v : rows[cell]) payload += g17(v) + " ";
    return payload;
  };
  hooks.restore = [](std::size_t, const std::string&) {};
  const robust::SweepReport report =
      supervise(input, n, hooks, spans, layers.sweep);

  {
    Span span(spans, layers.csv);
    std::vector<std::string> headers;
    for (const dsl::OutputColumn& col : doc.base.output.columns) {
      headers.push_back(col.header);
    }
    stats::CsvWriter csv(headers);
    for (const dsl::SweepCell& cell : doc.grid.cells) {
      for (std::size_t a = 0; a < doc.base.axes.size(); ++a) {
        emit_axis(csv, dsl::axis_value(doc.base, cell, a));
      }
      // A cell that did not finish carries zeros, as in the DSL runner.
      std::vector<double>& row = rows[cell.index];
      row.resize(headers.size() - doc.base.axes.size(), 0.0);
      for (double v : row) csv.general(v, 17);
      csv.end_row();
    }
    csv.write_file(paper_csv_path(input));
  }
  pass.wall_s = seconds_since(t0);
  pass.setup_s = setup_s;
  pass.attempted = n;
  pass.failed = count_failed(report);
  pass.outputs = read_file(paper_csv_path(input));
  pass.digest_text = pass.outputs;
  for (const std::string& line : cell_counts) pass.digest_text += line + "\n";
  pass.shape.mtu = 1500;  // the per-packet-bound half of the grid
  pass.shape.ccas = cca::all_names();
  pass.shape.metered = true;
  pass.shape.journal_lines = n;
  pass.shape.payload_bytes = 12 * 24;
  return pass;
}

PassResult paper_grid_program_pass(const WorkloadInput& input) {
  dsl::RunOptions options = run_options(input, {});
  options.csv_path = input.work_dir + "/paper_grid.runner.csv";
  options.journal_path = journal_path(input);
  std::remove(options.journal_path.c_str());
  PassResult pass;
  const std::int64_t t0 = now_ns();
  const dsl::SweepOutcome outcome = dsl::run_sweep(
      dsl::load_scenario_file(input.root + "/" + kPaperGridDoc), options);
  pass.wall_s = seconds_since(t0);
  pass.attempted = outcome.cells * outcome.repeats;
  pass.failed = count_failed(outcome.report);
  pass.outputs = read_file(options.csv_path);
  std::remove(options.csv_path.c_str());
  return pass;
}

double paper_grid_setup(const WorkloadInput& input) {
  const std::int64_t t0 = now_ns();
  const Compiled doc = compile_doc(input.root + "/" + kPaperGridDoc,
                                   run_options(input, {}), nullptr,
                                   DslLayers(nullptr));
  for (std::size_t cell = 0; cell < doc.cells.size(); ++cell) {
    app::ScenarioBuilder builder = doc.cells[cell].scenario;
    builder.seed(app::derive_seed(doc.base.seed, cell, 0));
    builder.build();
  }
  return seconds_since(t0);
}

// ------------------------------------------------------------ open_loop_mix

struct OpenLoopRun {
  app::WorkloadResult result;
  app::ScenarioResult raw;
  sim::SimTime end_time;
  double build_s = 0.0;
};

/// The open-loop testbed app::run_workload builds, before any arrival.
std::unique_ptr<app::Scenario> build_open_loop(
    const app::WorkloadConfig& config) {
  app::ScenarioConfig scenario_config;
  scenario_config.bottleneck_rate = config.bottleneck_rate;
  scenario_config.tcp.mtu_bytes = config.mtu_bytes;
  scenario_config.seed = config.seed;
  scenario_config.deadline = config.horizon;
  auto scenario = std::make_unique<app::Scenario>(scenario_config);
  scenario->enable_open_loop();
  return scenario;
}

/// app::run_workload composed from app::Scenario's public interface, so
/// the run's profile and counters stay visible. Every pass holds its
/// outputs bit-identical to app::run_workload's (run_program_pass).
OpenLoopRun run_open_loop(const app::WorkloadConfig& config,
                          robust::CellContext& ctx, SpanRecorder* spans,
                          const DslLayers& layers) {
  OpenLoopRun out;
  const std::int64_t b0 = now_ns();
  std::unique_ptr<app::Scenario> scenario;
  {
    Span span(spans, layers.build);
    scenario = build_open_loop(config);
  }
  out.build_s = seconds_since(b0);

  sim::Rng rng(sim::mix_seed(config.seed,
                             sim::site_hash("workload:arrivals"), 0));
  const double lambda = config.load * config.bottleneck_rate.bps() /
                        units::kBitsPerByteF / config.sizes->mean_bytes();
  sim::Simulator& sim = scenario->simulator();
  const app::FlowSizeDistribution* sizes = config.sizes;
  int next_host = 0;
  std::function<void()> arrival;
  arrival = [&] {
    app::FlowSpec spec;
    spec.cca = config.cca;
    spec.bytes = units::Bytes{std::max<std::int64_t>(sizes->sample(rng), 1)};
    spec.sender_host = next_host++ % config.sender_hosts;
    {
      Span span(spans, layers.spawn);
      scenario->spawn_flow(spec);
    }
    sim.schedule(sim::SimTime::seconds(rng.exponential(1.0 / lambda)),
                 arrival);
  };
  sim.schedule(sim::SimTime::seconds(rng.exponential(1.0 / lambda)), arrival);

  auto watch = ctx.watch(sim);
  {
    Span span(spans, layers.run);
    out.raw = scenario->run();
  }
  out.end_time = sim.now();

  app::WorkloadResult& w = out.result;
  w.flows_started = static_cast<int>(out.raw.flows.size());
  w.total_energy = out.raw.total_energy;
  const double base_rtt_sec = 30e-6;
  std::vector<double> slowdowns, mice, elephants;
  units::Bytes delivered_bytes;
  for (const app::FlowResult& flow : out.raw.flows) {
    delivered_bytes += flow.delivered_bytes;
    if (flow.fct_sec > 0) {
      ++w.flows_completed;
      const double ideal = static_cast<double>(flow.bytes.count()) *
                               units::kBitsPerByteF /
                               config.bottleneck_rate.bps() +
                           base_rtt_sec;
      const double slowdown = flow.fct_sec / ideal;
      slowdowns.push_back(slowdown);
      if (flow.bytes < units::Bytes{100'000}) mice.push_back(slowdown);
      if (flow.bytes >= units::Bytes{1'000'000}) elephants.push_back(slowdown);
    }
  }
  w.goodput = units::BitRate::bps(static_cast<double>(delivered_bytes.count()) *
                                  units::kBitsPerByteF / config.horizon.sec());
  w.mean_slowdown = stats::mean(slowdowns);
  w.p99_slowdown = stats::percentile(slowdowns, 99.0);
  w.mice_p99_slowdown = stats::percentile(mice, 99.0);
  w.elephant_mean_slowdown = stats::mean(elephants);
  return out;
}

/// One supervised task per (document, cell, repeat), documents in order.
struct OpenLoopTask {
  std::size_t doc = 0;
  std::size_t cell = 0;
  std::size_t rep = 0;
};

/// The canonical output line of one task's run.
std::string task_line(const OpenLoopTask& task, const app::WorkloadResult& w) {
  return std::string(kOpenLoopDocs[task.doc].path) + " rep " +
         std::to_string(task.rep) + ": " + std::to_string(w.flows_started) +
         " " + std::to_string(w.flows_completed) + " " +
         g17(w.total_energy.joules()) + " " + g17(w.goodput.bps()) + " " +
         g17(w.mean_slowdown) + " " + g17(w.p99_slowdown) + " " +
         g17(w.mice_p99_slowdown) + " " + g17(w.elephant_mean_slowdown) +
         "\n";
}

std::vector<OpenLoopTask> open_loop_tasks(const std::vector<Compiled>& docs) {
  std::vector<OpenLoopTask> tasks;
  for (std::size_t d = 0; d < docs.size(); ++d) {
    for (std::size_t c = 0; c < docs[d].cells.size(); ++c) {
      for (int r = 0; r < docs[d].base.repeats; ++r) {
        tasks.push_back({d, c, static_cast<std::size_t>(r)});
      }
    }
  }
  return tasks;
}

app::WorkloadBuilder task_builder(const std::vector<Compiled>& docs,
                                  const OpenLoopTask& task) {
  app::WorkloadBuilder builder = docs[task.doc].cells[task.cell].open_loop;
  builder.seed(app::derive_seed(docs[task.doc].base.seed, task.cell,
                                task.rep));
  return builder;
}

std::vector<Compiled> compile_open_loop(const WorkloadInput& input,
                                        SpanRecorder* spans,
                                        const DslLayers& layers) {
  std::vector<Compiled> docs;
  for (const OpenLoopDoc& doc : kOpenLoopDocs) {
    dsl::RunOptions options = run_options(input, {doc.horizon});
    options.have_seed = !doc.pinned;
    docs.push_back(
        compile_doc(input.root + "/" + doc.path, options, spans, layers));
  }
  return docs;
}

PassResult open_loop_pass(const WorkloadInput& input, SpanRecorder* spans) {
  const DslLayers layers(spans);
  PassResult pass;
  const std::int64_t t0 = now_ns();
  const std::vector<Compiled> docs = compile_open_loop(input, spans, layers);
  double setup_s = seconds_since(t0);
  const std::vector<OpenLoopTask> tasks = open_loop_tasks(docs);

  std::vector<std::string> lines(tasks.size());
  robust::CellHooks hooks;
  hooks.run = [&](std::size_t t, robust::CellContext& ctx) -> std::string {
    Span cell_span(spans, layers.cell);
    const app::WorkloadBuilder builder = task_builder(docs, tasks[t]);
    ctx.set_seed(builder.config().seed);
    OpenLoopRun run = run_open_loop(builder.config(), ctx, spans, layers);
    if (truncated(run.raw, ctx)) return {};
    setup_s += run.build_s;
    pass.run_s += run.raw.profile.wall_seconds;
    add_scenario_counts(run.raw, run.end_time, pass.counts);
    lines[t] = task_line(tasks[t], run.result);
    return lines[t];
  };
  hooks.restore = [](std::size_t, const std::string&) {};
  const robust::SweepReport report =
      supervise(input, tasks.size(), hooks, spans, layers.sweep);

  pass.wall_s = seconds_since(t0);
  pass.setup_s = setup_s;
  pass.attempted = tasks.size();
  pass.failed = count_failed(report);
  for (const std::string& line : lines) pass.outputs += line;
  pass.digest_text =
      pass.outputs + "events " + std::to_string(pass.counts.events) + "\n";
  pass.shape.mtu = static_cast<std::int32_t>(
      docs[0].cells[0].open_loop.config().mtu_bytes.count());
  for (const OpenLoopTask& task : tasks) {
    const std::string& name =
        docs[task.doc].cells[task.cell].open_loop.config().cca;
    if (std::find(pass.shape.ccas.begin(), pass.shape.ccas.end(), name) ==
        pass.shape.ccas.end()) {
      pass.shape.ccas.push_back(name);
    }
  }
  pass.shape.metered = true;
  pass.shape.journal_lines = tasks.size();
  pass.shape.payload_bytes = 8 * 24;
  return pass;
}

PassResult open_loop_program_pass(const WorkloadInput& input) {
  PassResult pass;
  const std::int64_t t0 = now_ns();
  const std::vector<Compiled> docs =
      compile_open_loop(input, nullptr, DslLayers(nullptr));
  const std::vector<OpenLoopTask> tasks = open_loop_tasks(docs);
  std::vector<std::string> lines(tasks.size());
  robust::CellHooks hooks;
  hooks.run = [&](std::size_t t, robust::CellContext& ctx) -> std::string {
    const app::WorkloadBuilder builder = task_builder(docs, tasks[t]);
    ctx.set_seed(builder.config().seed);
    lines[t] = task_line(tasks[t], builder.run());
    return lines[t];
  };
  hooks.restore = [](std::size_t, const std::string&) {};
  const robust::SweepReport report =
      supervise(input, tasks.size(), hooks, nullptr, 0);
  pass.wall_s = seconds_since(t0);
  pass.attempted = tasks.size();
  pass.failed = count_failed(report);
  for (const std::string& line : lines) pass.outputs += line;
  return pass;
}

double open_loop_setup(const WorkloadInput& input) {
  const std::int64_t t0 = now_ns();
  const std::vector<Compiled> docs =
      compile_open_loop(input, nullptr, DslLayers(nullptr));
  for (const OpenLoopTask& task : open_loop_tasks(docs)) {
    build_open_loop(task_builder(docs, task).config());
  }
  return seconds_since(t0);
}

// -------------------------------------------------------------- fleet_burst

std::uint64_t base_seed(const WorkloadInput& input, const FleetPoint& point) {
  return point.pinned ? kThrashSeed : input.seed;
}

FabricConfig fleet_config(const WorkloadInput& input,
                          const FleetPoint& point) {
  FabricConfig config;
  config.flows = kFleetFlows;
  config.ramp_ms = point.ramp_ms;
  // ext_fleet --seed S runs repeat 0 on this seed.
  config.seed = app::derive_seed(base_seed(input, point), 0, 0);
  return config;
}

PassResult fleet_pass(const WorkloadInput& input, SpanRecorder* spans) {
  const int sweep_layer =
      spans != nullptr ? spans->layer("robust.sweep", true) : 0;
  const int cell_layer = spans != nullptr ? spans->layer("robust.cell") : 0;
  PassResult pass;
  const std::int64_t t0 = now_ns();
  constexpr std::size_t kPoints = std::size(kFleetPoints);
  std::vector<std::string> lines(kPoints);
  robust::CellHooks hooks;
  hooks.run = [&](std::size_t p, robust::CellContext& ctx) -> std::string {
    Span cell_span(spans, cell_layer);
    const FabricConfig config = fleet_config(input, kFleetPoints[p]);
    ctx.set_seed(config.seed);
    const FabricOutcome out = run_fabric(config, spans, &ctx);
    if (ctx.cut()) return {};
    pass.setup_s += out.build_s;
    pass.run_s += out.run_s;
    Counts& c = pass.counts;
    c.events += out.events;
    c.peak_pending = std::max<std::uint64_t>(c.peak_pending, out.peak_pending);
    c.segments += out.segments;
    c.segments_sent += out.segments_sent;
    c.acks += out.acks;
    c.retransmissions += out.retransmissions;
    c.recoveries += out.recoveries;
    c.timeouts += out.timeouts;
    c.enqueued += out.enqueued;
    c.drops += out.drops;
    c.flows += static_cast<std::uint64_t>(out.flows);
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "ramp_ms %" PRId64 " seed %" PRIu64 " flows %" PRId64
                  " completed %" PRId64 " peak_open %" PRId64
                  " events %" PRIu64 " peak_pending %" PRIu64 " sim_sec %s",
                  config.ramp_ms, base_seed(input, kFleetPoints[p]),
                  out.flows, out.completed, out.peak_open,
                  out.events, out.peak_pending, g17(out.sim_sec).c_str());
    lines[p] = buf;
    return lines[p];
  };
  hooks.restore = [](std::size_t, const std::string&) {};
  const robust::SweepReport report =
      supervise(input, kPoints, hooks, spans, sweep_layer);
  pass.wall_s = seconds_since(t0);
  pass.attempted = kPoints;
  pass.failed = count_failed(report);
  for (const std::string& line : lines) pass.outputs += line + "\n";
  pass.digest_text = pass.outputs;
  pass.shape.mtu = kFabricMtu;
  pass.shape.drr_flows =
      static_cast<std::size_t>(kFleetFlows / FabricConfig{}.racks);
  pass.shape.ccas = {"cubic"};
  pass.shape.journal_lines = kPoints;
  pass.shape.payload_bytes = 120;
  return pass;
}

}  // namespace

PassResult run_pass(const WorkloadInput& input, SpanRecorder* spans) {
  PassResult pass;
  if (input.name == "paper_grid") {
    pass = paper_grid_pass(input, spans);
  } else if (input.name == "open_loop_mix") {
    pass = open_loop_pass(input, spans);
  } else if (input.name == "fleet_burst") {
    pass = fleet_pass(input, spans);
  } else {
    throw std::invalid_argument("unknown workload '" + input.name + "'");
  }
  pass.shape.pending = pass.counts.peak_pending;
  pass.shape.holes = static_cast<std::size_t>(
      pass.counts.recoveries > 0
          ? pass.counts.retransmissions / pass.counts.recoveries
          : 1);
  return pass;
}

bool dsl_driven(const std::string& workload) {
  return workload == "paper_grid" || workload == "open_loop_mix";
}

PassResult run_program_pass(const WorkloadInput& input) {
  if (input.name == "paper_grid") return paper_grid_program_pass(input);
  if (input.name == "open_loop_mix") return open_loop_program_pass(input);
  throw std::invalid_argument("no program pass for '" + input.name + "'");
}

double run_setup(const WorkloadInput& input) {
  if (input.name == "paper_grid") return paper_grid_setup(input);
  if (input.name == "open_loop_mix") return open_loop_setup(input);
  throw std::invalid_argument("no set-up pass for '" + input.name + "'");
}

}  // namespace perfbench
