// perfbench_driver: runs one benchmark workload for a given host-time
// budget and prints one JSON object on stdout (see perfbench/README.md).
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--root DIR] [--work-dir DIR]
//
// A warm-up pass of the benchmark's composition fixes the reference
// outputs; timed passes follow until the budget is spent (at least
// kMinPasses of each kind). For a DSL-driven workload the timed passes
// alternate the program's own path (wall_s) and the composition (host time
// inside the simulator), and the set-up is then timed alone several times
// (setup_s); fleet_burst's composition gives all three. Every pass must
// reproduce the warm-up's outputs exactly. With --trace 1 the timed passes
// alternate untraced and traced compositions, and the layer replay runs
// after them.

#include <sys/resource.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "cca/cca.h"
#include "replay.h"
#include "robust/journal.h"
#include "sample_stats.h"
#include "span.h"
#include "stats/json.h"
#include "workloads.h"

using namespace perfbench;

namespace {

constexpr std::size_t kMinPasses = 3;
// Set-up alone is short, so it is repeated: at least kMinSetups times,
// then until kSetupBudgetNs is spent or kMaxSetups ran.
constexpr std::size_t kMinSetups = 5;
constexpr std::size_t kMaxSetups = 201;
constexpr std::int64_t kSetupBudgetNs = 1'000'000'000;

/// A correctness check; an empty `problem` means it passed.
struct Check {
  std::string name;
  std::string problem;
};

enum class PassKind { kComposed, kTraced, kProgram };

struct Args {
  WorkloadInput input;
  double seconds = 10.0;
  bool trace = false;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.input.name = value;
    } else if (flag == "--seed") {
      args.input.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--root") {
      args.input.root = value;
    } else if (flag == "--work-dir") {
      args.input.work_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (argc % 2 == 0) {
    std::fprintf(stderr, "flag %s has no value\n", argv[argc - 1]);
    return false;
  }
  for (const char* name : kWorkloads) {
    if (args.input.name == name) return true;
  }
  std::fprintf(stderr, "--workload must be paper_grid, fleet_burst or "
                       "open_loop_mix\n");
  return false;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

double per(double total, double count) {
  return count > 0 ? total / count : 0.0;
}

void write_samples(greencc::stats::JsonWriter& json, const std::string& name,
                   const std::vector<double>& samples) {
  json.key(name).begin_object();
  json.field("n", static_cast<std::int64_t>(samples.size()));
  json.field("median", median(samples));
  const int p = highest_supported_percentile(samples.size());
  json.field("highest_percentile", p);
  if (p > 0) json.field("highest_percentile_value", percentile(samples, p));
  json.key("values").begin_array();
  for (double v : samples) json.value(v);
  json.end_array();
  json.end_object();
}

void write_spans(const SpanRecorder& spans, const std::string& path) {
  greencc::stats::JsonWriter json;
  json.begin_object();
  json.key("layers").begin_array();
  for (const SpanRecorder::Layer& layer : spans.layers()) {
    json.begin_object();
    json.field("name", layer.name);
    json.field("count", layer.count);
    json.field("total_ns", layer.total_ns);
    json.field("self_ns", layer.self_ns);
    json.end_object();
  }
  json.end_array();
  json.key("spans").begin_array();
  for (const SpanRecorder::Record& record : spans.records()) {
    json.begin_object();
    json.field("name",
               spans.layers()[static_cast<std::size_t>(record.layer)].name);
    json.field("start_ns", record.start_ns);
    json.field("end_ns", record.end_ns);
    json.field("parent", record.parent);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  std::ofstream out(path);
  out << json.str() << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return 2;
  const WorkloadInput& input = args.input;

  std::vector<Check> checks;
  const PassResult reference = run_pass(input, nullptr);
  const std::string digest = hex64(greencc::robust::fnv1a64(
      reference.digest_text));

  const bool dsl = dsl_driven(input.name);
  std::vector<double> wall, setup, rate, composed_wall, traced_wall;
  std::size_t attempted = 0, failed = 0, program_passes = 0;
  SpanRecorder spans;
  const std::int64_t t0 = now_ns();
  for (std::size_t i = 0;; ++i) {
    PassKind kind = PassKind::kComposed;
    if (args.trace) {
      if (i % 2 == 1) kind = PassKind::kTraced;
    } else if (dsl && i % 2 == 0) {
      kind = PassKind::kProgram;
    }
    const double elapsed = static_cast<double>(now_ns() - t0) / 1e9;
    std::size_t done = composed_wall.size();
    if (args.trace) done = std::min(done, traced_wall.size());
    if (!args.trace && dsl) done = std::min(done, program_passes);
    // A traced run needs two passes of each kind; the others kMinPasses.
    if (elapsed >= args.seconds && done >= (args.trace ? 2 : kMinPasses)) {
      break;
    }
    const std::string name =
        "pass " + std::to_string(i) +
        (kind == PassKind::kTraced    ? " (traced)"
         : kind == PassKind::kProgram ? " (program path)"
                                      : "");
    if (kind == PassKind::kProgram) {
      const PassResult pass = run_program_pass(input);
      attempted += pass.attempted;
      failed += pass.failed;
      ++program_passes;
      wall.push_back(pass.wall_s);
      if (pass.outputs != reference.outputs) {
        checks.push_back({name + " gives the composition's outputs",
                          "outputs differ"});
      }
      continue;
    }
    const PassResult pass =
        run_pass(input, kind == PassKind::kTraced ? &spans : nullptr);
    attempted += pass.attempted;
    failed += pass.failed;
    if (pass.digest_text != reference.digest_text) {
      checks.push_back({name + " reproduces the warm-up outputs",
                        "outputs differ"});
    }
    if (kind == PassKind::kTraced) {
      traced_wall.push_back(pass.wall_s);
      continue;
    }
    composed_wall.push_back(pass.wall_s);
    rate.push_back(per(static_cast<double>(pass.counts.segments),
                       pass.run_s));
    if (!dsl) {
      wall.push_back(pass.wall_s);
      setup.push_back(pass.setup_s);
    }
  }
  if (dsl && args.trace) {
    // A traced run times no program pass; it still checks one.
    if (run_program_pass(input).outputs != reference.outputs) {
      checks.push_back({"the program path gives the composition's outputs",
                        "outputs differ"});
    }
  }
  if (dsl && !args.trace) {
    const std::int64_t s0 = now_ns();
    while (setup.size() < kMinSetups ||
           (setup.size() < kMaxSetups && now_ns() - s0 < kSetupBudgetNs)) {
      setup.push_back(run_setup(input));
    }
  }

  const Counts& c = reference.counts;
  std::map<std::string, double> metrics;
  if (!args.trace) {
    metrics["wall_s"] = median(wall);
    metrics["setup_s"] = median(setup);
    metrics["segments_per_s"] = median(rate);
    metrics["peak_rss_mb"] = peak_rss_mb();
    metrics["ok_frac"] =
        per(static_cast<double>(attempted - failed),
            static_cast<double>(attempted));
  } else {
    // Hop self times exist only where the hops are traced in place
    // (fleet_burst); app::Scenario hides its hops, so for the DSL-driven
    // workloads they read 0 and the layer replay stands in.
    const auto self_per = [&](const char* layer) {
      const SpanRecorder::Layer l = spans.stats(layer);
      return per(static_cast<double>(l.self_ns), static_cast<double>(l.count));
    };
    const std::size_t traced_passes = traced_wall.size();
    const double passes = static_cast<double>(traced_passes);
    const auto total_per_pass = [&](const char* layer) {
      return per(static_cast<double>(spans.stats(layer).total_ns) / 1e9,
                 passes);
    };
    if (!dsl && spans.stats("cca.on_ack").count != c.acks * traced_passes) {
      checks.push_back({"decorated on_ack calls == sender acks",
                        "on_ack span count differs from acks_received"});
    }

    const ReplayResult replay =
        run_replays(reference.shape, input.work_dir, input.seed);
    const double events = static_cast<double>(c.events);
    metrics["sim.events"] = events;
    metrics["sim.events_per_segment"] =
        per(events, static_cast<double>(c.segments));
    metrics["sim.peak_pending"] = static_cast<double>(c.peak_pending);
    metrics["sim.self_ns_per_event"] =
        per(static_cast<double>(spans.stats("sim.run").self_ns),
            events * passes);
    metrics["sim.hold_ns_per_op"] = replay.hold_ns;
    metrics["sim.cancel_ns_per_op"] = replay.cancel_ns;
    metrics["sim.timer_arm_ns_per_op"] = replay.timer_arm_ns;
    metrics["net.enqueued"] = static_cast<double>(c.enqueued);
    metrics["net.drops"] = static_cast<double>(c.drops);
    metrics["net.port_self_ns_per_pkt"] = self_per("net.port");
    metrics["net.fifo_ns_per_op"] = replay.fifo_ns;
    metrics["net.drr_self_ns_per_pkt"] = self_per("net.drr");
    metrics["net.drr_ns_per_op"] = replay.drr_ns;
    metrics["tcp.segments_sent"] = static_cast<double>(c.segments_sent);
    metrics["tcp.acks"] = static_cast<double>(c.acks);
    metrics["tcp.retransmissions"] = static_cast<double>(c.retransmissions);
    metrics["tcp.recoveries"] = static_cast<double>(c.recoveries);
    metrics["tcp.timeouts"] = static_cast<double>(c.timeouts);
    metrics["tcp.sender_self_ns_per_ack"] = self_per("tcp.sender");
    metrics["tcp.receiver_self_ns_per_seg"] = self_per("tcp.receiver");
    metrics["tcp.seqrange_ns_per_op"] = replay.seqrange_ns;
    metrics["cca.on_ack_calls"] = static_cast<double>(c.acks);
    for (const std::string& name : greencc::cca::all_names()) {
      metrics["cca.on_ack_ns." + name] = 0.0;  // a CCA the workload never runs
    }
    for (const auto& [name, ns] : replay.on_ack_ns) {
      metrics["cca.on_ack_ns." + name] = ns;
    }
    metrics["energy.meter_ticks"] = static_cast<double>(c.meter_ticks);
    metrics["energy.tick_ns"] = replay.tick_ns;
    metrics["app.build_s"] =
        total_per_pass("app.build") + total_per_pass("app.spawn");
    metrics["app.flows_spawned"] = static_cast<double>(c.flows);
    metrics["scenario_dsl.parse_s"] = total_per_pass("scenario_dsl.parse");
    metrics["scenario_dsl.expand_s"] = total_per_pass("scenario_dsl.expand");
    metrics["scenario_dsl.compile_s"] =
        total_per_pass("scenario_dsl.compile");
    metrics["robust.journal_append_s"] = replay.journal_append_s;
    metrics["robust.supervisor_overhead_s"] =
        per(static_cast<double>(spans.stats("robust.sweep").self_ns) / 1e9,
            passes);
    metrics["trace.overhead_frac"] =
        per(median(traced_wall), median(composed_wall)) - 1.0;
    write_spans(spans, input.work_dir + "/" + input.name + ".spans.json");
  }

  greencc::stats::JsonWriter json;
  json.begin_object();
  json.field("workload", input.name);
  json.field("seed", input.seed);
  json.field("trace", args.trace);
  json.field("digest", digest);
  json.field("sim_events", c.events);
  json.field("attempted", static_cast<std::uint64_t>(attempted));
  json.field("failed", static_cast<std::uint64_t>(failed));
  json.key("checks").begin_array();
  for (const Check& check : checks) {
    json.begin_object();
    json.field("name", check.name);
    json.field("ok", check.problem.empty());
    json.field("problem", check.problem);
    json.end_object();
  }
  json.end_array();
  json.key("metrics").begin_object();
  for (const auto& [name, value] : metrics) json.field(name, value);
  json.end_object();
  json.key("samples").begin_object();
  write_samples(json, "wall_s", wall);
  write_samples(json, "setup_s", setup);
  write_samples(json, "segments_per_s", rate);
  if (args.trace) {
    write_samples(json, "composed_wall_s", composed_wall);
    write_samples(json, "traced_wall_s", traced_wall);
  }
  json.end_object();
  json.key("build").begin_object();
  json.field("compiler", PERFBENCH_COMPILER);
  json.field("build_type", PERFBENCH_BUILD_TYPE);
  json.end_object();
  json.field("outputs", reference.digest_text);
  json.end_object();
  std::cout << json.str() << std::endl;
  return 0;
}
