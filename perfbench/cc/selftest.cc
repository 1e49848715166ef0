// perfbench_selftest: the benchmark's own arithmetic and determinism.
//
//   perfbench_selftest ROOT WORK_DIR   (python3 perfbench/run.py --self-test)
//
// Checks self time from nested spans, the order statistics, that a
// workload pass gives the same outputs twice, and that the timing
// decorators of the traced fabric add no behaviour. Exits 1 on a failure.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "fabric.h"
#include "sample_stats.h"
#include "span.h"
#include "workloads.h"

using namespace perfbench;

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

void test_self_time() {
  SpanRecorder spans;
  const int outer = spans.layer("outer", true);
  const int inner = spans.layer("inner");
  spans.begin(outer, 0);
  spans.begin(inner, 10);
  spans.end(30);
  spans.begin(inner, 40);
  spans.begin(inner, 41);  // nested in itself
  spans.end(44);
  spans.end(45);
  spans.end(100);
  spans.begin(inner, 200);
  spans.end(205);
  const SpanRecorder::Layer o = spans.stats("outer");
  const SpanRecorder::Layer i = spans.stats("inner");
  expect(o.count == 1 && o.total_ns == 100 && o.self_ns == 75,
         "outer span: 100 ns total, 75 ns self");
  expect(i.count == 4 && i.total_ns == 20 + 5 + 3 + 5 &&
             i.self_ns == 20 + 2 + 3 + 5,
         "inner spans: 30 ns self, a nested span taken out of its parent");
  expect(spans.top_level_ns() == 105 && o.self_ns + i.self_ns == 105,
         "self times add up to the 105 ns the top-level spans cover");
  expect(spans.records().size() == 1 && spans.records()[0].end_ns == 100 &&
             spans.records()[0].parent == -1,
         "only kept layers leave records");
  expect(spans.stats("never").count == 0, "an unused layer reads zero");
  expect(spans.idle(), "all spans closed");
}

void test_order_statistics() {
  expect(median({3.0, 1.0, 2.0}) == 2.0, "median of an odd count");
  expect(median({4.0, 1.0, 3.0, 2.0}) == 2.5, "median of an even count");
  expect(median({}) == 0.0, "median of nothing is 0");
  std::vector<double> v;
  for (int k = 1; k <= 20; ++k) v.push_back(k);
  expect(percentile(v, 50) == 10.0 && percentile(v, 95) == 19.0 &&
             percentile(v, 100) == 20.0,
         "nearest-rank percentiles of 1..20");
  expect(highest_supported_percentile(10) == 0 &&
             highest_supported_percentile(11) == 9 &&
             highest_supported_percentile(20) == 50 &&
             highest_supported_percentile(100) == 90,
         "highest percentile with ten samples beyond it");
  // The supported percentile really leaves >= 10 samples above it.
  for (std::size_t n = 11; n <= 300; ++n) {
    const int p = highest_supported_percentile(n);
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n)));
    const auto next = static_cast<std::size_t>(
        std::ceil((p + 1) / 100.0 * static_cast<double>(n)));
    if (n - rank < 10 || (p < 99 && n - next >= 10 && next > rank)) {
      expect(false, "supported percentile for n=" + std::to_string(n));
      return;
    }
  }
  expect(true, "supported percentile is the highest for n = 11..300");
}

void test_pass_digest_stable(const std::string& root,
                             const std::string& work_dir) {
  WorkloadInput input;
  input.name = "open_loop_mix";
  input.root = root;
  input.work_dir = work_dir;
  input.seed = 7;
  const PassResult a = run_pass(input, nullptr);
  const PassResult b = run_pass(input, nullptr);
  expect(!a.digest_text.empty() && a.digest_text == b.digest_text &&
             a.counts.events == b.counts.events,
         "open_loop_mix pass outputs repeat exactly");
  expect(a.failed == 0 && a.attempted > 0, "open_loop_mix cells finish ok");
  expect(run_program_pass(input).outputs == a.outputs,
         "app::run_workload gives the composition's outputs");
  input.seed = 8;
  expect(run_pass(input, nullptr).digest_text != a.digest_text,
         "another seed gives other outputs");
}

void test_decorators_add_no_behaviour() {
  FabricConfig config;
  config.flows = 3'000;
  config.racks = 8;
  config.ramp_ms = 2;
  config.seed = 3;
  const FabricOutcome plain = run_fabric(config, nullptr, nullptr);
  SpanRecorder spans;
  const FabricOutcome traced = run_fabric(config, &spans, nullptr);
  expect(plain.events == traced.events && plain.completed == traced.completed &&
             plain.peak_open == traced.peak_open &&
             plain.segments == traced.segments && plain.drops == traced.drops,
         "traced fabric: same events, completions, segments and drops");
  expect(spans.stats("cca.on_ack").count == traced.acks,
         "one on_ack span per ACK the senders processed");
  const SpanRecorder::Layer run = spans.stats("sim.run");
  expect(run.count == 1 && run.self_ns > 0 && run.self_ns < run.total_ns,
         "hop spans nest inside the run span");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: perfbench_selftest ROOT WORK_DIR\n");
    return 2;
  }
  test_self_time();
  test_order_statistics();
  test_decorators_add_no_behaviour();
  test_pass_digest_stable(argv[1], argv[2]);
  std::printf("%s\n", failures == 0 ? "all passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}
