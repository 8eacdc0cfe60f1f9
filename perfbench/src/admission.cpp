// Workload admission-1k: SLO-aware admission over a 1000-node fleet, one
// thread, closed loop.  Each step reports a few nodes' fresh statistics
// into core::NodeStatsRegistry (writes) and then asks
// core::AdmissionController::admit for one request (read): a GE fit per
// node plus the Eq. 5 inversion over the k chosen nodes.
//
// Every node's task time follows a law the benchmark evaluates exactly, so
// each decision's p99 is checked against the inverse of the product of the
// chosen nodes' true CDFs, found here by bisection.
#include <cstdio>
#include <limits>

#include "common.hpp"
#include "laws.hpp"
#include "core/genexp.hpp"
#include "core/predictor.hpp"
#include "core/scheduler.hpp"

namespace perfbench {

namespace {

using forktail::core::TaskStats;

constexpr std::size_t kNodes = 1000;
constexpr double kP = 99.0;
/// Fan-outs of one round: 10, 20, ..., 1000, in a seeded order.
constexpr std::size_t kRoundDecisions = 100;
/// Node reports interleaved before each decision (round-robin), so every
/// node re-reports once per round.
constexpr std::size_t kReportsPerDecision = kNodes / kRoundDecisions;
/// SLO latency bound (ms): admits the small fan-outs, rejects the largest.
constexpr double kSloMs = 16.0;
/// Accuracy a decision's prediction must keep against the exact quantile.
constexpr double kTolerancePct = 20.0;

/// The fleet's task-time shapes.  Each keeps the GE model within about
/// 15% of the exact p99 up to k = 1000 on its own (lognormal and
/// high-variance hyperexponential nodes do not, and are left out so that
/// no decision fails on a seed-dependent mix), and the errors differ in
/// sign, so the prediction error varies with the chosen nodes.
const Law kShapes[] = {
    {Family::kExponential, 1.0, 1.0}, {Family::kErlang, 2.0, 1.0},
    {Family::kWeibull, 1.2, 1.0},     {Family::kWeibull, 0.9, 1.0},
    {Family::kHyperExp2, 1.25, 1.0},  {Family::kShiftedExp, 0.25, 1.0},
};
constexpr std::size_t kShapeCount = sizeof(kShapes) / sizeof(kShapes[0]);

/// The seeded fleet: a shape and a speed per node.  The shapes are spread
/// evenly over the fleet and over its slow tenth (2-3 ms nodes; the rest
/// lognormal around the nominal 1 ms), so every seed has the same make-up
/// and the seed only places nodes and draws their speeds.
std::vector<Law> make_fleet(std::uint64_t seed) {
  InputRng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  std::vector<std::size_t> slot(kNodes);
  for (std::size_t i = 0; i < kNodes; ++i) slot[i] = i;
  rng.shuffle(slot);
  std::vector<Law> fleet(kNodes);
  for (std::size_t i = 0; i < kNodes; ++i) {
    Law law = kShapes[i % kShapeCount];
    const bool slow = (i / kShapeCount) % 10 == 0;
    law.mean = slow ? 2.0 + rng.uniform() : std::exp(0.2 * rng.normal());
    fleet[slot[i]] = law;
  }
  return fleet;
}

struct Setup {
  std::vector<Law> fleet;
  std::unique_ptr<forktail::core::NodeStatsRegistry> registry;
};

/// Set-up: generate the fleet, build the registry and report every node.
Setup build(std::uint64_t seed) {
  Setup s;
  s.fleet = make_fleet(seed);
  s.registry = std::make_unique<forktail::core::NodeStatsRegistry>(kNodes);
  for (std::size_t i = 0; i < kNodes; ++i) s.registry->report(i, 0.0, s.fleet[i].moments());
  return s;
}

/// The homogeneous exponential case has a closed form the controller must
/// hit: the max of k iid Exp(m) has p-quantile -m ln(1 - (p/100)^(1/k)).
void check_exponential_closed_form(Result& result) {
  const double m = 2.0;
  forktail::core::NodeStatsRegistry registry(kNodes);
  for (std::size_t i = 0; i < kNodes; ++i) registry.report(i, 0.0, {m, m * m});
  const forktail::core::AdmissionController controller(registry);
  for (const std::size_t k : {std::size_t{10}, std::size_t{100}, std::size_t{1000}}) {
    const auto d = controller.admit(k, {kP, std::numeric_limits<double>::infinity()}, 0.0);
    const double expect = -m * std::log(1.0 - std::pow(kP / 100.0, 1.0 / static_cast<double>(k)));
    if (!(std::fabs(d.predicted_latency - expect) <= 1e-6 * expect)) {
      result.problem("exponential closed form: k=" + std::to_string(k) + " predicted " +
                     std::to_string(d.predicted_latency) + " want " + std::to_string(expect));
    }
  }
}

}  // namespace

Result run_admission(const Options& options) {
  Result result;
  Tracer tracer(options.trace);

  // ---- set-up: generate the fleet, build and fill the registry.  Also
  // repeated after every round (the copies are discarded), so the reported
  // median spans the whole run.
  const int setup_reps = options.quick ? 3 : 20;
  std::vector<double> setup_s;
  auto set_up = [&]() {
    Setup fresh;
    for (int r = 0; r < setup_reps; ++r) {
      const auto t0 = Clock::now();
      fresh = build(options.seed);
      setup_s.push_back(seconds_since(t0));
    }
    return fresh;
  };
  Setup s = set_up();
  check_exponential_closed_form(result);

  forktail::core::NodeStatsRegistry& registry = *s.registry;
  const forktail::core::AdmissionController controller(registry);
  InputRng drift(options.seed * 0xd1b54a32d192ed03ULL + 7);
  InputRng order(options.seed * 0x8cb92ba72f3d8dd7ULL + 3);

  std::vector<double> latency_ms;          // untraced admit calls
  std::vector<double> traced_admit_us;     // traced admit calls
  std::vector<double> report_ns;           // traced, per report
  std::vector<double> fit_us;              // traced, per fit
  std::map<std::size_t, std::vector<double>> quantile_us;  // traced, by n
  std::vector<int> traced_steps;           // root spans of traced decisions
  double busy_s = 0.0;                     // untraced reports + admits, wall
  double busy_cpu_s = 0.0;                 // the same, thread CPU
  std::uint64_t admitted = 0;
  double err_sum = 0.0;
  double max_abs_err = 0.0;
  std::size_t next_report = 0;
  double now = 0.0;

  auto step = [&](std::size_t k, bool traced) {
    now += 1e-3;
    const int step_span = tracer.open(traced ? "op" : nullptr);
    // Writes: the next nodes in round-robin order report fresh statistics
    // after a small seeded drift of their speed.
    std::vector<TaskStats> fresh(kReportsPerDecision);
    std::vector<std::size_t> who(kReportsPerDecision);
    for (std::size_t r = 0; r < kReportsPerDecision; ++r) {
      who[r] = next_report;
      Law& law = s.fleet[next_report];
      law.mean = std::clamp(law.mean * std::exp(0.05 * drift.normal()), 0.4, 4.0);
      fresh[r] = law.moments();
      next_report = (next_report + 1) % kNodes;
    }
    const double c0 = thread_cpu_s();
    const auto r0 = Clock::now();
    {
      Tracer::Scope span(tracer, traced ? "core.report" : nullptr);
      for (std::size_t r = 0; r < kReportsPerDecision; ++r) registry.report(who[r], now, fresh[r]);
    }
    const double report_s = seconds_since(r0);
    // Read: one admission decision.
    const forktail::core::TailSlo slo{kP, kSloMs};
    const auto a0 = Clock::now();
    int admit_span = tracer.open(traced ? "core.admit" : nullptr);
    forktail::core::AdmissionDecision d = controller.admit(k, slo, now);
    tracer.close(admit_span);
    const double admit_s = seconds_since(a0);
    const double cpu_s = thread_cpu_s() - c0;
    if (traced) {
      tracer.close(step_span);
      traced_steps.push_back(step_span);
      traced_admit_us.push_back(admit_s * 1e6);
      report_ns.push_back(report_s * 1e9 / static_cast<double>(kReportsPerDecision));
    } else {
      latency_ms.push_back(admit_s * 1e3);
      busy_s += report_s + admit_s;
      busy_cpu_s += cpu_s;
    }

    // ---- checks (untimed).
    ++result.attempted;
    const double predicted = d.predicted_latency;
    if (!std::isfinite(predicted) || !(predicted > 0.0)) {
      result.problem("k=" + std::to_string(k) + ": prediction not finite and positive");
      return;
    }
    if (d.admitted != (predicted <= kSloMs)) {
      result.problem("k=" + std::to_string(k) + ": admission disagrees with the SLO");
    }
    if (d.admitted) {
      ++admitted;
    } else {
      // A rejection names no nodes; ask again without a bound to see which
      // nodes the prediction was made over.  It must be the same number.
      d = controller.admit(k, {kP, std::numeric_limits<double>::infinity()}, now);
      if (d.predicted_latency != predicted) {
        result.problem("k=" + std::to_string(k) + ": re-asked decision differs");
      }
    }
    std::vector<const Law*> chosen;
    std::vector<bool> seen(kNodes, false);
    for (const std::size_t node : d.chosen_nodes) {
      if (node >= kNodes || seen[node]) {
        result.problem("k=" + std::to_string(k) + ": chosen nodes invalid or repeated");
        return;
      }
      seen[node] = true;
      chosen.push_back(&s.fleet[node]);
    }
    if (chosen.size() != k) {
      result.problem("k=" + std::to_string(k) + ": chose " + std::to_string(chosen.size()));
      return;
    }
    const double exact = exact_max_quantile(chosen, kP);
    const double err_pct = 100.0 * (predicted - exact) / exact;
    err_sum += std::fabs(err_pct);
    max_abs_err = std::max(max_abs_err, std::fabs(err_pct));
    if (std::fabs(err_pct) > kTolerancePct) {
      result.failure("k=" + std::to_string(k) + ": predicted " + std::to_string(predicted) +
                     " vs exact " + std::to_string(exact));
    }
    if (traced && (k == 10 || k == 100 || k == 1000)) {
      std::vector<TaskStats> stats;
      for (const std::size_t node : d.chosen_nodes) stats.push_back(*registry.fresh_stats(node, now));
      const auto q0 = Clock::now();
      Tracer::Scope span(tracer, "core.inhomogeneous_quantile");
      const double q = forktail::core::inhomogeneous_quantile(stats, kP);
      span.end();
      quantile_us[k].push_back(seconds_since(q0) * 1e6);
      if (q != predicted) result.problem("inhomogeneous_quantile differs from admit");
    }
  };

  // ---- timed phase: whole rounds of 100 decisions, k = 10..1000.  A
  // traced run alternates untraced and traced rounds.
  std::vector<std::size_t> ks(kRoundDecisions);
  for (std::size_t j = 0; j < kRoundDecisions; ++j) ks[j] = 10 * (j + 1);
  const auto start = Clock::now();
  int rounds = 0;
  while (rounds == 0 || (!options.quick && seconds_since(start) < options.seconds) ||
         (options.trace && rounds < 2)) {
    const bool traced = options.trace && rounds % 2 == 1;
    order.shuffle(ks);
    for (const std::size_t k : ks) step(k, traced);
    if (traced) {
      // GE fits of the whole fleet's current statistics, one span.
      std::vector<TaskStats> all;
      for (std::size_t i = 0; i < kNodes; ++i) all.push_back(*registry.fresh_stats(i, now));
      double sink = 0.0;
      const auto f0 = Clock::now();
      {
        Tracer::Scope span(tracer, "core.fit_moments");
        for (const TaskStats& st : all) {
          sink += forktail::core::GenExp::fit_moments(st.mean, st.variance).alpha();
        }
      }
      fit_us.push_back(seconds_since(f0) * 1e6 / static_cast<double>(kNodes));
      if (!std::isfinite(sink)) result.problem("GE fit produced a non-finite shape");
    }
    set_up();
    ++rounds;
  }

  result.info.set("rounds", static_cast<std::uint64_t>(rounds));
  result.info.set("max_abs_err_pct", max_abs_err);
  result.info.set("admitted_frac", static_cast<double>(admitted) / static_cast<double>(result.attempted));
  std::map<std::string, std::uint64_t> shape_count;
  for (const Law& law : s.fleet) ++shape_count[law.name()];
  forktail::util::Json shapes = forktail::util::Json::object();
  for (const auto& [name, n] : shape_count) shapes.set(name, n);
  result.info.set("fleet_shapes", std::move(shapes));

  result.info.set("decisions_per_s", static_cast<double>(latency_ms.size()) / busy_s);

  result.info.set("latency_ms_p99", quantile(latency_ms, 0.99));
  if (!options.trace) {
    result.metric("setup_s", median(setup_s), "s");
    result.metric("peak_rss_mib", peak_rss_mib(), "MiB");
    result.metric("latency_ms_p50", quantile(latency_ms, 0.50), "ms");
    result.metric("cpu_us_per_op", busy_cpu_s * 1e6 / static_cast<double>(latency_ms.size()), "us");
    result.metric("p99_err_pct", err_sum / static_cast<double>(result.attempted), "%");
    return result;
  }
  forktail::util::Json layers = forktail::util::Json::object();
  layers.set("core.admit_us", median(traced_admit_us));
  layers.set("core.fit_us", median(fit_us));
  layers.set("core.report_ns", median(report_ns));
  for (const auto& [n, values] : quantile_us) {
    layers.set("core.inhomog_quantile_us.n" + std::to_string(n), median(values));
  }
  result.info.set("layers", std::move(layers));
  layer_metrics(result, tracer, traced_steps,
                100.0 * (median(traced_admit_us) / (median(latency_ms) * 1e3) - 1.0));
  tracer.write(options.work_dir + "/spans-admission-1k-seed" + std::to_string(options.seed) +
               ".jsonl");
  return result;
}

}  // namespace perfbench
