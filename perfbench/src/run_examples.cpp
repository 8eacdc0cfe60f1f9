// Workload run-examples: every pinned scenario spec through the engine
// behind `forktail run` (scenario::run_scenario with the default predictor,
// p99, --threads 1), pass after pass.
//
// The untraced pass calls run_scenario itself.  The traced pass makes the
// same calls in the same order from here, one span per call into a layer,
// and must reproduce the untraced pass's numbers bit for bit.  An
// operation is one spec's run; the seed only orders the specs in a pass.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <set>

#include "common.hpp"
#include "scenario/run.hpp"
#include "stats/percentile.hpp"
#include "stats/summary.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using forktail::scenario::ScenarioReport;
using forktail::scenario::ScenarioSpec;

constexpr double kP = 99.0;
/// The paper's accuracy envelope for p99 predictions.
constexpr double kEnvelopePct = 20.0;

struct Pinned {
  std::string file;
  ScenarioSpec spec;
};

std::vector<std::string> spec_paths(const std::string& dir) {
  std::vector<std::string> paths;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".json") paths.push_back(entry.path().string());
  }
  std::sort(paths.begin(), paths.end());
  if (paths.empty()) throw std::runtime_error("no specs in " + dir);
  return paths;
}

/// The set-up a user of `forktail run` pays per spec: load, parse and
/// validate the file, then apply --threads 1.
std::vector<Pinned> load_specs(const std::vector<std::string>& paths) {
  std::vector<Pinned> specs;
  for (const auto& path : paths) {
    ScenarioSpec spec = forktail::scenario::load_scenario_file(path);
    forktail::scenario::validate(spec);
    spec.max_parallelism = 1;
    specs.push_back({fs::path(path).filename().string(), std::move(spec)});
  }
  return specs;
}

/// The benchmark's own type-7 order statistic of the response sample.
double own_percentile(const std::vector<double>& responses, double p) {
  std::vector<double> v(responses);
  const double h = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(h));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(lo), v.end());
  const double x_lo = v[lo];
  double x_hi = x_lo;
  if (lo + 1 < v.size()) {
    x_hi = *std::min_element(v.begin() + static_cast<std::ptrdiff_t>(lo) + 1, v.end());
  }
  return x_lo + (h - static_cast<double>(lo)) * (x_hi - x_lo);
}

bool close_rel(double a, double b, double tol) {
  return std::fabs(a - b) <= tol * std::max(std::fabs(a), std::fabs(b));
}

/// What one spec's run produced, for the checks and the error metric.
struct SpecAnswer {
  double measured = 0.0;
  double predicted = 0.0;
  double error_pct = 0.0;
};

/// Which simulator a spec's dispatch reaches (span name).
const char* simulate_layer(const ScenarioSpec& spec) {
  if (spec.sampler == forktail::scenario::Sampler::kPerfect) return "fjsim.perfect";
  if (spec.topology == forktail::scenario::Topology::kHomogeneous &&
      !spec.faults.inert()) {
    return "fault.simulate";
  }
  return "fjsim.simulate";
}

/// Traced twin of run_scenario(spec, {"forktail"}, {99}) + to_json: the
/// same calls in the same order, each inside a span.  `tasks` accumulates
/// the tasks the fjsim replay engines simulated.
ScenarioReport traced_run(const ScenarioSpec& spec, Tracer& tracer, double& tasks,
                          std::string& doc) {
  using namespace forktail;
  const std::vector<double> ps = {kP};
  ScenarioReport report;
  {
    const char* layer = simulate_layer(spec);
    Tracer::Scope span(tracer, layer);
    report.outcome = scenario::SimulatorRegistry::global().run(spec);
    span.end();
    if (std::strcmp(layer, "fjsim.simulate") == 0) {
      tasks += static_cast<double>(report.outcome.total_tasks);
    }
  }
  report.percentiles = ps;
  {
    Tracer::Scope span(tracer, "stats.percentiles");
    report.measured_ms = stats::percentiles(report.outcome.responses, ps);
  }
  {
    Tracer::Scope span(tracer, "baselines.bracket");
    report.brackets.push_back(scenario::certified_bracket(report.outcome, kP));
  }
  {
    Tracer::Scope span(tracer, "core.predict");
    const scenario::Predictor* predictor =
        scenario::PredictorRegistry::global().find("forktail");
    if (predictor == nullptr || !predictor->applicable(report.outcome)) {
      throw std::runtime_error("forktail predictor missing or inapplicable");
    }
    scenario::PredictionRow row;
    row.predictor = predictor->name();
    const double predicted = predictor->predict(report.outcome, kP);
    row.predicted_ms.push_back(predicted);
    row.error_pct.push_back(stats::relative_error_pct(predicted, report.measured_ms[0]));
    const baselines::Bracket& bracket = report.brackets[0];
    row.in_bracket.push_back(!bracket.certified || bracket.contains(predicted));
    report.predictions.push_back(std::move(row));
  }
  if (report.outcome.faulty) {
    Tracer::Scope span(tracer, "fault.predict");
    const fault::DegradedPrediction dp = scenario::predict_degraded(report.outcome, kP);
    report.degraded = dp.degraded;
    report.degraded_reasons = dp.reasons;
  }
  {
    Tracer::Scope span(tracer, "scenario.report");
    doc = scenario::to_json(report).dump();
  }
  return report;
}

}  // namespace

Result run_examples(const Options& options) {
  Result result;
  std::vector<std::string> paths = spec_paths(options.inputs + "/run-examples");
  InputRng order(options.seed * 0x94d049bb133111ebULL + 13);
  order.shuffle(paths);
  Tracer tracer(options.trace);

  // ---- set-up: load and validate every pinned spec.  Repeated before
  // every pass too, so the reported median spans the whole run.
  const int setup_reps = options.quick ? 3 : 20;
  std::vector<double> setup_s;
  std::vector<Pinned> specs;
  auto set_up = [&]() {
    for (int r = 0; r < setup_reps; ++r) {
      const auto t0 = Clock::now();
      Tracer::Scope span(tracer, "scenario.parse");
      specs = load_specs(paths);
      span.end();
      setup_s.push_back(seconds_since(t0));
    }
  };
  set_up();

  // Reference answers of the first untraced pass; every later pass, and
  // every traced pass, must reproduce them exactly (the specs are seeded).
  std::vector<SpecAnswer> first;
  std::vector<double> latency_ms;  // untraced spec runs, wall
  double cpu_s = 0.0;              // untraced spec runs, thread CPU
  std::vector<double> untraced_pass_s;
  std::vector<double> traced_pass_s;
  std::vector<int> traced_pass_spans;
  std::vector<double> traced_tasks;
  std::set<std::string> missed;  // specs outside the envelope

  auto check = [&](const Pinned& pinned, const ScenarioReport& report,
                   const std::string& doc, std::size_t index) {
    const std::string& name = pinned.file;
    ++result.attempted;
    if (report.outcome.responses.empty() || report.measured_ms.size() != 1 ||
        report.predictions.size() != 1 || doc.empty()) {
      result.problem(name + ": incomplete report");
      return;
    }
    const double measured = report.measured_ms[0];
    const double own = own_percentile(report.outcome.responses, kP);
    if (!close_rel(own, measured, 1e-12)) {
      result.problem(name + ": measured p99 " + std::to_string(measured) +
                     " != order statistic " + std::to_string(own));
    }
    const double predicted = report.predictions[0].predicted_ms[0];
    if (!std::isfinite(predicted) || !(predicted > 0.0)) {
      result.problem(name + ": prediction not finite and positive");
      return;
    }
    const double error_pct = 100.0 * (predicted - measured) / measured;
    if (!close_rel(error_pct, report.predictions[0].error_pct[0], 1e-9) &&
        std::fabs(error_pct) > 1e-9) {
      result.problem(name + ": reported error disagrees with its values");
    }
    const SpecAnswer answer{measured, predicted, error_pct};
    if (first.size() <= index) {
      first.push_back(answer);
    } else if (first[index].measured != answer.measured ||
               first[index].predicted != answer.predicted) {
      result.problem(name + ": answer differs between passes");
    }
    if (std::fabs(error_pct) > kEnvelopePct) {
      missed.insert(name);
      result.failure(name + ": p99 error " + std::to_string(error_pct) + "% outside the envelope");
    }
  };

  auto untraced_pass = [&]() {
    double pass_s = 0.0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const double c0 = thread_cpu_s();
      const auto t0 = Clock::now();
      const ScenarioReport report =
          forktail::scenario::run_scenario(specs[i].spec, {"forktail"}, {kP});
      const std::string doc = forktail::scenario::to_json(report).dump();
      const double run_s = seconds_since(t0);
      cpu_s += thread_cpu_s() - c0;
      latency_ms.push_back(run_s * 1e3);
      pass_s += run_s;
      check(specs[i], report, doc, i);
    }
    untraced_pass_s.push_back(pass_s);
  };

  auto traced_pass = [&]() {
    double tasks = 0.0;
    const int pass = tracer.open("pass");
    double pass_s = 0.0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const auto t0 = Clock::now();
      std::string doc;
      const int run = tracer.open("op");
      const ScenarioReport report = traced_run(specs[i].spec, tracer, tasks, doc);
      tracer.close(run);
      pass_s += seconds_since(t0);
      check(specs[i], report, doc, i);
    }
    tracer.close(pass);
    traced_pass_s.push_back(pass_s);
    traced_pass_spans.push_back(pass);
    traced_tasks.push_back(tasks);
  };

  // ---- timed phase: whole passes until the time is up.  A traced run
  // alternates untraced and traced passes so both see the same machine.
  const auto start = Clock::now();
  int passes = 0;
  while (passes == 0 || (!options.quick && seconds_since(start) < options.seconds)) {
    if (passes > 0) set_up();
    if (options.trace && passes % 2 == 1) {
      traced_pass();
    } else {
      untraced_pass();
    }
    ++passes;
  }
  if (options.trace && traced_pass_s.empty()) traced_pass();

  double err_sum = 0.0;
  for (const SpecAnswer& a : first) err_sum += std::fabs(a.error_pct);
  const double p99_err_pct = err_sum / static_cast<double>(first.size());

  result.info.set("specs", static_cast<std::uint64_t>(specs.size()));
  result.info.set("passes", static_cast<std::uint64_t>(passes));
  forktail::util::Json pass_list = forktail::util::Json::array();
  for (const double x : untraced_pass_s) pass_list.push_back(x);
  result.info.set("pass_s", std::move(pass_list));

  forktail::util::Json miss = forktail::util::Json::array();
  for (const auto& m : missed) miss.push_back(m);
  result.info.set("outside_envelope", std::move(miss));
  forktail::util::Json errors = forktail::util::Json::object();
  for (std::size_t i = 0; i < first.size(); ++i) {
    errors.set(specs[i].file, first[i].error_pct);
  }
  result.info.set("p99_error_pct_by_spec", std::move(errors));

  result.info.set("latency_ms_p99", quantile(latency_ms, 0.99));
  if (!options.trace) {
    result.metric("setup_s", median(setup_s), "s");
    result.metric("peak_rss_mib", peak_rss_mib(), "MiB");
    result.metric("latency_ms_p50", quantile(latency_ms, 0.50), "ms");
    result.metric("cpu_us_per_op", cpu_s * 1e6 / static_cast<double>(latency_ms.size()), "us");
    result.metric("p99_err_pct", p99_err_pct, "%");
    return result;
  }

  // ---- per-layer numbers: self time per layer per traced pass (median).
  std::map<std::string, std::vector<double>> per_pass_ms;
  std::vector<double> tasks_per_s;
  for (std::size_t t = 0; t < traced_pass_spans.size(); ++t) {
    const auto self = tracer.self_time_by_name(traced_pass_spans[t]);
    for (const char* layer : {"fjsim.simulate", "fjsim.perfect", "fault.simulate",
                              "stats.percentiles", "baselines.bracket", "core.predict",
                              "fault.predict", "scenario.report"}) {
      const auto it = self.find(layer);
      per_pass_ms[layer].push_back(it == self.end() ? 0.0 : it->second * 1e3);
    }
    const double sim_s = self.count("fjsim.simulate") ? self.at("fjsim.simulate") : 0.0;
    if (sim_s > 0.0) tasks_per_s.push_back(traced_tasks[t] / sim_s);
  }
  forktail::util::Json layers = forktail::util::Json::object();
  layers.set("scenario.parse_ms", median(setup_s) * 1e3);
  for (const auto& [layer, values] : per_pass_ms) layers.set(layer + "_ms_per_pass", median(values));
  if (!tasks_per_s.empty()) layers.set("fjsim.tasks_per_s", median(tasks_per_s));
  result.info.set("layers", std::move(layers));

  const double untraced = median(untraced_pass_s);
  layer_metrics(result, tracer, traced_pass_spans,
                100.0 * (median(traced_pass_s) / untraced - 1.0));
  tracer.write(options.work_dir + "/spans-run-examples-seed" +
               std::to_string(options.seed) + ".jsonl");
  return result;
}

}  // namespace perfbench
