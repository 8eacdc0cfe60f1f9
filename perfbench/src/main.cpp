// perfbench_harness: the measuring half of the end-to-end benchmark.
//
//   perfbench_harness <run-examples|admission-1k|serve-sustained>
//       --seed N --seconds S --trace 0|1 [--quick 1]
//       --inputs perfbench/inputs --forktail path/to/forktail --work-dir DIR
//
// Prints one JSON document as its last line: correct, attempted, failed,
// metrics (name -> value, unit) and an info object.  perfbench/run.py
// builds this binary and turns that line into the benchmark's result.
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "common.hpp"
#include "fjsim/vector_engine.hpp"

namespace perfbench {

double peak_rss_mib(const std::string& pid) {
  // VmHWM, not getrusage's ru_maxrss: the latter carries the parent's peak
  // across fork and exec, so a small child reports its launcher's size.
  std::ifstream status("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  throw std::runtime_error("no VmHWM for process " + pid);
}

std::map<std::string, double> Tracer::self_time_by_name(int root) const {
  std::map<std::string, double> self;
  // Spans are stored in open order, so a root's subtree is the contiguous
  // run of spans after it whose ancestry reaches it.
  std::vector<double> child_sum(spans_.size(), 0.0);
  std::vector<bool> inside(spans_.size(), false);
  const auto r = static_cast<std::size_t>(root);
  inside[r] = true;
  std::size_t last = r;
  for (std::size_t i = r + 1; i < spans_.size(); ++i) {
    const int p = spans_[i].parent;
    if (p < 0 || !inside[static_cast<std::size_t>(p)]) break;
    inside[i] = true;
    last = i;
    child_sum[static_cast<std::size_t>(p)] +=
        static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) * 1e-9;
  }
  for (std::size_t i = r; i <= last; ++i) {
    const double d =
        static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) * 1e-9;
    self[spans_[i].name] += d - child_sum[i];
  }
  return self;
}

double Tracer::children_s(int root) const {
  double sum = 0.0;
  for (std::size_t i = static_cast<std::size_t>(root) + 1; i < spans_.size();
       ++i) {
    if (spans_[i].parent == root) {
      sum += static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) * 1e-9;
    }
  }
  return sum;
}

void Tracer::write(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write " + path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "{\"id\":" << i << ",\"name\":\"" << s.name
       << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
       << ",\"parent\":" << s.parent << "}\n";
  }
}

void layer_metrics(Result& result, const Tracer& tracer, const std::vector<int>& roots,
                   double overhead_pct) {
  if (roots.empty()) throw std::runtime_error("a traced run recorded no work");
  std::map<std::string, double> by_module;
  double total_s = 0.0;
  for (const int root : roots) {
    total_s += tracer.duration_s(root);
    for (const auto& [name, s] : tracer.self_time_by_name(root)) {
      by_module[name.substr(0, name.find('.'))] += s;
    }
  }
  double attributed_s = 0.0;
  for (const std::string& module : modules()) {
    const auto it = by_module.find(module);
    const double s = it == by_module.end() ? 0.0 : it->second;
    attributed_s += s;
    result.metric(module + ".self_pct", 100.0 * s / total_s, "%");
  }
  result.metric("trace.attributed_frac", attributed_s / total_s, "ratio");
  result.metric("trace.overhead_pct", overhead_pct, "%");
}

std::string Result::to_json() const {
  using forktail::util::Json;
  Json doc = Json::object();
  doc.set("correct", correct);
  doc.set("attempted", attempted);
  doc.set("failed", failed);
  Json m = Json::object();
  for (const auto& [name, value_unit] : metrics) {
    Json entry = Json::object();
    entry.set("value", value_unit.first);
    entry.set("unit", value_unit.second);
    m.set(name, std::move(entry));
  }
  doc.set("metrics", std::move(m));
  Json info_doc = info;
  Json list = Json::array();
  for (const auto& p : problems) list.push_back(p);
  info_doc.set("problems", std::move(list));
  Json failed_ops = Json::array();
  for (const auto& f : failures) failed_ops.push_back(f);
  info_doc.set("failures", std::move(failed_ops));
  info_doc.set("isa_dispatch", forktail::fjsim::vector_dispatch_level());
  doc.set("info", std::move(info_doc));
  return doc.dump(0);
}

}  // namespace perfbench

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench_harness: %s\n"
               "usage: perfbench_harness <run-examples|admission-1k|"
               "serve-sustained> --seed N --seconds S --trace 0|1 "
               "[--quick 0|1] --inputs DIR --forktail PATH --work-dir DIR\n",
               why.c_str());
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options o;
  if (argc < 2) usage("missing workload");
  o.workload = argv[1];
  for (int i = 2; i < argc; i += 2) {
    if (i + 1 >= argc) usage(std::string("missing value for ") + argv[i]);
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace") {
        o.trace = std::stoi(value) != 0;
      } else if (flag == "--quick") {
        o.quick = std::stoi(value) != 0;
      } else if (flag == "--inputs") {
        o.inputs = value;
      } else if (flag == "--forktail") {
        o.forktail = value;
      } else if (flag == "--work-dir") {
        o.work_dir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!(o.seconds > 0.0)) usage("--seconds must be > 0");
  if (o.inputs.empty() || o.work_dir.empty()) usage("--inputs and --work-dir are required");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options options = parse(argc, argv);
  try {
    perfbench::Result result;
    if (options.workload == "run-examples") {
      result = perfbench::run_examples(options);
    } else if (options.workload == "admission-1k") {
      result = perfbench::run_admission(options);
    } else if (options.workload == "serve-sustained") {
      if (options.forktail.empty()) usage("serve-sustained needs --forktail");
      result = perfbench::run_serve(options);
    } else {
      usage("unknown workload " + options.workload);
    }
    std::printf("%s\n", result.to_json().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 1;
  }
}
