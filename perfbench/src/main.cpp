// perfbench — runs one workload of the end-to-end benchmark and prints a
// report: the machine fingerprint, every metric with its unit, and as the
// last line one JSON object with all of them. Exits 1 when a correctness
// check failed. perfbench/run.py builds this and turns its output into
// the benchmark's result line; see perfbench/README.md.
//
//   perfbench --workload owned|tpcc|sim_synth|sim_crash|sim_tpcc --seed N
//             --seconds S --trace 0|1 [--rate R] [--window-ms M]
//             [--trace-dir DIR]

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "stats/json.hpp"

using namespace perfbench;

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload "
               "owned|tpcc|sim_synth|sim_crash|sim_tpcc\n"
               "                 --seed N --seconds S --trace 0|1\n"
               "                 [--rate CMDS_PER_S] [--window-ms MS] "
               "[--trace-dir DIR]\n",
               why);
  return 2;
}

bool parse(int argc, char** argv, Options* opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      opt->workload = v;
      continue;
    }
    if (flag == "--trace-dir") {
      opt->trace_dir = v;
      continue;
    }
    const double x = std::strtod(v, &end);
    if (end == v || *end != '\0' || x < 0) return false;
    if (flag == "--seed") opt->seed = static_cast<std::uint64_t>(x);
    else if (flag == "--seconds") opt->seconds = static_cast<int>(x);
    else if (flag == "--trace") opt->trace = x != 0;
    else if (flag == "--rate") opt->rate = x;
    else if (flag == "--window-ms") opt->window_ms = x;
    else return false;
  }
  return argc % 2 == 1 && opt->seconds >= 1 &&
         (is_runtime_workload(opt->workload) ||
          is_sim_workload(opt->workload));
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

m2::stats::Json fingerprint() {
  m2::stats::Json f = m2::stats::Json::object();
  f.set("cpu", cpu_model());
  f.set("nproc",
        static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  f.set("compiler", PERFBENCH_COMPILER);
  f.set("build_type", PERFBENCH_BUILD_TYPE);
#ifdef NDEBUG
  f.set("assertions", false);
#else
  f.set("assertions", true);
#endif
  return f;
}

m2::stats::Json to_json(const Metrics& m, const char* section) {
  m2::stats::Json out = m2::stats::Json::object();
  for (const auto& [name, vu] : m.items()) {
    std::printf("  %-8s %-40s %.6g %s\n", section, name.c_str(), vu.first,
                vu.second.c_str());
    m2::stats::Json v = m2::stats::Json::object();
    v.set("value", vu.first);
    v.set("unit", vu.second);
    out.set(name, std::move(v));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, &opt)) return usage("bad arguments");
  if (opt.window_ms > 0 &&
      (!is_sim_workload(opt.workload) || opt.workload == "sim_crash"))
    return usage("--window-ms applies to sim_synth and sim_tpcc only");
  if (opt.rate > 0 && !is_runtime_workload(opt.workload))
    return usage("--rate applies to the runtime workloads only");

  const m2::stats::Json fp = fingerprint();
  std::printf("fingerprint %s\n", fp.dump(0).c_str());
  std::printf("workload %s seed %llu seconds %d trace %d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  std::fflush(stdout);

  const RunResult r = is_runtime_workload(opt.workload)
                          ? run_runtime_workload(opt, opt.trace)
                          : run_sim_workload(opt, opt.trace);

  for (const std::string& note : r.notes)
    std::printf("  note     %s\n", note.c_str());
  for (const std::string& e : r.errors)
    std::printf("  FAILED   %s\n", e.c_str());
  m2::stats::Json doc = m2::stats::Json::object();
  doc.set("workload", opt.workload);
  doc.set("seed", opt.seed);
  doc.set("trace", opt.trace);
  doc.set("correct", r.correct);
  doc.set("attempted", r.attempted);
  doc.set("failed", r.failed);
  doc.set("e2e", to_json(r.e2e, "e2e"));
  doc.set("layer", to_json(r.layer, "layer"));
  doc.set("info", to_json(r.info, "info"));
  doc.set("fingerprint", fp);
  std::printf("%s\n", doc.dump(0).c_str());
  return r.correct ? 0 : 1;
}
