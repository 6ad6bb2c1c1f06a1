#pragma once

// Shared vocabulary of the benchmark driver: options, the metric store one
// run fills, exact sample quantiles, CPU clocks and the span arithmetic the
// traced runs use for per-layer self time.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/command.hpp"
#include "core/time.hpp"
#include "stats/metrics.hpp"

namespace perfbench {

using m2::core::Time;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Overrides for reproducing the known defects (README.md); 0 keeps the
  /// workload's own value. rate: commands/s of the runtime workloads.
  /// window_ms: virtual measurement window of the sim workloads.
  double rate = 0;
  double window_ms = 0;
  /// Directory the traced runs write their span files to.
  std::string trace_dir = ".bench_build/traces";
};

/// Named values with units, in insertion order.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// nullptr when `name` was never set.
  const double* find(const std::string& name) const;
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  items() const {
    return items_;
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

/// Outcome of one measurement of one workload.
struct RunResult {
  bool correct = true;
  std::vector<std::string> errors;  // why `correct` is false
  std::uint64_t attempted = 0;      // proposals due in the window
  std::uint64_t failed = 0;         // of those, not committed by the drain
  Metrics e2e;                      // end-to-end metrics
  Metrics layer;                    // per-layer metrics (traced runs)
  Metrics info;                     // reported, not gated (see README.md)
  std::vector<std::string> notes;   // free-form report lines

  void check(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    if (std::find(errors.begin(), errors.end(), what) == errors.end())
      errors.push_back(what);
  }
};

/// Runs the named workload once; traced runs record spans and fill `layer`.
RunResult run_runtime_workload(const Options& opt, bool traced);
RunResult run_sim_workload(const Options& opt, bool traced);
bool is_runtime_workload(const std::string& name);
bool is_sim_workload(const std::string& name);

// --- samples ----------------------------------------------------------

/// Nearest-rank quantile of `v` (sorted in place); 0 when empty.
double quantile(std::vector<Time>& v, double q);
double median(std::vector<double> v);
inline double us(double ns) { return ns / 1e3; }

/// Due→commit and due→deliver latencies (ns) of the commands due in the
/// measurement window.
struct Latencies {
  std::vector<Time> commit, deliver;
};

/// Sets the latency metrics every workload reports, each a quantile over
/// the whole window: p50 and p90 end to end; p99, the sample count and
/// the failed share as information. The p99 stays out of the end-to-end
/// set: on the threaded runtime it spreads by several times its median
/// between runs (README.md).
void set_latency_metrics(Latencies& lat, RunResult& out);

// --- clocks -----------------------------------------------------------

Time process_cpu_ns();
Time thread_cpu_ns();
Time wall_ns();  // steady_clock

// --- correctness ------------------------------------------------------

/// The correctness gate of every run. Rebuilds each node's C-struct from
/// the delivery order the observer logged (ids, in order, per node), runs
/// the consistency audit core::check_pairwise_consistency over them (the
/// check behind Runtime::audit_consistency and
/// harness::Cluster::audit_consistency), rejects duplicate deliveries, and
/// checks that every id in `committed` was delivered at every node.
/// Recording C-structs inside the library instead (the `audit` config
/// flag) costs the timed window hash-map rehash stalls; see README.md.
void audit_deliveries(
    const std::vector<std::vector<std::uint64_t>>& orders,
    const std::function<const m2::core::Command*(std::uint64_t)>& command,
    const std::vector<std::uint64_t>& committed, RunResult& out);

// --- protocol counters --------------------------------------------------

/// Fills the m2paxos.* per-layer metrics from a registry covering the
/// measurement window (committed commands are its own denominator).
void m2paxos_layer_metrics(const m2::stats::MetricsRegistry& reg,
                           Metrics& out);

// --- spans ------------------------------------------------------------

struct Interval {
  Time start = 0;
  Time end = 0;
  Time length() const { return end > start ? end - start : 0; }
};

/// Length of the part of `parent` covered by the union of `children`.
Time covered(Interval parent, std::vector<Interval> children);

/// Span boundaries of one command, in the clock of its backend (real ns on
/// the runtime, virtual ns on the simulator). 0 = boundary not reached.
struct CommandSpans {
  std::uint64_t id = 0;
  Time due = 0;           // when the request was due (open-loop schedule)
  Time call_start = 0;    // driver entered the propose call
  Time issued = 0;        // propose call returned
  // Per-object decisions at the proposer; the library reports a decided
  // slot once, with its batch head, so batch members have none.
  Time decided_first = 0;
  Time decided_last = 0;
  Time committed = 0;     // first commit notification (any node)
  Time delivered = 0;     // delivered (applied) at the proposer
};

/// Per-layer self time summed over commands. A command's root span
/// [due, delivered] has the children driver.issue [due, issued],
/// m2paxos.decide [issued, decided_first], core.commit [decided_first,
/// committed] and core.deliver [committed, delivered]; driver.issue has
/// the child runtime.propose [call_start, issued]. The children cover the
/// root, so the root has no self time of its own.
struct SelfTimes {
  Time driver = 0, runtime = 0, m2paxos = 0, core = 0;
  std::uint64_t commands = 0;
  void add(const CommandSpans& s);
};

/// Writes one CSV line per command span set (header first).
bool write_command_spans(const std::string& path,
                         const std::vector<CommandSpans>& spans);

}  // namespace perfbench
