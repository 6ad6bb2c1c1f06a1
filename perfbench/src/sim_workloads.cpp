// Simulator workloads (`sim_synth`, `sim_crash`, `sim_tpcc`): a 3-node
// M²Paxos cluster in the discrete-event simulator (harness::default_config)
// under the paper's load model, 64 clients per node with an in-flight cap
// of 64.
// Latencies and the simulated nodes' CPU time are virtual and repeat bit
// for bit for a given seed; each run repeats the simulation until --seconds
// of wall time have passed, checks the repeats agree, and reports the
// median simulator speed.

#include <array>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <memory>

#include "bench.hpp"
#include "harness/cluster.hpp"
#include "harness/experiment.hpp"
#include "workload/synthetic.hpp"
#include "workload/tpcc.hpp"

namespace perfbench {
namespace {

using namespace m2;

constexpr int kNodes = 3;
constexpr NodeId kCrashNode = 1;
constexpr int kSetups = 20;  // set-ups per repeat; setup_s is their median
constexpr Time kChunk = core::kMillisecond;  // run_for granularity
constexpr Time kWarmup = 50 * core::kMillisecond;
constexpr Time kDrainMax = 2 * core::kSecond;
constexpr int kMinRepeats = 2;
constexpr int kMaxRepeats = 20;

/// sim_crash timeline inside the window: the crash starts kPreCrash after
/// the window opens and lasts kCrashLength; kPostRecover more follow.
constexpr Time kPreCrash = 100 * core::kMillisecond;
constexpr Time kCrashLength = 300 * core::kMillisecond;
constexpr Time kPostRecover = 100 * core::kMillisecond;

struct SimRec {
  core::Command cmd;  // as proposed, for the consistency audit
  bool tracked = false;  // proposed through the observed cluster
  Time due = 0;
  Time committed = 0;
  Time delivered = 0;  // at the proposer
  Time decided_first = 0;
  Time decided_last = 0;
  std::uint8_t delivered_mask = 0;  // bit n: delivered at node n
  bool crash_partition = false;     // touches an object node 1 owns
  bool need_catchup = false;        // node 0 had it at recover, node 1 not

  /// Committed: a commit notification, or a delivery anywhere (a command
  /// whose proposer crashed is never notified but may still be decided).
  bool resolved() const { return committed != 0 || delivered_mask != 0; }
};

constexpr std::uint8_t kAllNodes = (1u << kNodes) - 1;

/// Timestamps every tracked command and the crash-recovery milestones.
/// Single-threaded (the simulation calls it synchronously).
class SimObserver final : public harness::ClusterObserver {
 public:
  SimObserver(core::OwnerMap owners, bool traced)
      : owners_(owners), traced_(traced) {}

  SimRec* rec(const core::Command& c) {
    auto& per = recs_[c.id.proposer() % kNodes];
    const std::uint64_t seq = c.id.seq();
    return seq < per.size() ? &per[seq] : nullptr;
  }
  std::vector<SimRec>& proposer(NodeId p) { return recs_[p]; }

  void on_propose(Time t, NodeId, const core::Command& c) override {
    auto& per = recs_[c.id.proposer() % kNodes];
    const std::uint64_t seq = c.id.seq();
    if (seq >= per.size())
      per.resize(std::max<std::size_t>(2 * seq, 1024));
    SimRec& r = per[seq];
    r.cmd = c;
    r.tracked = true;
    r.due = t;
    for (const core::ObjectId o : c.objects)
      if (owners_.owner(o) == kCrashNode) r.crash_partition = true;
    ++proposed_;
  }
  void on_committed(Time t, NodeId, const core::Command& c) override {
    SimRec* r = rec(c);
    if (c.noop || r == nullptr || !r->tracked || r->committed != 0) return;
    if (!r->resolved()) ++resolved_;
    r->committed = t;
    if (crashed_at_ != 0 && r->crash_partition)
      partition_commits_.push_back(t);
  }
  void on_deliver(Time t, NodeId node, const core::Command& c) override {
    SimRec* r = rec(c);
    if (r == nullptr || !r->tracked) return;
    orders_[node].push_back(c.id.value);
    if (!r->resolved()) ++resolved_;
    r->delivered_mask |= static_cast<std::uint8_t>(1u << node);
    if (r->delivered_mask == kAllNodes) ++complete_;
    if (node == c.id.proposer()) r->delivered = t;
    if (node == kCrashNode && r->need_catchup) {
      r->need_catchup = false;
      if (--catchup_pending_ == 0) caught_up_at_ = t;
    }
  }
  void on_decided(Time t, NodeId node, core::ObjectId, core::Instance,
                  const core::Command& c) override {
    if (!traced_ || node != c.id.proposer()) return;
    SimRec* r = rec(c);
    if (r == nullptr) return;
    if (r->decided_first == 0) r->decided_first = t;
    r->decided_last = t;
  }
  void on_ownership(Time t, NodeId node, core::ObjectId obj, core::Epoch,
                    NodeId owner, bool acquired) override {
    if (crashed_at_ == 0 || takeover_at_ != 0 || !acquired) return;
    if (node != kCrashNode && owner == node &&
        owners_.owner(obj) == kCrashNode)
      takeover_at_ = t;
  }
  void on_crash(Time t, NodeId) override { crashed_at_ = t; }
  void on_recover(Time t, NodeId) override {
    recovered_at_ = t;
    for (auto& per : recs_) {
      for (SimRec& r : per) {
        if ((r.delivered_mask & 1u) != 0 &&
            (r.delivered_mask & (1u << kCrashNode)) == 0) {
          r.need_catchup = true;
          ++catchup_pending_;
        }
      }
    }
    if (catchup_pending_ == 0) caught_up_at_ = t;
  }

  /// Per-node delivery order (command ids).
  const std::vector<std::vector<std::uint64_t>>& orders() const {
    return orders_;
  }
  /// Every proposal committed and delivered at every node.
  bool settled() const {
    return resolved_ == proposed_ && complete_ == resolved_;
  }
  /// Longest stretch in [crash, until] without a commit on node 1's
  /// objects.
  Time outage(Time until) const {
    Time gap = 0, last = crashed_at_;
    for (const Time t : partition_commits_) {
      if (t > until) break;
      gap = std::max(gap, t - last);
      last = t;
    }
    return std::max(gap, until - last);
  }
  Time crashed_at() const { return crashed_at_; }
  Time recovered_at() const { return recovered_at_; }
  Time caught_up_at() const { return caught_up_at_; }
  Time takeover_at() const { return takeover_at_; }

 private:
  core::OwnerMap owners_;
  bool traced_;
  std::array<std::vector<SimRec>, kNodes> recs_;
  std::vector<std::vector<std::uint64_t>> orders_ =
      std::vector<std::vector<std::uint64_t>>(kNodes);
  std::uint64_t proposed_ = 0, resolved_ = 0, complete_ = 0;
  Time crashed_at_ = 0, recovered_at_ = 0, caught_up_at_ = 0;
  Time takeover_at_ = 0;
  std::vector<Time> partition_commits_;  // commits on node 1's objects
  std::uint64_t catchup_pending_ = 0;
};

std::unique_ptr<wl::Workload> make_workload(const std::string& name,
                                            std::uint64_t seed) {
  if (name == "sim_tpcc")
    return std::make_unique<wl::TpccWorkload>(
        wl::TpccConfig{kNodes, 10, 0.15, seed});
  wl::SyntheticConfig cfg;
  cfg.n_nodes = kNodes;
  cfg.locality = 0.5;
  cfg.seed = seed;
  return std::make_unique<wl::SyntheticWorkload>(cfg);
}

harness::ExperimentConfig make_config(std::uint64_t seed) {
  harness::ExperimentConfig cfg =
      harness::default_config(core::Protocol::kM2Paxos, kNodes, seed);
  cfg.load.clients_per_node = 64;
  cfg.load.max_inflight_per_node = 64;
  return cfg;
}

/// FNV-1a over 64-bit words: the fingerprint of one simulation's
/// virtual-time outputs.
struct Digest {
  std::uint64_t h = 1469598103934665603ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
    return buf;
  }
};

struct Repeat {
  RunResult r;           // virtual-time metrics, checks, per-layer
  std::string digest;
  double speed_cps = 0;  // simulated commits per wall second
  std::vector<double> setup_s;
};

/// One simulation: set-up, warm-up, window, drain, checks, metrics.
Repeat simulate(const Options& opt, std::uint64_t seed, Time window,
                bool crash, bool traced) {
  Repeat rep;
  RunResult& out = rep.r;
  const harness::ExperimentConfig cfg = make_config(seed);

  // Declared so the cluster goes first: it refers to both.
  std::unique_ptr<wl::Workload> workload;
  std::unique_ptr<SimObserver> obs;
  std::unique_ptr<harness::Cluster> cluster;
  for (int k = 0; k < kSetups; ++k) {
    cluster.reset();
    workload = make_workload(opt.workload, seed);
    obs = std::make_unique<SimObserver>(workload->owner_map(), traced);
    const Time s0 = wall_ns();
    cluster = std::make_unique<harness::Cluster>(cfg, *workload);
    cluster->set_observer(obs.get());
    cluster->start_clients();
    rep.setup_s.push_back(static_cast<double>(wall_ns() - s0) / 1e9);
  }
  harness::Cluster& cl = *cluster;
  sim::Simulator& sim = cl.simulator();

  // Advances virtual time in kChunk steps, timing each call (the
  // harness.run_for spans of the traced run).
  Time run_for_wall = 0;
  std::vector<std::pair<Time, Time>> run_for_spans;  // wall start/end
  const auto advance_to = [&](Time until) {
    while (sim.now() < until) {
      const Time w0 = wall_ns();
      cl.run_for(std::min(kChunk, until - sim.now()));
      const Time w1 = wall_ns();
      run_for_wall += w1 - w0;
      if (traced) run_for_spans.push_back({w0, w1});
    }
  };

  advance_to(kWarmup);
  const Time t0 = sim.now();
  const Time t1 = t0 + window;
  for (NodeId n = 0; n < kNodes; ++n) cl.node_metrics(n)->reset();
  cl.network().reset_counters();
  const std::uint64_t events0 = sim.events_executed();
  std::vector<Time> busy0;
  for (NodeId n = 0; n < kNodes; ++n) busy0.push_back(cl.cpu(n).busy_time());
  const Time wall0 = wall_ns();
  const Time span0 = run_for_wall;
  if (crash) {
    advance_to(t0 + kPreCrash);
    cl.crash(kCrashNode);
    advance_to(t0 + kPreCrash + kCrashLength);
    cl.recover(kCrashNode);
  }
  advance_to(t1);
  const Time wall1 = wall_ns();
  const Time window_run_for = run_for_wall - span0;
  const std::uint64_t events = sim.events_executed() - events0;
  const stats::MetricsRegistry reg = cl.merged_metrics();
  const net::TrafficCounters traffic = cl.network().total_counters();
  const std::map<std::string, std::uint64_t> by_kind =
      cl.network().bytes_by_kind();
  Time busy = 0;  // simulated node CPU time over the window
  double util = 0;
  for (NodeId n = 0; n < kNodes; ++n) {
    busy += cl.cpu(n).busy_time() - busy0[n];
    util += core::to_seconds(cl.cpu(n).busy_time() - busy0[n]) /
            (core::to_seconds(window) * cl.cpu(n).cores());
  }
  util /= kNodes;

  // Drain: clients stop; every proposal commits and every node delivers
  // every committed command, or the drain deadline passes. Without a crash
  // that fails the run; with one, the proposals node 1 took just before
  // crashing never commit (README.md), and the checks below judge.
  cl.stop_clients();
  while (!obs->settled() && sim.now() < t1 + kDrainMax)
    advance_to(sim.now() + kChunk);
  const Time end = sim.now();
  out.check(crash || obs->settled(), "drain deadline hit");

  // Correctness: consistency audit, and every committed command delivered
  // at every node (all nodes are live after the drain).
  std::vector<std::uint64_t> committed_ids;
  for (NodeId p = 0; p < kNodes; ++p)
    for (const SimRec& r : obs->proposer(p))
      if (r.resolved()) committed_ids.push_back(r.cmd.id.value);
  audit_deliveries(
      obs->orders(),
      [&](std::uint64_t id) -> const core::Command* {
        const core::CommandId cid{id};
        const auto& per = obs->proposer(cid.proposer() % kNodes);
        return cid.seq() < per.size() && per[cid.seq()].tracked
                   ? &per[cid.seq()].cmd
                   : nullptr;
      },
      committed_ids, out);

  // End-to-end metrics over the commands due in [t0, t1).
  Digest digest;
  Latencies lat;
  std::vector<Time> spread, c2d;
  std::vector<CommandSpans> spans;
  SelfTimes self;
  std::uint64_t commits_in_window = 0;
  for (NodeId p = 0; p < kNodes; ++p) {
    const auto& per = obs->proposer(p);
    for (std::uint64_t seq = 0; seq < per.size(); ++seq) {
      const SimRec& r = per[seq];
      if (!r.tracked) continue;
      if (r.committed >= t0 && r.committed < t1) ++commits_in_window;
      if (r.due < t0 || r.due >= t1) continue;
      digest.add(r.due);
      digest.add(static_cast<std::uint64_t>(r.committed));
      digest.add(static_cast<std::uint64_t>(r.delivered));
      ++out.attempted;
      if (!r.resolved()) ++out.failed;
      if (r.committed != 0) lat.commit.push_back(r.committed - r.due);
      if (r.delivered != 0) lat.deliver.push_back(r.delivered - r.due);
      if (!traced || r.committed == 0) continue;
      const CommandSpans s{core::CommandId::make(p, seq).value, r.due, r.due,
                           r.due, r.decided_first, r.decided_last,
                           r.committed, r.delivered};
      if (s.decided_first != 0)
        spread.push_back(s.decided_last - s.decided_first);
      if (s.delivered != 0) {
        c2d.push_back(s.delivered - s.committed);
        self.add(s);
      }
      spans.push_back(s);
    }
  }
  for (int c = 0; c < static_cast<int>(stats::Counter::kCount); ++c)
    digest.add(reg.counter(static_cast<stats::Counter>(c)));
  digest.add(traffic.bytes_sent);
  digest.add(traffic.messages_sent);
  digest.add(static_cast<std::uint64_t>(busy));
  rep.digest = digest.hex();
  // Every proposal due in the window must commit (the latencies cover
  // committed commands only); sim_crash is exempt as above.
  out.check(crash || out.failed == 0,
            std::to_string(out.failed) + " proposals never committed");

  const double commits =
      static_cast<double>(std::max<std::uint64_t>(commits_in_window, 1));
  // The runtime's cpu_us_per_cmd counts the node threads' CPU time; here
  // the nodes' CPU is the harness's cost model, in virtual time.
  out.e2e.set("cpu_us_per_cmd", us(static_cast<double>(busy)) / commits,
              "us");
  rep.speed_cps = commits / (static_cast<double>(wall1 - wall0) / 1e9);
  set_latency_metrics(lat, out);
  out.info.set("throughput_cps", commits / core::to_seconds(window), "1/s");
  out.info.set("drain_virtual_ms", core::to_millis(end - t1), "ms");
  if (crash) {
    out.info.set("outage_ms", core::to_millis(obs->outage(t1)), "ms");
    out.check(obs->caught_up_at() != 0, "node 1 never caught up");
    out.info.set("catchup_ms",
                 core::to_millis(obs->caught_up_at() - obs->recovered_at()),
                 "ms");
  }
  if (!traced) return rep;

  Metrics& L = out.layer;
  const auto per_cmd = [&](double v) { return v / commits; };
  L.set("net.msgs_per_cmd",
        per_cmd(static_cast<double>(traffic.messages_sent)), "count");
  L.set("net.bytes_per_cmd", per_cmd(static_cast<double>(traffic.bytes_sent)),
        "B");
  for (const char* kind : {"M2.AckPrepare", "M2.Accept", "M2.Decide"}) {
    const auto it = by_kind.find(kind);
    L.set(std::string("net.bytes_per_cmd.") + kind,
          it == by_kind.end() ? 0.0 : per_cmd(static_cast<double>(it->second)),
          "B");
  }
  m2paxos_layer_metrics(reg, L);
  L.set("m2paxos.decide_spread_us_p99", us(quantile(spread, 0.99)), "us");
  if (crash)
    L.set("m2paxos.takeover_ms",
          obs->takeover_at() == 0
              ? 0.0
              : core::to_millis(obs->takeover_at() - obs->crashed_at()),
          "ms");
  L.set("sim.throughput_cps", *out.info.find("throughput_cps"), "1/s");
  L.set("sim.commit_p99_us", *out.info.find("commit_p99_us"), "us");
  L.set("sim.deliver_p99_us", *out.info.find("deliver_p99_us"), "us");
  L.set("core.commit_to_deliver_us_p50", us(quantile(c2d, 0.5)), "us");
  L.set("core.commit_to_deliver_us_p99", us(quantile(c2d, 0.99)), "us");
  L.set("sim.events_per_cmd", per_cmd(static_cast<double>(events)), "count");
  L.set("sim.events_per_wall_s",
        static_cast<double>(events) * 1e9 / static_cast<double>(wall1 - wall0),
        "1/s");
  L.set("sim.cpu_util", util, "ratio");
  L.set("harness.run_for_wall_s", static_cast<double>(run_for_wall) / 1e9,
        "s");
  if (crash) {
    L.set("harness.crash_outage_ms", *out.info.find("outage_ms"), "ms");
    if (const double* catchup = out.info.find("catchup_ms"))
      L.set("harness.crash_catchup_ms", *catchup, "ms");
  }
  const double n_self =
      static_cast<double>(std::max<std::uint64_t>(self.commands, 1));
  L.set("self.m2paxos_us_per_cmd",
        us(static_cast<double>(self.m2paxos)) / n_self, "us");
  L.set("self.core_us_per_cmd", us(static_cast<double>(self.core)) / n_self,
        "us");
  L.set("self.harness_wall_us_per_cmd",
        per_cmd(us(static_cast<double>(window_run_for))), "us");

  const std::string base = opt.trace_dir + "/" + opt.workload;
  bool written = write_command_spans(base + ".commands.csv", spans);
  if (std::FILE* f = std::fopen((base + ".harness.csv").c_str(), "w")) {
    std::fprintf(f, "span,start_wall_ns,end_wall_ns\n");
    for (const auto& [w0, w1] : run_for_spans)
      std::fprintf(f, "harness.run_for,%lld,%lld\n",
                   static_cast<long long>(w0), static_cast<long long>(w1));
    written = std::fclose(f) == 0 && written;
  } else {
    written = false;
  }
  out.check(written, "cannot write span files under " + opt.trace_dir);
  return rep;
}

}  // namespace

bool is_sim_workload(const std::string& name) {
  return name == "sim_synth" || name == "sim_crash" || name == "sim_tpcc";
}

RunResult run_sim_workload(const Options& opt, bool traced) {
  const bool crash = opt.workload == "sim_crash";
  const double window_ms = opt.window_ms > 0               ? opt.window_ms
                           : opt.workload == "sim_synth" ? 200
                                                         : 100;
  const Time window =
      crash ? kPreCrash + kCrashLength + kPostRecover
            : static_cast<Time>(window_ms * core::kMillisecond);

  // Repeat the same-seed simulation until --seconds of wall time passed;
  // the repeats must agree bit for bit.
  std::vector<Repeat> reps;
  const Time deadline = wall_ns() + opt.seconds * core::kSecond;
  do {
    reps.push_back(simulate(opt, opt.seed, window, crash, traced));
  } while (reps.size() < kMinRepeats ||
           (wall_ns() < deadline && reps.size() < kMaxRepeats));

  RunResult out = std::move(reps.front().r);
  std::vector<double> speed, setup;
  for (const Repeat& rep : reps) {
    for (const std::string& e : rep.r.errors) out.check(false, e);
    out.check(rep.digest == reps.front().digest,
              "same seed, different virtual-time outputs: " + rep.digest +
                  " vs " + reps.front().digest);
    speed.push_back(rep.speed_cps);
    setup.insert(setup.end(), rep.setup_s.begin(), rep.setup_s.end());
  }
  // The seed must reach the generator: a short run at another seed differs.
  const Time probe = 5 * core::kMillisecond;
  const std::string a = simulate(opt, opt.seed, probe, false, false).digest;
  const std::string b = simulate(opt, opt.seed + 1, probe, false, false).digest;
  out.check(a != b, "seed " + std::to_string(opt.seed) + " and " +
                        std::to_string(opt.seed + 1) + " simulate identically");

  out.e2e.set("setup_s", median(setup), "s");
  out.info.set("sim_speed_cps", median(speed), "1/s");
  out.info.set("repeats", static_cast<double>(reps.size()), "count");
  out.notes.push_back("virtual_digest " + reps.front().digest);
  if (traced) out.layer.set("sim.speed_cps", median(speed), "1/s");
  return out;
}

}  // namespace perfbench
