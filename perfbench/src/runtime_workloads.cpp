// Runtime workloads (`owned`, `tpcc`): a 3-node M²Paxos cluster on the
// threaded runtime over the in-process loopback transport, driven open
// loop by one driver thread (3 node threads + 1 driver = 4 cores).

#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <iterator>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "harness/cluster.hpp"
#include "runtime/runtime.hpp"
#include "runtime/transport.hpp"
#include "sim/rng.hpp"
#include "workload/tpcc.hpp"

namespace perfbench {
namespace {

using namespace m2;

constexpr int kNodes = 3;
constexpr Time kWarmup = 1 * core::kSecond;
constexpr int kSetups = 61;  // set-ups per run; setup_s is their median
constexpr Time kDrainTimeout = 10 * core::kSecond;

/// One generated command's timeline. Node threads write the atomics through
/// the observer; the driver writes the plain fields. Read after stop().
struct Rec {
  Time due = 0;
  Time call_start = 0;
  Time issued = 0;  // traced runs only
  std::atomic<Time> committed{0};
  std::atomic<Time> delivered{0};
  std::atomic<Time> decided_first{0};  // traced runs only
  std::atomic<Time> decided_last{0};   // traced runs only
};

/// Commands carry CommandId::make(proposer, index + 1), so a record is
/// found by the id's sequence number; probe and no-op ids fall outside.
Rec* rec_of(std::vector<Rec>& recs, const core::Command& c) {
  const std::uint64_t seq = c.id.seq();
  return seq >= 1 && seq <= recs.size() ? &recs[seq - 1] : nullptr;
}

/// The observer end-to-end timing needs: first commit anywhere, and
/// delivery at the proposer. Traced runs also stamp per-object decisions.
class RuntimeObserver final : public harness::ClusterObserver {
 public:
  RuntimeObserver(std::vector<Rec>& recs, bool traced)
      : recs_(recs), traced_(traced), orders_(kNodes) {
    // Reserved up front so logging never reallocates inside the window.
    for (auto& o : orders_) o.reserve(recs.size());
  }

  void on_committed(Time t, NodeId, const core::Command& c) override {
    Rec* r = rec_of(recs_, c);
    if (r == nullptr) return;
    Time zero = 0;
    if (r->committed.compare_exchange_strong(zero, t,
                                             std::memory_order_relaxed))
      first_commits_.fetch_add(1, std::memory_order_relaxed);
  }
  void on_deliver(Time t, NodeId node, const core::Command& c) override {
    Rec* r = rec_of(recs_, c);
    if (r == nullptr) return;
    orders_[node].push_back(c.id.value);  // node thread `node` only
    if (node == c.id.proposer())
      r->delivered.store(t, std::memory_order_relaxed);
  }
  void on_decided(Time t, NodeId node, core::ObjectId, core::Instance,
                  const core::Command& c) override {
    if (!traced_ || node != c.id.proposer()) return;
    Rec* r = rec_of(recs_, c);
    if (r == nullptr) return;
    Time zero = 0;
    r->decided_first.compare_exchange_strong(zero, t,
                                             std::memory_order_relaxed);
    r->decided_last.store(t, std::memory_order_relaxed);  // proposer thread
  }

  std::uint64_t first_commits() const {
    return first_commits_.load(std::memory_order_relaxed);
  }
  /// Per-node delivery order (command ids); read after stop().
  const std::vector<std::vector<std::uint64_t>>& orders() const {
    return orders_;
  }

 private:
  std::vector<Rec>& recs_;
  bool traced_;
  std::atomic<std::uint64_t> first_commits_{0};
  std::vector<std::vector<std::uint64_t>> orders_;
};

/// Message kinds whose bytes the per-layer metrics break out.
const char* const kKinds[] = {"M2.AckPrepare", "M2.Accept", "M2.Decide"};
constexpr std::size_t kNumKinds = std::size(kKinds);

/// Forwarding transport of the traced runs: times every send/broadcast
/// call into LoopbackTransport and accounts wire bytes per message kind.
/// Each node thread writes only its own slot (`from`).
class TracingTransport final : public runtime::Transport {
 public:
  struct Span {
    Time start, end;
    bool broadcast;
  };
  /// Wire totals at one instant.
  struct Totals {
    std::uint64_t msgs = 0, bytes = 0;
    std::array<std::uint64_t, kNumKinds> kind_bytes{};
  };

  explicit TracingTransport(int n_nodes)
      : inner_(n_nodes), nodes_(static_cast<std::size_t>(n_nodes)) {
    for (auto& n : nodes_) n.spans.reserve(1 << 18);
  }

  /// The runtime's clock; set before start().
  void set_clock(const core::Clock* clock) { clock_ = clock; }

  void attach(NodeId node, runtime::Inbox* inbox) override {
    inner_.attach(node, inbox);
  }
  void send(NodeId from, NodeId to, const net::Payload& p) override {
    const Time t0 = clock_->now();
    inner_.send(from, to, p);
    account(from, p, 1, {t0, clock_->now(), false});
  }
  void broadcast(NodeId from, const net::Payload& p,
                 bool include_self) override {
    const Time t0 = clock_->now();
    inner_.broadcast(from, p, include_self);
    account(from, p, include_self ? nodes_.size() : nodes_.size() - 1,
            {t0, clock_->now(), true});
  }
  void start() override { inner_.start(); }
  void stop() override { inner_.stop(); }
  std::string start_error() const override { return inner_.start_error(); }
  void fold_metrics(stats::MetricsRegistry& reg) const override {
    inner_.fold_metrics(reg);
  }

  /// Relaxed snapshot, from any thread.
  Totals totals() const {
    Totals t;
    t.msgs = inner_.counters().messages_sent.load();
    t.bytes = inner_.counters().bytes_sent.load();
    for (const auto& n : nodes_) {
      for (std::size_t k = 0; k < kNumKinds; ++k)
        t.kind_bytes[k] += n.bytes[k].load(std::memory_order_relaxed);
    }
    return t;
  }
  /// Spans per node; read after the runtime stopped.
  const std::vector<Span>& spans(NodeId n) const { return nodes_[n].spans; }

 private:
  struct PerNode {
    std::vector<Span> spans;
    std::array<std::atomic<std::uint64_t>, kNumKinds> bytes{};
  };

  void account(NodeId from, const net::Payload& p, std::size_t recipients,
               Span span) {
    PerNode& n = nodes_[from];
    n.spans.push_back(span);
    for (std::size_t k = 0; k < kNumKinds; ++k) {
      if (std::strcmp(p.name(), kKinds[k]) == 0)
        n.bytes[k].fetch_add(p.wire_size() * recipients,
                             std::memory_order_relaxed);
    }
  }

  runtime::LoopbackTransport inner_;
  std::vector<PerNode> nodes_;
  const core::Clock* clock_ = nullptr;
};

struct Spec {
  core::OwnerMap owner_map;
  std::vector<core::ObjectId> probe_object;  // one owned object per node
};

/// Generates every command of the run from the seed before the cluster
/// exists; ids are CommandId::make(proposer, index + 1), proposers
/// round-robin.
Spec generate(const Options& opt, std::size_t n_total,
              std::vector<core::Command>& cmds) {
  cmds.reserve(n_total);
  if (opt.workload == "owned") {
    constexpr std::uint64_t kPartition = 1024;
    sim::Rng rng(opt.seed);
    for (std::size_t i = 0; i < n_total; ++i) {
      const auto p = static_cast<NodeId>(i % kNodes);
      const core::ObjectId obj = p * kPartition + rng.uniform(kPartition);
      cmds.emplace_back(core::CommandId::make(p, i + 1),
                        core::ObjectList{obj});
    }
    return {core::OwnerMap::divide(kPartition),
            {0, kPartition, 2 * kPartition}};
  }
  // tpcc: the paper's Fig. 8b mix, 10 warehouses per node, 15 % remote.
  wl::TpccWorkload w({kNodes, 10, 0.15, opt.seed});
  for (std::size_t i = 0; i < n_total; ++i) {
    const auto p = static_cast<NodeId>(i % kNodes);
    core::Command c = w.next(p);
    c.id = core::CommandId::make(p, i + 1);
    cmds.push_back(std::move(c));
  }
  std::vector<core::ObjectId> probes;
  for (int n = 0; n < kNodes; ++n)
    probes.push_back(wl::TpccWorkload::warehouse_obj(n * 10));
  return {w.owner_map(), probes};
}

/// Sleeps until shortly before `due`, then spins; returns the time read.
Time wait_until(const core::Clock& clock, Time due) {
  for (;;) {
    const Time now = clock.now();
    if (now >= due) return now;
    if (due - now > 200 * core::kMicrosecond)
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(due - now - 100 * core::kMicrosecond));
  }
}

template <typename Pred>
bool poll_until(Pred done, Time timeout) {
  const Time deadline = wall_ns() + timeout;
  while (!done()) {
    if (wall_ns() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

}  // namespace

bool is_runtime_workload(const std::string& name) {
  return name == "owned" || name == "tpcc";
}

RunResult run_runtime_workload(const Options& opt, bool traced) {
  RunResult out;
  // tpcc runs at 5k/s: above that it can collapse (README.md, (a)).
  const double rate =
      opt.rate > 0 ? opt.rate : opt.workload == "owned" ? 50'000 : 5'000;
  const auto n_warm =
      static_cast<std::size_t>(rate * core::to_seconds(kWarmup));
  const auto n_win = static_cast<std::size_t>(rate * opt.seconds);
  const std::size_t n_total = n_warm + n_win;
  std::vector<core::Command> cmds;
  const Spec spec = generate(opt, n_total, cmds);
  std::vector<Rec> recs(n_total);
  RuntimeObserver observer(recs, traced);

  runtime::RuntimeConfig cfg;
  cfg.protocol = core::Protocol::kM2Paxos;
  cfg.cluster.n_nodes = kNodes;
  cfg.cluster.batching.enabled = true;
  cfg.seed = opt.seed;
  cfg.owner_map = spec.owner_map;
  cfg.observer = &observer;

  // Set-up = construction + start + one committed probe per node.
  TracingTransport* tracer = nullptr;
  std::uint64_t probe_seq = (1ULL << 40) - 1;  // above every record index
  std::vector<double> setup_s;
  std::unique_ptr<runtime::Runtime> rt;
  for (int k = 0; k < kSetups; ++k) {
    rt.reset();
    const Time s0 = wall_ns();
    if (traced) {
      auto t = std::make_unique<TracingTransport>(kNodes);
      tracer = t.get();
      rt = std::make_unique<runtime::Runtime>(
          cfg, std::move(t), std::vector<NodeId>{0, 1, 2});
      tracer->set_clock(&rt->clock());
    } else {
      rt = std::make_unique<runtime::Runtime>(cfg);
    }
    std::string error;
    if (!rt->start(&error)) {
      out.check(false, "runtime start failed: " + error);
      return out;
    }
    for (NodeId n = 0; n < kNodes; ++n)
      rt->propose(n, core::Command(core::CommandId::make(n, --probe_seq),
                                   {spec.probe_object[n]}));
    if (!rt->await_committed(kNodes, 5 * core::kSecond)) {
      out.check(false, "set-up probes did not commit");
      return out;
    }
    setup_s.push_back(static_cast<double>(wall_ns() - s0) / 1e9);
  }
  out.e2e.set("setup_s", median(setup_s), "s");

  // Open loop: command i is due at start + i / rate, round-robin over
  // proposers; the first n_warm are warm-up.
  const core::Clock& clock = rt->clock();
  const double period = 1e9 / rate;
  const auto due_of = [&](std::size_t i) {
    return static_cast<Time>(static_cast<double>(i) * period);
  };
  const Time start = clock.now() + core::kMillisecond;
  const Time t0 = start + due_of(n_warm);
  const Time t1 = t0 + opt.seconds * core::kSecond;
  // Node CPU time: process minus driver thread, over [t0, t1).
  const auto node_cpu = [] { return process_cpu_ns() - thread_cpu_ns(); };
  Time node_cpu0 = 0;
  TracingTransport::Totals wire0, wire1;
  for (std::size_t i = 0; i < n_total; ++i) {
    Rec& r = recs[i];
    r.due = start + due_of(i);
    if (i == n_warm) {
      wait_until(clock, t0);
      node_cpu0 = node_cpu();
      rt->reset_measurement();
      if (tracer != nullptr) wire0 = tracer->totals();
    }
    r.call_start = wait_until(clock, r.due);
    rt->propose(static_cast<NodeId>(i % kNodes), cmds[i]);
    if (traced) r.issued = clock.now();
  }
  wait_until(clock, t1);
  const double node_cpu_ns = static_cast<double>(node_cpu() - node_cpu0);
  if (tracer != nullptr) wire1 = tracer->totals();

  // Drain: every proposal commits and every node delivers all of them
  // (plus the probes), or the deadline passes and the run fails.
  const bool drained = poll_until(
      [&] {
        if (observer.first_commits() != n_total) return false;
        for (NodeId n = 0; n < kNodes; ++n)
          if (rt->delivered(n) < n_total + kNodes) return false;
        return true;
      },
      kDrainTimeout);
  rt->stop();
  out.check(drained, "drain deadline hit");

  // Correctness: consistency audit, and every committed command delivered
  // at every node. Committed: notified, or delivered anywhere.
  std::vector<bool> resolved(n_total);
  for (const auto& order : observer.orders())
    for (const std::uint64_t id : order)
      resolved[core::CommandId{id}.seq() - 1] = true;
  std::vector<std::uint64_t> committed_ids;
  for (std::size_t i = 0; i < n_total; ++i) {
    if (recs[i].committed.load() != 0) resolved[i] = true;
    if (resolved[i]) committed_ids.push_back(cmds[i].id.value);
  }
  audit_deliveries(
      observer.orders(),
      [&](std::uint64_t id) -> const core::Command* {
        const std::uint64_t seq = core::CommandId{id}.seq();
        return seq >= 1 && seq <= n_total ? &cmds[seq - 1] : nullptr;
      },
      committed_ids, out);

  // End-to-end metrics over the commands due in [t0, t1). Every one of
  // them must commit: the latencies cover committed commands only.
  Latencies lat;
  std::uint64_t commits_in_window = 0;
  for (std::size_t i = 0; i < n_total; ++i) {
    const Rec& r = recs[i];
    const Time c = r.committed.load();
    if (c >= t0 && c < t1) ++commits_in_window;
    if (i < n_warm) continue;
    ++out.attempted;
    if (!resolved[i]) ++out.failed;
    if (c == 0) continue;
    lat.commit.push_back(c - r.due);
    if (const Time d = r.delivered.load(); d != 0)
      lat.deliver.push_back(d - r.due);
  }
  out.check(out.failed == 0, std::to_string(out.failed) +
                                 " proposals never committed");
  const double commits =
      static_cast<double>(std::max<std::uint64_t>(commits_in_window, 1));
  set_latency_metrics(lat, out);
  out.e2e.set("cpu_us_per_cmd", us(node_cpu_ns) / commits, "us");
  out.info.set("throughput_cps", commits / core::to_seconds(t1 - t0), "1/s");
  if (!traced) return out;

  // Per-layer metrics (traced run).
  std::vector<Time> late, call, to_decide, spread, c2d;
  std::vector<CommandSpans> spans;
  SelfTimes self;
  spans.reserve(n_win);
  for (std::size_t i = n_warm; i < n_total; ++i) {
    const Rec& r = recs[i];
    const CommandSpans s{cmds[i].id.value,         r.due,
                         r.call_start,             r.issued,
                         r.decided_first.load(),   r.decided_last.load(),
                         r.committed.load(),       r.delivered.load()};
    late.push_back(s.call_start - s.due);
    call.push_back(s.issued - s.call_start);
    if (s.decided_first != 0) {
      to_decide.push_back(s.decided_first - s.call_start);
      spread.push_back(s.decided_last - s.decided_first);
    }
    if (s.committed != 0 && s.delivered != 0)
      c2d.push_back(s.delivered - s.committed);
    if (s.delivered != 0) self.add(s);
    spans.push_back(s);
  }
  Metrics& L = out.layer;
  L.set("driver.late_p99_us", us(quantile(late, 0.99)), "us");
  L.set("driver.late_max_us", us(quantile(late, 1.0)), "us");
  L.set("runtime.propose_call_ns_p50", quantile(call, 0.5), "ns");
  L.set("runtime.propose_to_decide_us_p50", us(quantile(to_decide, 0.5)),
        "us");
  L.set("runtime.propose_to_decide_us_p99", us(quantile(to_decide, 0.99)),
        "us");
  L.set("runtime.commit_p99_us", *out.info.find("commit_p99_us"), "us");
  L.set("runtime.deliver_p99_us", *out.info.find("deliver_p99_us"), "us");

  std::vector<Time> send_ns, bcast_ns;
  double wire_ns = 0;
  const std::string base = opt.trace_dir + "/" + opt.workload;
  std::FILE* net_csv = std::fopen((base + ".net.csv").c_str(), "w");
  if (net_csv != nullptr) std::fprintf(net_csv, "node,span,start_ns,end_ns\n");
  for (NodeId n = 0; n < kNodes; ++n) {
    for (const auto& s : tracer->spans(n)) {
      if (s.start < t0 || s.start >= t1) continue;
      (s.broadcast ? bcast_ns : send_ns).push_back(s.end - s.start);
      wire_ns += static_cast<double>(s.end - s.start);
      if (net_csv != nullptr)
        std::fprintf(net_csv, "%u,%s,%lld,%lld\n", n,
                     s.broadcast ? "net.broadcast" : "net.send",
                     static_cast<long long>(s.start),
                     static_cast<long long>(s.end));
    }
  }
  const bool net_written = net_csv != nullptr && std::fclose(net_csv) == 0;
  L.set("net.send_ns_p50", quantile(send_ns, 0.5), "ns");
  L.set("net.broadcast_ns_p50", quantile(bcast_ns, 0.5), "ns");
  L.set("net.wire_cpu_share", node_cpu_ns > 0 ? wire_ns / node_cpu_ns : 0,
        "ratio");
  L.set("net.msgs_per_cmd", static_cast<double>(wire1.msgs - wire0.msgs) /
                                commits, "count");
  L.set("net.bytes_per_cmd", static_cast<double>(wire1.bytes - wire0.bytes) /
                                 commits, "B");
  for (std::size_t k = 0; k < kNumKinds; ++k)
    L.set(std::string("net.bytes_per_cmd.") + kKinds[k],
          static_cast<double>(wire1.kind_bytes[k] - wire0.kind_bytes[k]) /
              commits,
          "B");

  m2paxos_layer_metrics(rt->merged_metrics(), L);
  L.set("m2paxos.decide_spread_us_p99", us(quantile(spread, 0.99)), "us");
  L.set("core.commit_to_deliver_us_p50", us(quantile(c2d, 0.5)), "us");
  L.set("core.commit_to_deliver_us_p99", us(quantile(c2d, 0.99)), "us");

  const double n_self =
      static_cast<double>(std::max<std::uint64_t>(self.commands, 1));
  const auto per_cmd = [&](Time total) {
    return us(static_cast<double>(total)) / n_self;
  };
  L.set("self.driver_us_per_cmd", per_cmd(self.driver), "us");
  L.set("self.runtime_us_per_cmd", per_cmd(self.runtime), "us");
  L.set("self.m2paxos_us_per_cmd", per_cmd(self.m2paxos), "us");
  L.set("self.core_us_per_cmd", per_cmd(self.core), "us");
  L.set("self.net_us_per_cmd", us(wire_ns) / commits, "us");

  out.check(write_command_spans(base + ".commands.csv", spans) && net_written,
            "cannot write span files under " + opt.trace_dir);
  return out;
}

}  // namespace perfbench
