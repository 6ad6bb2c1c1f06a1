#include "bench.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>

#include "core/cstruct.hpp"

namespace perfbench {

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (auto& item : items_) {
    if (item.first == name) {
      item.second = {value, unit};
      return;
    }
  }
  items_.push_back({name, {value, unit}});
}

const double* Metrics::find(const std::string& name) const {
  for (const auto& item : items_)
    if (item.first == name) return &item.second.first;
  return nullptr;
}

double quantile(std::vector<Time>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return static_cast<double>(v[std::clamp<std::size_t>(rank, 1, v.size()) - 1]);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

void set_latency_metrics(Latencies& lat, RunResult& out) {
  out.e2e.set("commit_p50_us", us(quantile(lat.commit, 0.5)), "us");
  out.e2e.set("deliver_p50_us", us(quantile(lat.deliver, 0.5)), "us");
  out.e2e.set("commit_p90_us", us(quantile(lat.commit, 0.9)), "us");
  out.e2e.set("deliver_p90_us", us(quantile(lat.deliver, 0.9)), "us");
  out.info.set("commit_p99_us", us(quantile(lat.commit, 0.99)), "us");
  out.info.set("deliver_p99_us", us(quantile(lat.deliver, 0.99)), "us");
  out.info.set("commit_samples", static_cast<double>(lat.commit.size()),
               "count");
  const auto attempted = std::max<std::uint64_t>(out.attempted, 1);
  out.info.set("failed_frac",
               static_cast<double>(out.failed) /
                   static_cast<double>(attempted),
               "ratio");
}

namespace {
Time read_clock(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<Time>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}
}  // namespace

Time process_cpu_ns() { return read_clock(CLOCK_PROCESS_CPUTIME_ID); }
Time thread_cpu_ns() { return read_clock(CLOCK_THREAD_CPUTIME_ID); }
Time wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void audit_deliveries(
    const std::vector<std::vector<std::uint64_t>>& orders,
    const std::function<const m2::core::Command*(std::uint64_t)>& command,
    const std::vector<std::uint64_t>& committed, RunResult& out) {
  std::vector<m2::core::CStruct> cstructs(orders.size());
  std::uint64_t duplicates = 0;
  for (std::size_t n = 0; n < orders.size(); ++n) {
    for (const std::uint64_t id : orders[n]) {
      const m2::core::Command* c = command(id);
      if (c != nullptr && !cstructs[n].append(*c)) ++duplicates;
    }
  }
  out.check(duplicates == 0,
            std::to_string(duplicates) + " duplicate deliveries");
  const m2::core::ConsistencyReport audit =
      m2::core::check_pairwise_consistency(cstructs);
  out.check(audit.ok, "consistency audit: " + audit.violation);
  std::uint64_t missing = 0;
  for (const std::uint64_t id : committed)
    for (const auto& cs : cstructs)
      if (!cs.contains(m2::core::CommandId{id})) ++missing;
  out.check(missing == 0, std::to_string(missing) +
                              " (command, node) pairs committed but not "
                              "delivered");
}

void m2paxos_layer_metrics(const m2::stats::MetricsRegistry& reg,
                           Metrics& out) {
  using m2::stats::Counter;
  const auto c = [&](Counter k) {
    return static_cast<double>(reg.counter(k));
  };
  const double fast = c(Counter::kCommittedFast);
  const double slow = c(Counter::kCommittedSlow);
  const double committed = fast + slow + c(Counter::kCommittedForwarded);
  const auto per_cmd = [&](double v) {
    return committed > 0 ? v / committed : 0.0;
  };
  const double acq = c(Counter::kAcquisitions);
  out.set("m2paxos.fast_share", per_cmd(fast), "ratio");
  out.set("m2paxos.fwd_per_cmd", per_cmd(c(Counter::kForwarded)), "count");
  out.set("m2paxos.acq_per_cmd", per_cmd(acq), "count");
  out.set("m2paxos.acq_yield", acq > 0 ? slow / acq : 0.0, "ratio");
  out.set("m2paxos.timeouts_per_cmd", per_cmd(c(Counter::kTimeouts)),
          "count");
  out.set("m2paxos.retries_per_cmd", per_cmd(c(Counter::kRetries)), "count");
  out.set("m2paxos.nacks_per_cmd",
          per_cmd(c(Counter::kAcceptNacks) + c(Counter::kPrepareNacks)),
          "count");
  out.set("m2paxos.repairs_per_cmd", per_cmd(c(Counter::kRepairRounds)),
          "count");
  out.set("m2paxos.batch_occupancy_p50",
          static_cast<double>(
              reg.histogram(m2::stats::Histo::kBatchOccupancy).median()),
          "count");
  out.set("m2paxos.sync_slots_learned", c(Counter::kSyncSlotsLearned),
          "count");
}

Time covered(Interval parent, std::vector<Interval> children) {
  for (auto& c : children) {
    c.start = std::max(c.start, parent.start);
    c.end = std::min(c.end, parent.end);
  }
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  Time total = 0;
  Time reach = parent.start;
  for (const auto& c : children) {
    if (c.length() == 0) continue;
    const Time from = std::max(c.start, reach);
    if (c.end > from) {
      total += c.end - from;
      reach = c.end;
    }
  }
  return total;
}

void SelfTimes::add(const CommandSpans& s) {
  // A boundary that was not observed (a batch member has no decision
  // callback of its own; a command whose proposer crashed has no commit
  // notification) collapses onto the next one.
  const Time committed = s.committed != 0 ? s.committed : s.delivered;
  const Time decided = s.decided_first != 0 ? s.decided_first : committed;
  const Interval issue{s.due, s.issued};
  const Interval call{s.call_start, s.issued};
  const Interval decide{s.issued, decided};
  const Interval commit{decided, committed};
  const Interval deliver{committed, s.delivered};
  driver += issue.length() - covered(issue, {call});
  runtime += call.length();
  m2paxos += decide.length();
  core += commit.length() + deliver.length();
  ++commands;
}

bool write_command_spans(const std::string& path,
                         const std::vector<CommandSpans>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "cmd_id,due_ns,propose_start_ns,propose_end_ns,"
               "decided_first_ns,decided_last_ns,committed_ns,"
               "delivered_ns\n");
  for (const auto& s : spans) {
    std::fprintf(f, "%llu,%lld,%lld,%lld,%lld,%lld,%lld,%lld\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<long long>(s.due),
                 static_cast<long long>(s.call_start),
                 static_cast<long long>(s.issued),
                 static_cast<long long>(s.decided_first),
                 static_cast<long long>(s.decided_last),
                 static_cast<long long>(s.committed),
                 static_cast<long long>(s.delivered));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
