// svc_sparse_journal: gcad::Server::serve over in-memory streams, journal
// on, driven by one generator thread as a closed loop of four outstanding
// requests from clients c0-c3.
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <istream>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <thread>

#include "core/cc_solver.hpp"
#include "gcad/server.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using gcalib::gcad::Server;
using gcalib::gcad::ServerOptions;

constexpr int kOutstanding = 4;
constexpr unsigned kLanes = 2;
constexpr std::size_t kPoolSize = 96;
constexpr int kSetupRepeats = 11;
/// Request ids of the set-up solves, apart from the loop's ids 1, 2, ...
constexpr std::uint64_t kSetupIds = std::uint64_t{1} << 40;
constexpr auto kReplyTimeout = std::chrono::seconds(60);

/// The server's input: whole request lines pushed by the generator,
/// handed to `serve`'s getline as they arrive; EOF after `close`.
class InputPipe : public std::streambuf {
 public:
  void push(std::string line) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      lines_.push_back(std::move(line));
    }
    cv_.notify_one();
  }
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    cv_.notify_one();
  }

 protected:
  int_type underflow() override {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return !lines_.empty() || closed_; });
    if (lines_.empty()) return traits_type::eof();
    current_ = std::move(lines_.front());
    lines_.pop_front();
    setg(current_.data(), current_.data(), current_.data() + current_.size());
    return traits_type::to_int_type(current_.front());
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::string> lines_;
  bool closed_ = false;
  std::string current_;  ///< read by serve's thread only
};

/// The server's output: each reply line is stamped when its newline
/// arrives and queued for the generator.
class ReplyPipe : public std::streambuf {
 public:
  bool pop(std::string& line, Clock::time_point& at) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!cv_.wait_for(lock, kReplyTimeout, [&] { return !lines_.empty(); })) return false;
    line = std::move(lines_.front().first);
    at = lines_.front().second;
    lines_.pop_front();
    return true;
  }

 protected:
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof())) {
      const char ch = traits_type::to_char_type(c);
      xsputn(&ch, 1);
    }
    return traits_type::not_eof(c);
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    for (std::streamsize i = 0; i < n; ++i) {
      if (s[i] != '\n') {
        partial_ += s[i];
        continue;
      }
      const Clock::time_point now = Clock::now();
      {
        std::lock_guard<std::mutex> lock(mutex_);
        lines_.emplace_back(std::move(partial_), now);
      }
      partial_.clear();
      cv_.notify_one();
    }
    return n;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::pair<std::string, Clock::time_point>> lines_;
  std::string partial_;  ///< written under the server's output mutex
};

/// One server instance serving on its own thread.
class Harness {
 public:
  explicit Harness(const ServerOptions& options) : server_(options) {
    thread_ = std::thread([this] { exit_code_ = server_.serve(in_, out_); });
  }
  ~Harness() { stop(); }
  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  void push(std::string line) { input_.push(std::move(line)); }
  bool pop(std::string& line, Clock::time_point& at) { return replies_.pop(line, at); }
  /// Waits for the first reply with this event; false on timeout.
  bool await(const std::string& event, std::string& line) {
    Clock::time_point at;
    while (pop(line, at)) {
      if (json_str(line, "event") == event) return true;
    }
    return false;
  }
  /// Ends input and waits for serve to drain and return its exit code.
  int stop() {
    input_.close();
    if (thread_.joinable()) thread_.join();
    return exit_code_;
  }

 private:
  InputPipe input_;
  ReplyPipe replies_;
  std::istream in_{&input_};
  std::ostream out_{&replies_};
  Server server_;
  int exit_code_ = -1;
  std::thread thread_;  ///< declared last: joins before the rest is destroyed
};

struct StatsReply {
  std::uint64_t accepted = 0, completed_ok = 0, batches = 0, journal_writes = 0;
  std::uint64_t refused = 0;  ///< rejected, shed, expired or failed
};

StatsReply read_stats(const std::string& line, Ledger& ledger) {
  StatsReply c;
  bool ok = json_uint(line, "accepted", c.accepted) &&
            json_uint(line, "completed_ok", c.completed_ok) &&
            json_uint(line, "batches", c.batches) &&
            json_uint(line, "journal_writes", c.journal_writes);
  for (const char* key : {"rejected_queue_full", "rejected_deadline", "rejected_draining",
                          "shed_overload", "expired", "failed"}) {
    std::uint64_t v = 0;
    ok = ok && json_uint(line, key, v);
    c.refused += v;
  }
  if (!ok) ledger.mismatch("stats reply is missing a counter");
  return c;
}

}  // namespace

void run_service(const RunConfig& cfg, Ledger& ledger, SpanLog& spans,
                 ToolLauncher& tools, WorkloadOutput& out) {
  const std::vector<Sample> pool = sparse_requests(cfg.seed, kPoolSize);
  // Routing is part of the workload's definition: every request must land
  // on the CSR engine, at batch width 1 and at the server's lane count.
  for (const Sample& s : pool) {
    for (unsigned threads : {1u, kLanes}) {
      if (gcalib::core::resolve_substrate(gcalib::gca::SubstrateMode::kAuto, s.graph.n,
                                          s.graph.edges.size(),
                                          threads) != gcalib::gca::SubstrateMode::kSparseCsr) {
        throw std::runtime_error("a request does not route to the CSR engine");
      }
    }
  }

  LabelTimes dense_trace;
  const double dense_solves = dense_checks(cfg, ledger, spans, dense_trace, out.per_layer);

  LabelTimes label_times;
  ServerOptions options;
  options.threads = kLanes;
  options.journal_path = cfg.workdir + "/svc.gcqj";
  if (cfg.trace) options.sink = &label_times;

  // --- set-up: server built, first ping and first solve answered ---------
  // A ping alone is answered in tens of microseconds, below what this host
  // times steadily; the first solve also carries the server's cold start.
  std::vector<double> setup_s;
  std::unique_ptr<Harness> harness;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    if (harness) {
      if (harness->stop() != 0) ledger.mismatch("serve exit code");
      harness.reset();
    }
    const Clock::time_point start = Clock::now();
    harness = std::make_unique<Harness>(options);
    harness->push("{\"id\":0,\"op\":\"ping\"}\n");
    std::string line;
    if (!harness->await("pong", line)) throw std::runtime_error("no pong from gcad");
    // The same request every time, one of fixed size: the 64 x 64 grid.
    const Sample& first = pool[1];
    harness->push("{\"id\":" + std::to_string(kSetupIds + static_cast<std::uint64_t>(rep)) +
                  ",\"op\":\"solve\"," + first.body + "\n");
    // Both replies are consumed here: the `accepted` may trail the `done`
    // (see ReplyLedger) and must not reach the loop's ledger.
    std::string done_line;
    Clock::time_point at;
    bool accepted = false;
    while (done_line.empty() || !accepted) {
      if (!harness->pop(line, at)) throw std::runtime_error("no reply from gcad");
      const std::string event = json_str(line, "event");
      if (event == "accepted") accepted = true;
      if (event == "done") {
        done_line = line;
        setup_s.push_back(ms_between(start, at) / 1000.0);
      }
    }
    Labels labels;
    if (!json_uint_array(done_line, "labels", labels) || labels != first.expected) {
      ledger.mismatch("set-up solve labels differ from the oracle");
    }
  }

  // --- the closed loop -----------------------------------------------------
  std::vector<std::size_t> order(pool.size());
  {
    Rng rng(cfg.seed ^ 0xC105ED100Full);
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size(); i > 1; --i) std::swap(order[i - 1], order[rng.below(i)]);
  }
  ReplyLedger replies(ledger);
  std::uint64_t next_id = 1;
  std::size_t request_bytes = 0;
  const auto send = [&](int slot) {
    const std::uint64_t id = next_id++;
    const Sample& sample = pool[order[(id - 1) % order.size()]];
    std::string line = "{\"id\":" + std::to_string(id) + ",\"op\":\"solve\",\"client\":\"c" +
                       std::to_string(slot) + "\"," + sample.body + "\n";
    request_bytes += line.size();
    replies.sent(id, &sample.expected, slot, Clock::now());
    harness->push(std::move(line));
  };

  const std::uint64_t written_before = bytes_written();
  const Clock::time_point loop_start = Clock::now();
  const Clock::time_point loop_end =
      loop_start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(cfg.seconds * 0.7));
  for (int slot = 0; slot < kOutstanding; ++slot) send(slot);
  std::string line;
  Clock::time_point at;
  while (replies.outstanding() > 0 && harness->pop(line, at)) {
    const ReplyLedger::Reply reply = replies.on_line(line, at);
    if (reply.finished && at < loop_end) send(reply.slot);
  }
  replies.finish();
  const std::uint64_t written = bytes_written() - written_before;
  const std::uint64_t sent = next_id - 1;
  const Clock::time_point last_done =
      replies.completed.empty() ? Clock::now() : replies.completed.back().done;

  harness->push("{\"id\":" + std::to_string(next_id) + ",\"op\":\"stats\"}\n");
  if (!harness->await("stats", line)) throw std::runtime_error("no stats reply from gcad");
  const StatsReply counters = read_stats(line, ledger);
  // The loop's server also answered its own set-up solve.
  if (counters.accepted != sent + 1 || counters.completed_ok != sent + 1 ||
      counters.refused != 0) {
    ledger.mismatch("stats counters: accepted = completed_ok = sent does not hold");
  }
  if (harness->stop() != 0) ledger.mismatch("serve exit code");
  harness.reset();

  std::vector<double> latency, accept, service;
  for (const ReplyLedger::Times& t : replies.completed) {
    latency.push_back(ms_between(t.push, t.done));
    const std::uint64_t span = spans.add("request", t.push, t.done, 0, t.id);
    if (!t.accepted) continue;
    accept.push_back(ms_between(t.push, *t.accepted));
    service.push_back(ms_between(*t.accepted, t.done));
    spans.add("gcad.intake", t.push, *t.accepted, span, t.id);
    spans.add("gcad.service", *t.accepted, t.done, span, t.id);
  }
  const double done = static_cast<double>(replies.completed.size());
  out.end_to_end.emplace_back("setup_s", median(setup_s));
  out.end_to_end.emplace_back("throughput_qps",
                              done / (ms_between(loop_start, last_done) / 1000.0));
  out.end_to_end.emplace_back("latency_p50_ms", quantile(latency, 0.5));
  out.end_to_end.emplace_back("latency_p90_ms", quantile(latency, 0.9));
  std::printf("# service loop: %zu sent, %zu done, %llu batches\n",
              static_cast<std::size_t>(sent), replies.completed.size(),
              static_cast<unsigned long long>(counters.batches));

  // --- the same inputs through the offline entry points ---------------------
  // A pass labels every request graph of the pool as its own CsrGraph, one
  // after another, at one thread (the pass time is the sum of the solves).
  // The traced run also solves five copies of the pool as one CsrGraph at
  // nproc threads (core.sparse.solve_mt_ms): a dispatch per small graph, or
  // even one solve of the pool, times little but the waking of idle lanes,
  // which on this host varies from run to run.
  std::vector<gcalib::graph::CsrGraph> csrs;
  for (const Sample& sample : pool) csrs.push_back(to_csr(sample.graph));
  std::vector<EdgeGraph> parts;
  for (int copy = 0; cfg.trace && copy < 5; ++copy) {
    for (const Sample& sample : pool) parts.push_back(sample.graph);
  }
  const EdgeGraph all = disjoint_union(parts);
  const Labels all_expected = min_id_labels(all);
  const gcalib::graph::CsrGraph all_csr = to_csr(all);
  // The tool's file: the pool's first four requests (16384 vertices).
  parts.assign({pool[0].graph, pool[1].graph, pool[2].graph, pool[3].graph});
  const EdgeGraph file_graph = disjoint_union(parts);
  const Labels file_expected = min_id_labels(file_graph);
  const std::string file = cfg.workdir + "/requests.edges";
  write_file(file, edge_list_text(file_graph));

  gcalib::core::RunnerOptions one;
  one.substrate = gcalib::gca::SubstrateMode::kSparseCsr;
  gcalib::core::RunnerOptions many = one;
  many.threads = cfg.nproc;
  const gcalib::core::Runner runner_1t(one);
  const gcalib::core::Runner runner_mt(many);
  std::vector<double> solve_1t, solve_mt, tool_ms, rounds_sync, rounds_async;
  double tool_rss = 0.0;
  const Clock::time_point offline_end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(cfg.seconds * 0.3));
  for (int round = 0; round < 3 || Clock::now() < offline_end; ++round) {
    double pass_ms = 0.0;
    bool pass_ok = true;
    for (std::size_t i = 0; i < csrs.size(); ++i) {
      std::size_t rounds = 0;
      ++ledger.attempted;
      const double ms = csr_solve_checked(runner_1t, csrs[i], pool[i].expected, ledger, rounds);
      if (ms < 0) {
        pass_ok = false;
        continue;
      }
      pass_ms += ms;
      rounds_sync.push_back(static_cast<double>(rounds));
    }
    if (pass_ok) solve_1t.push_back(pass_ms);
    if (cfg.trace) {
      std::size_t rounds = 0;
      ++ledger.attempted;
      const double ms = csr_solve_checked(runner_mt, all_csr, all_expected, ledger, rounds);
      if (ms >= 0) {
        solve_mt.push_back(ms);
        rounds_async.push_back(static_cast<double>(rounds));
      }
    }
    ToolLauncher::Result result;
    ++ledger.attempted;
    if (tool_checked(tools, cfg, file, file_graph.n, file_expected, ledger, result)) {
      tool_ms.push_back(result.elapsed_ms);
      tool_rss = std::max(tool_rss, result.peak_rss_mib);
    }
  }
  out.end_to_end.emplace_back("csr_solve_1t_ms", median(solve_1t));
  out.end_to_end.emplace_back("file_to_labels_ms", median(tool_ms));
  out.end_to_end.emplace_back("cli_peak_rss_mb", tool_rss);

  if (!cfg.trace) return;

  // --- per-layer numbers (traced run only) ---------------------------------
  Metrics& layers = out.per_layer;
  std::uint64_t mean_request = sent == 0 ? 0 : request_bytes / sent;
  const auto per_query = static_cast<double>(counters.completed_ok);
  layers.emplace_back("gcad.server.accept_ms", median(accept));
  layers.emplace_back("gcad.server.service_ms", median(service));
  layers.emplace_back("gcad.server.done_before_accepted",
                      static_cast<double>(replies.done_before_accepted));
  layers.emplace_back("gcad.server.batch_size",
                      counters.batches == 0
                          ? 0.0
                          : per_query / static_cast<double>(counters.batches));
  const double writes =
      per_query == 0 ? 0.0 : static_cast<double>(counters.journal_writes) / per_query;
  const double bytes = per_query == 0 ? 0.0 : static_cast<double>(written) / per_query;
  layers.emplace_back("gcad.journal.writes_per_query", writes);
  layers.emplace_back("gcad.journal.bytes_per_query", bytes);
  layers.emplace_back("gcad.journal.write_amplification",
                      mean_request == 0 ? 0.0 : bytes / static_cast<double>(mean_request));
  request_probes(cfg, pool, spans, ledger, layers);

  sparse_probes(cfg, all_csr, all_expected, rounds_sync, solve_mt, rounds_async, file, file_graph.n,
                spans, ledger, layers);
  std::vector<double> build_ms;
  for (int i = 0; i < 3; ++i) {
    const Clock::time_point start = Clock::now();
    const gcalib::graph::CsrGraph built = to_csr(all);
    build_ms.push_back(ms_between(start, Clock::now()));
    spans.add("graph.CsrGraph.from_edges", start, Clock::now());
  }
  layers.emplace_back("graph.csr_from_edges_ms", median(build_ms));
  // The server's sink also saw the set-up solves.
  add_trace_metrics({{&label_times, done + kSetupRepeats}, {&dense_trace, dense_solves}},
                    layers);
}

}  // namespace perfbench
