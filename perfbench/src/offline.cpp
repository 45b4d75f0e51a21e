// offline_bulk: no service layer.  One bulk CSR solved alternately at one
// thread and at nproc threads through core::Runner, with gca_cc_tool runs
// on a 16k-vertex edge-list file and on the bulk graph's file in between.
#include <cstdio>
#include <memory>

#include "workloads.hpp"

namespace perfbench {

void run_offline(const RunConfig& cfg, Ledger& ledger, SpanLog& spans,
                 ToolLauncher& tools, WorkloadOutput& out) {
  const EdgeGraph bulk = bulk_graph(cfg.seed);
  const Labels bulk_expected = min_id_labels(bulk);
  const EdgeGraph small = mixed_16k(cfg.seed);
  const Labels small_expected = min_id_labels(small);
  const std::string small_file = cfg.workdir + "/mixed16k.edges";
  const std::string bulk_file = cfg.workdir + "/bulk.edges";
  write_file(small_file, edge_list_text(small));
  write_file(bulk_file, edge_list_text(bulk));
  std::printf("# bulk graph: n=%u m=%zu; tool file: n=%u m=%zu\n", bulk.n,
              bulk.edges.size(), small.n, small.edges.size());

  LabelTimes dense_trace;
  const double dense_solves = dense_checks(cfg, ledger, spans, dense_trace, out.per_layer);

  LabelTimes trace_1t;
  LabelTimes trace_mt;
  gcalib::core::RunnerOptions one;
  gcalib::core::RunnerOptions many;
  many.threads = cfg.nproc;
  if (cfg.trace) {
    one.sink = &trace_1t;
    many.sink = &trace_mt;
  }

  // --- set-up: bulk CSR built and both Runners constructed ---------------
  std::vector<double> setup_s;
  std::vector<double> build_ms;
  gcalib::graph::CsrGraph csr;
  std::unique_ptr<gcalib::core::Runner> runner_1t;
  std::unique_ptr<gcalib::core::Runner> runner_mt;
  for (int rep = 0; rep < 3; ++rep) {
    // Released first, so each build starts from the same memory state.
    runner_1t.reset();
    runner_mt.reset();
    csr = gcalib::graph::CsrGraph();
    const Clock::time_point start = Clock::now();
    csr = to_csr(bulk);
    const Clock::time_point built = Clock::now();
    runner_1t = std::make_unique<gcalib::core::Runner>(one);
    runner_mt = std::make_unique<gcalib::core::Runner>(many);
    setup_s.push_back(ms_between(start, Clock::now()) / 1000.0);
    build_ms.push_back(ms_between(start, built));
    spans.add("graph.CsrGraph.from_edges", start, built);
  }

  // --- the loop: whole rounds of five operations --------------------------
  std::vector<double> solve_1t, solve_mt, tool_ms, labeling_ms, rounds_sync, rounds_async;
  double tool_rss = 0.0;
  std::size_t labelings = 0;
  const Clock::time_point loop_start = Clock::now();
  const Clock::time_point loop_end =
      loop_start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(cfg.seconds));
  while (labelings == 0 || Clock::now() < loop_end) {
    const std::uint64_t round_span = spans.open("offline.round");
    const auto solve = [&](const gcalib::core::Runner& runner, const char* name,
                           std::vector<double>& times, std::vector<double>& rounds) {
      std::size_t count = 0;
      ++ledger.attempted;
      const Clock::time_point start = Clock::now();
      const double ms = csr_solve_checked(runner, csr, bulk_expected, ledger, count);
      spans.add(name, start, Clock::now(), round_span);
      if (ms < 0) return;
      times.push_back(ms);
      labeling_ms.push_back(ms);
      rounds.push_back(static_cast<double>(count));
      ++labelings;
    };
    const auto tool_small = [&] {
      ToolLauncher::Result result;
      ++ledger.attempted;
      const Clock::time_point start = Clock::now();
      const bool ok = tool_checked(tools, cfg, small_file, small.n, small_expected, ledger, result);
      spans.add("gca_cc_tool.mixed16k", start, Clock::now(), round_span);
      if (!ok) return;
      tool_ms.push_back(result.elapsed_ms);
      labeling_ms.push_back(result.elapsed_ms);
      tool_rss = std::max(tool_rss, result.peak_rss_mib);
      ++labelings;
    };
    solve(*runner_1t, "core.runner.try_solve.1t", solve_1t, rounds_sync);
    tool_small();
    solve(*runner_mt, "core.runner.try_solve.mt", solve_mt, rounds_async);
    tool_small();
    // The bulk file through the CLI: fails today with std::bad_alloc, since
    // graph::read_edge_list builds a dense n x n AdjacencyMatrix.
    ToolLauncher::Result result;
    ++ledger.attempted;
    const Clock::time_point start = Clock::now();
    if (tool_checked(tools, cfg, bulk_file, bulk.n, bulk_expected, ledger, result)) {
      labeling_ms.push_back(result.elapsed_ms);
      ++labelings;
    }
    spans.add("gca_cc_tool.bulk", start, Clock::now(), round_span);
    spans.close(round_span);
  }
  const double loop_s = ms_between(loop_start, Clock::now()) / 1000.0;

  out.end_to_end.emplace_back("setup_s", median(setup_s));
  out.end_to_end.emplace_back("throughput_qps", static_cast<double>(labelings) / loop_s);
  out.end_to_end.emplace_back("latency_p50_ms", quantile(labeling_ms, 0.5));
  out.end_to_end.emplace_back("latency_p90_ms", quantile(labeling_ms, 0.9));
  out.end_to_end.emplace_back("csr_solve_1t_ms", median(solve_1t));
  out.end_to_end.emplace_back("file_to_labels_ms", median(tool_ms));
  out.end_to_end.emplace_back("cli_peak_rss_mb", tool_rss);
  std::printf("# offline loop: %zu solves at 1 thread, %zu at %u threads, %zu tool runs\n",
              solve_1t.size(), solve_mt.size(), cfg.nproc, tool_ms.size());

  if (!cfg.trace) return;
  Metrics& layers = out.per_layer;
  // The service layers are not on this workload's path.
  for (const char* name :
       {"gcad.server.accept_ms", "gcad.server.service_ms", "gcad.server.done_before_accepted",
        "gcad.server.batch_size",
        "gcad.journal.writes_per_query", "gcad.journal.bytes_per_query",
        "gcad.journal.write_amplification", "gcad.journal.save_ms",
        "gcad.protocol.parse_json_ms", "gcad.protocol.parse_request_ms",
        "gcad.protocol.encode_done_ms", "gcad.protocol.request_kb", "graph.copy_ms",
        "graph.from_graph_ms", "core.runner.solve_ms"}) {
    layers.emplace_back(name, 0.0);
  }
  sparse_probes(cfg, csr, bulk_expected, rounds_sync, solve_mt, rounds_async, small_file,
                small.n, spans,
                ledger, layers);
  layers.emplace_back("graph.csr_from_edges_ms", median(build_ms));
  add_trace_metrics({{&trace_1t, static_cast<double>(solve_1t.size())},
                     {&trace_mt, static_cast<double>(solve_mt.size())},
                     {&dense_trace, dense_solves}},
                    layers);
}

}  // namespace perfbench
