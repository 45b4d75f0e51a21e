// Per-layer probes: timed calls into each module's public functions, made
// from here on the workload's own inputs.  Nothing is timed inside src/.
#include <cstdio>
#include <filesystem>
#include <sstream>

#include "gcad/journal.hpp"
#include "gcad/protocol.hpp"
#include "graph/io.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/// Times `call` and records it as a span under `parent`.
template <typename F>
double timed(SpanLog& spans, const char* name, std::uint64_t parent, F&& call) {
  const Clock::time_point start = Clock::now();
  call();
  const Clock::time_point end = Clock::now();
  spans.add(name, start, end, parent);
  return ms_between(start, end);
}

}  // namespace

void request_probes(const RunConfig& cfg, const std::vector<Sample>& pool,
                    SpanLog& spans, Ledger& ledger, Metrics& layers) {
  namespace gcad = gcalib::gcad;
  const gcalib::core::Runner runner{gcalib::core::RunnerOptions{}};
  std::vector<double> json_ms, request_ms, encode_ms, copy_ms, csr_ms, solve_ms, kb;
  std::vector<gcad::JournalEntry> entries;
  for (const Sample& sample : pool) {
    const std::string line = "{\"id\":1,\"op\":\"solve\",\"client\":\"c0\"," + sample.body;
    kb.push_back(static_cast<double>(line.size()) / 1024.0);
    const std::uint64_t parent = spans.open("probe.request");
    gcad::Json doc;
    gcad::Request request;
    json_ms.push_back(timed(spans, "gcad.parse_json", parent,
                            [&] { (void)gcad::parse_json(line, doc); }));
    gcalib::Status status;
    request_ms.push_back(timed(spans, "gcad.parse_request", parent,
                               [&] { status = gcad::parse_request(line, request); }));
    if (!status.ok() || request.graph.node_count() != sample.graph.n ||
        request.graph.edge_count() != sample.graph.edges.size()) {
      ledger.mismatch("parse_request probe");
      spans.close(parent);
      continue;
    }
    gcalib::graph::Graph copy;
    copy_ms.push_back(timed(spans, "graph.Graph.copy", parent, [&] { copy = request.graph; }));
    csr_ms.push_back(timed(spans, "graph.CsrGraph.from_graph", parent, [&] {
      (void)gcalib::graph::CsrGraph::from_graph(request.graph);
    }));
    gcalib::core::QueryOutcome outcome;
    solve_ms.push_back(timed(spans, "core.runner.try_solve", parent,
                             [&] { outcome = runner.try_solve(request.graph); }));
    if (!outcome.ok() || outcome.result.labels != sample.expected) {
      ledger.mismatch("Runner probe labels");
    }
    gcad::DoneReply reply;
    reply.id = 1;
    reply.labels = outcome.result.labels;
    reply.components = outcome.result.components;
    encode_ms.push_back(timed(spans, "gcad.encode_done", parent,
                              [&] { (void)gcad::encode_done(reply); }));
    if (entries.size() < 4) {
      gcad::JournalEntry entry;
      entry.id = entries.size() + 1;
      entry.client = "c0";
      entry.graph = std::move(copy);
      entries.push_back(std::move(entry));
    }
    spans.close(parent);
  }
  layers.emplace_back("gcad.protocol.parse_json_ms", median(json_ms));
  layers.emplace_back("gcad.protocol.parse_request_ms", median(request_ms));
  layers.emplace_back("gcad.protocol.encode_done_ms", median(encode_ms));
  layers.emplace_back("gcad.protocol.request_kb", median(kb));
  layers.emplace_back("graph.copy_ms", median(copy_ms));
  layers.emplace_back("graph.from_graph_ms", median(csr_ms));
  layers.emplace_back("core.runner.solve_ms", median(solve_ms));

  // One journal rewrite holding four pending entries of the workload's size.
  const std::string path = cfg.workdir + "/probe.gcqj";
  std::vector<double> save_ms;
  for (int i = 0; i < 9; ++i) {
    gcalib::Status status;
    save_ms.push_back(timed(spans, "gcad.save_journal_file", 0,
                            [&] { status = gcad::save_journal_file(path, entries); }));
    if (!status.ok()) ledger.mismatch("save_journal_file probe");
  }
  std::filesystem::remove(path);
  layers.emplace_back("gcad.journal.save_ms", median(save_ms));
}

void sparse_probes(const RunConfig& cfg, const gcalib::graph::CsrGraph& csr,
                   const Labels& expected, const std::vector<double>& rounds_sync,
                   const std::vector<double>& solve_mt, const std::vector<double>& rounds_async,
                   const std::string& edge_file,
                   NodeId file_n, SpanLog& spans, Ledger& ledger, Metrics& layers) {
  layers.emplace_back("core.sparse.solve_mt_ms", median(solve_mt));
  layers.emplace_back("core.sparse.rounds_sync", median(rounds_sync));
  layers.emplace_back("core.sparse.rounds_async_median", median(rounds_async));
  layers.emplace_back("core.sparse.rounds_async_min", quantile(rounds_async, 0.0));
  layers.emplace_back("core.sparse.rounds_async_max", quantile(rounds_async, 1.0));
  // The synchronous reference at full width, next to the async default.
  gcalib::core::RunnerOptions options;
  options.threads = cfg.nproc;
  options.sparse_mode = gcalib::gca::SparseMode::kSync;
  const gcalib::core::Runner runner(options);
  std::vector<double> sync_ms;
  for (int i = 0; i < 3; ++i) {
    std::size_t rounds = 0;
    Ledger probe;
    const std::uint64_t id = spans.open("core.runner.try_solve.sync_mt");
    const double ms = csr_solve_checked(runner, csr, expected, probe, rounds);
    spans.close(id);
    if (ms < 0) ledger.mismatch("sync_mt probe");
    sync_ms.push_back(ms);
  }
  layers.emplace_back("core.sparse.sync_mt_ms", median(sync_ms));

  // The fault the workloads' inputs avoid (see README): a 4096-vertex path
  // with randomly permuted ids, the same for every seed, solved at one
  // thread (sync) and at nproc threads (async).  Counts the solves that do
  // not converge.
  Rng fixed(4096);
  const EdgeGraph permuted = shuffled(path(4096), fixed);
  const gcalib::graph::CsrGraph permuted_csr = to_csr(permuted);
  const Labels permuted_expected = min_id_labels(permuted);
  double permuted_failed = 0;
  for (const unsigned threads : {1u, cfg.nproc}) {
    gcalib::core::RunnerOptions width;
    width.threads = threads;
    std::size_t rounds = 0;
    Ledger probe;
    if (csr_solve_checked(gcalib::core::Runner(width), permuted_csr, permuted_expected, probe,
                          rounds) < 0) {
      permuted_failed += 1;
    }
  }
  layers.emplace_back("core.sparse.permuted_path_failed", permuted_failed);

  const std::string text = read_file(edge_file);
  std::vector<double> read_ms;
  for (int i = 0; i < 3; ++i) {
    std::istringstream in(text);
    gcalib::graph::NodeId n = 0;
    read_ms.push_back(timed(spans, "graph.read_edge_list", 0, [&] {
      n = gcalib::graph::read_edge_list(in).node_count();
    }));
    if (n != file_n) ledger.mismatch("read_edge_list probe");
  }
  layers.emplace_back("graph.read_edge_list_ms", median(read_ms));
}

double dense_checks(const RunConfig& cfg, Ledger& ledger, SpanLog& spans,
                    LabelTimes& trace, Metrics& layers) {
  constexpr int kSolves = 5;
  gcalib::core::RunnerOptions options;
  options.substrate = gcalib::gca::SubstrateMode::kDense;
  if (cfg.trace) options.sink = &trace;
  const gcalib::core::Runner runner(options);
  for (const NodeId n : {NodeId{64}, NodeId{128}, NodeId{256}}) {
    const EdgeGraph eg = dense_probe(n, cfg.seed);
    const gcalib::graph::Graph g = to_graph(eg);
    const Labels expected = min_id_labels(eg);
    const std::uint64_t cells_before = cfg.trace ? trace.cells_swept() : 0;
    std::vector<double> solve_ms;
    std::size_t generations = 0;
    for (int i = 0; i < kSolves; ++i) {
      gcalib::core::QueryOutcome outcome;
      solve_ms.push_back(timed(spans, "core.runner.try_solve.dense", 0,
                               [&] { outcome = runner.try_solve(g); }));
      generations = outcome.result.generations;
      if (!outcome.ok() || outcome.result.labels != expected) {
        ledger.mismatch("dense field labels differ from the oracle");
      }
      if (generations != paper_generations(n)) {
        ledger.mismatch("dense generation count differs from 1 + L(3L+8)");
      }
    }
    if (!cfg.trace) continue;
    const std::string suffix = ".n" + std::to_string(n);
    layers.emplace_back("core.dense.solve_ms" + suffix, median(solve_ms));
    layers.emplace_back("core.dense.generations" + suffix, static_cast<double>(generations));
    layers.emplace_back("gca.cells_swept" + suffix,
                        static_cast<double>(trace.cells_swept() - cells_before) / kSolves);
  }
  return 3 * kSolves;
}

}  // namespace perfbench
