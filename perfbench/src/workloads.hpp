// The three workloads and the pieces they share.
#pragma once

#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "core/runner.hpp"
#include "gca/metrics.hpp"
#include "graph/csr_graph.hpp"
#include "inputs.hpp"

namespace perfbench {

/// Everything a workload hands back besides the operation ledger.
struct WorkloadOutput {
  Metrics end_to_end;
  Metrics per_layer;
};

/// The trace labels the solvers emit, with round and sub-generation
/// numbers stripped (dense generations, then the sparse round phases).
inline const char* const kTraceLabels[] = {
    "gen0_init",         "gen1_copy-C-to-rows", "gen2_mask-neighbors",
    "gen3_row-min",      "gen4_fallback-C",     "gen5_copy-T-to-rows",
    "gen6_mask-members", "gen7_row-min",        "gen8_fallback-C",
    "gen9_adopt",        "gen10_pointer-jump",  "gen11_final-min",
    "hook",              "jump",                "cas-hook",
    "cas-hook-frontier", "shortcut",            "other"};

/// The library's gca::Trace sink, summarised and cleared every few thousand
/// steps so a long traced run keeps bounded memory.  Self time per label
/// comes from Trace::summary(); steps do not nest, so self time is the
/// label's summed step time.
class LabelTimes : public gcalib::gca::Trace {
 public:
  void on_step(const gcalib::gca::GenerationStats& stats) override;
  /// Summed milliseconds per normalised label, and cells swept.
  [[nodiscard]] std::map<std::string, double> totals_ms();
  [[nodiscard]] std::uint64_t cells_swept();

 private:
  void drain_locked();
  std::mutex mutex_;
  std::map<std::string, double> totals_ms_;
  std::uint64_t cells_swept_ = 0;
};

/// Adds gca.trace.<label>_ms for every known label: milliseconds per solve
/// of the sink that saw the label (each sink with its solve count; the
/// substrates emit disjoint labels).
void add_trace_metrics(const std::vector<std::pair<LabelTimes*, double>>& sinks,
                       Metrics& out);

/// One labeling through core::Runner on a CSR graph, checked against the
/// oracle.  Returns the wall time in ms, or a negative value on failure.
double csr_solve_checked(const gcalib::core::Runner& runner,
                         const gcalib::graph::CsrGraph& g, const Labels& expected,
                         Ledger& ledger, std::size_t& rounds);

/// One gca_cc_tool run on an edge-list file, its labels read back from
/// stdout and checked.  Returns false when the run failed.
bool tool_checked(ToolLauncher& tools, const RunConfig& cfg, const std::string& file,
                  NodeId n, const Labels& expected, Ledger& ledger,
                  ToolLauncher::Result& result);

[[nodiscard]] gcalib::graph::CsrGraph to_csr(const EdgeGraph& g);

/// The dense-field check every run makes: five paper-field solves per
/// n in {64, 128, 256}, whose labels and generation counts are checked.
/// With tracing on it also times them (core.dense.*, gca.cells_swept) and
/// feeds `trace`.  Returns the number of solves.
double dense_checks(const RunConfig& cfg, Ledger& ledger, SpanLog& spans,
                    LabelTimes& trace, Metrics& layers);

/// The per-layer probes of the gcad protocol, graph and journal layers on
/// the request pool of the service workload.
void request_probes(const RunConfig& cfg, const std::vector<Sample>& pool,
                    SpanLog& spans, Ledger& ledger, Metrics& layers);

/// The sparse-engine and file-reader probes: nproc-thread solve times and
/// round counts gathered by the caller, the synchronous engine at nproc
/// threads on `csr`, and graph::read_edge_list on `edge_file`.
void sparse_probes(const RunConfig& cfg, const gcalib::graph::CsrGraph& csr,
                   const Labels& expected, const std::vector<double>& rounds_sync,
                   const std::vector<double>& solve_mt, const std::vector<double>& rounds_async,
                   const std::string& edge_file,
                   NodeId file_n, SpanLog& spans, Ledger& ledger, Metrics& layers);

void run_service(const RunConfig& cfg, Ledger& ledger, SpanLog& spans,
                 ToolLauncher& tools, WorkloadOutput& out);
void run_offline(const RunConfig& cfg, Ledger& ledger, SpanLog& spans,
                 ToolLauncher& tools, WorkloadOutput& out);

}  // namespace perfbench
