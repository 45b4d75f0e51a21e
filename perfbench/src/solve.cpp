// Pieces the workloads share: the trace-label sink, and the checked
// labeling operations through core::Runner and gca_cc_tool.
#include "workloads.hpp"

namespace perfbench {

namespace {

std::string normalise_label(const std::string& label) {
  std::string out = label.substr(0, label.find('#'));
  const std::size_t sub = out.find(".sub");
  if (sub != std::string::npos) out.resize(sub);
  for (char& c : out) {
    if (c == ':') c = '_';
  }
  for (const char* known : kTraceLabels) {
    if (out == known) return out;
  }
  return "other";
}

}  // namespace

void LabelTimes::on_step(const gcalib::gca::GenerationStats& stats) {
  // Every step passes this lock, so no step lands between the summary and
  // the clear below.
  std::lock_guard<std::mutex> lock(mutex_);
  Trace::on_step(stats);
  if (size() >= 4096) drain_locked();
}

void LabelTimes::drain_locked() {
  for (const gcalib::gca::LabelSummary& s : summary().by_label) {
    totals_ms_[normalise_label(s.label)] += static_cast<double>(s.total_ns) / 1e6;
  }
  for (const gcalib::gca::GenerationStats& step : steps()) {
    if (step.label.rfind("gen", 0) == 0) cells_swept_ += step.cells_swept;
  }
  clear();
}

std::map<std::string, double> LabelTimes::totals_ms() {
  std::lock_guard<std::mutex> lock(mutex_);
  drain_locked();
  return totals_ms_;
}

std::uint64_t LabelTimes::cells_swept() {
  std::lock_guard<std::mutex> lock(mutex_);
  drain_locked();
  return cells_swept_;
}

void add_trace_metrics(const std::vector<std::pair<LabelTimes*, double>>& sinks,
                       Metrics& out) {
  std::map<std::string, double> per_solve;
  for (const auto& [sink, solves] : sinks) {
    if (solves <= 0) continue;
    for (const auto& [label, ms] : sink->totals_ms()) per_solve[label] += ms / solves;
  }
  for (const char* label : kTraceLabels) {
    out.emplace_back(std::string("gca.trace.") + label + "_ms", per_solve[label]);
  }
}

gcalib::graph::CsrGraph to_csr(const EdgeGraph& g) {
  return gcalib::graph::CsrGraph::from_edges(g.n, g.edges);
}

double csr_solve_checked(const gcalib::core::Runner& runner,
                         const gcalib::graph::CsrGraph& g, const Labels& expected,
                         Ledger& ledger, std::size_t& rounds) {
  const Clock::time_point start = Clock::now();
  const gcalib::core::QueryOutcome outcome = runner.try_solve(g);
  const double ms = ms_between(start, Clock::now());
  if (!outcome.ok()) {
    ledger.fail("Runner::try_solve " + std::string(gcalib::to_string(outcome.status.code)));
    return -1.0;
  }
  if (outcome.result.labels != expected) {
    ledger.wrong("Runner labels differ from the oracle");
    return -1.0;
  }
  rounds = outcome.result.generations;
  return ms;
}

bool tool_checked(ToolLauncher& tools, const RunConfig& cfg, const std::string& file,
                  NodeId n, const Labels& expected, Ledger& ledger,
                  ToolLauncher::Result& result) {
  const std::string out = cfg.workdir + "/tool.out";
  const std::string err = cfg.workdir + "/tool.err";
  result = tools.run({cfg.tool, "--format", "edges", file}, out, err);
  if (result.exit_code != 0) {
    const std::string message = read_file(err);
    ledger.fail("gca_cc_tool exit " + std::to_string(result.exit_code) + ": " +
                message.substr(0, message.find('\n')));
    return false;
  }
  Labels labels;
  if (!parse_tool_labels(read_file(out), n, labels) || labels != expected) {
    ledger.wrong("gca_cc_tool labels differ from the oracle");
    return false;
  }
  return true;
}

}  // namespace perfbench
