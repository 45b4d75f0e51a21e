// perfbench — one run of one workload.  run.py builds this binary, runs it
// and turns its last line into the benchmark's result.
//
//   perfbench --workload svc_sparse_journal|offline_bulk
//             --seed N --seconds S --trace 0|1 --tool PATH --workdir DIR
//             [--spans PATH] [--source-id ID]
//
// The last line of stdout is one JSON object: correct, attempted, failed,
// failures by kind, the host record, end-to-end metrics and (traced runs)
// per-layer metrics.
#include <malloc.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "gca/kernel_registry.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string json_metrics(const Metrics& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].second);
    out += (i == 0 ? "\"" : ",\"") + metrics[i].first + "\":" + value;
  }
  return out + "}";
}

RunConfig parse_args(int argc, char** argv, std::string& source_id) {
  RunConfig cfg;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") cfg.workload = value;
    else if (key == "--seed") cfg.seed = std::stoull(value);
    else if (key == "--seconds") cfg.seconds = std::stod(value);
    else if (key == "--trace") cfg.trace = value == "1";
    else if (key == "--tool") cfg.tool = value;
    else if (key == "--workdir") cfg.workdir = value;
    else if (key == "--spans") cfg.spans_path = value;
    else if (key == "--source-id") source_id = value;
    else throw std::invalid_argument("unknown argument " + key);
  }
  if (argc % 2 == 0) throw std::invalid_argument("arguments come in --key value pairs");
  if (cfg.workload != "svc_sparse_journal" && cfg.workload != "offline_bulk") {
    throw std::invalid_argument("unknown workload \"" + cfg.workload + "\"");
  }
  if (cfg.tool.empty() || cfg.workdir.empty() || !(cfg.seconds > 0)) {
    throw std::invalid_argument("--tool, --workdir and a positive --seconds are required");
  }
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    std::string source_id = "unknown";
    RunConfig cfg = parse_args(argc, argv, source_id);
#ifndef NDEBUG
    throw std::runtime_error("refusing to report from a build with assertions on");
#endif
    if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
      throw std::runtime_error(std::string("refusing to report from a ") + PERFBENCH_BUILD_TYPE +
                               " build; the benchmark measures Release only");
    }
    // glibc raises its mmap threshold when a large block is freed, so whether
    // a request's 16 MiB adjacency matrix is a fresh mapping or recycled heap
    // depended on the run's allocation history: identical svc_sparse_journal
    // runs came out at 30 or at 51 requests/s.  A fixed threshold makes every
    // block above it a fresh mapping in every run.
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    // Forked before any large allocation or thread, so children it spawns
    // report their own peak RSS.
    ToolLauncher tools;
    cfg.nproc = affinity_threads();
    std::filesystem::create_directories(cfg.workdir);

    const std::string self_test = checker_self_test();
    if (!self_test.empty()) throw std::runtime_error("checker self-test failed: " + self_test);

    const std::string host =
        "{\"nproc\":" + std::to_string(cfg.nproc) + ",\"cpu\":\"" + json_escape(cpu_model()) +
        "\",\"compiler\":\"" + json_escape(PERFBENCH_COMPILER) + "\",\"build_type\":\"" +
        PERFBENCH_BUILD_TYPE + "\",\"source\":\"" + json_escape(source_id) +
        "\",\"kernels_auto\":\"" +
        gcalib::gca::to_string(
            gcalib::gca::resolve_kernel_variant(gcalib::gca::KernelVariant::kAuto)) +
        "\"}";
    std::printf("# host: %s\n", host.c_str());

    const double ref_start = ref_loop_ms();
    Ledger ledger;
    SpanLog spans(cfg.trace);
    WorkloadOutput out;
    if (cfg.workload == "offline_bulk") {
      run_offline(cfg, ledger, spans, tools, out);
    } else {
      run_service(cfg, ledger, spans, tools, out);
    }
    out.end_to_end.emplace_back("peak_rss_mb", peak_rss_mib());
    const double ref_end = ref_loop_ms();
    std::printf("# host.ref_loop_ms: start %.3f end %.3f\n", ref_start, ref_end);
    if (cfg.trace) {
      out.per_layer.emplace_back("host.ref_loop_start_ms", ref_start);
      out.per_layer.emplace_back("host.ref_loop_end_ms", ref_end);
      for (const auto& [name, entry] : spans.self_ms_by_name()) {
        std::printf("# span %-36s count %7zu self %10.3f ms\n", name.c_str(), entry.first,
                    entry.second);
      }
      if (!cfg.spans_path.empty()) spans.write(cfg.spans_path);
    }
    std::string failures = "{";
    for (const auto& [kind, count] : ledger.failures) {
      failures += (failures.size() > 1 ? ",\"" : "\"") + json_escape(kind) +
                  "\":" + std::to_string(count);
    }
    failures += "}";
    std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"failures\":%s,"
                "\"host\":%s,\"end_to_end\":%s,\"per_layer\":%s}\n",
                ledger.correct ? "true" : "false",
                static_cast<unsigned long long>(ledger.attempted),
                static_cast<unsigned long long>(ledger.failed), failures.c_str(), host.c_str(),
                json_metrics(out.end_to_end).c_str(), json_metrics(out.per_layer).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
