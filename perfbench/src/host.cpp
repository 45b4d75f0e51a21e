// Host probes, timing statistics, the span log and the child launcher.
#include <fcntl.h>
#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"

extern char** environ;

namespace perfbench {

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

// --- spans ----------------------------------------------------------------

std::uint64_t SpanLog::add(std::string name, Clock::time_point start,
                           Clock::time_point end, std::uint64_t parent,
                           std::uint64_t request) {
  if (!enabled_) return 0;
  spans_.push_back(Span{std::move(name), start, end, parent, request});
  return spans_.size();
}

std::uint64_t SpanLog::open(std::string name, std::uint64_t parent) {
  const Clock::time_point now = Clock::now();
  return add(std::move(name), now, now, parent);
}

void SpanLog::close(std::uint64_t id) {
  if (id == 0 || id > spans_.size()) return;
  spans_[id - 1].end = Clock::now();
}

void SpanLog::write(const std::string& path) const {
  if (!enabled_ || spans_.empty()) return;
  const Clock::time_point origin = spans_.front().start;
  std::ostringstream os;
  os << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double ts = std::chrono::duration<double, std::micro>(s.start - origin).count();
    const double dur = std::chrono::duration<double, std::micro>(s.end - s.start).count();
    os << (i == 0 ? "" : ",\n") << "{\"name\":\"" << s.name
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << (s.request != 0 ? 2 : 1)
       << ",\"ts\":" << ts << ",\"dur\":" << dur << ",\"args\":{\"span\":"
       << i + 1 << ",\"parent\":" << s.parent << ",\"request\":" << s.request
       << "}}";
  }
  os << "\n]}\n";
  write_file(path, os.str());
}

std::map<std::string, std::pair<std::size_t, double>> SpanLog::self_ms_by_name()
    const {
  // Children of one span never overlap here (each parent's children are
  // sequential calls or the consecutive stages of one request), so the
  // covered time is the sum of the children's durations.
  std::vector<double> child_ms(spans_.size() + 1, 0.0);
  for (const Span& s : spans_) {
    if (s.parent != 0) child_ms[s.parent] += ms_between(s.start, s.end);
  }
  std::map<std::string, std::pair<std::size_t, double>> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& [count, self] = out[spans_[i].name];
    ++count;
    self += std::max(0.0, ms_between(spans_[i].start, spans_[i].end) - child_ms[i + 1]);
  }
  return out;
}

// --- host -----------------------------------------------------------------

unsigned affinity_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

namespace {
volatile std::uint64_t ref_loop_sink = 0;  // keeps the loop's result live
}  // namespace

double ref_loop_ms() {
  const Clock::time_point start = Clock::now();
  // Seeded from the clock so the compiler cannot fold the loop.
  auto x = static_cast<std::uint64_t>(start.time_since_epoch().count()) | 1;
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  const double ms = ms_between(start, Clock::now());
  ref_loop_sink = x;
  return ms;
}

namespace {

[[nodiscard]] std::uint64_t proc_field(const char* path, const char* key) {
  std::ifstream in(path);
  std::string line;
  const std::size_t len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, len, key) == 0) {
      return std::strtoull(line.c_str() + len, nullptr, 10);
    }
  }
  return 0;
}

}  // namespace

double peak_rss_mib() {
  return static_cast<double>(proc_field("/proc/self/status", "VmHWM:")) / 1024.0;
}

std::uint64_t bytes_written() { return proc_field("/proc/self/io", "wchar:"); }

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void write_file(const std::string& path, std::string_view text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  if (std::fclose(f) != 0 || !ok) throw std::runtime_error("short write to " + path);
}

// --- child launcher -------------------------------------------------------

namespace {

bool read_full(int fd, void* buf, std::size_t n) {
  auto* p = static_cast<char*>(buf);
  while (n > 0) {
    const ssize_t got = ::read(fd, p, n);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    p += got;
    n -= static_cast<std::size_t>(got);
  }
  return true;
}

bool write_full(int fd, const void* buf, std::size_t n) {
  const auto* p = static_cast<const char*>(buf);
  while (n > 0) {
    const ssize_t put = ::write(fd, p, n);
    if (put < 0 && errno == EINTR) continue;
    if (put <= 0) return false;
    p += put;
    n -= static_cast<std::size_t>(put);
  }
  return true;
}

struct WireResult {
  int exit_code;
  double elapsed_ms;
  double peak_rss_mib;
};

/// The helper's loop: one request (argv, stdout path, stderr path) in, one
/// WireResult out, until the request pipe closes.
[[noreturn]] void helper_main(int in, int out) {
  for (;;) {
    std::uint32_t count = 0;
    if (!read_full(in, &count, sizeof(count))) _exit(0);
    std::vector<std::string> parts(count);
    for (std::string& part : parts) {
      std::uint32_t len = 0;
      if (!read_full(in, &len, sizeof(len))) _exit(1);
      part.resize(len);
      if (len > 0 && !read_full(in, part.data(), len)) _exit(1);
    }
    WireResult result{-2, 0.0, 0.0};
    if (parts.size() >= 3) {
      const std::string& err_path = parts.back();
      const std::string& out_path = parts[parts.size() - 2];
      std::vector<char*> argv;
      for (std::size_t i = 0; i + 2 < parts.size(); ++i) argv.push_back(parts[i].data());
      argv.push_back(nullptr);
      posix_spawn_file_actions_t actions;
      posix_spawn_file_actions_init(&actions);
      posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
      posix_spawn_file_actions_addopen(&actions, 1, out_path.c_str(),
                                       O_WRONLY | O_CREAT | O_TRUNC, 0644);
      posix_spawn_file_actions_addopen(&actions, 2, err_path.c_str(),
                                       O_WRONLY | O_CREAT | O_TRUNC, 0644);
      pid_t pid = 0;
      const Clock::time_point start = Clock::now();
      if (posix_spawn(&pid, argv[0], &actions, nullptr, argv.data(), environ) == 0) {
        int status = 0;
        rusage usage{};
        while (wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
        }
        result.elapsed_ms = ms_between(start, Clock::now());
        result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
        result.peak_rss_mib = static_cast<double>(usage.ru_maxrss) / 1024.0;
      }
      posix_spawn_file_actions_destroy(&actions);
    }
    if (!write_full(out, &result, sizeof(result))) _exit(1);
  }
}

}  // namespace

ToolLauncher::ToolLauncher() {
  int down[2];
  int up[2];
  if (pipe2(down, O_CLOEXEC) != 0 || pipe2(up, O_CLOEXEC) != 0) {
    throw std::runtime_error("tool launcher: pipe failed");
  }
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("tool launcher: fork failed");
  if (pid == 0) {
    ::close(down[1]);
    ::close(up[0]);
    helper_main(down[0], up[1]);
  }
  ::close(down[0]);
  ::close(up[1]);
  to_helper_ = down[1];
  from_helper_ = up[0];
  helper_pid_ = pid;
}

ToolLauncher::~ToolLauncher() {
  ::close(to_helper_);
  ::close(from_helper_);
  int status = 0;
  while (waitpid(helper_pid_, &status, 0) < 0 && errno == EINTR) {
  }
}

ToolLauncher::Result ToolLauncher::run(const std::vector<std::string>& argv,
                                       const std::string& stdout_path,
                                       const std::string& stderr_path) {
  std::vector<std::string> parts = argv;
  parts.push_back(stdout_path);
  parts.push_back(stderr_path);
  std::string message;
  const auto put_u32 = [&](std::size_t v) {
    const auto u = static_cast<std::uint32_t>(v);
    message.append(reinterpret_cast<const char*>(&u), sizeof(u));
  };
  put_u32(parts.size());
  for (const std::string& part : parts) {
    put_u32(part.size());
    message += part;
  }
  WireResult wire{};
  if (!write_full(to_helper_, message.data(), message.size()) ||
      !read_full(from_helper_, &wire, sizeof(wire))) {
    throw std::runtime_error("tool launcher: helper process is gone");
  }
  if (wire.exit_code == -2) throw std::runtime_error("cannot spawn " + argv.front());
  return Result{wire.exit_code, wire.elapsed_ms, wire.peak_rss_mib};
}

}  // namespace perfbench
