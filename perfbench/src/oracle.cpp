#include "oracle.hpp"

#include <charconv>
#include <numeric>

namespace perfbench {

Labels min_id_labels(const EdgeGraph& g) {
  std::vector<NodeId> parent(g.n);
  std::iota(parent.begin(), parent.end(), NodeId{0});
  const auto find = [&](NodeId v) {
    while (parent[v] != v) {
      parent[v] = parent[parent[v]];
      v = parent[v];
    }
    return v;
  };
  // Linking the larger root under the smaller keeps every root the
  // minimum of its set, so the root is the min-id label.
  for (const Edge& e : g.edges) {
    NodeId a = find(e.u);
    NodeId b = find(e.v);
    if (a == b) continue;
    if (a > b) std::swap(a, b);
    parent[b] = a;
  }
  Labels labels(g.n);
  for (NodeId v = 0; v < g.n; ++v) labels[v] = find(v);
  return labels;
}

std::size_t paper_generations(std::size_t n) {
  std::size_t L = 0;
  while ((std::size_t{1} << L) < n) ++L;
  return 1 + L * (3 * L + 8);
}

bool parse_tool_labels(std::string_view text, NodeId n, Labels& out) {
  out.assign(n, 0);
  std::vector<bool> seen(n, false);
  std::size_t count = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty() || line[0] < '0' || line[0] > '9') continue;
    std::uint64_t v = 0;
    std::uint64_t label = 0;
    const char* first = line.data();
    const char* last = line.data() + line.size();
    auto [p, ec] = std::from_chars(first, last, v);
    if (ec != std::errc{} || p == last || *p != ' ') return false;
    auto [q, ec2] = std::from_chars(p + 1, last, label);
    if (ec2 != std::errc{} || q != last || v >= n || seen[v]) return false;
    seen[v] = true;
    out[v] = static_cast<NodeId>(label);
    ++count;
  }
  return count == n;
}

namespace {

/// Position just after `"key":`, or npos.
std::size_t value_at(std::string_view line, std::string_view key) {
  std::string pattern;
  pattern.reserve(key.size() + 3);
  pattern += '"';
  pattern += key;
  pattern += "\":";
  const std::size_t at = line.find(pattern);
  return at == std::string_view::npos ? at : at + pattern.size();
}

}  // namespace

bool json_uint(std::string_view line, std::string_view key, std::uint64_t& out) {
  const std::size_t at = value_at(line, key);
  if (at == std::string_view::npos) return false;
  const auto [p, ec] = std::from_chars(line.data() + at, line.data() + line.size(), out);
  return ec == std::errc{};
}

std::string json_str(std::string_view line, std::string_view key) {
  const std::size_t at = value_at(line, key);
  if (at == std::string_view::npos || at >= line.size() || line[at] != '"') return {};
  const std::size_t end = line.find('"', at + 1);
  if (end == std::string_view::npos) return {};
  return std::string(line.substr(at + 1, end - at - 1));
}

bool json_uint_array(std::string_view line, std::string_view key, Labels& out) {
  out.clear();
  std::size_t at = value_at(line, key);
  if (at == std::string_view::npos || at >= line.size() || line[at] != '[') return false;
  const char* p = line.data() + at + 1;
  const char* last = line.data() + line.size();
  if (p < last && *p == ']') return true;
  while (p < last) {
    NodeId v = 0;
    const auto [next, ec] = std::from_chars(p, last, v);
    if (ec != std::errc{} || next == last) return false;
    out.push_back(v);
    if (*next == ']') return true;
    if (*next != ',') return false;
    p = next + 1;
  }
  return false;
}

// --- reply ledger ---------------------------------------------------------

void ReplyLedger::sent(std::uint64_t id, const Labels* expected, int slot,
                       Clock::time_point at) {
  ++ledger_.attempted;
  Open entry;
  entry.expected = expected;
  entry.slot = slot;
  entry.push = at;
  open_[id] = entry;
}

ReplyLedger::Reply ReplyLedger::on_line(std::string_view line, Clock::time_point at) {
  Reply reply;
  reply.event = json_str(line, "event");
  const bool has_id = json_uint(line, "id", reply.id);
  const auto it = has_id ? open_.find(reply.id) : open_.end();
  if (reply.event == "accepted") {
    if (it == open_.end()) {
      if (awaiting_accepted_.erase(reply.id) == 0) ledger_.wrong("reply for an unknown request");
    } else {
      it->second.accepted = at;
      it->second.saw_accepted = true;
    }
    return reply;
  }
  const bool terminal = reply.event == "done" || reply.event == "shed" ||
                        reply.event == "rejected" || reply.event == "error";
  if (!terminal) return reply;
  if (it == open_.end()) {
    // An error without a request id, or a verdict for nothing we sent.
    ledger_.wrong("unattributed " + reply.event + " reply");
    return reply;
  }
  const Open entry = it->second;
  open_.erase(it);
  reply.finished = true;
  reply.slot = entry.slot;
  if (reply.event != "done") {
    ledger_.fail(reply.event + " " + json_str(line, "status"));
    return reply;
  }
  const std::string status = json_str(line, "status");
  if (status != "OK") {
    ledger_.fail("done " + status);
    return reply;
  }
  if (!entry.saw_accepted) {
    ++done_before_accepted;
    awaiting_accepted_.insert(reply.id);
  }
  Labels labels;
  if (!json_uint_array(line, "labels", labels) || entry.expected == nullptr ||
      labels != *entry.expected) {
    ledger_.wrong("done labels differ from the oracle");
    return reply;
  }
  Times times{reply.id, entry.push, at, std::nullopt};
  if (entry.saw_accepted) times.accepted = entry.accepted;
  completed.push_back(times);
  return reply;
}

void ReplyLedger::finish() {
  for (std::size_t i = 0; i < open_.size(); ++i) ledger_.fail("missing done");
  open_.clear();
  awaiting_accepted_.clear();
}

std::string checker_self_test() {
  // Components {0,1}, {2,3,5}, {4}.
  const EdgeGraph g{6, {{0, 1}, {2, 3}, {3, 5}}};
  const Labels expected = min_id_labels(g);
  if (expected != Labels{0, 0, 2, 2, 4, 2}) return "oracle mislabels the self-test graph";
  if (paper_generations(64) != 1 + 6 * 26 || paper_generations(256) != 1 + 8 * 32) {
    return "generation formula";
  }

  Ledger ledger;
  ReplyLedger replies(ledger);
  const Clock::time_point t = Clock::now();
  const auto accepted = [&](std::uint64_t id) {
    replies.on_line("{\"id\":" + std::to_string(id) +
                        ",\"event\":\"accepted\",\"est_wait_ms\":0}",
                    t);
  };
  for (std::uint64_t id = 1; id <= 6; ++id) {
    replies.sent(id, &expected, 0, t);
    if (id <= 5) accepted(id);
  }
  const std::string done = ",\"event\":\"done\",\"status\":\"OK\",\"components\":3,\"labels\":";
  replies.on_line("{\"id\":1" + done + "[0,0,2,2,4,2],\"attempts\":1}", t);  // right
  replies.on_line("{\"id\":6" + done + "[0,0,2,2,4,2],\"attempts\":1}", t);  // right, early
  accepted(6);
  replies.on_line("{\"id\":2" + done + "[0,0,0,0,4,0],\"attempts\":1}", t);  // merged
  replies.on_line("{\"id\":3" + done + "[0,0,3,3,4,3],\"attempts\":1}", t);  // not min
  replies.on_line("{\"id\":5,\"event\":\"shed\",\"status\":\"RESOURCE_EXHAUSTED\","
                  "\"message\":\"shed\"}", t);
  replies.finish();  // id 4 never got its done
  if (ledger.attempted != 6 || ledger.failed != 4 || ledger.correct ||
      replies.completed.size() != 2 || replies.done_before_accepted != 1 ||
      ledger.failures["missing done"] != 1 ||
      ledger.failures["done labels differ from the oracle"] != 2 ||
      ledger.failures["shed RESOURCE_EXHAUSTED"] != 1) {
    return "reply checker missed a doctored reply";
  }

  Labels parsed;
  if (!parse_tool_labels("node label\n0 0\n1 0\n2 2\n3 2\n4 4\n5 2\n# x\n", 6, parsed) ||
      parsed != expected) {
    return "tool output parser";
  }
  if (parse_tool_labels("node label\n0 0\n1 0\n2 2\n3 2\n4 4\n5 3\n", 6, parsed) &&
      parsed == expected) {
    return "tool output check missed a label that is not the minimum";
  }
  if (parse_tool_labels("node label\n0 0\n1 0\n2 2\n3 2\n4 4\n", 6, parsed)) {
    return "tool output check missed a missing vertex";
  }
  return {};
}

}  // namespace perfbench
