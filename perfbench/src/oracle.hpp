// The benchmark's own correctness oracle and output checkers.  Nothing here
// calls the library's union-find, schedule or protocol code: every expected
// value is computed apart from the program under test.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bench.hpp"

namespace perfbench {

/// An undirected graph as an edge list (u < v, no duplicates).
struct EdgeGraph {
  NodeId n = 0;
  std::vector<Edge> edges;
};

/// Min-id component labeling by union-find: label[v] = smallest vertex id
/// of v's component.
[[nodiscard]] Labels min_id_labels(const EdgeGraph& g);

/// The paper's generation count 1 + L(3L + 8) with L = ceil(log2 n).
[[nodiscard]] std::size_t paper_generations(std::size_t n);

/// Labels from gca_cc_tool's "node label" table; false when malformed.
[[nodiscard]] bool parse_tool_labels(std::string_view text, NodeId n, Labels& out);

/// Field readers for the flat reply lines gcad writes.
[[nodiscard]] bool json_uint(std::string_view line, std::string_view key,
                             std::uint64_t& out);
[[nodiscard]] std::string json_str(std::string_view line, std::string_view key);
[[nodiscard]] bool json_uint_array(std::string_view line, std::string_view key,
                                   Labels& out);

/// Accounts for the replies to solve requests: every request sent is one
/// attempted operation; a `done` with the oracle's labels succeeds, a wrong
/// label vector is wrong, and a non-OK `done`, a shed or rejected reply, an
/// error reply or a missing `done` fails.  gcad sometimes writes a request's
/// `done` before its `accepted` (the intake thread emits `accepted` after
/// releasing the queue lock); that inversion is counted, not failed.
class ReplyLedger {
 public:
  explicit ReplyLedger(Ledger& ledger) : ledger_(ledger) {}

  void sent(std::uint64_t id, const Labels* expected, int slot,
            Clock::time_point at);

  struct Reply {
    std::string event;
    bool finished = false;  ///< the request identified by `id` is settled
    int slot = -1;
    std::uint64_t id = 0;
  };
  Reply on_line(std::string_view line, Clock::time_point at);

  /// Settles every request still waiting as failed ("missing done").
  void finish();
  [[nodiscard]] std::size_t outstanding() const { return open_.size(); }

  /// Timestamps of one request that completed correctly; `accepted` is
  /// unset when the `done` came first.
  struct Times {
    std::uint64_t id = 0;
    Clock::time_point push, done;
    std::optional<Clock::time_point> accepted;
  };
  std::vector<Times> completed;
  std::uint64_t done_before_accepted = 0;

 private:
  struct Open {
    const Labels* expected = nullptr;
    int slot = -1;
    Clock::time_point push;
    Clock::time_point accepted;
    bool saw_accepted = false;
  };
  Ledger& ledger_;
  std::unordered_map<std::uint64_t, Open> open_;
  std::unordered_set<std::uint64_t> awaiting_accepted_;  ///< done came first
};

/// Feeds the checkers doctored outputs (two merged components, a label that
/// is not the minimum, a missing done, a shed reply) and confirms each is
/// caught and counted as failed, while a right answer whose `done` precedes
/// its `accepted` is not.  Returns an empty string on success.
[[nodiscard]] std::string checker_self_test();

}  // namespace perfbench
