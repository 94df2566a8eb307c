// The MCTS search tree (§III-C).
//
// Each node is one state — a unique history of actions from the decision
// root — holding a full environment snapshot, so selection never
// re-simulates a prefix.  Values are negative makespans; per the paper's
// backpropagation rule every node tracks both the MAXIMUM value seen in
// rollouts through it (the exploitation score) and the running mean (the
// tiebreaker).  Nodes live in a chunked arena indexed by NodeId: fixed-size
// blocks, each allocated whole and never reallocated, so expansion is a bump
// allocation, a SearchNode& stays valid across add_child, and memory follows
// the nodes actually expanded rather than the iteration budget.

#pragma once

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "env/env.h"

namespace spear {

using NodeId = std::int32_t;
inline constexpr NodeId kNoNode = -1;

/// A speculatively constructed child awaiting expansion — the unit of the
/// batched guide evaluation (DESIGN.md §10).  The child state was stepped
/// and its own untried ordering scored up front (one fused network forward
/// for ALL siblings); expansion then pops PreparedChild entries in lockstep
/// with `untried`, bit-identical to constructing each child lazily.
struct PreparedChild {
  int action = 0;
  SchedulingEnv state;
  /// Guide ordering for the child (empty when terminal/aborted).
  std::vector<std::pair<int, double>> untried;
  bool terminal = false;
  bool aborted = false;
  /// Fault deltas observed while stepping into the child; folded into
  /// Stats only when the child is actually expanded, so telemetry matches
  /// the lazy path exactly.
  std::int64_t fault_failures = 0;
  std::int64_t fault_retries = 0;

  PreparedChild(int a, SchedulingEnv s) : action(a), state(std::move(s)) {}
};

struct SearchNode {
  SchedulingEnv state;
  int action_from_parent = 0;
  NodeId parent = kNoNode;
  std::vector<NodeId> children;
  /// Untried actions in descending guidance weight; expansion pops from the
  /// front so the most promising action is tried first.
  std::vector<std::pair<int, double>> untried;
  /// When prepared_ready, prepared[i] is the precomputed child for
  /// untried[i]; both lists pop from the front together (root nodes only —
  /// deeper nodes expand lazily, see MctsScheduler).
  std::vector<PreparedChild> prepared;
  bool prepared_ready = false;
  bool terminal = false;
  /// Fault mode: the action into this node aborted the simulated job
  /// (retry budget exhausted); evaluated with a fixed penalty, never
  /// expanded.
  bool aborted = false;

  std::int64_t visits = 0;
  double max_value = -std::numeric_limits<double>::infinity();
  double sum_value = 0.0;
  /// Virtual loss (leaf-parallel search only): number of in-flight descents
  /// currently holding this node on their path.  Inflates the node's visit
  /// count during selection so concurrent descents spread over siblings,
  /// and is released when the descent's evaluation is backed up.  Always 0
  /// outside a leaf-parallel tick, so the serial search never observes it.
  std::int32_t vloss = 0;

  explicit SearchNode(SchedulingEnv s) : state(std::move(s)) {}

  double mean_value() const {
    return visits > 0 ? sum_value / static_cast<double>(visits) : 0.0;
  }
};

class SearchTree {
 public:
  /// Nodes per arena block (a power of two): NodeId `id` lives at
  /// blocks_[id >> kBlockShift][id & (kBlockSize - 1)].
  static constexpr int kBlockShift = 6;
  static constexpr std::size_t kBlockSize = std::size_t{1} << kBlockShift;

  explicit SearchTree(SchedulingEnv root_state) {
    emplace(std::move(root_state));
  }
  // Move-only: a moved tree keeps its blocks, but a copied block would be
  // reserved only to its size and move its nodes on the next append.
  SearchTree(const SearchTree&) = delete;
  SearchTree& operator=(const SearchTree&) = delete;
  SearchTree(SearchTree&&) = default;
  SearchTree& operator=(SearchTree&&) = default;

  NodeId root() const { return 0; }
  SearchNode& node(NodeId id) {
    const auto i = static_cast<std::size_t>(id);
    return blocks_[i >> kBlockShift][i & (kBlockSize - 1)];
  }
  const SearchNode& node(NodeId id) const {
    const auto i = static_cast<std::size_t>(id);
    return blocks_[i >> kBlockShift][i & (kBlockSize - 1)];
  }
  std::size_t size() const {
    return (blocks_.size() - 1) * kBlockSize + blocks_.back().size();
  }

  /// Appends a child of `parent` reached via `action`.
  NodeId add_child(NodeId parent, int action, SchedulingEnv state) {
    const NodeId id = emplace(std::move(state));
    SearchNode& child = node(id);
    child.parent = parent;
    child.action_from_parent = action;
    node(parent).children.push_back(id);
    return id;
  }

  /// Updates visits/max/sum on `id` and every ancestor (§III-C
  /// backpropagation: max with mean as tiebreaker).
  void backpropagate(NodeId id, double value) {
    for (NodeId cur = id; cur != kNoNode; cur = node(cur).parent) {
      SearchNode& n = node(cur);
      ++n.visits;
      n.sum_value += value;
      if (value > n.max_value) n.max_value = value;
    }
  }

  /// New tree whose root is (a copy of) `new_root` and whose nodes are
  /// exactly the subtree below it — the paper's "selected child becomes
  /// the new root" tree reuse, compacting away the discarded siblings.
  SearchTree reroot(NodeId new_root) const {
    SearchTree out(node(new_root).state);
    copy_node_into(out, new_root, out.root(), /*copy_children=*/true);
    return out;
  }

 private:
  /// Appends a parentless node, opening a new block when the last is full.
  /// A block is reserved once to kBlockSize and never grows past it, so its
  /// nodes never move.
  NodeId emplace(SchedulingEnv state) {
    if (blocks_.empty() || blocks_.back().size() == kBlockSize) {
      std::vector<SearchNode> block;
      block.reserve(kBlockSize);
      blocks_.push_back(std::move(block));
    }
    const auto id = static_cast<NodeId>(size());
    blocks_.back().emplace_back(std::move(state));
    return id;
  }

  /// Copies statistics/untried of `src` onto `dst` in `out`, then clones
  /// the children subtrees.
  void copy_node_into(SearchTree& out, NodeId src, NodeId dst,
                      bool copy_children) const {
    const SearchNode& from = node(src);
    SearchNode& to = out.node(dst);
    to.untried = from.untried;
    to.prepared = from.prepared;
    to.prepared_ready = from.prepared_ready;
    to.terminal = from.terminal;
    to.aborted = from.aborted;
    to.visits = from.visits;
    to.max_value = from.max_value;
    to.sum_value = from.sum_value;
    to.vloss = from.vloss;
    if (!copy_children) return;
    for (NodeId child : from.children) {
      const NodeId cloned = out.add_child(
          dst, node(child).action_from_parent, node(child).state);
      copy_node_into(out, child, cloned, true);
    }
  }

  std::vector<std::vector<SearchNode>> blocks_;
};

}  // namespace spear
