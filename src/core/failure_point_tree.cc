#include "src/core/failure_point_tree.h"

#include <algorithm>
#include <istream>
#include <ostream>

namespace mumak {

FailurePointTree::FailurePointTree() {
  nodes_.emplace_back();  // root
}

FailurePointTree::NodeIndex FailurePointTree::Insert(
    std::span<const FrameId> stack) {
  NodeIndex current = kRoot;
  for (FrameId frame : stack) {
    auto it = nodes_[current].children.find(frame);
    if (it != nodes_[current].children.end()) {
      current = it->second;
      continue;
    }
    const NodeIndex fresh = static_cast<NodeIndex>(nodes_.size());
    nodes_[current].children.emplace(frame, fresh);
    Node node;
    node.frame = frame;
    node.parent = current;
    nodes_.push_back(std::move(node));
    current = fresh;
  }
  if (!nodes_[current].is_failure_point) {
    nodes_[current].is_failure_point = true;
    ++failure_points_;
  }
  return current;
}

FailurePointTree::NodeIndex FailurePointTree::Find(
    std::span<const FrameId> stack) const {
  NodeIndex current = kRoot;
  for (FrameId frame : stack) {
    auto it = nodes_[current].children.find(frame);
    if (it == nodes_[current].children.end()) {
      return kNotFound;
    }
    current = it->second;
  }
  return nodes_[current].is_failure_point ? current : kNotFound;
}

std::vector<FailurePointTree::NodeIndex> FailurePointTree::UnvisitedNodes()
    const {
  std::vector<NodeIndex> pending;
  for (NodeIndex i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].is_failure_point && !nodes_[i].visited) {
      pending.push_back(i);
    }
  }
  return pending;
}

uint64_t FailurePointTree::UnvisitedCount() const {
  uint64_t count = 0;
  for (const Node& node : nodes_) {
    if (node.is_failure_point && !node.visited) {
      ++count;
    }
  }
  return count;
}

std::vector<FrameId> FailurePointTree::StackOf(NodeIndex node) const {
  std::vector<FrameId> stack;
  NodeIndex current = node;
  while (current != kRoot && current != kNotFound) {
    stack.push_back(nodes_[current].frame);
    current = nodes_[current].parent;
  }
  std::reverse(stack.begin(), stack.end());
  return stack;
}

std::string FailurePointTree::DescribePath(NodeIndex node) const {
  return DescribeStack(StackOf(node));
}

size_t FailurePointTree::FootprintBytes() const {
  size_t bytes = nodes_.capacity() * sizeof(Node);
  for (const Node& node : nodes_) {
    bytes += node.children.size() * 48;  // map node estimate
  }
  return bytes;
}

void FailurePointTree::Serialize(std::ostream& out) const {
  const uint64_t count = nodes_.size();
  out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  out.write(reinterpret_cast<const char*>(&failure_points_),
            sizeof(failure_points_));
  for (const Node& node : nodes_) {
    out.write(reinterpret_cast<const char*>(&node.frame), sizeof(node.frame));
    out.write(reinterpret_cast<const char*>(&node.parent),
              sizeof(node.parent));
    const uint8_t flags = static_cast<uint8_t>(
        (node.is_failure_point ? 1 : 0) | (node.visited ? 2 : 0));
    out.write(reinterpret_cast<const char*>(&flags), sizeof(flags));
  }
}

FailurePointTree FailurePointTree::Deserialize(std::istream& in) {
  FailurePointTree tree;
  uint64_t count = 0;
  in.read(reinterpret_cast<char*>(&count), sizeof(count));
  in.read(reinterpret_cast<char*>(&tree.failure_points_),
          sizeof(tree.failure_points_));
  tree.nodes_.clear();
  tree.nodes_.resize(count);
  for (uint64_t i = 0; i < count; ++i) {
    Node& node = tree.nodes_[i];
    in.read(reinterpret_cast<char*>(&node.frame), sizeof(node.frame));
    in.read(reinterpret_cast<char*>(&node.parent), sizeof(node.parent));
    uint8_t flags = 0;
    in.read(reinterpret_cast<char*>(&flags), sizeof(flags));
    node.is_failure_point = (flags & 1) != 0;
    node.visited = (flags & 2) != 0;
    if (i != kRoot && node.parent < count) {
      tree.nodes_[node.parent].children.emplace(node.frame,
                                                static_cast<NodeIndex>(i));
    }
  }
  return tree;
}

}  // namespace mumak
