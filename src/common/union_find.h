// Disjoint-set (union-find) with path compression and union by size.
//
// The online grouper merges messages into events with three independent
// passes (temporal, rule-based, cross-router); expressing every merge
// through one union-find makes the final partition independent of pass
// order — the property §4.2.3 of the paper asserts and our tests check.
#pragma once

#include <cstdint>
#include <numeric>
#include <vector>

namespace sld {

class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n), size_(n, 1) {
    std::iota(parent_.begin(), parent_.end(), std::size_t{0});
  }

  // Appends a fresh singleton element and returns its index (used by
  // streaming consumers that discover elements over time).
  std::size_t Add() {
    parent_.push_back(parent_.size());
    size_.push_back(1);
    return parent_.size() - 1;
  }

  // Makes x a fresh singleton again, for a caller that recycles the
  // elements of a retired set: no element outside that set may point at x.
  void Reset(std::size_t x) noexcept {
    parent_[x] = x;
    size_[x] = 1;
  }

  // Representative of x's set.
  std::size_t Find(std::size_t x) noexcept {
    std::size_t root = x;
    while (parent_[root] != root) root = parent_[root];
    while (parent_[x] != root) {
      const std::size_t next = parent_[x];
      parent_[x] = root;
      x = next;
    }
    return root;
  }

  // Merges the sets of a and b; returns the new representative.
  std::size_t Union(std::size_t a, std::size_t b) noexcept {
    std::size_t ra = Find(a);
    std::size_t rb = Find(b);
    if (ra == rb) return ra;
    if (size_[ra] < size_[rb]) std::swap(ra, rb);
    parent_[rb] = ra;
    size_[ra] += size_[rb];
    return ra;
  }

  bool Connected(std::size_t a, std::size_t b) noexcept {
    return Find(a) == Find(b);
  }

  // Size of the set containing x.
  std::size_t SetSize(std::size_t x) noexcept { return size_[Find(x)]; }

  // Raw forest state, for checkpointing.  `Rebuild` restores a forest
  // previously captured via parents()/sizes(); the vectors must be the
  // same length.
  const std::vector<std::size_t>& parents() const noexcept { return parent_; }
  const std::vector<std::size_t>& sizes() const noexcept { return size_; }
  void Rebuild(std::vector<std::size_t> parents,
               std::vector<std::size_t> sizes) {
    parent_ = std::move(parents);
    size_ = std::move(sizes);
  }

  // Number of disjoint sets.
  std::size_t SetCount() noexcept {
    std::size_t count = 0;
    for (std::size_t i = 0; i < parent_.size(); ++i) {
      if (Find(i) == i) ++count;
    }
    return count;
  }

 private:
  std::vector<std::size_t> parent_;
  std::vector<std::size_t> size_;
};

}  // namespace sld
