// A node's overlay routing table (Sections 3.1, 3.2, 4.1).
//
// Entries are kept sorted by clockwise index distance from the owner, which
// makes greedy next-hop selection a binary search: the best candidate toward
// an overlay-destination at distance d_od is the alive entry with the largest
// distance strictly below d_od (greedy clockwise forwarding can never gain by
// overshooting; see tests/overlay_forwarding_test.cpp).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "ids/ring.hpp"

namespace hours::overlay {

/// One routing-table entry: a sibling pointer plus its nephew pointers.
///
/// Nephew values are ring indices of the sibling's children within the
/// sibling's child overlay (the paper stores addresses; indices are the
/// simulation equivalent).
struct TableEntry {
  ids::RingIndex sibling = 0;
  std::vector<ids::RingIndex> nephews;
};

class RoutingTable {
 public:
  RoutingTable(ids::RingIndex owner, std::uint32_t ring_size)
      : owner_(owner), ring_size_(ring_size) {}

  [[nodiscard]] ids::RingIndex owner() const noexcept { return owner_; }
  [[nodiscard]] std::uint32_t ring_size() const noexcept { return ring_size_; }

  /// Sizes the entry storage for `count` entries, so a table built with a
  /// known entry count holds no growth slack.
  void reserve(std::size_t count) { entries_.reserve(count); }

  /// Adds an entry; entries must be inserted in increasing clockwise
  /// distance from the owner (the builder guarantees this).
  void add_entry(TableEntry entry);

  /// Inserts an entry at its sorted position, replacing an existing entry
  /// for the same sibling. Used by active recovery, which grows tables at
  /// run time ("it creates a new routing entry", Section 4.3).
  void insert_entry(TableEntry entry);

  /// All entries, sorted by clockwise distance from the owner.
  [[nodiscard]] const std::vector<TableEntry>& entries() const noexcept { return entries_; }

  /// Looks up the entry for sibling index `j`, if present.
  [[nodiscard]] const TableEntry* find(ids::RingIndex j) const noexcept;

  /// Position of the entry with the largest clockwise distance strictly
  /// below `distance`; scans from here toward distance 1 give greedy
  /// candidates in preference order. Returns entry count if none qualify.
  [[nodiscard]] std::size_t last_before_distance(std::uint32_t distance) const noexcept;

  /// The counter-clockwise neighbor pointer (enhanced design only).
  [[nodiscard]] std::optional<ids::RingIndex> ccw_neighbor() const noexcept {
    return ccw_neighbor_;
  }
  void set_ccw_neighbor(ids::RingIndex index) noexcept { ccw_neighbor_ = index; }

  /// Number of sibling pointers (table "entries" in Figure 5's unit).
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

  /// Total nephew pointers across entries.
  [[nodiscard]] std::size_t nephew_count() const noexcept;

 private:
  ids::RingIndex owner_;
  std::uint32_t ring_size_;
  std::vector<TableEntry> entries_;                    // sorted by cw distance from owner
  std::optional<ids::RingIndex> ccw_neighbor_;
};

}  // namespace hours::overlay
