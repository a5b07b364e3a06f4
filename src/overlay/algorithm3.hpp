// Algorithm 3 (Sections 3.3 and 4.2): one intra-overlay forwarding decision.
//
// At a node, in order:
//   1. if the routing table holds the overlay destination (OD): the OD, then
//      the nephews of its entry (exits into the OD's child overlay), closest
//      to the next-level OD first;
//   2. forward mode: greedy — the entries strictly closer to the OD on the
//      clockwise metric, closest first (overshooting is never closer). If the
//      forward pass takes nothing, the query flips to backward mode;
//   3. backward mode (enhanced design only): counter-clockwise steps — every
//      sibling counter-clockwise of the node, nearest first, once ring
//      maintenance has repaired the ring; else the one counter-clockwise
//      pointer.
// Rule 1 runs in both modes, so a backward walk ends at the first node whose
// table holds the OD. The base design has no backward pointers: a query that
// cannot make clockwise progress is stuck, the vulnerability Section 4 fixes.
//
// The graph engine (overlay::Overlay), the message-level hierarchy engine
// (sim::HierarchySimulation) and the ring protocol (sim::RingSimulation) all
// call decide() and differ only in the visitor: the graph engine stops at the
// first alive candidate, the event engines keep every unsuspected one as the
// hop's timeout fallback list. decide() offers each index at most once and
// allocates nothing, since it runs on every hop.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>

#include "ids/ring.hpp"
#include "overlay/params.hpp"
#include "overlay/routing_table.hpp"

namespace hours::overlay::algorithm3 {

/// The rule that produced a candidate. kNephew candidates are indices in the
/// OD's child ring; all others are sibling indices.
enum class Rule : std::uint8_t { kOd, kNephew, kGreedy, kBackward };

enum class Verdict : std::uint8_t { kSkip, kTake, kTakeAndStop };

/// The order in which rule 1 offers the OD entry's nephews.
struct NephewOrder {
  enum class Kind : std::uint8_t { kNone, kStored, kClosest };
  Kind kind = Kind::kNone;
  ids::RingIndex next_od = 0;    ///< kClosest: clockwise distance is to this
  std::uint32_t child_ring = 0;  ///< kClosest: size of the OD's child ring
};

struct Decision {
  const RoutingTable& table;  ///< the deciding node's table; owner = self
  ids::RingIndex od;
  Design design;
  NephewOrder nephews;
  bool ring_repaired;  ///< rule 3 walks every step, else only `ccw_pointer`
  std::optional<ids::RingIndex> ccw_pointer;
};

/// Offers the candidates of one decision, in rule order, to
/// `visit(index, rule) -> Verdict`. `backward` is the query's mode bit.
template <class Visitor>
void decide(const Decision& d, bool& backward, Visitor&& visit) {
  const RoutingTable& table = d.table;
  const ids::RingIndex self = table.owner();
  const std::uint32_t ring = table.ring_size();
  bool took = false;
  auto offer = [&](ids::RingIndex index, Rule rule) {
    const Verdict verdict = visit(index, rule);
    took = took || verdict != Verdict::kSkip;
    return verdict == Verdict::kTakeAndStop;
  };

  const TableEntry* od_entry = table.find(d.od);
  if (od_entry != nullptr) {
    if (offer(d.od, Rule::kOd)) return;
    const auto& nephews = od_entry->nephews;
    if (d.nephews.kind == NephewOrder::Kind::kStored) {
      for (const ids::RingIndex n : nephews) {
        if (offer(n, Rule::kNephew)) return;
      }
    } else if (d.nephews.kind == NephewOrder::Kind::kClosest) {
      // Selection over (distance, position) keys: q is small, and a sorted
      // copy would allocate on every hop.
      std::uint64_t last = 0;
      for (std::size_t emitted = 0; emitted < nephews.size(); ++emitted) {
        std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
        for (std::size_t pos = 0; pos < nephews.size(); ++pos) {
          const std::uint64_t key = std::uint64_t{ids::clockwise_distance(
                                        nephews[pos], d.nephews.next_od, d.nephews.child_ring)}
                                        << 32 |
                                    pos;
          if ((emitted == 0 || key > last) && key < best) best = key;
        }
        last = best;
        if (offer(nephews[static_cast<std::uint32_t>(best)], Rule::kNephew)) return;
      }
    }
  }

  if (!backward) {
    const auto& entries = table.entries();
    const std::uint32_t d_od = ids::clockwise_distance(self, d.od, ring);
    // The scan ends when pos wraps past 0.
    for (std::size_t pos = table.last_before_distance(d_od); pos < entries.size(); --pos) {
      if (offer(entries[pos].sibling, Rule::kGreedy)) return;
    }
    if (took) return;
    backward = true;
  }

  if (d.design == Design::kBase) return;
  // Rule 1 already offered the OD if the table holds it.
  auto offer_ccw = [&](ids::RingIndex index) {
    return !(od_entry != nullptr && index == d.od) && offer(index, Rule::kBackward);
  };
  if (d.ring_repaired) {
    for (std::uint32_t step = 1; step < ring; ++step) {
      if (offer_ccw(ids::counter_clockwise_step(self, step, ring))) return;
    }
  } else if (d.ccw_pointer.has_value()) {
    offer_ccw(*d.ccw_pointer);
  }
}

}  // namespace hours::overlay::algorithm3
