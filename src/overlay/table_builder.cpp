#include "overlay/table_builder.hpp"

#include "rng/pointer_sampler.hpp"
#include "rng/splitmix64.hpp"
#include "rng/xoshiro256.hpp"

namespace hours::overlay {

RoutingTable build_routing_table(std::uint32_t ring_size, ids::RingIndex owner,
                                 const OverlayParams& params, const ChildCountFn& child_count) {
  params.validate();
  HOURS_EXPECTS(owner < ring_size);

  RoutingTable table{owner, ring_size};
  if (ring_size <= 1) return table;

  rng::Xoshiro256 rng{rng::mix64(params.seed, owner)};
  const std::uint32_t k_eff = params.effective_k();

  const auto distances = rng::sample_pointer_distances(ring_size, k_eff, rng);
  table.reserve(distances.size());
  for (const std::uint32_t d : distances) {
    TableEntry entry;
    entry.sibling = ids::clockwise_step(owner, d, ring_size);

    const bool wants_nephews =
        params.design == Design::kEnhanced || d == 1;  // base: clockwise neighbor only
    if (wants_nephews && child_count) {
      const std::uint32_t children = child_count(entry.sibling);
      if (children > 0) {
        entry.nephews = rng::sample_distinct(children, params.q, rng);
      }
    }
    table.add_entry(std::move(entry));
  }

  if (params.design == Design::kEnhanced) {
    table.set_ccw_neighbor(ids::counter_clockwise_step(owner, 1, ring_size));
  }
  return table;
}

}  // namespace hours::overlay
