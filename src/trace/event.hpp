// Typed event taxonomy for the query/repair lifecycle.
//
// Every interesting protocol transition — forwarding hops by kind, probe
// traffic, suspicion, Section 4.3 active recovery, client retries, message
// drops, and fault-injector actions — is describable as one fixed-layout
// Event. Events carry the simulation instant, the acting node, the peer it
// acted on, the hierarchy level (-1 when not applicable), and a causal id
// (query qid or repair rid) so a full query or repair path can be
// reconstructed from a flat event stream. `value` is a type-specific scalar
// (drop reason, loss rate in ppm, hop count, ...), documented per type in
// docs/OBSERVABILITY.md.
//
// The taxonomy is closed and versioned by kSchemaVersion: sinks serialize
// events by name, and trace/event.cpp's validator checks emitted JSON lines
// against exactly this schema (tests/scenario_test runs it on the trace of
// every shipped scenario).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace hours::trace {

/// Bumped whenever the Event layout or the taxonomy changes incompatibly.
inline constexpr std::uint32_t kSchemaVersion = 2;

/// Sentinel for "no node" in Event::node / Event::peer.
inline constexpr std::uint32_t kNoNode = 0xFFFFFFFFU;

enum class EventType : std::uint8_t {
  // -- forwarding hops, by kind --------------------------------------------------
  kHierHop,      ///< parent->child or child->parent step along the dest path
  kDetourEnter,  ///< ancestor routed around a dead on-path child (footnote 4)
  kRingHop,      ///< greedy overlay step among siblings (forwarding rules 1/2)
  kBackwardHop,  ///< counter-clockwise step (forwarding rule 3)
  kNephewExit,   ///< hop to a child of a sibling (nephew pointer exit)
  // -- liveness probing -----------------------------------------------------------
  kProbeSent,    ///< ring probe transmitted; peer = probed node
  kProbeFailed,  ///< probe ack timed out; peer = silent node
  kSuspect,      ///< peer entered the node's suspicion set
  // -- Section 4.3 active recovery -------------------------------------------------
  kRecoveryStart,     ///< node inferred massive failure and emitted a Repair
  kRecoveryAdopt,     ///< node (gap's far edge) adopted originator peer
  kRecoveryComplete,  ///< originator's ccw side closed by an accepted claim
  // -- client / delivery ------------------------------------------------------------
  kQuerySubmit,     ///< causal = qid; node = start, peer = destination
  kQueryDelivered,  ///< causal = qid; value = hops
  kQueryFailed,     ///< causal = qid; value = hops attempted
  kRetry,           ///< client retransmitted an unanswered hop; peer = tried
  kDrop,            ///< transport dropped a message; value = DropReason
  // -- fault injection ---------------------------------------------------------------
  kFaultKill,       ///< injector/attacker took node down
  kFaultRevive,     ///< injector/attacker brought node back
  kLinkCut,         ///< directed link node->peer severed
  kLinkHeal,        ///< directed link node->peer restored
  kLossChange,      ///< transport loss rate changed; value = rate in ppm
  kBehaviorChange,  ///< insider switch; value = overlay::NodeBehavior
  // -- gossip-assisted liveness (DESIGN.md §11) --------------------------------------
  kLivenessDigestSent,     ///< suspicion digest piggybacked; value = entry count
  kLivenessDigestApplied,  ///< digest processed by receiver; value = entries adopted
  kLivenessGossipSuspect,  ///< peer adopted into suspicion from a digest; value = since
};

/// Number of event types (dense enum; used for per-type subscriber tables).
inline constexpr std::size_t kEventTypeCount =
    static_cast<std::size_t>(EventType::kLivenessGossipSuspect) + 1;

/// Why the transport suppressed a delivery (Event::value for kDrop).
enum class DropReason : std::uint8_t {
  kLoss = 1,         ///< i.i.d. transmission loss
  kDeadRecipient,    ///< recipient down at delivery time
  kMidFlightDeath,   ///< recipient died (even transiently) while in flight
  kSeveredLink,      ///< link filter rejected the delivery
};

struct Event {
  std::uint64_t at = 0;  ///< simulation ticks (or logical op count outside sims)
  EventType type = EventType::kHierHop;
  std::uint32_t node = kNoNode;  ///< acting node id
  std::uint32_t peer = kNoNode;  ///< other party, when meaningful
  std::int32_t level = -1;       ///< hierarchy level of `node`; -1 = n/a
  std::uint64_t causal = 0;      ///< query qid / repair rid; 0 = none
  std::uint64_t value = 0;       ///< type-specific scalar
};

/// Stable snake_case name, e.g. "recovery_adopt" — the wire name used by
/// every serializing sink.
[[nodiscard]] std::string_view event_type_name(EventType type) noexcept;

/// Reverse lookup; returns false when `name` is not in the taxonomy.
[[nodiscard]] bool event_type_from_name(std::string_view name, EventType& out) noexcept;

/// Serializes one event as a deterministic single-line JSON object (the
/// JSON-lines wire format, no trailing newline):
///   {"at":N,"type":"...","node":N,"peer":N,"level":N,"causal":N,"value":N}
/// node/peer equal to kNoNode serialize as null.
[[nodiscard]] std::string to_json_line(const Event& event);

/// Validates one JSON line against the schema: all seven keys present in
/// order, `type` a taxonomy name, numeric fields in range. On failure
/// returns false and, when `error` is non-null, explains why.
[[nodiscard]] bool validate_event_line(std::string_view line, std::string* error = nullptr);

}  // namespace hours::trace
