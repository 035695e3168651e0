// Deterministic fault injection for the serving layer.
//
// The defense only matters if it stays fail-closed when the system
// around it misbehaves: a crashed or stalled pipeline stage that lets an
// inaudible command through is a worse failure than a dropped genuine
// utterance. The chaos harness therefore needs to place faults into the
// serving path in a way that is REPRODUCIBLE — the same fault schedule
// must hit the same sessions at the same stream positions at any worker
// count and under any drain schedule, or the bit-identity checks that
// pin the layer's determinism would be meaningless under fault load.
//
// The injector achieves that by being a pure function: whether a fault
// fires at an injection site is decided by hashing
// (seed, site, session id, index), where `index` is the session's
// consumed-block counter for block-level sites and its resolved-
// utterance counter for the recognizer site. Both counters advance in
// accepted-block order — the order the serving layer already keeps
// deterministic — so the schedule is identical however work is
// scheduled. No wall clock, no global state, no per-thread streams.
//
// On top of the rate-based draws, an explicit `schedule` pins individual
// faults to exact (kind, session, index) coordinates — what the
// regression tests use to fault exactly one session of a fleet.
#pragma once

#include <cstdint>
#include <vector>

namespace ivc::serve {

// What goes wrong. Each kind fires at one injection site:
//   detector_throw    — stream_detector::feed/finish throws (per block)
//   recognizer_throw  — the ASR stage throws mid-recognition (per
//                       resolved utterance)
//   recognizer_overrun— the modeled recognizer cost blows its deadline
//                       budget (per resolved utterance; deterministic
//                       cost model, never wall clock)
//   corrupt_block     — the queued audio block arrives NaN-poisoned
//                       (per block; exercises the ingest validation)
//   shard_kill        — a whole serving shard "crashes": the shard
//                       front force-evicts every idle session of the
//                       shard to its snapshot and serves on (per shard
//                       offer; coordinates are (shard index, per-shard
//                       offer counter)). Because snapshot/restore is
//                       bit-exact, a kill must be invisible in the
//                       verdict/outcome streams — which is exactly what
//                       the chaos gate checks.
enum class fault_kind : std::uint8_t {
  detector_throw,
  recognizer_throw,
  recognizer_overrun,
  corrupt_block,
  shard_kill,
};

// One pinned fault: fire `kind` in session `session` at per-session
// counter value `index` (blocks for block-level kinds, utterances for
// recognizer kinds).
struct fault_event {
  fault_kind kind = fault_kind::detector_throw;
  std::uint64_t session = 0;
  std::uint64_t index = 0;
};

struct fault_config {
  std::uint64_t seed = 0;
  // Per-site firing probabilities (rate-based chaos sweeps). A rate of
  // 0 disables the kind; the draw is a pure hash of
  // (seed, kind, session, index).
  double detector_throw_rate = 0.0;    // per consumed block
  double recognizer_throw_rate = 0.0;  // per resolved utterance
  double recognizer_overrun_rate = 0.0;  // per resolved utterance
  double corrupt_block_rate = 0.0;     // per consumed block
  double shard_kill_rate = 0.0;        // per shard-front offer
  // Explicitly pinned faults, in addition to the rate draws.
  std::vector<fault_event> schedule;

  bool enabled() const {
    return detector_throw_rate > 0.0 || recognizer_throw_rate > 0.0 ||
           recognizer_overrun_rate > 0.0 || corrupt_block_rate > 0.0 ||
           shard_kill_rate > 0.0 || !schedule.empty();
  }
};

// Const-thread-safe once constructed: fires() touches no mutable state,
// so one injector is shared by every session and every worker — the
// same sharing contract as the recognizer template set.
class fault_injector {
 public:
  explicit fault_injector(fault_config config);

  // True when `kind` fires in `session` at per-session counter `index`.
  // Pure in (config, kind, session, index): identical at any worker
  // count, drain schedule, or call order.
  bool fires(fault_kind kind, std::uint64_t session,
             std::uint64_t index) const;

  const fault_config& config() const { return config_; }

 private:
  double rate_of(fault_kind kind) const;

  fault_config config_;
};

}  // namespace ivc::serve
