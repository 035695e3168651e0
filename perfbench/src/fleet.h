// Set-up, traffic and the replay engine that drives the serving front.
//
// Every workload drives serve::shard_manager through streaming
// start()/stop()/finish() only. One producer thread walks an offer plan
// (session, block, due time); a rejected offer waits and retries. A plan is
// either open loop (every block has a due time) or closed loop (none has).
// Open loop, a block's latency runs from its due time to the end of its
// detector scoring, joined per block from the producer's own offer record
// and the session's ingest/detector spans (queue wait + service). Closed
// loop, the queue is the backlog the loop builds itself and its wait is
// set by the host's thread wake-ups, so a block's latency is its detector
// service time alone.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "asr/recognizer.h"
#include "defense/detector.h"
#include "serve/shard.h"
#include "sim/traffic.h"
#include "util.h"

namespace pb {

// Detector training (defense corpus render + logistic fit) and recognizer
// enrollment. The training corpus is fixed, so every seed serves with the
// same model; only the served traffic depends on the seed.
struct trained_models {
  ivc::defense::classifier_detector detector;
  std::shared_ptr<const ivc::asr::recognizer> recognizer;
};
trained_models train_and_enroll();

// A rendered script pool plus its blocks, sliced once.
struct script_pool {
  std::vector<ivc::sim::session_script> scripts;
  std::vector<std::vector<ivc::audio::buffer>> blocks;  // per script
  double audio_s = 0.0;
  double render_s = 0.0;  // render wall time
};
// A fleet of fixed composition: `attacks` attack streams spread evenly
// among `genuine` genuine streams (commands and benign chatter), drawn
// from two seeded generators so every seed serves the same mix.
class traffic_mix {
 public:
  traffic_mix(ivc::sim::traffic_config config, std::uint64_t seed,
              std::size_t attacks, std::size_t genuine);
  std::size_t size() const { return attack_of_.size(); }
  // Renders script `i` of the mix on the calling thread.
  ivc::sim::session_script script(std::size_t i) const;
  const ivc::sim::traffic_generator& attack() const { return attack_; }
  const ivc::sim::traffic_generator& genuine() const { return genuine_; }
  // Position of mix script `i` in its generator, and which one.
  std::size_t index_of(std::size_t i) const { return index_of_[i]; }
  bool is_attack(std::size_t i) const { return attack_of_[i]; }

 private:
  static ivc::sim::traffic_config with(ivc::sim::traffic_config c,
                                       std::size_t n, double attack_fraction);
  ivc::sim::traffic_generator attack_;
  ivc::sim::traffic_generator genuine_;
  std::vector<bool> attack_of_;
  std::vector<std::size_t> index_of_;
};

// Renders every script of the mix on the generators' thread pools.
script_pool render_pool(const traffic_mix& mix);

struct offer_event {
  std::uint32_t session = 0;
  std::uint32_t script = 0;
  std::uint32_t block = 0;  // block index within the script
  double due_s = -1.0;      // fleet-timeline due time; < 0 = closed loop
  bool close_after = false;
};

struct front_options {
  std::size_t shards = 1;
  std::size_t workers_per_shard = 1;
  ivc::serve::serve_config config;
  // Per-session config (e.g. with the command pipeline); null = fleet.
  std::shared_ptr<const ivc::serve::serve_config> session_config;
  std::size_t num_sessions = 0;
  // Fleet health queries at this rate (0 = none): every 50th is
  // aggregate(), the others alternate stats() of the session touched
  // longest ago and balance(). On a reader thread if `reader_thread` is
  // set; else on the producer, while it offers in a closed loop, and after
  // finish() in an open loop (as many as the rate gives over its run).
  double health_hz = 0.0;
  bool reader_thread = false;
  // Sticky producer throttle while resident sessions exceed this
  // (0 = never throttle).
  std::size_t resident_watermark = 0;
  // finish() at the end (close + flush every session); otherwise stop().
  bool finish = true;
  // Benchmark spans around each offer() call (traced run only).
  span_recorder* spans = nullptr;
};

struct front_result {
  double wall_s = 0.0;        // first offer to drained
  double throttle_s = 0.0;    // producer sleeps: pacing, throttle, retries
  double producer_s = 0.0;    // producer loop wall time
  std::uint64_t offers = 0;   // accepted offers
  std::uint64_t offer_calls = 0;
  std::uint64_t rejected = 0;  // rejected offers (retried)
  std::uint64_t failed = 0;    // blocks shed, closed, never scored + quarantines
  std::uint64_t planned = 0;
  std::vector<double> offer_us;       // every offer() call
  std::vector<double> cold_offer_us;  // offers to a non-resident session
  std::vector<double> late_ms;        // offer start - due (paced only)
  std::vector<double> block_ms;       // per scored block (see above)
  std::vector<double> block_due_s;    // due time of each block_ms entry
  std::vector<double> health_ms;      // health query latencies
  std::size_t peak_resident = 0;
  double audio_s = 0.0;  // audio scored
  ivc::serve::serve_totals totals;
  ivc::serve::eviction_stats eviction;
  ivc::serve::shard_balance balance;
  std::vector<std::vector<ivc::defense::stream_event>> verdicts;
  std::vector<std::vector<ivc::serve::command_outcome>> outcomes;
};

front_result run_front(const ivc::defense::classifier_detector& detector,
                       const script_pool& pool,
                       const std::vector<offer_event>& plan,
                       const front_options& options);

// Closed-loop round-robin plan: one block per session per round, each
// session streaming script `script_of[s]` to its end, then closing.
std::vector<offer_event> round_robin_plan(
    const script_pool& pool, const std::vector<std::size_t>& script_of);

// Streams identical (verdicts bit-exact, outcomes with asr_s exempt)?
bool same_verdicts(const std::vector<ivc::defense::stream_event>& a,
                   const std::vector<ivc::defense::stream_event>& b);
bool same_outcomes(const std::vector<ivc::serve::command_outcome>& a,
                   const std::vector<ivc::serve::command_outcome>& b);
std::uint64_t verdict_hash(
    const std::vector<std::vector<ivc::defense::stream_event>>& streams);

}  // namespace pb
