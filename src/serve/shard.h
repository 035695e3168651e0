// Sharded serving front: global session ids placed across M independent
// session_manager shards by a pure function of the id.
//
// One session_manager scales to many workers, but its scheduler state
// (ready-queue, session table, eviction heap) is one lock domain — at
// fleet scale the front needs to PARTITION, not just parallelize. The
// shard_manager keeps the session_manager untouched and puts a thin
// router in front. Placement needs no table: ids come in blocks of M
// consecutive ids, and block b = id / M holds local id b on EVERY
// shard, in an order rotated by splitmix64 (the fault injector's mixer):
//
//   shard(id) = (id + splitmix64(id / M)) mod M,   local(id) = id / M
//   global(shard, local) = local*M + (shard - splitmix64(local)) mod M
//
// so per-shard session counts differ by at most 1, and any thread maps
// an id to its (shard, local) pair without shared state. Each shard is a
// complete session_manager with its own workers, ready-queue, residency
// bound, and histograms. Shards share the detector weights and
// (optionally) one serve_config object, nothing else. The front's only
// lock serializes open_session(), which keeps every shard's local ids in
// step with the global count; the offer path reads atomics only.
//
// The determinism contract survives sharding by construction: a
// session lives entirely on one shard, sessions never interact, and
// each shard preserves the exclusive-claim FIFO drain — so per-session
// verdict/outcome streams are bit-identical at ANY shard count, worker
// count, start/stop/drain() schedule, and eviction schedule. The shard
// test pins exactly that.
//
// shard_kill fault: when the shared fault_config's shard_kill_rate is
// set (or a pinned schedule entry names a shard), the front
// deterministically "crashes" a shard — every idle session of that
// shard is force-evicted to its snapshot (evict_idle) and service
// continues from cold. The draw coordinates are (shard index,
// per-shard offer counter), so with a single producer the kill
// schedule is reproducible; because snapshots are bit-exact, a kill
// must be invisible in the streams — which is what the chaos gate
// checks.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/sync.h"
#include "common/thread_annotations.h"
#include "serve/session_manager.h"

namespace ivc::serve {

// Per-shard load/eviction view, plus the fleet spread the bench reports.
struct shard_load {
  std::size_t sessions = 0;   // open on this shard (live + frozen)
  std::size_t resident = 0;   // live right now
  std::uint64_t offers = 0;   // blocks routed through this shard
  std::uint64_t evictions = 0;
  std::uint64_t rehydrations = 0;
  std::uint64_t shard_kills = 0;   // shard_kill faults fired here
  std::size_t quarantined = 0;     // sessions parked on this shard
};

struct shard_balance {
  std::vector<shard_load> shards;
  std::size_t min_sessions = 0;
  std::size_t max_sessions = 0;
  double mean_sessions = 0.0;
  // (GLOBAL session id, last_error()) of every quarantined session in
  // the fleet — the shard-local ids from each session_manager are
  // mapped back by the placement inverse.
  std::vector<std::pair<std::uint64_t, std::string>> quarantine_errors;
};

class shard_manager {
 public:
  // `config` applies to every shard (worker count, residency bound and
  // fault injector are PER SHARD). `num_shards` >= 1.
  shard_manager(defense::classifier_detector detector, serve_config config,
                std::size_t num_shards);

  std::size_t num_shards() const { return shards_.size(); }
  const serve_config& config() const { return config_; }

  // Opens a session and returns its GLOBAL id (dense, starting at 0),
  // placed by the rule above. Same overloads as session_manager — the
  // shared-config form is what a million-session fleet uses. The
  // session's stage-fault draws and quarantine dumps are keyed on the
  // global id, so they match an unsharded fleet's at any M. Throws
  // std::invalid_argument if the target shard's next local id is not
  // id / M, i.e. a session was opened through shard(i) directly.
  std::uint64_t open_session();
  std::uint64_t open_session(const serve_config& config);
  std::uint64_t open_session(std::shared_ptr<const serve_config> config);

  std::size_t num_sessions() const;

  // Which shard serves global session `id` (for tests and the bench's
  // balance report).
  std::size_t shard_of(std::uint64_t id) const;

  // The shard fronts themselves, for drills that poke one shard (the
  // chaos bench kills shard i directly via shard(i).evict_idle()). A
  // session opened here directly has no global id: later routed opens
  // on that shard throw, and aggregate()/balance() throw once it parks.
  session_manager& shard(std::size_t i);
  const session_manager& shard(std::size_t i) const;

  // Producer side: routes the block to the session's shard. Thread-safe;
  // the shard_kill draw below uses this shard's offer counter, so a
  // DETERMINISTIC kill schedule needs a single producer (the paced
  // bench's timeline loop), like every other stream-order contract.
  offer_status offer(std::uint64_t id, audio::buffer block);

  void close(std::uint64_t id);
  void close_all();

  // Run until idle on every shard: start(config().worker_threads) then
  // stop(), so the shards drain concurrently on their own workers.
  // Throws std::invalid_argument while streaming — call stop() instead.
  void drain();

  // Starts `workers_per_shard` long-lived workers on EVERY shard (0 =
  // config().worker_threads) — total workers = M x per-shard.
  void start(std::size_t workers_per_shard = 0);
  void stop();
  bool streaming() const;

  // close_all + flush on every shard, then stops: close_all(); stop();
  // drain().
  void finish();

  bool reopen(std::uint64_t id);
  bool resident(std::uint64_t id) const;

  std::vector<defense::stream_event> verdicts(std::uint64_t id) const;
  std::vector<command_outcome> outcomes(std::uint64_t id) const;
  session_stats stats(std::uint64_t id) const;

  // Flight-recorder dump of one session's span trace, routed to its
  // shard (reads frozen sessions in place, like the other accessors).
  std::vector<obs::span> trace(std::uint64_t id) const;

  // Cross-shard fleet totals: per-shard aggregates summed, histograms
  // merged (same binning everywhere by construction).
  serve_totals aggregate() const;

  // Eviction counters summed across shards.
  eviction_stats eviction() const;

  // Per-shard load plus the session spread (the placement-balance check).
  shard_balance balance() const;

 private:
  // The one open_session body: opens the next global id on the shard
  // that owns it, with `config` (null = the fleet config).
  std::uint64_t open_routed(std::shared_ptr<const serve_config> config)
      IVC_EXCLUDES(open_mutex_);
  // Appends shard `shard`'s (local id, error) pairs with global ids;
  // throws for a local id the front never opened.
  void append_global(
      std::size_t shard,
      const std::vector<std::pair<std::uint64_t, std::string>>& local,
      std::vector<std::pair<std::uint64_t, std::string>>& out) const;

  // shards_, faults_, config_ are immutable after construction — shared
  // reads need no lock.
  serve_config config_;
  std::vector<std::unique_ptr<session_manager>> shards_;
  std::shared_ptr<const fault_injector> faults_;

  // Serializes open_session so shard-local ids stay in step with count_;
  // published after the shard open, so an id below count_ is placed.
  ts_mutex open_mutex_;
  std::atomic<std::uint64_t> count_{0};
  std::vector<std::atomic<std::uint64_t>> offers_;       // per shard
  std::vector<std::atomic<std::uint64_t>> shard_kills_;  // per shard
};

}  // namespace ivc::serve
