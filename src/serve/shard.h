// Sharded serving front: session ids hashed across M independent
// session_manager shards.
//
// One session_manager scales to many workers, but its scheduler state
// (ready-queue, session table, eviction heap) is one lock domain — at
// fleet scale the front needs to PARTITION, not just parallelize. The
// shard_manager keeps the session_manager untouched and puts a thin
// router in front: a global session id hashes (splitmix64, the same
// mixer the fault injector uses) onto one of M shards, each a complete
// session_manager with its own workers, ready-queue, residency bound,
// and histograms. Shards share the detector weights and (optionally)
// one serve_config object, nothing else — no cross-shard locks on the
// offer path.
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
  // mapped back through the routing table.
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

  // Opens a session and returns its GLOBAL id (dense, starting at 0).
  // The id is hashed onto a shard; the mapping is fixed for the
  // session's lifetime. Same overloads as session_manager — the shared-
  // config form is what a million-session fleet uses.
  std::uint64_t open_session();
  std::uint64_t open_session(const serve_config& config);
  std::uint64_t open_session(std::shared_ptr<const serve_config> config);

  std::size_t num_sessions() const;

  // Which shard serves global session `id` (for tests and the bench's
  // balance report).
  std::size_t shard_of(std::uint64_t id) const;

  // The shard fronts themselves, for drills that poke one shard (the
  // chaos bench kills shard i directly via shard(i).evict_idle()).
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

  // Per-shard load plus the session spread (the hash-balance check).
  shard_balance balance() const;

 private:
  struct route {
    std::uint32_t shard = 0;
    std::uint64_t local = 0;  // id inside the shard's session_manager
  };

  route route_of(std::uint64_t id) const IVC_EXCLUDES(routes_mutex_);
  // Per-shard local-id -> global-id tables (one routes_ scan; local ids
  // are dense in open order, so the tables build by append). Build them
  // AFTER reading the shards: open_session holds routes_mutex_ across
  // the shard open, so every local id a shard reported is routed by
  // then.
  std::vector<std::vector<std::uint64_t>> global_ids() const
      IVC_EXCLUDES(routes_mutex_);

  // shards_, faults_, config_ are immutable after construction — shared
  // reads need no lock; only the routing table and counters mutate.
  serve_config config_;
  std::vector<std::unique_ptr<session_manager>> shards_;
  std::shared_ptr<const fault_injector> faults_;

  mutable ts_mutex routes_mutex_;
  // global id -> (shard, local id)
  std::vector<route> routes_ IVC_GUARDED_BY(routes_mutex_);
  // per-shard offer counters
  std::vector<std::uint64_t> offers_ IVC_GUARDED_BY(routes_mutex_);
  // per-shard kill counts
  std::vector<std::uint64_t> shard_kills_ IVC_GUARDED_BY(routes_mutex_);
};

}  // namespace ivc::serve
