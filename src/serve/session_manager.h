// Multi-stream defense serving layer: N concurrent detection sessions
// drained by a shared set of worker threads.
//
// The manager owns the sessions and runs ONE scheduler over them: n
// long-lived workers (start(n)/stop()) block on a condition-variable
// ready-queue. A session enqueues itself when an offer()/close() gives
// it work; a worker claims it exclusively, scores its queued blocks
// back-to-back (the scoring batch — the per-thread caches under feature
// extraction are hit instead of rebuilt per window), then re-queues it
// if more work arrived meanwhile. No barriers: latency is per-session,
// not per-slowest-session, which is what arrival-time-paced workloads
// need. drain() is the batch-replay entry point onto the same queue:
// start the workers, run until idle, stop.
//
// Because a session is always drained exclusively and in FIFO order,
// per-session verdict streams are bit-identical at any worker count and
// under any start/stop/drain() schedule; only latency and throughput
// move.
//
// Backpressure is explicit and lives at the session queues: a full ring
// sheds (newest or oldest) or rejects per serve_config::policy, and
// every shed/reject is counted. The aggregate() view merges per-session
// counters and latency histograms into the fleet-wide p50/p95/p99 the
// load bench reports.
//
// ---- Session eviction ---------------------------------------------------
// A voice fleet has far more OPEN sessions than ACTIVE ones: a session
// is a device, and a device speaks for a few seconds an hour. Keeping a
// full detection_session resident per open session (detector window
// state, segmenter buffers, histogram bins) caps the fleet at
// memory/session — the million-session benchmark needs the resident set
// bounded by ACTIVITY instead. When serve_config::max_resident_sessions
// is set, the manager evicts idle least-recently-offered sessions to a
// compact binary snapshot (detection_session::try_snapshot) and rebuilds
// them transparently on their next offer. Because the snapshot is
// bit-exact, eviction is invisible in the verdict/outcome streams — the
// bit-identity contract above extends across any eviction schedule.
// Reads (verdicts/outcomes/stats/aggregate) decode the snapshot in
// place and never rehydrate: observing a session must not change the
// resident set. Only IDLE sessions evict — queued audio is never
// serialized — so eviction can transiently overshoot the bound while
// every candidate is busy; the bound is enforced again at the next
// offer.
//
// Lock order (global): sessions_mutex_ -> sched_mutex_ -> session
// mutex_. offer() holds sessions_mutex_ across the whole call —
// rehydrate + enqueue + residency enforcement — so an offer can never
// race an eviction of the same session and lose its block.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/sync.h"
#include "common/thread_annotations.h"
#include "serve/session.h"

namespace ivc::serve {

// Fleet-wide totals: summed session counters plus the merged latency
// histograms (binned per serve_config::latency_bins).
struct serve_totals {
  session_stats stats;            // counters summed over sessions
  std::size_t num_sessions = 0;
  std::size_t sessions_with_attack_events = 0;
  // Fleet health roll-up: sessions currently NOT serving at full
  // capability, by state at snapshot time.
  std::size_t sessions_degraded = 0;     // ASR stage shed
  std::size_t sessions_recovering = 0;   // working off reopen backoff
  std::size_t sessions_quarantined = 0;  // parked after a fault
  // (session id, last_error()) of every quarantined session — resident
  // or frozen — so an operator sees WHY each parked session parked
  // without touching the resident set.
  std::vector<std::pair<std::uint64_t, std::string>> quarantine_errors;
};

// Eviction-layer counters of one manager (one shard).
struct eviction_stats {
  eviction_stats() = default;
  explicit eviction_stats(const histogram_config& bins)
      : rehydrate_latency{bins} {}

  std::uint64_t evictions = 0;     // sessions frozen to a snapshot
  std::uint64_t rehydrations = 0;  // sessions rebuilt from one
  // Bytes currently held by frozen images (the evicted working set).
  std::uint64_t frozen_bytes = 0;
  std::size_t resident = 0;  // live sessions at snapshot time
  // Wall time of each rehydration (decode + rebuild + restore), seconds.
  log_histogram rehydrate_latency;
};

class session_manager {
 public:
  explicit session_manager(defense::classifier_detector detector,
                           serve_config config = {});
  ~session_manager();  // stops streaming workers if still running

  const serve_config& config() const { return config_; }

  // Opens a new session and returns its id (dense, starting at 0).
  // Thread-safe; sessions may be opened while workers run (the new
  // session joins the ready-queue on its first offer).
  std::uint64_t open_session();

  // Opens a session with its OWN config — detector stream windowing,
  // command pipeline (recognizer/segmenter/intent), queue bound and
  // overflow policy may all differ per session. The latency binning
  // must match the fleet config: aggregate() merges per-session
  // histograms, and log_histogram::merge only accepts identical
  // binning, so a divergent config is rejected here instead of
  // corrupting the fleet view later.
  std::uint64_t open_session(const serve_config& config);

  // Same, sharing one config object across sessions — what a
  // million-session fleet uses so the per-session cost is the session,
  // not a config copy. The pointee must outlive the manager unchanged.
  std::uint64_t open_session(std::shared_ptr<const serve_config> config);

  std::size_t num_sessions() const;

  // Producer side: offers one block to session `id`. Thread-safe.
  // Rehydrates the session first if it was evicted, and enforces the
  // residency bound afterwards. While streaming, an accepted offer (or
  // a shed_oldest eviction) enqueues the session on the ready-queue if
  // it is not already queued/claimed.
  offer_status offer(std::uint64_t id, audio::buffer block);

  // Marks a session (or all of them) end-of-stream; the flush happens as
  // soon as a worker claims the session (on the next drain() when not
  // streaming). close() on an evicted session rehydrates it so the
  // flush can run (no-op when the snapshot is already closed+flushed);
  // close_all() skips rehydrating those.
  void close(std::uint64_t id);
  void close_all();

  // Run until idle: start(config().worker_threads) then stop(), so every
  // session with pending work is drained (and closed sessions flushed)
  // on the streaming workers. Safe to call repeatedly; an offer that
  // races the stop may stay queued for the next start() or drain().
  // Throws std::invalid_argument while streaming — call stop() instead.
  void drain();

  // Spawns `n_workers` long-lived worker threads (0 =
  // config().worker_threads) blocking on the ready-queue, and enqueues
  // every session that already has work. Idempotent: calling start()
  // while streaming is a no-op (the worker count does not change).
  void start(std::size_t n_workers = 0);

  // Finishes everything on the ready-queue (including work sessions
  // re-queue for themselves while stopping), then joins the workers.
  // Offers that race with stop() may leave queued blocks behind; they
  // are picked up by the next start() or drain(). Idempotent: stop()
  // without start() is a no-op.
  void stop();

  // True between start() and stop().
  bool streaming() const;

  // Recovery: reopens a quarantined session (detection_session::reopen)
  // and — while streaming — puts it back on the ready-queue if it has
  // queued blocks waiting. Pinned semantics: an unknown id throws
  // std::invalid_argument (it is a caller bug, same as offer), a known
  // session that is NOT quarantined returns false and changes nothing,
  // and an evicted quarantined session is rehydrated first.
  bool reopen(std::uint64_t id);

  // close_all() + flush, then stops: close_all(); stop(); drain().
  void finish();

  // Direct access to a RESIDENT session (throws std::invalid_argument
  // when the id is unknown or the session is currently evicted — use
  // the id-keyed accessors below, which transparently read frozen
  // sessions too).
  const detection_session& session(std::uint64_t id) const;

  // True while session `id` is live (not evicted).
  bool resident(std::uint64_t id) const;

  // Evicts session `id` to its snapshot if it is idle; false when it is
  // busy, has queued work, owes a close() flush, or is already evicted.
  bool evict(std::uint64_t id);

  // Evicts every idle session (the shard_kill fault: the shard "loses"
  // its resident state and must serve on from snapshots). Returns how
  // many sessions were evicted.
  std::size_t evict_idle();

  eviction_stats eviction() const;

  // Snapshot of one session's verdict stream. Safe at any time, even
  // while streaming workers append; reads an evicted session's stream
  // out of its frozen snapshot without rehydrating.
  std::vector<defense::stream_event> verdicts(std::uint64_t id) const;

  // Snapshot of one session's command-outcome stream (empty unless the
  // session's config carries a pipeline). Same safety contract.
  std::vector<command_outcome> outcomes(std::uint64_t id) const;

  session_stats stats(std::uint64_t id) const;
  serve_totals aggregate() const;

  // Flight-recorder dump of one session's span trace (oldest → newest).
  // Reads an evicted session's trace out of its frozen snapshot without
  // rehydrating, like the other id-keyed accessors.
  std::vector<obs::span> trace(std::uint64_t id) const;

  // (id, last_error()) of every quarantined session. Cheap: uses the
  // live object or the freeze-time hint, never decodes a frozen image —
  // safe to poll from a sampler thread.
  std::vector<std::pair<std::uint64_t, std::string>> quarantine_errors()
      const;

 private:
  // One session slot: live object while resident, frozen snapshot while
  // evicted (exactly one of the two is set once the session exists).
  struct slot {
    std::shared_ptr<detection_session> live;
    std::string frozen;  // binary try_snapshot() image when evicted
    // Per-session config override; null = the fleet config.
    std::shared_ptr<const serve_config> cfg;
    std::uint64_t touch = 0;  // last-offer stamp (LRU recency)
    // The id the session's fault draws and quarantine dumps are keyed
    // on: the slot index, or the shard front's global id.
    std::uint64_t key = 0;
    // Snapshot was closed+flushed: close_all() need not rehydrate it.
    bool closed_hint = false;
    // State and last_error() at freeze time, cached so the fleet health
    // roll-up (aggregate()) never decodes a frozen image just to ask
    // "is it quarantined, and why".
    session_state state_hint = session_state::serving;
    std::string err_hint;
  };

  // Scheduling state of one session on the streaming ready-queue. A
  // session is enqueued at most once (queued), and claimed by at most
  // one worker (claimed) — the exclusive-claim invariant that keeps
  // verdict streams bit-identical.
  enum class sched_state : std::uint8_t { idle, queued, claimed };

  // Eviction-layer registry handles (no-ops when config_.metrics is
  // null). Eviction/rehydration counts are SCHEDULING events —
  // registered deterministic=false — and the resident/frozen gauges are
  // point-in-time by nature.
  struct metric_handles {
    explicit metric_handles(obs::metrics_registry* reg);
    obs::counter evictions;
    obs::counter rehydrations;
    obs::gauge resident;
    obs::gauge frozen_bytes;
    obs::histogram rehydrate_latency;
  };

  // The shard front opens its sessions here, keyed on their GLOBAL id,
  // so a sharded fleet draws the same stage faults and names the same
  // sessions in quarantine dumps as an unsharded one. A null `config`
  // means the fleet config.
  friend class shard_manager;
  std::uint64_t open_keyed(std::uint64_t key,
                           std::shared_ptr<const serve_config> config)
      IVC_EXCLUDES(sessions_mutex_);

  // The slot/eviction helpers run with sessions_mutex_ held — the
  // IVC_REQUIRES makes calling one without it a compile error.
  std::uint64_t open_slot(std::shared_ptr<const serve_config> cfg,
                          const serve_config& effective,
                          std::optional<std::uint64_t> key)
      IVC_REQUIRES(sessions_mutex_) IVC_EXCLUDES(sched_mutex_);
  const std::shared_ptr<detection_session>& ensure_resident(std::uint64_t id)
      IVC_REQUIRES(sessions_mutex_);
  bool evict_locked(std::uint64_t id) IVC_REQUIRES(sessions_mutex_);
  void enforce_residency() IVC_REQUIRES(sessions_mutex_);
  // Enqueues session `id` if streaming and the session is idle. Takes
  // sched_mutex_ itself (always called under sessions_mutex_ — the
  // global lock order).
  void notify_ready(std::uint64_t id,
                    const std::shared_ptr<detection_session>& s)
      IVC_EXCLUDES(sched_mutex_);
  void worker_loop() IVC_EXCLUDES(sessions_mutex_, sched_mutex_);

  defense::classifier_detector detector_;
  serve_config config_;
  metric_handles metrics_;
  // Guards slots_ + eviction state; always acquired BEFORE sched_mutex_
  // (offer -> notify_ready). A session mutex may be taken under either —
  // never the other way around.
  mutable ts_mutex sessions_mutex_ IVC_ACQUIRED_BEFORE(sched_mutex_);
  std::vector<slot> slots_ IVC_GUARDED_BY(sessions_mutex_);
  std::size_t resident_count_ IVC_GUARDED_BY(sessions_mutex_) = 0;
  std::uint64_t touch_counter_ IVC_GUARDED_BY(sessions_mutex_) = 0;
  // Lazy LRU min-heap of (touch-at-push, id). Entries go stale when a
  // session is touched again; enforce_residency() skips or refreshes
  // them on pop, so the heap stays O(resident) instead of O(offers).
  std::priority_queue<std::pair<std::uint64_t, std::uint64_t>,
                      std::vector<std::pair<std::uint64_t, std::uint64_t>>,
                      std::greater<>>
      lru_ IVC_GUARDED_BY(sessions_mutex_);
  eviction_stats evic_ IVC_GUARDED_BY(sessions_mutex_);

  // Streaming state, guarded by sched_mutex_ (see lock order above).
  mutable ts_mutex sched_mutex_;
  std::condition_variable sched_cv_;
  std::deque<std::pair<std::uint64_t, std::shared_ptr<detection_session>>>
      ready_ IVC_GUARDED_BY(sched_mutex_);
  std::vector<sched_state> sched_ IVC_GUARDED_BY(sched_mutex_);
  bool stopping_ IVC_GUARDED_BY(sched_mutex_) = false;
  std::vector<std::thread> workers_ IVC_GUARDED_BY(sched_mutex_);
};

}  // namespace ivc::serve
