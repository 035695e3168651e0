// One concurrent detection session of the serving layer.
//
// A detection_session wraps a defense::stream_detector behind a bounded
// ring-buffered ingest queue so that producers (capture threads, the
// load generator) and consumers (the session_manager's workers) are
// decoupled. The contract that makes the whole layer testable:
//
//   * the verdict stream is a pure function of the sequence of ACCEPTED
//     blocks — workers drain a session exclusively and in FIFO order, so
//     verdicts are bit-identical at any worker count and any
//     start()/stop()/drain() schedule of the manager's workers;
//     scheduling only moves the latency numbers;
//   * overflow is explicit: when the ring is full the configured policy
//     either sheds (newest or oldest, counted per session) or rejects
//     the offer so the producer can apply backpressure and retry.
//
// All shared state — the ring, the counters, AND the verdict stream —
// is guarded by the session mutex; verdicts() hands out a snapshot copy
// so the streaming mode can read a live session's verdicts while a
// worker appends to them.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "audio/buffer.h"
#include "common/histogram.h"
#include "common/sync.h"
#include "common/thread_annotations.h"
#include "common/json_min.h"
#include "defense/detector.h"
#include "defense/stream.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "serve/fault.h"
#include "serve/pipeline.h"

namespace ivc::serve {

// What happens when a block is offered to a full ingest queue.
enum class overflow_policy {
  shed_newest,  // drop the offered block (default: protect the backlog)
  shed_oldest,  // evict the oldest queued block, accept the new one
  reject,       // accept nothing; the producer must drain and retry
};

// Health of one session. Fault containment quarantines a session whose
// scoring stage crashed instead of letting the exception kill the
// worker fleet; recovery (automatic or via reopen()) resets the
// detector/segmenter/pipeline and works off a block-counted backoff
// before scoring resumes. The ladder is strictly fail-closed: a session
// not in `serving`/`degraded` emits no `executed` outcomes, ever.
enum class session_state : std::uint8_t {
  serving,      // healthy, full pipeline
  degraded,     // ASR stage shed (detector-only fail-closed mode)
  recovering,   // reopened after a fault: dropping backoff blocks
  quarantined,  // stage crashed; parked until reopen() (or forever once
                // the bounded retry budget is spent)
};

// Containment + recovery policy of the serving layer.
struct fault_tolerance_config {
  // Reopen a faulted session automatically (bounded by max_reopens).
  // When false the session stays quarantined until a manual reopen().
  bool auto_reopen = true;
  // Retry budget: after this many automatic reopens the next fault
  // parks the session permanently (still fail-closed, still counted).
  std::size_t max_reopens = 3;
  // Block-counted backoff: after the n-th reopen the session consumes
  // and drops `backoff_blocks << n` accepted blocks before scoring
  // resumes. Counted in accepted blocks — never wall clock — so the
  // recovery point is identical at any worker count.
  std::size_t backoff_blocks = 8;
  // Snapshot-based crash recovery: when enabled the session checkpoints
  // its detector + pipeline stream state every `snapshot_every_blocks`
  // scored blocks — only at SAFE points, where the pipeline owes no
  // outcome (pending empty, segmenter idle), so a restore can never
  // re-emit an utterance the fail-closed flush already resolved. A
  // contained fault (and a manual reopen()) then restores the stages
  // from the last good checkpoint instead of cold-resetting: the stream
  // resumes at the checkpoint's position — verdict timestamps continue
  // instead of restarting at t = 0 — losing only the audio between the
  // checkpoint and the fault plus the backoff blocks. Checkpoints are
  // block-counted, so recovery is bit-identical at any worker count.
  bool snapshot_recovery = false;
  std::size_t snapshot_every_blocks = 64;
};

struct serve_config {
  defense::stream_config stream;  // per-session sliding-window detector
  // End-to-end command stage behind the verdict stream (segmenter →
  // recognizer → intent). Disengaged when unset: the session serves
  // detector verdicts only, exactly as before. When the pipeline's
  // decision_window_s is 0 it adopts stream.window_s, so the verdict
  // overlap test always matches the detector's actual analysis window.
  std::optional<pipeline_config> pipeline;
  std::size_t queue_capacity = 64;       // blocks per session ring
  overflow_policy policy = overflow_policy::shed_newest;
  // Worker threads the owning manager runs for drain() and start(0);
  // 0 = default_thread_count() (one per hardware thread).
  std::size_t worker_threads = 0;
  // Binning of every latency histogram (total, queue-wait, service).
  // Per-session histograms and the aggregate() fold all use this, so
  // merges always see matching configs.
  histogram_config latency_bins;
  // Residency bound of the owning session_manager (per manager — each
  // shard of a sharded front gets its own). When more than this many
  // sessions are LIVE, the manager evicts idle least-recently-offered
  // sessions to compact snapshots and rebuilds them on their next
  // offer, bit-identically. 0 = unbounded (no eviction). Ignored by the
  // session itself.
  std::size_t max_resident_sessions = 0;
  // Containment + recovery policy (always on; the knobs bound it).
  fault_tolerance_config fault_tolerance;
  // Deterministic fault injection (chaos harness / tests). Shared and
  // const-thread-safe; null = no injection. The per-session pipeline
  // inherits it for the recognizer sites.
  std::shared_ptr<const fault_injector> faults;
  // ---- Observability -------------------------------------------------
  // Fleet-wide metrics registry, shared by every session/manager/shard
  // of the front; null = no metrics (handles degrade to no-ops). The
  // per-session pipeline inherits it for the utterance counters.
  std::shared_ptr<obs::metrics_registry> metrics;
  // Flight recorder: how many stage spans (ingest -> detector -> ASR ->
  // intent -> outcome) each session retains in its bounded trace ring.
  // 0 disables span tracing entirely.
  std::size_t trace_spans = 64;
  // Notified with the flight-recorder dump on every quarantine entry —
  // retried containment, terminal containment, and force_quarantine
  // alike (the fault span's value field marks retried=1 vs parked=0).
  // Shared and thread-safe; null = dumps only on demand via trace().
  std::shared_ptr<obs::trace_sink> trace_sink;
};

enum class offer_status {
  accepted,     // enqueued (under shed_oldest, possibly evicting a block)
  shed,         // dropped under shed_newest; counted in blocks_shed
  rejected,     // queue full under reject policy: drain and retry
  closed,       // session is closed: no retry will ever succeed
  quarantined,  // session is parked after a fault: only reopen() helps —
                // retrying without one would livelock the backpressure
                // loop, exactly like offering to a closed session
};

struct session_stats {
  session_stats() = default;
  explicit session_stats(const histogram_config& bins)
      : latency{bins}, queue_wait{bins}, service{bins}, asr_service{bins} {}

  std::uint64_t blocks_offered = 0;
  std::uint64_t blocks_accepted = 0;
  std::uint64_t blocks_processed = 0;
  std::uint64_t blocks_shed = 0;      // dropped or evicted at the queue
  std::uint64_t blocks_rejected = 0;  // bounced back to the producer
  std::uint64_t samples_processed = 0;
  double audio_s_processed = 0.0;
  std::uint64_t events = 0;         // verdicts emitted
  std::uint64_t attack_events = 0;  // verdicts with is_attack
  // Command-pipeline outcome counters (all zero without a pipeline).
  std::uint64_t utterances = 0;          // outcomes emitted
  std::uint64_t commands_blocked = 0;    // vetoed by the defense verdict
  std::uint64_t commands_executed = 0;   // recognized + intent mapped
  std::uint64_t commands_rejected = 0;   // recognizer rejected
  std::uint64_t commands_ignored = 0;    // recognized, intent engine idle
  // Per-block latency decomposition, seconds:
  //   latency    = offer() to scored (end to end)
  //   queue_wait = offer() to claimed by a worker
  //   service    = claimed to scored (detector time)
  // latency ≈ queue_wait + service per block; the histograms bin each
  // part independently so paced replays can tell congestion (queue
  // growth) from slow scoring.
  log_histogram latency;
  log_histogram queue_wait;
  log_histogram service;
  // Recognizer time per resolved utterance (the ASR stage's own service
  // clock, split from the detector's `service`). One sample per outcome
  // that reached the recognizer — blocked utterances never run ASR.
  log_histogram asr_service;
  // ---- Health / fault counters (all zero on a healthy session) -------
  std::uint64_t detector_faults = 0;    // contained detector-stage crashes
  std::uint64_t recognizer_faults = 0;  // contained ASR-stage crashes
  std::uint64_t corrupt_blocks = 0;     // non-finite ingest blocks caught
                                        // at the scoring boundary
  std::uint64_t asr_deadline_overruns = 0;  // modeled-cost budget blown
  std::uint64_t utterances_shed_degraded = 0;  // blocked in detector-only
                                               // mode (ASR stage shed)
  std::uint64_t utterances_failed_closed = 0;  // blocked by ANY fault
                                               // path (never executed)
  std::uint64_t quarantines = 0;        // containment events
  std::uint64_t reopens = 0;            // recoveries (auto + manual)
  std::uint64_t blocks_dropped_backoff = 0;  // consumed unscored while
                                             // recovering
  // ---- Snapshot layer (all zero unless snapshot_recovery/eviction) ---
  std::uint64_t stage_snapshots = 0;    // crash-recovery checkpoints taken
  std::uint64_t snapshot_restores = 0;  // recoveries from a checkpoint
                                        // (instead of a cold stage reset)

  // Folds another stats block into this one: counters sum, histograms
  // merge (the binning configs must match). The fleet/shard aggregation
  // primitive.
  void merge(const session_stats& other);
};

class detection_session {
 public:
  // `id` keys the session's fault draws and quarantine dumps: the
  // owning manager's slot index, or the shard front's global id.
  detection_session(std::uint64_t id, defense::classifier_detector detector,
                    const serve_config& config);

  std::uint64_t id() const { return id_; }

  // Producer side (thread-safe): offers one ingest block. Blocks are
  // accepted in call order; concurrent producers to the SAME session
  // serialize on the queue lock with no order guarantee between them.
  offer_status offer(audio::buffer block);

  // Marks end-of-stream: later offers return offer_status::closed, and
  // the next drain flushes the detector's partial window
  // (stream_detector::finish).
  //
  // Lifecycle edges (pinned by tests, not left implicit):
  //   * close() is idempotent — a second close() is a no-op;
  //   * offer() after close() returns offer_status::closed and counts
  //     the bounce in blocks_rejected; queued blocks are still scored;
  //   * closing a session that never accepted a block is fine: the next
  //     drain runs the (empty) finish flush exactly once.
  void close();
  bool closed() const;

  // Health of the session (see session_state). Thread-safe snapshot.
  session_state state() const;

  // Message of the last contained fault (empty while healthy).
  std::string last_error() const;

  // Recovery from quarantine: restores the detector/segmenter/pipeline
  // from the last good crash-recovery checkpoint when
  // fault_tolerance.snapshot_recovery is on and one exists, otherwise
  // resets them to fresh-stream state; grants a fresh retry budget and
  // re-enters service through a block-counted backoff (the next
  // fault_tolerance.backoff_blocks accepted blocks are consumed
  // unscored). Returns false when the session is not quarantined or a
  // worker still owns it. Queued blocks survive and are scored — as a
  // resumed stream from the checkpoint, or a NEW stream at t = 0 —
  // once the backoff drains.
  bool reopen();

  // Last-resort containment used by the manager's worker wrappers when
  // an exception escapes process() itself: parks the session
  // immediately (no reset, no backoff) so the fleet keeps serving.
  void force_quarantine(const std::string& what);

  // True while queued blocks remain or a close() flush is still owed.
  bool has_work() const;

  // Consumer side: processes every queued block through the detector,
  // appending verdicts. Only one worker runs a session at a time —
  // concurrent callers return 0 immediately instead of blocking.
  // Returns blocks processed.
  std::size_t process();

  // Snapshot of the verdict stream so far. Safe to call at any time,
  // including while a worker is appending (streaming mode).
  std::vector<defense::stream_event> verdicts() const;

  // Snapshot of the command-outcome stream (empty when the session has
  // no pipeline configured). Same safety contract as verdicts().
  std::vector<command_outcome> outcomes() const;

  // Flight recorder: the retained stage spans, oldest -> newest (empty
  // when serve_config::trace_spans is 0). Same safety contract as
  // verdicts(); every field except span::wall_s is deterministic.
  std::vector<obs::span> trace() const;

  session_stats stats() const;

  // ---- Eviction snapshots ---------------------------------------------
  // Serializes the COMPLETE session — counters, histograms, verdict and
  // outcome streams, fault-ladder position, detector/pipeline stream
  // state, and any crash-recovery checkpoint — so the manager can evict
  // the session and rebuild it later with restore(), bit-identically:
  // the rehydrated session's remaining verdicts/outcomes are the ones
  // this session would have produced. Claims the session exclusively;
  // returns false (and writes nothing) when a worker owns it, blocks
  // are still queued, or a close() flush is owed — only an IDLE session
  // snapshots, because queued audio is not serialized.
  bool try_snapshot(json::value& out);

  // Rebuilds from a try_snapshot() image. Must be called on a freshly
  // constructed session of the SAME config before it is shared with
  // producers or workers; throws on a snapshot/config mismatch (e.g. a
  // pipeline snapshot restored into a pipeline-less session).
  void restore(const json::value& snap);

 private:
  struct queued_block {
    audio::buffer block;
    std::chrono::steady_clock::time_point enqueued;
  };

  // Pops the oldest queued block; false when the queue is empty.
  bool pop(queued_block& out) IVC_EXCLUDES(mutex_);
  // Folds pipeline outcomes into outcomes_/stats_.
  void record_outcomes(const std::vector<command_outcome>& outcomes)
      IVC_REQUIRES(mutex_);
  // Containment: called by process() (holding busy_) when an exception
  // escapes a scoring stage. Flushes the pipeline fail-closed, counts
  // the fault against `counter`, then either auto-reopens (bounded
  // retry, block-counted backoff) or parks the session quarantined.
  void contain_fault(std::uint64_t session_stats::* counter,
                     const std::string& what) IVC_REQUIRES(busy_)
      IVC_EXCLUDES(mutex_);
  // Resets detector/pipeline to fresh-stream state.
  void reset_stages() IVC_REQUIRES(busy_);
  // Crash recovery: restores the stages from the last good checkpoint;
  // falls back to reset_stages() when there is none (or it is corrupt).
  // Counts the restore when it happens.
  void recover_stages() IVC_REQUIRES(busy_) IVC_EXCLUDES(mutex_);
  // Takes a crash-recovery checkpoint when the block count and safety
  // conditions line up.
  void maybe_checkpoint(std::uint64_t block_index) IVC_REQUIRES(busy_)
      IVC_EXCLUDES(mutex_);
  // Serializes everything; the image must be a consistent cut of both
  // the worker-owned stage state and the lock-guarded streams.
  json::value build_snapshot() const IVC_REQUIRES(busy_, mutex_);

  // Fleet-shared metric handles of one session. All hot-path bumps are
  // relaxed atomics on registry cells shared across the fleet (no
  // per-session cardinality); a null registry leaves every handle a
  // no-op. The set mirrors the deterministic counter families of
  // session_stats — scheduling-dependent counts (sheds, rejects) are
  // registered non-deterministic so the telemetry fingerprint stays
  // bit-identical across worker counts.
  struct metric_handles {
    explicit metric_handles(obs::metrics_registry* reg);
    obs::counter blocks_processed;
    obs::counter blocks_shed;      // non-deterministic: drain timing
    obs::counter blocks_rejected;  // non-deterministic: drain timing
    obs::counter events;
    obs::counter attack_events;
    obs::counter faults_ingest;    // corrupt blocks, by stage label
    obs::counter faults_detector;
    obs::counter faults_asr;
    obs::counter quarantines;
    obs::counter reopens;
    obs::counter backoff_drops;
  };

  const std::uint64_t id_;
  const std::size_t capacity_;
  const overflow_policy policy_;
  const fault_tolerance_config fault_tolerance_;
  const std::shared_ptr<const fault_injector> faults_;
  const std::shared_ptr<obs::trace_sink> trace_sink_;
  const metric_handles metrics_;

  // Every piece of stream-visible state is a declared capability target:
  // clang -Wthread-safety proves each access below happens under mutex_.
  mutable ts_mutex mutex_;
  std::vector<queued_block> ring_ IVC_GUARDED_BY(mutex_);
  std::size_t head_ IVC_GUARDED_BY(mutex_) = 0;   // oldest queued block
  std::size_t count_ IVC_GUARDED_BY(mutex_) = 0;  // queued blocks
  session_stats stats_ IVC_GUARDED_BY(mutex_);
  bool closed_ IVC_GUARDED_BY(mutex_) = false;
  bool finished_ IVC_GUARDED_BY(mutex_) = false;  // close() flush done
  session_state state_ IVC_GUARDED_BY(mutex_) = session_state::serving;
  std::string last_error_ IVC_GUARDED_BY(mutex_);
  std::vector<defense::stream_event> verdicts_ IVC_GUARDED_BY(mutex_);
  std::vector<command_outcome> outcomes_ IVC_GUARDED_BY(mutex_);
  // Bounded flight recorder (see obs/trace.h). Guarded by mutex_ like
  // the streams; serialized with the snapshot so eviction preserves it.
  obs::trace_ring trace_ IVC_GUARDED_BY(mutex_);

  // One worker at a time: the exclusive-claim discipline is itself a
  // capability (common/sync.h), so "touched only by the worker holding
  // busy_" is compiler-checked, not a comment.
  claim_flag busy_;

  defense::stream_detector detector_ IVC_GUARDED_BY(busy_);
  std::optional<command_pipeline> pipeline_ IVC_GUARDED_BY(busy_);
  // Fault-schedule coordinate: every block consumed off the ring (scored
  // or dropped), in accepted order. Monotonic forever — reopen() must
  // not rewind it, or a pinned fault would re-fire after every reset.
  // Atomic, NOT busy_-guarded: the busy_ holder is the only writer, but
  // force_quarantine() reads it from the manager's backstop path without
  // claiming the session (the claim may be wedged — that is why the
  // backstop exists), which the thread-safety pass flagged as a race.
  std::atomic<std::uint64_t> consumed_blocks_{0};
  // Automatic-reopen retry budget spent so far.
  std::size_t reopen_count_ IVC_GUARDED_BY(busy_) = 0;
  // Accepted blocks still to drop before scoring resumes (recovering).
  std::uint64_t backoff_remaining_ IVC_GUARDED_BY(busy_) = 0;
  // Last good crash-recovery checkpoint (binary-encoded detector +
  // pipeline stream state; empty = none yet). Binary keeps a resident
  // checkpoint cheap — the pending audio inside it is mostly silence,
  // which the codec run-length-codes away.
  std::string last_good_ IVC_GUARDED_BY(busy_);
};

// ---- Frozen-snapshot readers ------------------------------------------
// Decode one field family out of a try_snapshot() image WITHOUT
// rebuilding the session — how the manager serves stats/verdict/outcome
// reads for EVICTED sessions (reads must not change residency).
session_stats snapshot_stats(const json::value& snap,
                             const histogram_config& bins);
session_state snapshot_state(const json::value& snap);
bool snapshot_closed(const json::value& snap);
std::string snapshot_last_error(const json::value& snap);
std::vector<defense::stream_event> snapshot_verdicts(const json::value& snap);
std::vector<command_outcome> snapshot_outcomes(const json::value& snap);
std::vector<obs::span> snapshot_trace(const json::value& snap);

}  // namespace ivc::serve
