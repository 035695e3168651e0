// Second pipeline stage of the serving layer: recognition + intent
// behind the defense verdict.
//
// The detection stage (session.h) stops at attack/genuine verdicts, but
// the papers score attacker success as COMMAND EXECUTION on a real
// assistant — an attack that the detector misses still fails if the
// recognizer rejects its demodulated audio, and a genuine request that
// the detector falsely flags is a real denial of service. This stage
// closes that gap per session:
//
//   accepted blocks ─► utterance segmenter (duration-gate VAD)
//                  ─► defense verdict overlap: flagged ⇒ BLOCKED
//                  ─► asr::recognizer over the shared template set
//                  ─► keyword→intent state machine (wake/arm/timeout)
//                  ─► outcome stream: blocked / executed(intent) /
//                     rejected_by_asr / ignored
//
// The outcome stream is a pure function of the accepted-block order —
// the same contract as the verdict stream — so it is bit-identical at
// any worker count, under any start/stop/drain() schedule, and under
// any block chunking. An utterance only resolves once the detector has consumed
// past its end by the verdict guard plus a full analysis window, i.e.
// once every defense window that the guard-grown overlap test could
// match has been decided; scheduling moves when a resolution happens,
// never what it says.
//
// The intent machine follows the sln_voice intent-engine shape: an
// optional wake command arms the engine for `timeout_s`; while armed,
// recognized commands map through the keyword→intent table; a timeout
// disarms back to idle. With no wake command configured the engine is
// always armed (the serving default — fleet streams carry bare
// commands).
//
// Thread safety: command_pipeline holds NO lock by design. It is a
// single-consumer stage owned by detection_session and only ever
// touched by the worker holding the session's busy_ claim — the
// exclusive-claim capability (see session.h: pipeline_ is
// IVC_GUARDED_BY(busy_)) is the synchronization, so adding a mutex
// here would be pure overhead on the scoring hot path.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "asr/recognizer.h"
#include "asr/segmenter.h"
#include "audio/buffer.h"
#include "defense/stream.h"
#include "obs/registry.h"
#include "serve/fault.h"

namespace ivc::serve {

struct intent_rule {
  std::string command_id;
  std::string intent;
};

struct intent_config {
  // Keyword → intent table; empty = identity over synth::command_bank()
  // ("open_door" → "intent/open_door").
  std::vector<intent_rule> rules;
  // Non-empty: the two-stage machine — this command arms the engine,
  // and only an armed engine maps commands. Empty: always armed.
  std::string wake_command_id;
  // Seconds the engine stays armed after the wake (and after each
  // accepted command — a command chain keeps the session hot).
  double timeout_s = 5.0;
};

// Keyword → intent state machine with wake/arm/timeout handling.
class intent_engine {
 public:
  explicit intent_engine(intent_config config = {});

  // A recognized command at stream time `time_s`. Returns the mapped
  // intent when the engine is armed and the table maps the command;
  // nullopt when the command is the wake word (arming, not an intent),
  // the engine is idle, or the command is unmapped.
  std::optional<std::string> on_command(const std::string& command_id,
                                        double time_s);

  bool armed_at(double time_s) const;
  void reset();

  // Serializable arm state; restore(snapshot()) resumes the wake
  // machine bit-exactly (the rules table rides in the config).
  json::value snapshot() const;
  void restore(const json::value& snap);

  const intent_config& config() const { return config_; }

 private:
  intent_config config_;
  bool armed_ = false;
  double armed_until_s_ = 0.0;
};

// Per-utterance outcome of the end-to-end pipeline.
struct command_outcome {
  enum class kind_t {
    blocked,          // defense flagged an overlapping window: no ASR ran
    executed,         // recognized and mapped to an intent — attacker
                      // success / genuine task completion
    rejected_by_asr,  // survived the defense but the recognizer rejected
    ignored,          // recognized, but the intent engine was idle (wake
                      // machine) or the command is unmapped / a wake word
  };

  // Why a `blocked` outcome was blocked when the cause was a FAULT, not
  // a defense verdict. Fail-closed is the contract: a faulted stage can
  // only ever widen `blocked`, never produce `executed` — an attacker
  // who crashes or stalls the pipeline gains nothing.
  enum class fault_t {
    none,              // blocked by a verdict, or not blocked at all
    recognizer_throw,  // the ASR stage threw mid-recognition
    deadline_overrun,  // modeled recognizer cost blew the deadline budget
    degraded_shed,     // session in detector-only mode: ASR stage shed
    stage_fault,       // containment flushed it after a stage crash
  };

  double start_s = 0.0;  // utterance bounds on the session stream
  double end_s = 0.0;
  kind_t kind = kind_t::rejected_by_asr;
  fault_t fault = fault_t::none;
  std::string command_id;  // recognized command (empty when none ran/matched)
  std::string intent;      // mapped intent when executed
  double asr_distance = 0.0;
  double asr_margin = 0.0;
  // Recognizer wall time for this utterance, seconds. Timing, not
  // content: excluded from determinism comparisons.
  double asr_s = 0.0;
};

struct pipeline_config {
  asr::segmenter_config segmenter;
  intent_config intent;
  // Shared enrolled template set. recognize() is const-thread-safe (see
  // asr/recognizer.h), so ONE recognizer serves every session and every
  // worker; sim::shared_enrolled_recognizer is the canonical provider.
  std::shared_ptr<const asr::recognizer> recognizer;
  // Defense analysis window length: an utterance resolves only once the
  // stream has been consumed this far (plus the verdict guard) past its
  // end, so every verdict window that could overlap it has been
  // decided. 0 = adopt the session's stream_config::window_s (what
  // detection_session does).
  double decision_window_s = 0.0;
  // Attack windows are grown by this on both sides before the overlap
  // test — a verdict just outside the utterance bounds still vetoes it.
  double verdict_guard_s = 0.1;
  // ---- Fault tolerance / graceful degradation ------------------------
  // Deadline budget for the MODELED recognizer cost of one utterance
  // (asr_cost_rtf × utterance duration, plus any injected penalty). The
  // budget is a deterministic cost model, never wall clock, so an
  // overrun fires at the same utterance at any worker count. An
  // utterance that overruns resolves fail-closed (`blocked`,
  // fault=deadline_overrun) and trips the degradation ladder below.
  // 0 disables the deadline.
  double asr_deadline_s = 0.0;
  // Modeled recognizer cost per second of utterance audio.
  double asr_cost_rtf = 0.05;
  // Degradation ladder, first rung: after a deadline overrun the session
  // sheds its ASR stage and serves detector-only fail-closed for this
  // much stream time — every utterance resolving inside the window is
  // `blocked` (fault=degraded_shed) without running ASR. Shedding the
  // ASR stage comes BEFORE shedding detector blocks (the queue's
  // overflow policy stays the last rung). Stream-time-windowed, so the
  // ladder is chunking-invariant like everything else in the stage.
  double degrade_window_s = 2.0;
  // Deterministic fault injection (chaos harness / tests). The injector
  // is shared and const-thread-safe; null = no injection. The session
  // that owns this pipeline stamps `fault_session_id` so recognizer
  // faults key on (kind, session, utterance index).
  std::shared_ptr<const fault_injector> faults;
  std::uint64_t fault_session_id = 0;
  // Fleet metrics registry for the stage's utterance-outcome counters;
  // null = no metrics. detection_session propagates its own registry
  // here so a fleet needs to be wired exactly once.
  std::shared_ptr<obs::metrics_registry> metrics;
};

// The per-session stage. Single-consumer, like the stream_detector it
// sits behind: the session's exclusive-claim contract means only one
// worker feeds it at a time.
class command_pipeline {
 public:
  explicit command_pipeline(pipeline_config config);

  // Feeds the block the detector just scored plus the verdicts that
  // scoring emitted; returns every outcome resolved by it.
  std::vector<command_outcome> feed(
      const audio::buffer& block,
      const std::vector<defense::stream_event>& verdicts);

  // End of stream: absorbs the detector's finish() tail verdicts,
  // flushes the segmenter, resolves everything pending, and resets.
  std::vector<command_outcome> finish(
      const std::vector<defense::stream_event>& tail_verdicts = {});

  // Fault containment: resolves EVERY pending utterance as `blocked`
  // (fault=stage_fault) without running ASR, flushes whatever the
  // segmenter still holds the same way, and resets the stage. Called by
  // the session when an exception escapes a pipeline stage — the
  // fail-closed guarantee that a crashed stage can never leak an
  // `executed` outcome.
  std::vector<command_outcome> fail_closed();

  // True while the degradation ladder has the ASR stage shed
  // (detector-only fail-closed mode).
  bool degraded() const { return consumed_s_ < degraded_until_s_; }

  // True when the stage holds no unresolved utterance — no pending
  // deque entry and no open utterance in the segmenter. The session's
  // crash-recovery checkpoints only capture at safe points: restoring
  // a stage that still owed outcomes would emit them twice (once
  // fail-closed at the fault, once again after the restore).
  bool snapshot_safe() const {
    return pending_.empty() && segmenter_.idle();
  }

  // Serializable stage state: segmenter + intent machine + decided
  // attack windows + pending utterances + the stream position and
  // degradation ladder. utterance_index_ rides along — it is a fault
  // coordinate and must survive eviction like it survives reset().
  json::value snapshot() const;
  void restore(const json::value& snap);

  void reset();

  const pipeline_config& config() const { return config_; }

 private:
  // Fleet-wide counter handles, registered once per stage construction.
  // Outcome counts are pure functions of the accepted-block order, so
  // they stay in the deterministic fingerprint.
  struct metric_handles {
    explicit metric_handles(obs::metrics_registry* reg);
    obs::counter blocked;
    obs::counter executed;
    obs::counter rejected;
    obs::counter ignored;
    obs::counter deadline_overruns;
    obs::counter degraded_sheds;
    obs::counter stage_fault_flushes;
  };

  void absorb_verdicts(const std::vector<defense::stream_event>& verdicts);
  // Resolves pending utterances that are decidable at stream time
  // `consumed_s` (all of them when `flush` is set).
  void resolve_ready(bool flush, std::vector<command_outcome>& out);
  command_outcome resolve(const asr::utterance& u);
  // Bumps the outcome/fault counters for one resolved utterance.
  void note(const command_outcome& o);

  pipeline_config config_;
  metric_handles metrics_;
  asr::utterance_segmenter segmenter_;
  intent_engine intent_;
  // Decided attack windows, as [start, end] intervals on the stream.
  std::vector<std::pair<double, double>> attack_windows_;
  std::deque<asr::utterance> pending_;
  // Stream position, tracked as an exact sample count (consumed_s_ is
  // derived) so the resolution gate and window pruning compare the same
  // values under any block chunking.
  std::uint64_t consumed_samples_ = 0;
  double consumed_s_ = 0.0;
  double rate_ = 0.0;
  // Monotonic per-session resolved-utterance counter — the `index` the
  // fault injector keys recognizer faults on. Advances in accepted-block
  // order; survives finish() so a reopened stream never replays the
  // same schedule coordinates.
  std::uint64_t utterance_index_ = 0;
  // Degradation ladder: stream time until which the ASR stage is shed.
  double degraded_until_s_ = 0.0;
};

}  // namespace ivc::serve
