// SERVE: scenario-driven load harness for the multi-stream serving layer.
//
// Renders a fleet of mixed genuine/attack device streams with
// sim::traffic (deterministic per-session seeds), then sweeps
// session count × ingest block size × worker threads through
// serve::session_manager, interleaving offers round-robin across
// sessions with periodic drain() calls — the arrival pattern of a
// fleet of concurrent capture streams. Reports per-combo wall time,
// real-time factor (audio seconds scored per wall second), fleet-wide
// p50/p95/p99 block latency, and shed/rejected block counts into
// BENCH_serve.json (+ the run log).
//
// "Fork-join" in arm names, notes and JSON labels below means that
// schedule: offers interleaved with drain() calls, each of which runs
// the manager's ready-queue workers until idle and stops them. The
// label is kept so run-log records stay comparable across commits.
//
// Two invariants are CHECKED, not just reported:
//   * determinism: per-session verdict streams must be bit-identical at
//     1 worker vs N workers (exit 1 on any mismatch);
//   * backpressure: a dedicated overload pass with a tiny queue bound
//     and shed_newest policy must shed a deterministic block count.
//
// `--paced` switches to the streaming replay protocol (`serve-paced-v1`
// run-log signature): sim::traffic stamps each fleet stream with a
// deterministic arrival timeline (Poisson session starts + per-block
// capture times), and the harness offers every block AT its arrival
// time against a live streaming manager (session_manager::start/stop —
// long-lived workers, no drain() stop/start cycles). Queue-wait and
// service latency are reported as SEPARATE histograms, and the per-session
// verdict streams of every paced run must be bit-identical to a
// fork-join drain() replay of the same blocks (exit 1 on mismatch).
//
// `--e2e` switches to the end-to-end command-pipeline protocol
// (`serve-e2e-v1` run-log signature, default JSON BENCH_serve_e2e.json):
// every session is opened with a per-session config override that adds
// the serve::command_pipeline stage (utterance segmenter → shared
// asr::recognizer templates → intent engine) behind its verdict stream.
// The harness scores STREAM-level end-to-end outcomes against the
// traffic ground truth — attacker success means the intended command
// EXECUTED (recognized, not blocked, mapped to an intent), genuine task
// completion means a genuine user's command executed — and reports ASR
// latency as its own histogram, split from detector service time. The
// per-session outcome streams of every run (fork-join at each worker
// count, plus a streaming start/stop run) must be bit-identical to the
// 1-worker fork-join reference (exit 1 on mismatch); only the asr_s
// wall-time field is exempt.
//
// `--shard` switches to the sharded-front protocol (`serve-shard-v1`
// run-log signature, default JSON BENCH_serve_shard.json), in two
// phases. Phase A is the identity matrix: a small e2e fleet runs
// through serve::shard_manager at 1/2/4 shards × worker counts × both
// drain disciplines × eviction on/off × shard_kill fault load, and
// every variant's per-session verdict+outcome streams must be
// bit-identical to the 1-shard/1-worker/no-eviction reference (exit 1
// on mismatch; eviction/kill variants must actually evict). Phase B is
// the scale run: ~1M open sessions (smoke: 10k) share a small script
// pool and are offered their blocks in two fleet-wide bursts against a
// live streaming front whose per-shard residency bound keeps the
// resident working set a small fraction of the open set — sessions
// evict to compact snapshots between their bursts and rehydrate
// transparently on the next offer. The harness reports shard balance,
// eviction/rehydration counts, rehydrate latency quantiles, peak
// resident sessions (CHECKED against the bound), and an
// eviction-on-vs-off verdict-stream hash on a sub-fleet (CHECKED
// equal).
//
// `--chaos` switches to the fault-injection sweep (`serve-chaos-v1`
// run-log signature, default JSON BENCH_serve_chaos.json): the e2e fleet
// runs under a deterministic serve::fault_injector schedule at several
// fault scales, and three properties are checked, not just reported —
// verdict+outcome streams stay bit-identical across 1/2/8 workers and
// fork-join vs streaming under the SAME fault schedule; injected faults
// never increase attacker success (fail-closed); and the fleet completes
// every run without process death. Smoke mode additionally requires the
// top scale to put faults into >= 25% of sessions with attacker success
// pinned at 0%.
//
// Flags (on top of the common bench flags in bench_util.h):
//   --smoke          CI-sized run: 64 sessions, one block size, 1-vs-N
//   --sessions <n>   override the session-count sweep with a single value
//   --paced          streaming arrival-time replay protocol (see above)
//   --pace <x>       paced replay speed multiplier (default 4: the
//                    timeline plays back 4x faster than real time)
//   --rate <s/s>     paced Poisson session-start rate (default 32/s)
//   --e2e            end-to-end command-pipeline protocol (see above)
//   --chaos          deterministic fault-injection sweep (see above)
//   --shard          sharded front + snapshot/eviction protocol (above)
//   --telemetry <dir>  emit fleet telemetry into <dir> and CHECK it:
//                    under --e2e the run matrix widens to 1/2/8 workers
//                    × fork-join/streaming, each run gets a fresh
//                    obs::metrics_registry + per-session flight
//                    recorders, and the deterministic counter
//                    fingerprint AND the wall-clock-stripped span
//                    traces must be bit-identical across every run
//                    (exit 1 on mismatch; metrics.json / metrics.prom /
//                    trace fingerprints land in <dir>, and a
//                    `serve-telemetry-v1` record is appended to the run
//                    log). Under --paced / --shard a background
//                    obs::fleet_sampler appends a JSONL time-series of
//                    serve::telemetry_sample() snapshots; under --chaos
//                    every quarantine dumps its flight recorder to
//                    <dir>/quarantine_traces.jsonl (checked non-empty
//                    when faults actually quarantined).
//
// The JSON is written to BENCH_serve.json unless --json overrides it.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "bench_util.h"
#include "common/parallel.h"
#include "defense/classifier.h"
#include "defense/detector.h"
#include "obs/registry.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "serve/session_manager.h"
#include "serve/shard.h"
#include "serve/telemetry.h"
#include "sim/corpus.h"
#include "sim/scenario.h"
#include "sim/traffic.h"

namespace {

// Classifier trained on a small real corpus (same physics as the
// traffic), so serving-level verdict rates mean something. Small caps
// keep the bench about the serving layer, not corpus rendering.
ivc::defense::classifier_detector trained_detector(std::size_t threads) {
  ivc::sim::corpus_config cfg;
  cfg.rig = ivc::attack::monolithic_rig();
  cfg.max_attack_commands = 4;
  cfg.max_genuine_phrases = 6;
  cfg.num_threads = threads;
  const ivc::sim::defense_corpus corpus =
      ivc::sim::build_defense_corpus(cfg, 70);
  ivc::defense::logistic_classifier clf;
  clf.train(corpus.train);
  return ivc::defense::classifier_detector{clf};
}

// The detector is expensive to train; cache it across combos.
const ivc::defense::classifier_detector& trained_detector_cache() {
  static const ivc::defense::classifier_detector detector =
      trained_detector(0);
  return detector;
}

struct combo_result {
  double wall_s = 0.0;
  ivc::serve::serve_totals totals;
  std::vector<std::vector<ivc::defense::stream_event>> verdicts;
};

// Feeds the first `num_sessions` scripts through a manager: offers one
// block per session per round (round-robin, the concurrent-arrival
// shape), draining every `drain_every` rounds and at the end. Under the
// reject policy, a bounced offer drains and retries — explicit
// producer-side backpressure.
combo_result run_combo(const std::vector<ivc::sim::session_script>& scripts,
                       std::size_t num_sessions, double block_ms,
                       const ivc::serve::serve_config& cfg,
                       std::size_t drain_every) {
  using ivc::serve::offer_status;
  ivc::serve::session_manager manager{trained_detector_cache(), cfg};
  combo_result result;
  // Block size in samples per session, from each device's own capture
  // rate — a 50 ms block means 50 ms of audio on every profile.
  std::vector<std::size_t> block_samples(num_sessions);
  std::vector<std::size_t> blocks_total(num_sessions);
  std::size_t max_rounds = 0;
  for (std::size_t s = 0; s < num_sessions; ++s) {
    manager.open_session();
    block_samples[s] = std::max<std::size_t>(
        1, static_cast<std::size_t>(block_ms * 1e-3 *
                                    scripts[s].capture.sample_rate_hz));
    const std::size_t n =
        (scripts[s].capture.size() + block_samples[s] - 1) / block_samples[s];
    blocks_total[s] = n;
    max_rounds = std::max(max_rounds, n);
  }

  const ivc::bench::stopwatch clock;
  for (std::size_t round = 0; round < max_rounds; ++round) {
    for (std::size_t s = 0; s < num_sessions; ++s) {
      if (round >= blocks_total[s]) {
        continue;
      }
      const std::size_t start = round * block_samples[s];
      const std::size_t end = std::min(start + block_samples[s],
                                       scripts[s].capture.size());
      ivc::audio::buffer block{
          {scripts[s].capture.samples.begin() +
               static_cast<std::ptrdiff_t>(start),
           scripts[s].capture.samples.begin() +
               static_cast<std::ptrdiff_t>(end)},
          scripts[s].capture.sample_rate_hz};
      while (manager.offer(s, block) == offer_status::rejected) {
        manager.drain();  // backpressure: drain, then retry the offer
      }
    }
    if ((round + 1) % drain_every == 0) {
      manager.drain();
    }
  }
  manager.finish();
  result.wall_s = clock.elapsed_s();
  result.totals = manager.aggregate();
  result.verdicts.reserve(num_sessions);
  for (std::size_t s = 0; s < num_sessions; ++s) {
    result.verdicts.push_back(manager.verdicts(s));
  }
  return result;
}

bool identical_verdicts(const std::vector<ivc::defense::stream_event>& a,
                        const std::vector<ivc::defense::stream_event>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].time_s != b[i].time_s || a[i].score != b[i].score ||
        a[i].is_attack != b[i].is_attack) {
      return false;
    }
  }
  return true;
}

// ---- Paced streaming replay (serve-paced-v1) -------------------------

// One block arrival on the fleet timeline.
struct arrival_event {
  double arrival_s = 0.0;
  std::size_t session = 0;
  std::size_t block = 0;
};

// Every block of the first `num_sessions` scripts, sorted by arrival
// time (ties break by session then block index, so the offer order is
// deterministic even when the timeline has no spread).
std::vector<arrival_event> build_timeline(
    const std::vector<ivc::sim::session_script>& scripts,
    std::size_t num_sessions) {
  std::vector<arrival_event> events;
  for (std::size_t s = 0; s < num_sessions; ++s) {
    for (std::size_t b = 0; b < scripts[s].num_blocks(); ++b) {
      events.push_back({scripts[s].block_arrival_s(b), s, b});
    }
  }
  std::sort(events.begin(), events.end(),
            [](const arrival_event& a, const arrival_event& b) {
              return std::tie(a.arrival_s, a.session, a.block) <
                     std::tie(b.arrival_s, b.session, b.block);
            });
  return events;
}

// Fork-join reference for the paced replay: the same per-script blocks
// offered in timeline order with no pacing, drained by the barrier
// loop. The paced streaming runs must reproduce these verdict streams
// bit-exactly.
std::vector<std::vector<ivc::defense::stream_event>> forkjoin_reference(
    const std::vector<ivc::sim::session_script>& scripts,
    const std::vector<arrival_event>& timeline, std::size_t num_sessions,
    ivc::serve::serve_config cfg) {
  using ivc::serve::offer_status;
  cfg.worker_threads = 1;
  ivc::serve::session_manager manager{trained_detector_cache(), cfg};
  for (std::size_t s = 0; s < num_sessions; ++s) {
    manager.open_session();
  }
  for (const arrival_event& e : timeline) {
    while (manager.offer(e.session, scripts[e.session].block(e.block)) ==
           offer_status::rejected) {
      manager.drain();
    }
  }
  manager.finish();
  std::vector<std::vector<ivc::defense::stream_event>> verdicts;
  verdicts.reserve(num_sessions);
  for (std::size_t s = 0; s < num_sessions; ++s) {
    verdicts.push_back(manager.verdicts(s));
  }
  return verdicts;
}

struct paced_result {
  double wall_s = 0.0;
  ivc::serve::serve_totals totals;
  std::vector<std::vector<ivc::defense::stream_event>> verdicts;
  std::size_t telemetry_samples = 0;  // JSONL lines appended (if sampling)
};

// Replays the timeline against a LIVE streaming manager: start(workers)
// first, then every block is offered at arrival_s / pace on the wall
// clock (an offer that falls behind schedule goes out immediately — a
// congested replay degrades into a burst, like a real backlogged
// capture pipe). A session is closed right after its last block, so
// end-of-stream flushes interleave with later arrivals instead of
// gathering at the end.
paced_result run_paced(const std::vector<ivc::sim::session_script>& scripts,
                       const std::vector<arrival_event>& timeline,
                       std::size_t num_sessions,
                       const ivc::serve::serve_config& cfg,
                       std::size_t workers, double pace,
                       const std::string& timeseries_path = {}) {
  using ivc::serve::offer_status;
  namespace chrono = std::chrono;
  ivc::serve::serve_config streaming_cfg = cfg;
  // Streaming workers come from start(); a pool of 1 spawns no threads
  // and still serves the final drain() sweep on the caller.
  streaming_cfg.worker_threads = 1;
  ivc::serve::session_manager manager{trained_detector_cache(),
                                      streaming_cfg};
  for (std::size_t s = 0; s < num_sessions; ++s) {
    manager.open_session();
  }
  manager.start(workers);
  paced_result result;
  // Background fleet sampler: one telemetry_sample() line per tick
  // while the paced replay runs, the time-series runlog_report
  // --metrics summarizes.
  std::unique_ptr<ivc::obs::fleet_sampler> sampler;
  if (!timeseries_path.empty()) {
    ivc::obs::sampler_config sc;
    sc.path = timeseries_path;
    sc.interval_s = 0.05;
    sampler = std::make_unique<ivc::obs::fleet_sampler>(
        sc, [&manager] { return ivc::serve::telemetry_sample(manager); });
    sampler->start();
  }
  const auto t0 = chrono::steady_clock::now();
  for (const arrival_event& e : timeline) {
    const auto due =
        t0 + chrono::duration_cast<chrono::steady_clock::duration>(
                 chrono::duration<double>(e.arrival_s / pace));
    std::this_thread::sleep_until(due);
    while (manager.offer(e.session, scripts[e.session].block(e.block)) ==
           offer_status::rejected) {
      // Backpressure under the reject policy: the streaming workers are
      // draining concurrently, so yield briefly and retry.
      std::this_thread::sleep_for(chrono::microseconds(200));
    }
    if (e.block + 1 == scripts[e.session].num_blocks()) {
      manager.close(e.session);
    }
  }
  manager.close_all();
  manager.stop();
  manager.finish();  // sweep any offer that raced the stop
  if (sampler != nullptr) {
    sampler->stop();  // takes the final end-of-run sample
    result.telemetry_samples = sampler->samples();
  }
  result.wall_s =
      chrono::duration<double>(chrono::steady_clock::now() - t0).count();
  result.totals = manager.aggregate();
  result.verdicts.reserve(num_sessions);
  for (std::size_t s = 0; s < num_sessions; ++s) {
    result.verdicts.push_back(manager.verdicts(s));
  }
  return result;
}

// The full paced protocol: timeline-stamped traffic, a fork-join
// reference, then a streaming replay per worker count — each checked
// bit-identical to the reference — reporting queue-wait and service
// latency as separate histograms.
int run_paced_protocol(const ivc::bench::options& opts, bool smoke,
                       std::size_t sessions_override, double pace,
                       double session_rate_hz,
                       const std::string& telemetry_dir) {
  using namespace ivc;
  const std::size_t hw = default_thread_count();
  const std::size_t num_sessions =
      sessions_override > 0 ? sessions_override
                            : (smoke ? std::size_t{64} : std::size_t{256});
  std::vector<std::size_t> workers =
      smoke ? std::vector<std::size_t>{1, 4}
            : std::vector<std::size_t>{1, 2, 4, hw};
  std::sort(workers.begin(), workers.end());
  workers.erase(std::unique(workers.begin(), workers.end()), workers.end());

  bench::banner("SERVE-paced", smoke
                                   ? "streaming arrival-paced load (smoke)"
                                   : "streaming arrival-paced load");
  bench::json_report report{smoke ? "SERVE-paced-smoke" : "SERVE-paced",
                            "streaming arrival-paced load"};
  report.set_signature("serve-paced-v1");
  report.set_seed(7);
  const bench::stopwatch total_clock;

  // ---- Traffic with a deterministic arrival timeline. ----------------
  sim::traffic_config tc;
  tc.num_sessions = num_sessions;
  tc.utterances_per_session = smoke ? 1 : 2;
  tc.session_rate_hz = session_rate_hz;
  tc.num_threads = opts.threads;
  const sim::traffic_generator generator{tc, 7};
  (void)trained_detector_cache();  // train before timing the render
  const bench::stopwatch render_clock;
  const std::vector<sim::session_script> scripts = generator.render_all();
  double fleet_audio_s = 0.0;
  double timeline_end_s = 0.0;
  for (const sim::session_script& s : scripts) {
    fleet_audio_s += s.capture.duration_s();
    timeline_end_s = std::max(timeline_end_s, s.end_s());
  }
  const std::vector<arrival_event> timeline =
      build_timeline(scripts, num_sessions);
  bench::note("fleet: %zu streams, %.1f s of audio over a %.1f s timeline "
              "(Poisson starts at %.0f/s), replayed at %.0fx, rendered in "
              "%.2f s",
              scripts.size(), fleet_audio_s, timeline_end_s, session_rate_hz,
              pace, render_clock.elapsed_s());
  report.add_metric("fleet_streams", static_cast<double>(scripts.size()));
  report.add_metric("fleet_audio_s", fleet_audio_s);
  report.add_metric("timeline_s", timeline_end_s);
  report.add_metric("pace", pace);
  report.add_metric("session_rate_hz", session_rate_hz);
  bench::rule();

  serve::serve_config cfg;
  cfg.queue_capacity = 64;
  cfg.policy = serve::overflow_policy::reject;

  // ---- Fork-join reference: the determinism anchor. ------------------
  const auto reference =
      forkjoin_reference(scripts, timeline, num_sessions, cfg);
  std::size_t reference_events = 0;
  for (const auto& v : reference) {
    reference_events += v.size();
  }
  bench::note("fork-join reference: %zu verdicts over %zu sessions",
              reference_events, reference.size());

  // ---- Streaming replays: one per worker count. ----------------------
  // Under the reject policy nothing can shed — the backpressure signal
  // of a paced run is the rejected-offer count (producer stall events).
  sim::result_table sweep{{"workers"},
                          {"wall_s", "rtf", "queue_p50_ms", "queue_p95_ms",
                           "queue_p99_ms", "service_p50_ms", "service_p95_ms",
                           "service_p99_ms", "rejected_blocks", "events"}};
  bool determinism_ok = true;
  std::printf("%8s %9s %9s %10s %10s %10s %12s %12s %7s\n", "workers",
              "wall s", "rtf", "queue p50", "queue p95", "queue p99",
              "service p50", "service p95", "events");
  std::size_t telemetry_samples = 0;
  for (const std::size_t W : workers) {
    // The last (widest) worker count is the deployment shape; that run
    // carries the background fleet sampler when --telemetry is on.
    const std::string timeseries =
        !telemetry_dir.empty() && W == workers.back()
            ? telemetry_dir + "/paced_timeseries.jsonl"
            : std::string{};
    const paced_result r =
        run_paced(scripts, timeline, num_sessions, cfg, W, pace, timeseries);
    if (!timeseries.empty()) {
      telemetry_samples = r.telemetry_samples;
      bench::note("fleet sampler: %zu time-series samples -> %s",
                  r.telemetry_samples, timeseries.c_str());
    }
    for (std::size_t s = 0; s < num_sessions; ++s) {
      if (!identical_verdicts(reference[s], r.verdicts[s])) {
        determinism_ok = false;
        std::fprintf(stderr,
                     "DETERMINISM VIOLATION: paced session %zu verdicts "
                     "differ from fork-join drain at %zu workers\n",
                     s, W);
      }
    }
    const serve::serve_totals& t = r.totals;
    const double rtf = t.stats.audio_s_processed / r.wall_s;
    std::printf("%8zu %9.2f %9.1f %8.2fms %8.2fms %8.2fms %10.2fms %10.2fms "
                "%7llu\n",
                W, r.wall_s, rtf, 1e3 * t.stats.queue_wait.quantile(0.50),
                1e3 * t.stats.queue_wait.quantile(0.95),
                1e3 * t.stats.queue_wait.quantile(0.99),
                1e3 * t.stats.service.quantile(0.50),
                1e3 * t.stats.service.quantile(0.95),
                static_cast<unsigned long long>(t.stats.events));
    sim::result_table::row row;
    row.labels = {std::to_string(W)};
    row.coords = {static_cast<double>(W)};
    row.metrics = {r.wall_s,
                   rtf,
                   1e3 * t.stats.queue_wait.quantile(0.50),
                   1e3 * t.stats.queue_wait.quantile(0.95),
                   1e3 * t.stats.queue_wait.quantile(0.99),
                   1e3 * t.stats.service.quantile(0.50),
                   1e3 * t.stats.service.quantile(0.95),
                   1e3 * t.stats.service.quantile(0.99),
                   static_cast<double>(t.stats.blocks_rejected),
                   static_cast<double>(t.stats.events)};
    sweep.add_row(row);
    if (W == workers.back()) {
      report.add_latency_metrics("latency", t.stats.latency);
      report.add_latency_metrics("queue_wait", t.stats.queue_wait);
      report.add_latency_metrics("service", t.stats.service);
      report.add_metric("rejected_blocks",
                        static_cast<double>(t.stats.blocks_rejected));
      report.add_metric("events", static_cast<double>(t.stats.events));
      report.add_metric("wall_s", r.wall_s);
      report.add_metric("rtf", rtf);
    }
  }
  sweep.print();
  report.add_table("paced_sweep", sweep);
  report.add_metric("determinism_ok", determinism_ok ? 1.0 : 0.0);
  report.add_metric("sessions", static_cast<double>(num_sessions));
  if (!telemetry_dir.empty()) {
    report.add_metric("telemetry_samples",
                      static_cast<double>(telemetry_samples));
  }

  const double elapsed = total_clock.elapsed_s();
  report.add_metric("elapsed_s", elapsed);
  bench::rule();
  bench::note("paced verdict streams bit-identical to fork-join drain: %s",
              determinism_ok ? "yes" : "NO");
  bench::note("wrote %s in %.2f s", opts.json_path.c_str(), elapsed);
  report.write(opts);
  return determinism_ok ? 0 : 1;
}

// ---- End-to-end command pipeline (serve-e2e-v1) ----------------------

bool identical_outcomes(const std::vector<ivc::serve::command_outcome>& a,
                        const std::vector<ivc::serve::command_outcome>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    // asr_s is wall time — timing, not content — and is the ONLY field
    // allowed to differ between runs.
    if (a[i].start_s != b[i].start_s || a[i].end_s != b[i].end_s ||
        a[i].kind != b[i].kind || a[i].fault != b[i].fault ||
        a[i].command_id != b[i].command_id || a[i].intent != b[i].intent ||
        a[i].asr_distance != b[i].asr_distance ||
        a[i].asr_margin != b[i].asr_margin) {
      return false;
    }
  }
  return true;
}

struct e2e_result {
  double wall_s = 0.0;
  ivc::serve::serve_totals totals;
  std::vector<std::vector<ivc::defense::stream_event>> verdicts;
  std::vector<std::vector<ivc::serve::command_outcome>> outcomes;
  std::vector<ivc::serve::session_stats> stats;  // per-session counters
  // Telemetry fingerprints (empty unless the run carried a registry):
  // the deterministic counter subset, and every session's flight
  // recorder with wall-clock fields zeroed — the two strings the
  // telemetry gate compares bit-for-bit across runs.
  std::string metrics_fingerprint;
  std::string trace_fingerprint;
};

// Canonical text form of a fleet's span traces with the wall-clock
// fields stripped: [[session 0 spans], [session 1 spans], ...].
std::string fleet_trace_fingerprint(const ivc::serve::session_manager& m,
                                    std::size_t num_sessions) {
  ivc::json::array all;
  all.reserve(num_sessions);
  for (std::size_t s = 0; s < num_sessions; ++s) {
    all.emplace_back(
        ivc::obs::encode_spans(ivc::obs::strip_wall_clock(m.trace(s))));
  }
  return ivc::json::write(ivc::json::value{std::move(all)});
}

// Feeds the fleet through a manager whose sessions each carry their OWN
// config (the per-session override path): the fleet config has no
// pipeline, every opened session adds one — segmenter → shared
// recognizer → intent — via open_session(config). Fork-join mode
// offers round-robin with periodic drains; streaming mode runs live
// start(workers)/stop() with per-session closes.
e2e_result run_e2e(const std::vector<ivc::sim::session_script>& scripts,
                   std::size_t num_sessions,
                   const ivc::serve::serve_config& fleet_cfg,
                   std::size_t workers, bool streaming) {
  using ivc::serve::offer_status;
  ivc::serve::serve_config cfg = fleet_cfg;
  cfg.worker_threads = streaming ? 1 : workers;
  ivc::serve::session_manager manager{trained_detector_cache(), cfg};
  for (std::size_t s = 0; s < num_sessions; ++s) {
    ivc::serve::serve_config per_session = cfg;
    ivc::serve::pipeline_config pipeline;
    pipeline.recognizer = ivc::sim::shared_enrolled_recognizer(
        scripts[s].capture.sample_rate_hz, /*enrollment_seed=*/1);
    per_session.pipeline = pipeline;  // decision window adopts window_s
    manager.open_session(per_session);
  }
  if (streaming) {
    manager.start(workers);
  }
  e2e_result result;
  std::size_t max_blocks = 0;
  for (std::size_t s = 0; s < num_sessions; ++s) {
    max_blocks = std::max(max_blocks, scripts[s].num_blocks());
  }
  const ivc::bench::stopwatch clock;
  for (std::size_t round = 0; round < max_blocks; ++round) {
    for (std::size_t s = 0; s < num_sessions; ++s) {
      if (round >= scripts[s].num_blocks()) {
        continue;
      }
      while (manager.offer(s, scripts[s].block(round)) ==
             offer_status::rejected) {
        if (streaming) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        } else {
          manager.drain();
        }
      }
      if (streaming && round + 1 == scripts[s].num_blocks()) {
        manager.close(s);
      }
    }
    if (!streaming && (round + 1) % 4 == 0) {
      manager.drain();
    }
  }
  if (streaming) {
    manager.close_all();
    manager.stop();
  }
  manager.finish();
  result.wall_s = clock.elapsed_s();
  result.totals = manager.aggregate();
  result.verdicts.reserve(num_sessions);
  result.outcomes.reserve(num_sessions);
  result.stats.reserve(num_sessions);
  for (std::size_t s = 0; s < num_sessions; ++s) {
    result.verdicts.push_back(manager.verdicts(s));
    result.outcomes.push_back(manager.outcomes(s));
    result.stats.push_back(manager.stats(s));
  }
  if (fleet_cfg.metrics != nullptr) {
    result.metrics_fingerprint = fleet_cfg.metrics->deterministic_fingerprint();
    result.trace_fingerprint = fleet_trace_fingerprint(manager, num_sessions);
  }
  return result;
}

// Stream-level scoring of one run's outcome streams against the traffic
// ground truth (session_script::intended_command_id).
struct e2e_scorecard {
  std::size_t attack_streams = 0;
  std::size_t attack_executed = 0;  // attacker success: intended ran
  std::size_t attack_blocked = 0;   // at least one utterance vetoed
  std::size_t genuine_command_streams = 0;
  std::size_t genuine_completed = 0;  // intended command executed
  std::size_t benign_streams = 0;
  std::size_t benign_executed = 0;  // false execute: nothing was intended
};

e2e_scorecard score_e2e(const std::vector<ivc::sim::session_script>& scripts,
                        const e2e_result& r, std::size_t num_sessions) {
  e2e_scorecard card;
  for (std::size_t s = 0; s < num_sessions; ++s) {
    bool intended_executed = false;
    bool any_executed = false;
    bool any_blocked = false;
    for (const ivc::serve::command_outcome& o : r.outcomes[s]) {
      using kind_t = ivc::serve::command_outcome::kind_t;
      any_blocked = any_blocked || o.kind == kind_t::blocked;
      if (o.kind == kind_t::executed) {
        any_executed = true;
        intended_executed = intended_executed ||
                            o.command_id == scripts[s].intended_command_id;
      }
    }
    if (scripts[s].is_attack) {
      ++card.attack_streams;
      card.attack_executed += intended_executed ? 1 : 0;
      card.attack_blocked += any_blocked ? 1 : 0;
    } else if (!scripts[s].intended_command_id.empty()) {
      ++card.genuine_command_streams;
      card.genuine_completed += intended_executed ? 1 : 0;
    } else {
      ++card.benign_streams;
      card.benign_executed += any_executed ? 1 : 0;
    }
  }
  return card;
}

// The full end-to-end protocol: fleet traffic with ground-truth command
// labels, a 1-worker fork-join reference, then N-worker fork-join AND
// streaming runs — every one checked outcome- and verdict-bit-identical
// to the reference — reporting attacker success / blocked / genuine
// completion rates and the ASR latency histogram split from detector
// service time.
int run_e2e_protocol(const ivc::bench::options& opts, bool smoke,
                     std::size_t sessions_override,
                     const std::string& telemetry_dir) {
  using namespace ivc;
  const bool telemetry = !telemetry_dir.empty();
  const std::size_t hw = default_thread_count();
  const std::size_t num_sessions =
      sessions_override > 0 ? sessions_override
                            : (smoke ? std::size_t{64} : std::size_t{128});
  // With telemetry the worker matrix is pinned to 1/2/8 — the gate
  // compares counter/span fingerprints across exactly these runs, in
  // BOTH drain modes, so the records stay comparable across machines.
  std::vector<std::size_t> workers =
      telemetry ? std::vector<std::size_t>{1, 2, 8}
                : (smoke ? std::vector<std::size_t>{1, 4}
                         : std::vector<std::size_t>{1, 2, 4, hw});
  std::sort(workers.begin(), workers.end());
  workers.erase(std::unique(workers.begin(), workers.end()), workers.end());

  bench::banner("SERVE-e2e", smoke ? "end-to-end command pipeline (smoke)"
                                   : "end-to-end command pipeline");
  bench::json_report report{smoke ? "SERVE-e2e-smoke" : "SERVE-e2e",
                            "end-to-end command pipeline"};
  report.set_signature("serve-e2e-v1");
  report.set_seed(7);
  const bench::stopwatch total_clock;

  sim::traffic_config tc;
  tc.num_sessions = num_sessions;
  tc.utterances_per_session = smoke ? 1 : 2;
  tc.num_threads = opts.threads;
  const sim::traffic_generator generator{tc, 7};
  (void)trained_detector_cache();  // train before timing the render
  // Enroll the shared template bank up front too (one 16 kHz entry
  // serves the whole fleet — every device profile captures at 16 kHz).
  (void)sim::shared_enrolled_recognizer(16'000.0, 1);
  const bench::stopwatch render_clock;
  const std::vector<sim::session_script> scripts = generator.render_all();
  double fleet_audio_s = 0.0;
  std::size_t attack_streams = 0;
  for (const sim::session_script& s : scripts) {
    fleet_audio_s += s.capture.duration_s();
    attack_streams += s.is_attack ? 1 : 0;
  }
  bench::note("fleet: %zu streams (%zu attack), %.1f s of audio, "
              "rendered in %.2f s",
              scripts.size(), attack_streams, fleet_audio_s,
              render_clock.elapsed_s());
  report.add_metric("fleet_streams", static_cast<double>(scripts.size()));
  report.add_metric("fleet_attack_streams",
                    static_cast<double>(attack_streams));
  report.add_metric("fleet_audio_s", fleet_audio_s);
  bench::rule();

  serve::serve_config cfg;
  cfg.queue_capacity = 64;
  cfg.policy = serve::overflow_policy::reject;

  // Every telemetry run gets its OWN registry (end-of-run counter values
  // are what the gate compares — a shared registry would accumulate).
  std::shared_ptr<obs::metrics_registry> reference_registry;
  const auto telemetry_cfg = [&](std::shared_ptr<obs::metrics_registry>* out) {
    serve::serve_config c = cfg;
    if (telemetry) {
      auto reg = std::make_shared<obs::metrics_registry>();
      c.metrics = reg;
      if (out != nullptr) {
        *out = std::move(reg);
      }
    }
    return c;
  };

  // ---- Reference: 1-worker fork-join. --------------------------------
  const e2e_result reference =
      run_e2e(scripts, num_sessions, telemetry_cfg(&reference_registry),
              /*workers=*/1, /*streaming=*/false);
  const e2e_scorecard card = score_e2e(scripts, reference, num_sessions);

  // ---- Replays: fork-join at each worker count + one streaming run, --
  // all bit-identical to the reference in outcomes AND verdicts.
  bool determinism_ok = true;
  bool telemetry_ok = true;
  sim::result_table sweep{{"mode", "workers"},
                          {"wall_s", "rtf", "service_p50_ms", "asr_p50_ms",
                           "asr_p95_ms", "utterances", "executed", "blocked"}};
  std::printf("%10s %8s %9s %9s %12s %10s %10s %7s %7s\n", "mode", "workers",
              "wall s", "rtf", "service p50", "asr p50", "asr p95", "utter",
              "exec");
  const auto run_one = [&](const char* mode, std::size_t W, bool streaming) {
    const e2e_result r =
        streaming || W != 1
            ? run_e2e(scripts, num_sessions, telemetry_cfg(nullptr), W,
                      streaming)
            : reference;
    if (telemetry && (streaming || W != 1)) {
      // The telemetry gate proper: the deterministic counter subset and
      // the wall-stripped span traces must reproduce the reference
      // byte-for-byte, like the streams themselves.
      if (r.metrics_fingerprint != reference.metrics_fingerprint) {
        telemetry_ok = false;
        std::fprintf(stderr,
                     "TELEMETRY VIOLATION: deterministic counter "
                     "fingerprint differs from the reference (%s, %zu "
                     "workers)\n",
                     mode, W);
      }
      if (r.trace_fingerprint != reference.trace_fingerprint) {
        telemetry_ok = false;
        std::fprintf(stderr,
                     "TELEMETRY VIOLATION: span traces (wall clock "
                     "stripped) differ from the reference (%s, %zu "
                     "workers)\n",
                     mode, W);
      }
    }
    for (std::size_t s = 0; s < num_sessions; ++s) {
      if (!identical_verdicts(reference.verdicts[s], r.verdicts[s]) ||
          !identical_outcomes(reference.outcomes[s], r.outcomes[s])) {
        determinism_ok = false;
        std::fprintf(stderr,
                     "DETERMINISM VIOLATION: e2e session %zu %s differs "
                     "from the 1-worker fork-join reference (%s, %zu "
                     "workers)\n",
                     s,
                     identical_verdicts(reference.verdicts[s], r.verdicts[s])
                         ? "outcome stream"
                         : "verdict stream",
                     mode, W);
      }
    }
    const serve::serve_totals& t = r.totals;
    const double rtf = t.stats.audio_s_processed / r.wall_s;
    std::printf("%10s %8zu %9.2f %9.1f %10.2fms %8.2fms %8.2fms %7llu "
                "%7llu\n",
                mode, W, r.wall_s, rtf,
                1e3 * t.stats.service.quantile(0.50),
                1e3 * t.stats.asr_service.quantile(0.50),
                1e3 * t.stats.asr_service.quantile(0.95),
                static_cast<unsigned long long>(t.stats.utterances),
                static_cast<unsigned long long>(t.stats.commands_executed));
    sim::result_table::row row;
    row.labels = {mode, std::to_string(W)};
    row.coords = {streaming ? 1.0 : 0.0, static_cast<double>(W)};
    row.metrics = {r.wall_s,
                   rtf,
                   1e3 * t.stats.service.quantile(0.50),
                   1e3 * t.stats.asr_service.quantile(0.50),
                   1e3 * t.stats.asr_service.quantile(0.95),
                   static_cast<double>(t.stats.utterances),
                   static_cast<double>(t.stats.commands_executed),
                   static_cast<double>(t.stats.commands_blocked)};
    sweep.add_row(row);
    if (streaming && W == workers.back()) {
      // The streaming run is the deployment shape: its histograms are
      // the report's canonical latency decomposition.
      report.add_latency_metrics("latency", t.stats.latency);
      report.add_latency_metrics("service", t.stats.service);
      report.add_latency_metrics("asr_service", t.stats.asr_service);
      report.add_metric("utterances",
                        static_cast<double>(t.stats.utterances));
      report.add_metric("commands_blocked",
                        static_cast<double>(t.stats.commands_blocked));
      report.add_metric("commands_executed",
                        static_cast<double>(t.stats.commands_executed));
      report.add_metric("commands_rejected",
                        static_cast<double>(t.stats.commands_rejected));
      report.add_metric("commands_ignored",
                        static_cast<double>(t.stats.commands_ignored));
      report.add_metric("rtf", rtf);
      report.add_metric("wall_s", r.wall_s);
    }
  };
  for (const std::size_t W : workers) {
    run_one("fork-join", W, /*streaming=*/false);
  }
  if (telemetry) {
    // The full telemetry matrix: streaming at EVERY worker count, so
    // the gate covers 1/2/8 workers × both drain modes.
    for (const std::size_t W : workers) {
      run_one("streaming", W, /*streaming=*/true);
    }
  } else {
    run_one("streaming", workers.back(), /*streaming=*/true);
  }
  sweep.print();
  report.add_table("e2e_sweep", sweep);
  bench::rule();

  // ---- Stream-level scoring against the traffic ground truth. --------
  const auto rate = [](std::size_t num, std::size_t den) {
    return den > 0 ? static_cast<double>(num) / static_cast<double>(den)
                   : 0.0;
  };
  const double attacker_success = rate(card.attack_executed,
                                       card.attack_streams);
  const double attack_blocked = rate(card.attack_blocked,
                                     card.attack_streams);
  const double genuine_completion = rate(card.genuine_completed,
                                         card.genuine_command_streams);
  const double benign_false_execute = rate(card.benign_executed,
                                           card.benign_streams);
  bench::note("attack streams: %zu — %.0f%% blocked by the defense, "
              "%.0f%% still executed their command (attacker success)",
              card.attack_streams, 100.0 * attack_blocked,
              100.0 * attacker_success);
  bench::note("genuine command streams: %zu — %.0f%% completed their task",
              card.genuine_command_streams, 100.0 * genuine_completion);
  bench::note("benign chatter streams: %zu — %.0f%% falsely executed "
              "a command",
              card.benign_streams, 100.0 * benign_false_execute);
  report.add_metric("attack_streams",
                    static_cast<double>(card.attack_streams));
  report.add_metric("genuine_command_streams",
                    static_cast<double>(card.genuine_command_streams));
  report.add_metric("benign_streams",
                    static_cast<double>(card.benign_streams));
  report.add_metric("attacker_success_rate", attacker_success);
  report.add_metric("attack_blocked_rate", attack_blocked);
  report.add_metric("genuine_completion_rate", genuine_completion);
  report.add_metric("benign_false_execute_rate", benign_false_execute);
  report.add_metric("determinism_ok", determinism_ok ? 1.0 : 0.0);
  report.add_metric("sessions", static_cast<double>(num_sessions));

  // ---- Telemetry artifacts + the serve-telemetry-v1 run record. ------
  if (telemetry) {
    const auto write_text = [](const std::string& path,
                               const std::string& text) {
      std::ofstream out{path};
      out << text;
      return out.good();
    };
    write_text(telemetry_dir + "/metrics.json", reference_registry->to_json());
    write_text(telemetry_dir + "/metrics.prom",
               reference_registry->to_prometheus());
    write_text(telemetry_dir + "/counter_fingerprint.json",
               reference.metrics_fingerprint + "\n");
    write_text(telemetry_dir + "/trace_fingerprint.json",
               reference.trace_fingerprint + "\n");
    bench::json_report tel{smoke ? "SERVE-telemetry-smoke" : "SERVE-telemetry",
                           "fleet telemetry determinism gate"};
    tel.set_signature("serve-telemetry-v1");
    tel.set_seed(7);
    tel.add_metric("telemetry_deterministic_ok", telemetry_ok ? 1.0 : 0.0);
    tel.add_metric("runs_compared",
                   static_cast<double>(2 * workers.size() - 1));
    tel.add_metric("sessions", static_cast<double>(num_sessions));
    tel.add_metric("fingerprint_bytes",
                   static_cast<double>(reference.metrics_fingerprint.size()));
    tel.add_metric("trace_bytes",
                   static_cast<double>(reference.trace_fingerprint.size()));
    bench::options tel_opts = opts;
    tel_opts.json_path = telemetry_dir + "/BENCH_serve_telemetry.json";
    tel.write(tel_opts);
    bench::note("telemetry fingerprints bit-identical across 1/2/8 workers "
                "x both modes: %s",
                telemetry_ok ? "yes" : "NO");
    bench::note("telemetry artifacts in %s", telemetry_dir.c_str());
  }

  const double elapsed = total_clock.elapsed_s();
  report.add_metric("elapsed_s", elapsed);
  bench::rule();
  bench::note("outcome + verdict streams bit-identical across workers and "
              "modes: %s",
              determinism_ok ? "yes" : "NO");
  bench::note("wrote %s in %.2f s", opts.json_path.c_str(), elapsed);
  report.write(opts);
  return determinism_ok && telemetry_ok ? 0 : 1;
}

// ---- Chaos: deterministic fault sweep (serve-chaos-v1) ---------------

// Per-session fault exposure of one run: how many sessions saw at least
// one injected/contained fault of any kind.
std::size_t sessions_with_faults(const e2e_result& r) {
  std::size_t n = 0;
  for (const ivc::serve::session_stats& st : r.stats) {
    const std::uint64_t faults = st.detector_faults + st.recognizer_faults +
                                 st.corrupt_blocks + st.asr_deadline_overruns;
    n += faults > 0 ? 1 : 0;
  }
  return n;
}

// The chaos protocol: the e2e fleet under a deterministic fault-injection
// sweep (fault scale × workers). Three properties are CHECKED, not just
// reported (exit 1 on any violation):
//   * determinism under fault load — with a fixed fault seed the verdict
//     AND outcome streams are bit-identical across 1/2/8 workers and in
//     fork-join vs streaming drain;
//   * fail-closed — injected faults never INCREASE attacker success (or
//     benign false executes) over the fault-free baseline;
//   * containment — the fleet completes every run without process death
//     (pre-containment, the first injected throw killed the harness in
//     std::terminate), and in smoke mode the top fault scale must
//     actually exercise the machinery: ≥25% of sessions carry faults and
//     attacker success stays 0%.
int run_chaos_protocol(const ivc::bench::options& opts, bool smoke,
                       std::size_t sessions_override,
                       const std::string& telemetry_dir) {
  using namespace ivc;
  const std::size_t num_sessions =
      sessions_override > 0 ? sessions_override
                            : (smoke ? std::size_t{64} : std::size_t{128});
  // 1/2/8 fixed: the determinism gate needs real concurrency even on a
  // small box, and fixed counts keep run-log records comparable.
  const std::vector<std::size_t> workers{1, 2, 8};
  const std::vector<double> fault_scales =
      smoke ? std::vector<double>{0.0, 1.0}
            : std::vector<double>{0.0, 0.25, 1.0, 2.0};

  bench::banner("SERVE-chaos", smoke ? "fault-injection sweep (smoke)"
                                     : "fault-injection sweep");
  bench::json_report report{smoke ? "SERVE-chaos-smoke" : "SERVE-chaos",
                            "fault-injection sweep"};
  report.set_signature("serve-chaos-v1");
  report.set_seed(7);
  const bench::stopwatch total_clock;

  sim::traffic_config tc;
  tc.num_sessions = num_sessions;
  tc.utterances_per_session = smoke ? 1 : 2;
  tc.num_threads = opts.threads;
  const sim::traffic_generator generator{tc, 7};
  (void)trained_detector_cache();
  (void)sim::shared_enrolled_recognizer(16'000.0, 1);
  const std::vector<sim::session_script> scripts = generator.render_all();
  std::size_t attack_streams = 0;
  for (const sim::session_script& s : scripts) {
    attack_streams += s.is_attack ? 1 : 0;
  }
  bench::note("fleet: %zu streams (%zu attack), fault scales ×%zu, "
              "workers 1/2/8 fork-join + streaming",
              scripts.size(), attack_streams, fault_scales.size());
  report.add_metric("fleet_streams", static_cast<double>(scripts.size()));
  report.add_metric("fleet_attack_streams",
                    static_cast<double>(attack_streams));
  bench::rule();

  serve::serve_config base_cfg;
  base_cfg.queue_capacity = 64;
  base_cfg.policy = serve::overflow_policy::reject;
  // With --telemetry every quarantine across every run dumps its flight
  // recorder to one JSONL file — the chaos run's black-box artifact.
  std::shared_ptr<obs::jsonl_trace_sink> trace_sink;
  if (!telemetry_dir.empty()) {
    const std::string dump_path = telemetry_dir + "/quarantine_traces.jsonl";
    std::filesystem::remove(dump_path);  // append-only sink: start fresh
    trace_sink = std::make_shared<obs::jsonl_trace_sink>(dump_path);
    base_cfg.trace_sink = trace_sink;
  }

  bool determinism_ok = true;
  bool fail_closed_ok = true;
  std::uint64_t total_quarantines = 0;
  double clean_attacker_success = 0.0;
  double clean_benign_false = 0.0;
  double top_scale_fault_fraction = 0.0;
  double top_scale_attacker_success = 0.0;
  sim::result_table sweep{
      {"fault_scale", "mode", "workers"},
      {"wall_s", "faulty_sessions", "quarantines", "reopens",
       "detector_faults", "recognizer_faults", "corrupt_blocks", "overruns",
       "shed_degraded", "failed_closed", "executed", "attacker_success"}};
  std::printf("%7s %10s %8s %9s %7s %6s %6s %7s %7s %7s\n", "scale", "mode",
              "workers", "wall s", "faulty", "quar", "reopen", "f.clsd",
              "exec", "atk%%");
  for (const double scale : fault_scales) {
    serve::serve_config cfg = base_cfg;
    if (scale > 0.0) {
      serve::fault_config fc;
      fc.seed = 7;
      // Base rates at scale 1 — block-level faults are rare per block
      // (sessions see many blocks), utterance-level faults are common
      // per utterance (sessions see few).
      fc.detector_throw_rate = std::min(1.0, 0.01 * scale);
      fc.corrupt_block_rate = std::min(1.0, 0.01 * scale);
      // Per utterance that actually REACHES recognition (verdict-vetoed,
      // shed, and overrun utterances never draw), so the rate is high
      // enough that the site reliably fires in a 64-session smoke.
      fc.recognizer_throw_rate = std::min(1.0, 0.35 * scale);
      fc.recognizer_overrun_rate = std::min(1.0, 0.25 * scale);
      cfg.faults = std::make_shared<serve::fault_injector>(fc);
    }

    // Reference: 1-worker fork-join under this exact fault schedule.
    const e2e_result reference = run_e2e(scripts, num_sessions, cfg,
                                         /*workers=*/1, /*streaming=*/false);
    const e2e_scorecard card = score_e2e(scripts, reference, num_sessions);
    const double attacker_success =
        card.attack_streams > 0
            ? static_cast<double>(card.attack_executed) /
                  static_cast<double>(card.attack_streams)
            : 0.0;
    const double benign_false =
        card.benign_streams > 0
            ? static_cast<double>(card.benign_executed) /
                  static_cast<double>(card.benign_streams)
            : 0.0;
    if (scale == 0.0) {
      clean_attacker_success = attacker_success;
      clean_benign_false = benign_false;
    } else {
      // Fail-closed: faults may only ever SHRINK the executed set.
      if (attacker_success > clean_attacker_success ||
          benign_false > clean_benign_false) {
        fail_closed_ok = false;
        std::fprintf(stderr,
                     "FAIL-CLOSED VIOLATION: fault scale %.2f raised "
                     "attacker success %.3f→%.3f / benign false execute "
                     "%.3f→%.3f\n",
                     scale, clean_attacker_success, attacker_success,
                     clean_benign_false, benign_false);
      }
    }
    const double fault_fraction =
        static_cast<double>(sessions_with_faults(reference)) /
        static_cast<double>(num_sessions);
    if (scale == fault_scales.back()) {
      top_scale_fault_fraction = fault_fraction;
      top_scale_attacker_success = attacker_success;
    }

    const auto run_one = [&](const char* mode, std::size_t W,
                             bool streaming) {
      const e2e_result r =
          streaming || W != 1
              ? run_e2e(scripts, num_sessions, cfg, W, streaming)
              : reference;
      for (std::size_t s = 0; s < num_sessions; ++s) {
        if (!identical_verdicts(reference.verdicts[s], r.verdicts[s]) ||
            !identical_outcomes(reference.outcomes[s], r.outcomes[s])) {
          determinism_ok = false;
          std::fprintf(stderr,
                       "DETERMINISM VIOLATION: chaos session %zu differs "
                       "from the 1-worker reference (scale %.2f, %s, %zu "
                       "workers)\n",
                       s, scale, mode, W);
        }
      }
      const serve::session_stats& t = r.totals.stats;
      total_quarantines += t.quarantines;
      std::printf("%7.2f %10s %8zu %9.2f %7zu %6llu %6llu %7llu %7llu "
                  "%6.1f%%\n",
                  scale, mode, W, r.wall_s, sessions_with_faults(r),
                  static_cast<unsigned long long>(t.quarantines),
                  static_cast<unsigned long long>(t.reopens),
                  static_cast<unsigned long long>(t.utterances_failed_closed),
                  static_cast<unsigned long long>(t.commands_executed),
                  100.0 * attacker_success);
      sim::result_table::row row;
      row.labels = {std::to_string(scale), mode, std::to_string(W)};
      row.coords = {scale, streaming ? 1.0 : 0.0, static_cast<double>(W)};
      row.metrics = {r.wall_s,
                     static_cast<double>(sessions_with_faults(r)),
                     static_cast<double>(t.quarantines),
                     static_cast<double>(t.reopens),
                     static_cast<double>(t.detector_faults),
                     static_cast<double>(t.recognizer_faults),
                     static_cast<double>(t.corrupt_blocks),
                     static_cast<double>(t.asr_deadline_overruns),
                     static_cast<double>(t.utterances_shed_degraded),
                     static_cast<double>(t.utterances_failed_closed),
                     static_cast<double>(t.commands_executed),
                     attacker_success};
      sweep.add_row(row);
    };
    for (const std::size_t W : workers) {
      run_one("fork-join", W, /*streaming=*/false);
    }
    run_one("streaming", workers.back(), /*streaming=*/true);
  }
  sweep.print();
  report.add_table("chaos_sweep", sweep);
  bench::rule();

  // Smoke-mode coverage gates: the chaos pass is only meaningful when
  // the fault machinery actually engaged.
  bool coverage_ok = true;
  if (smoke) {
    if (top_scale_fault_fraction < 0.25) {
      coverage_ok = false;
      std::fprintf(stderr,
                   "CHAOS COVERAGE: only %.0f%% of sessions carried faults "
                   "at the top scale (need >= 25%%)\n",
                   100.0 * top_scale_fault_fraction);
    }
    if (top_scale_attacker_success > 0.0) {
      coverage_ok = false;
      std::fprintf(stderr,
                   "CHAOS GATE: attacker success %.3f under faults "
                   "(must stay 0)\n",
                   top_scale_attacker_success);
    }
  }
  // Quarantine flight-recorder artifact: when the sweep actually parked
  // sessions, the sink must hold their dumps (a quarantine with no
  // black-box record is a telemetry bug).
  bool dumps_ok = true;
  if (trace_sink != nullptr) {
    dumps_ok = total_quarantines == 0 || trace_sink->dumps() > 0;
    bench::note("quarantine flight-recorder dumps: %zu (from %llu "
                "quarantines) -> %s/quarantine_traces.jsonl — %s",
                trace_sink->dumps(),
                static_cast<unsigned long long>(total_quarantines),
                telemetry_dir.c_str(), dumps_ok ? "ok" : "MISSING");
    report.add_metric("trace_dumps",
                      static_cast<double>(trace_sink->dumps()));
    report.add_metric("trace_dumps_ok", dumps_ok ? 1.0 : 0.0);
  }
  report.add_metric("determinism_ok", determinism_ok ? 1.0 : 0.0);
  report.add_metric("fail_closed_ok", fail_closed_ok ? 1.0 : 0.0);
  report.add_metric("clean_attacker_success", clean_attacker_success);
  report.add_metric("top_scale_attacker_success", top_scale_attacker_success);
  report.add_metric("top_scale_faulty_session_fraction",
                    top_scale_fault_fraction);
  report.add_metric("sessions", static_cast<double>(num_sessions));

  const double elapsed = total_clock.elapsed_s();
  report.add_metric("elapsed_s", elapsed);
  bench::rule();
  bench::note("streams bit-identical across workers and modes under fault "
              "load: %s",
              determinism_ok ? "yes" : "NO");
  bench::note("injected faults never increased attacker success: %s",
              fail_closed_ok ? "yes" : "NO");
  bench::note("%.0f%% of sessions carried faults at the top scale; attacker "
              "success there %.1f%%",
              100.0 * top_scale_fault_fraction,
              100.0 * top_scale_attacker_success);
  bench::note("wrote %s in %.2f s", opts.json_path.c_str(), elapsed);
  report.write(opts);
  return determinism_ok && fail_closed_ok && coverage_ok && dumps_ok ? 0 : 1;
}

// ---- Sharded front + snapshot/eviction (serve-shard-v1) --------------

struct shard_run_result {
  double wall_s = 0.0;
  ivc::serve::serve_totals totals;
  ivc::serve::eviction_stats eviction;
  ivc::serve::shard_balance balance;
  std::vector<std::vector<ivc::defense::stream_event>> verdicts;
  std::vector<std::vector<ivc::serve::command_outcome>> outcomes;
};

// Phase-A runner: the e2e fleet (per-session pipeline overrides, like
// run_e2e) through a shard_manager front. Every knob of the identity
// matrix is a parameter: shard count, per-shard workers, drain
// discipline, per-shard residency bound, fault injector (shard_kill).
shard_run_result run_sharded(
    const std::vector<ivc::sim::session_script>& scripts,
    std::size_t num_sessions, std::size_t shards, std::size_t workers,
    bool streaming, std::size_t max_resident,
    std::shared_ptr<const ivc::serve::fault_injector> faults) {
  using ivc::serve::offer_status;
  ivc::serve::serve_config cfg;
  cfg.queue_capacity = 64;
  cfg.policy = ivc::serve::overflow_policy::reject;
  cfg.worker_threads = streaming ? 1 : workers;
  cfg.max_resident_sessions = max_resident;
  cfg.faults = faults;
  ivc::serve::shard_manager front{trained_detector_cache(), cfg, shards};
  for (std::size_t s = 0; s < num_sessions; ++s) {
    ivc::serve::serve_config per_session = cfg;
    ivc::serve::pipeline_config pipeline;
    pipeline.recognizer = ivc::sim::shared_enrolled_recognizer(
        scripts[s].capture.sample_rate_hz, /*enrollment_seed=*/1);
    per_session.pipeline = pipeline;
    front.open_session(per_session);
  }
  if (streaming) {
    front.start(workers);
  }
  shard_run_result result;
  std::size_t max_blocks = 0;
  for (std::size_t s = 0; s < num_sessions; ++s) {
    max_blocks = std::max(max_blocks, scripts[s].num_blocks());
  }
  const ivc::bench::stopwatch clock;
  for (std::size_t round = 0; round < max_blocks; ++round) {
    for (std::size_t s = 0; s < num_sessions; ++s) {
      if (round >= scripts[s].num_blocks()) {
        continue;
      }
      while (front.offer(s, scripts[s].block(round)) ==
             offer_status::rejected) {
        if (streaming) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        } else {
          front.drain();
        }
      }
      if (streaming && round + 1 == scripts[s].num_blocks()) {
        front.close(s);
      }
    }
    if (!streaming && (round + 1) % 4 == 0) {
      front.drain();
    }
  }
  front.finish();
  result.wall_s = clock.elapsed_s();
  result.totals = front.aggregate();
  result.eviction = front.eviction();
  result.balance = front.balance();
  result.verdicts.reserve(num_sessions);
  result.outcomes.reserve(num_sessions);
  for (std::size_t s = 0; s < num_sessions; ++s) {
    result.verdicts.push_back(front.verdicts(s));
    result.outcomes.push_back(front.outcomes(s));
  }
  return result;
}

// FNV-1a over a fleet's verdict streams — the cheap bit-identity
// fingerprint the scale phase compares across eviction on/off (keeping
// two full verdict dumps of a 10k-session fleet in memory would dwarf
// the resident-set budget the phase is demonstrating).
std::uint64_t fleet_verdict_hash(
    const std::vector<std::vector<ivc::defense::stream_event>>& verdicts) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](const void* p, std::size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= bytes[i];
      h *= 1099511628211ULL;
    }
  };
  for (const auto& stream : verdicts) {
    const std::size_t n = stream.size();
    mix(&n, sizeof n);
    for (const ivc::defense::stream_event& e : stream) {
      mix(&e.time_s, sizeof e.time_s);
      mix(&e.score, sizeof e.score);
      const unsigned char atk = e.is_attack ? 1 : 0;
      mix(&atk, 1);
    }
  }
  return h;
}

// The shard protocol. Phase A: identity matrix on a small e2e fleet.
// Phase B: the million-session (smoke: 10k) bursty scale run with a
// bounded resident set, plus an eviction-on/off hash check on a
// sub-fleet.
int run_shard_protocol(const ivc::bench::options& opts, bool smoke,
                       std::size_t sessions_override,
                       const std::string& telemetry_dir) {
  using namespace ivc;
  const std::size_t hw = default_thread_count();

  bench::banner("SERVE-shard",
                smoke ? "sharded front + snapshot eviction (smoke)"
                      : "sharded front + snapshot eviction");
  bench::json_report report{smoke ? "SERVE-shard-smoke" : "SERVE-shard",
                            "sharded front + snapshot eviction"};
  report.set_signature("serve-shard-v1");
  report.set_seed(7);
  const bench::stopwatch total_clock;

  // ---- Phase A: the identity matrix. ---------------------------------
  const std::size_t matrix_sessions = smoke ? 32 : 48;
  sim::traffic_config tc;
  tc.num_sessions = matrix_sessions;
  tc.utterances_per_session = 1;
  tc.num_threads = opts.threads;
  const sim::traffic_generator generator{tc, 7};
  (void)trained_detector_cache();
  (void)sim::shared_enrolled_recognizer(16'000.0, 1);
  const std::vector<sim::session_script> scripts = generator.render_all();

  const shard_run_result reference =
      run_sharded(scripts, matrix_sessions, /*shards=*/1, /*workers=*/1,
                  /*streaming=*/false, /*max_resident=*/0, nullptr);
  std::size_t reference_events = 0;
  for (const auto& v : reference.verdicts) {
    reference_events += v.size();
  }
  bench::note("identity reference (1 shard, 1 worker, no eviction): "
              "%zu verdicts, %llu outcomes over %zu sessions",
              reference_events,
              static_cast<unsigned long long>(
                  reference.totals.stats.utterances),
              matrix_sessions);

  struct variant {
    const char* name;
    std::size_t shards;
    std::size_t workers;
    bool streaming;
    std::size_t max_resident;  // per shard; 0 = off
    double shard_kill_rate;
  };
  const std::vector<variant> variants = {
      {"2 shards fork-join", 2, 2, false, 0, 0.0},
      {"4 shards 4 workers", 4, 4, false, 0, 0.0},
      {"4 shards streaming", 4, 2, true, 0, 0.0},
      {"2 shards evict<=4", 2, 2, false, 4, 0.0},
      {"4 shards stream evict<=2", 4, 2, true, 2, 0.0},
      {"2 shards evict<=4 +kill", 2, 2, false, 4, 0.05},
  };
  bool identity_ok = true;
  bool eviction_engaged_ok = true;
  sim::result_table matrix{{"variant"},
                           {"shards", "workers", "streaming", "bound",
                            "wall_s", "evictions", "rehydrations",
                            "shard_kills", "identical"}};
  std::printf("%-26s %7s %8s %7s %9s %7s %9s %6s %5s\n", "variant", "shards",
              "workers", "stream", "wall s", "evict", "rehydrate", "kills",
              "same");
  for (const variant& v : variants) {
    std::shared_ptr<const serve::fault_injector> faults;
    if (v.shard_kill_rate > 0.0) {
      serve::fault_config fc;
      fc.seed = 7;
      fc.shard_kill_rate = v.shard_kill_rate;
      faults = std::make_shared<serve::fault_injector>(fc);
    }
    const shard_run_result r =
        run_sharded(scripts, matrix_sessions, v.shards, v.workers,
                    v.streaming, v.max_resident, faults);
    bool same = true;
    for (std::size_t s = 0; s < matrix_sessions; ++s) {
      if (!identical_verdicts(reference.verdicts[s], r.verdicts[s]) ||
          !identical_outcomes(reference.outcomes[s], r.outcomes[s])) {
        same = false;
        std::fprintf(stderr,
                     "DETERMINISM VIOLATION: session %zu streams differ "
                     "from the unsharded reference (%s)\n",
                     s, v.name);
      }
    }
    identity_ok = identity_ok && same;
    std::uint64_t kills = 0;
    for (const serve::shard_load& l : r.balance.shards) {
      kills += l.shard_kills;
    }
    if (v.max_resident > 0 && r.eviction.evictions == 0) {
      eviction_engaged_ok = false;
      std::fprintf(stderr,
                   "VACUOUS VARIANT: %s evicted nothing — the bound never "
                   "engaged\n",
                   v.name);
    }
    if (v.shard_kill_rate > 0.0 && kills == 0) {
      eviction_engaged_ok = false;
      std::fprintf(stderr, "VACUOUS VARIANT: %s killed no shard\n", v.name);
    }
    std::printf("%-26s %7zu %8zu %7s %9.2f %7llu %9llu %6llu %5s\n", v.name,
                v.shards, v.workers, v.streaming ? "yes" : "no", r.wall_s,
                static_cast<unsigned long long>(r.eviction.evictions),
                static_cast<unsigned long long>(r.eviction.rehydrations),
                static_cast<unsigned long long>(kills),
                same ? "yes" : "NO");
    sim::result_table::row row;
    row.labels = {v.name};
    row.coords = {static_cast<double>(matrix.rows().size())};
    row.metrics = {static_cast<double>(v.shards),
                   static_cast<double>(v.workers),
                   v.streaming ? 1.0 : 0.0,
                   static_cast<double>(v.max_resident),
                   r.wall_s,
                   static_cast<double>(r.eviction.evictions),
                   static_cast<double>(r.eviction.rehydrations),
                   static_cast<double>(kills),
                   same ? 1.0 : 0.0};
    matrix.add_row(row);
  }
  matrix.print();
  report.add_table("identity_matrix", matrix);
  report.add_metric("identity_ok", identity_ok ? 1.0 : 0.0);
  bench::rule();

  // ---- Phase B: the bursty scale run. --------------------------------
  // N open sessions share a small script pool (the serving layer never
  // sees the sharing — every session scores its own stream state); each
  // session speaks in two short bursts, the mostly-idle shape that
  // makes a bounded resident set work. The sweep offers one session's
  // whole burst back-to-back before moving on, so on the fleet timeline
  // each session goes idle for an entire sweep of the other N-1
  // sessions before its second burst arrives — by then it has long been
  // evicted, and the second burst rehydrates it.
  const std::size_t scale_sessions =
      sessions_override > 0 ? sessions_override
                            : (smoke ? std::size_t{10'000}
                                     : std::size_t{1'000'000});
  const std::size_t scale_shards = 4;
  const std::size_t workers_per_shard =
      std::max<std::size_t>(1, std::min<std::size_t>(4, hw / scale_shards));
  const std::size_t bound_per_shard = smoke ? 256 : 1024;
  // Busy sessions (queued work) cannot evict, so the resident count can
  // run past the LRU bound by however far the producer gets ahead of
  // the workers. The watermark trips the producer throttle early; the
  // gate allows for the throttle's ramp-up (a handful of 32-session
  // sampling intervals of growth) by sitting at 1.5x the aggregate
  // bound — a margin that scales with the bound, not the fleet, which
  // is the whole claim.
  const std::size_t bound_total = scale_shards * bound_per_shard;
  const std::size_t resident_watermark = bound_total + 64;
  const std::size_t resident_cap = bound_total + bound_total / 2;

  const std::size_t pool_size = 32;
  sim::traffic_config pool_tc;
  pool_tc.num_sessions = pool_size;
  pool_tc.utterances_per_session = 1;
  pool_tc.num_threads = opts.threads;
  const sim::traffic_generator pool_generator{pool_tc, 11};
  const std::vector<sim::session_script> pool = pool_generator.render_all();

  const std::size_t block_samples = 2'048;
  const std::size_t blocks_per_burst = 3;
  const std::size_t num_bursts = 2;
  const auto pool_block = [&](std::size_t session, std::size_t index)
      -> std::optional<audio::buffer> {
    const audio::buffer& capture = pool[session % pool.size()].capture;
    const std::size_t start = index * block_samples;
    if (start >= capture.size()) {
      return std::nullopt;
    }
    const std::size_t end =
        std::min(start + block_samples, capture.size());
    return audio::buffer{
        {capture.samples.begin() + static_cast<std::ptrdiff_t>(start),
         capture.samples.begin() + static_cast<std::ptrdiff_t>(end)},
        capture.sample_rate_hz};
  };

  serve::serve_config scale_cfg;
  scale_cfg.queue_capacity = 64;
  scale_cfg.policy = serve::overflow_policy::reject;
  scale_cfg.worker_threads = 1;
  scale_cfg.max_resident_sessions = bound_per_shard;
  serve::shard_manager front{trained_detector_cache(), scale_cfg,
                             scale_shards};

  const bench::stopwatch open_clock;
  for (std::size_t s = 0; s < scale_sessions; ++s) {
    front.open_session();
  }
  const double open_s = open_clock.elapsed_s();
  bench::note("opened %zu sessions across %zu shards in %.2f s (%.0f "
              "sessions/s); residency bound %zu/shard, peak gate %zu "
              "(%.2f%% of open)",
              scale_sessions, scale_shards, open_s,
              static_cast<double>(scale_sessions) / open_s, bound_per_shard,
              resident_cap,
              100.0 * static_cast<double>(resident_cap) /
                  static_cast<double>(scale_sessions));

  front.start(workers_per_shard);
  // Fleet sampler over the sharded front: the burst/evict/rehydrate
  // cycle is exactly the breathing a time-series makes visible.
  std::unique_ptr<obs::fleet_sampler> sampler;
  if (!telemetry_dir.empty()) {
    obs::sampler_config sc;
    sc.path = telemetry_dir + "/shard_timeseries.jsonl";
    sc.interval_s = 0.1;
    sampler = std::make_unique<obs::fleet_sampler>(
        sc, [&front] { return serve::telemetry_sample(front); });
    sampler->start();
  }
  std::size_t peak_resident = 0;
  std::uint64_t offers = 0;
  std::uint64_t rejected_retries = 0;
  std::uint64_t throttle_us = 0;
  std::uint64_t throttle_sleeps = 0;
  const bench::stopwatch burst_clock;
  for (std::size_t burst = 0; burst < num_bursts; ++burst) {
    for (std::size_t s = 0; s < scale_sessions; ++s) {
      for (std::size_t b = 0; b < blocks_per_burst; ++b) {
        const std::optional<audio::buffer> block =
            pool_block(s, burst * blocks_per_burst + b);
        if (!block.has_value()) {
          continue;
        }
        while (front.offer(s, *block) ==
               serve::offer_status::rejected) {
          ++rejected_retries;
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        ++offers;
      }
      // The client hangs up at the end of its last burst: the flush
      // lands while the session is still resident, so once the workers
      // drain it the LRU sweep can freeze it closed — and finish() then
      // skips it instead of rehydrating the whole fleet to close it.
      if (burst + 1 == num_bursts) {
        front.close(s);
      }
      // Producer pacing. The resident count only moves at offer-time
      // enforcement, so a poll-wait loop here could never converge —
      // instead the throttle is a sticky per-burst sleep whose length
      // doubles while samples stay above the watermark (letting workers
      // drain queues so the NEXT offers' enforcement can evict) and
      // resets to zero the moment the fleet is back under it.
      if (throttle_us > 0) {
        ++throttle_sleeps;
        std::this_thread::sleep_for(std::chrono::microseconds(throttle_us));
      }
      if (s % 32 == 0) {
        const std::size_t resident = front.eviction().resident;
        peak_resident = std::max(peak_resident, resident);
        if (resident > resident_watermark) {
          throttle_us = throttle_us == 0
                            ? 1'000
                            : std::min<std::uint64_t>(throttle_us * 2,
                                                      40'000);
        } else {
          throttle_us = 0;
        }
      }
    }
  }
  front.finish();
  std::size_t telemetry_samples = 0;
  if (sampler != nullptr) {
    sampler->stop();
    telemetry_samples = sampler->samples();
    bench::note("telemetry: %zu fleet samples -> %s/shard_timeseries.jsonl",
                telemetry_samples, telemetry_dir.c_str());
  }
  const double burst_s = burst_clock.elapsed_s();
  const serve::eviction_stats ev = front.eviction();
  peak_resident = std::max(peak_resident, ev.resident);
  const serve::shard_balance balance = front.balance();
  const serve::serve_totals totals = front.aggregate();
  const bool bounded_ok = peak_resident <= resident_cap;

  const double rtf = totals.stats.audio_s_processed / burst_s;
  const double eviction_rate =
      offers > 0 ? static_cast<double>(ev.evictions) /
                       static_cast<double>(offers)
                 : 0.0;
  bench::note("replayed %llu offers in %.2f s (%.0f offers/s, %.0fx "
              "real time), %llu rejected-retry stalls, %llu throttle "
              "sleeps",
              static_cast<unsigned long long>(offers), burst_s,
              static_cast<double>(offers) / burst_s, rtf,
              static_cast<unsigned long long>(rejected_retries),
              static_cast<unsigned long long>(throttle_sleeps));
  bench::note("evictions %llu (%.2f per offer), rehydrations %llu, "
              "rehydrate p50 %.3f ms / p95 %.3f ms, frozen set %.1f MiB",
              static_cast<unsigned long long>(ev.evictions), eviction_rate,
              static_cast<unsigned long long>(ev.rehydrations),
              1e3 * ev.rehydrate_latency.quantile(0.50),
              1e3 * ev.rehydrate_latency.quantile(0.95),
              static_cast<double>(ev.frozen_bytes) / (1024.0 * 1024.0));
  bench::note("peak resident %zu of %zu open (gate %zu): %s", peak_resident,
              scale_sessions, resident_cap,
              bounded_ok ? "bounded" : "EXCEEDED");
  sim::result_table shard_table{{"shard"},
                                {"sessions", "offers", "evictions",
                                 "rehydrations"}};
  for (std::size_t i = 0; i < balance.shards.size(); ++i) {
    const serve::shard_load& l = balance.shards[i];
    sim::result_table::row row;
    row.labels = {std::to_string(i)};
    row.coords = {static_cast<double>(i)};
    row.metrics = {static_cast<double>(l.sessions),
                   static_cast<double>(l.offers),
                   static_cast<double>(l.evictions),
                   static_cast<double>(l.rehydrations)};
    shard_table.add_row(row);
  }
  shard_table.print();
  report.add_table("shard_balance", shard_table);
  bench::note("shard spread: %zu..%zu sessions around a %.0f mean",
              balance.min_sessions, balance.max_sessions,
              balance.mean_sessions);

  // ---- Eviction-on/off hash check on a sub-fleet. --------------------
  // A full double scale run would double the protocol's wall time; the
  // sub-fleet re-runs the exact burst pattern at both settings and the
  // verdict-stream hashes must agree bit-for-bit (phase A already pins
  // eviction invisibility with full stream compares — this extends the
  // check to the scale pattern itself).
  const std::size_t hash_sessions =
      std::min<std::size_t>(512, std::max<std::size_t>(64,
                                                       scale_sessions / 16));
  const auto hash_run = [&](std::size_t bound) {
    serve::serve_config cfg = scale_cfg;
    cfg.worker_threads = 2;
    cfg.max_resident_sessions = bound;
    serve::shard_manager sub{trained_detector_cache(), cfg, scale_shards};
    for (std::size_t s = 0; s < hash_sessions; ++s) {
      sub.open_session();
    }
    for (std::size_t index = 0; index < num_bursts * blocks_per_burst;
         ++index) {
      for (std::size_t s = 0; s < hash_sessions; ++s) {
        const std::optional<audio::buffer> block = pool_block(s, index);
        if (!block.has_value()) {
          continue;
        }
        while (sub.offer(s, *block) == serve::offer_status::rejected) {
          sub.drain();
        }
      }
      sub.drain();
    }
    sub.finish();
    std::vector<std::vector<defense::stream_event>> verdicts;
    verdicts.reserve(hash_sessions);
    for (std::size_t s = 0; s < hash_sessions; ++s) {
      verdicts.push_back(sub.verdicts(s));
    }
    return std::make_pair(fleet_verdict_hash(verdicts),
                          sub.eviction().evictions);
  };
  const auto [hash_evict, evictions_on] = hash_run(/*bound=*/16);
  const auto [hash_free, evictions_off] = hash_run(/*bound=*/0);
  const bool hash_ok = hash_evict == hash_free && evictions_on > 0 &&
                       evictions_off == 0;
  bench::note("sub-fleet (%zu sessions) verdict hash, evicting vs "
              "unbounded: %016llx vs %016llx (%llu evictions) — %s",
              hash_sessions, static_cast<unsigned long long>(hash_evict),
              static_cast<unsigned long long>(hash_free),
              static_cast<unsigned long long>(evictions_on),
              hash_ok ? "identical" : "MISMATCH");

  report.add_metric("sessions", static_cast<double>(scale_sessions));
  report.add_metric("shards", static_cast<double>(scale_shards));
  report.add_metric("workers_per_shard",
                    static_cast<double>(workers_per_shard));
  report.add_metric("resident_bound_per_shard",
                    static_cast<double>(bound_per_shard));
  report.add_metric("resident_cap", static_cast<double>(resident_cap));
  report.add_metric("peak_resident", static_cast<double>(peak_resident));
  report.add_metric("bounded_ok", bounded_ok ? 1.0 : 0.0);
  report.add_metric("open_sessions_per_s",
                    static_cast<double>(scale_sessions) / open_s);
  report.add_metric("offers", static_cast<double>(offers));
  report.add_metric("offers_per_s",
                    static_cast<double>(offers) / burst_s);
  report.add_metric("rtf", rtf);
  report.add_metric("wall_s", burst_s);
  report.add_metric("evictions", static_cast<double>(ev.evictions));
  report.add_metric("rehydrations", static_cast<double>(ev.rehydrations));
  report.add_metric("eviction_rate", eviction_rate);
  report.add_metric("frozen_mib",
                    static_cast<double>(ev.frozen_bytes) /
                        (1024.0 * 1024.0));
  report.add_latency_metrics("rehydrate", ev.rehydrate_latency);
  report.add_metric("balance_min_sessions",
                    static_cast<double>(balance.min_sessions));
  report.add_metric("balance_max_sessions",
                    static_cast<double>(balance.max_sessions));
  report.add_metric("balance_mean_sessions", balance.mean_sessions);
  report.add_metric("hash_ok", hash_ok ? 1.0 : 0.0);
  report.add_metric("eviction_engaged_ok",
                    eviction_engaged_ok ? 1.0 : 0.0);
  if (!telemetry_dir.empty()) {
    report.add_metric("telemetry_samples",
                      static_cast<double>(telemetry_samples));
  }

  const double elapsed = total_clock.elapsed_s();
  report.add_metric("elapsed_s", elapsed);
  bench::rule();
  bench::note("identity matrix bit-identical across shards/workers/"
              "modes/eviction/kills: %s",
              identity_ok ? "yes" : "NO");
  bench::note("resident working set stayed bounded at scale: %s",
              bounded_ok ? "yes" : "NO");
  bench::note("wrote %s in %.2f s", opts.json_path.c_str(), elapsed);
  report.write(opts);
  return identity_ok && eviction_engaged_ok && bounded_ok && hash_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ivc;
  bench::options opts = bench::parse_options(argc, argv);
  bool smoke = false;
  bool paced = false;
  bool e2e = false;
  bool chaos = false;
  bool shard = false;
  double pace = 4.0;
  double session_rate_hz = 32.0;
  std::size_t sessions_override = 0;
  std::string telemetry_dir;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--paced") {
      paced = true;
    } else if (arg == "--e2e") {
      e2e = true;
    } else if (arg == "--chaos") {
      chaos = true;
    } else if (arg == "--shard") {
      shard = true;
    } else if (arg == "--pace" && i + 1 < argc) {
      const double v = std::atof(argv[++i]);
      pace = v > 0.0 ? v : pace;
    } else if (arg == "--rate" && i + 1 < argc) {
      const double v = std::atof(argv[++i]);
      session_rate_hz = v > 0.0 ? v : session_rate_hz;
    } else if (arg == "--sessions" && i + 1 < argc) {
      const long long v = std::atoll(argv[++i]);
      sessions_override = v > 0 ? static_cast<std::size_t>(v) : 0;
    } else if (arg == "--telemetry" && i + 1 < argc) {
      telemetry_dir = argv[++i];
    }
  }
  if (!telemetry_dir.empty()) {
    std::filesystem::create_directories(telemetry_dir);
  }
  if (opts.json_path.empty()) {
    opts.json_path = shard ? "BENCH_serve_shard.json"
                           : (chaos ? "BENCH_serve_chaos.json"
                                    : (e2e ? "BENCH_serve_e2e.json"
                                           : "BENCH_serve.json"));
  }
  if (shard) {
    return run_shard_protocol(opts, smoke, sessions_override, telemetry_dir);
  }
  if (chaos) {
    return run_chaos_protocol(opts, smoke, sessions_override, telemetry_dir);
  }
  if (e2e) {
    return run_e2e_protocol(opts, smoke, sessions_override, telemetry_dir);
  }
  if (paced) {
    return run_paced_protocol(opts, smoke, sessions_override, pace,
                              session_rate_hz, telemetry_dir);
  }
  const std::size_t hw = default_thread_count();

  std::vector<std::size_t> session_counts =
      smoke ? std::vector<std::size_t>{64}
            : std::vector<std::size_t>{16, 64, 256};
  if (sessions_override > 0) {
    session_counts = {sessions_override};
  }
  const std::vector<double> block_ms =
      smoke ? std::vector<double>{50.0} : std::vector<double>{20.0, 50.0, 100.0};
  // Fixed worker counts, not hardware-derived: the 1-vs-N determinism
  // check must exercise real concurrency even on a 1-core box
  // (oversubscribed pools still interleave), and sweeping the same
  // counts everywhere keeps run-log records comparable across machines.
  std::vector<std::size_t> workers =
      smoke ? std::vector<std::size_t>{1, 4}
            : std::vector<std::size_t>{1, 2, 4, hw};
  std::sort(workers.begin(), workers.end());
  workers.erase(std::unique(workers.begin(), workers.end()), workers.end());

  bench::banner("SERVE", smoke ? "multi-stream serving load (smoke)"
                               : "multi-stream serving load");
  bench::json_report report{smoke ? "SERVE-smoke" : "SERVE",
                            "multi-stream serving load"};
  report.set_signature("serve-load-v1");
  report.set_seed(7);
  const bench::stopwatch total_clock;

  // ---- Traffic: rendered once at the largest session count. ----------
  sim::traffic_config tc;
  tc.num_sessions = *std::max_element(session_counts.begin(),
                                      session_counts.end());
  tc.utterances_per_session = smoke ? 1 : 2;
  tc.num_threads = opts.threads;
  const sim::traffic_generator generator{tc, 7};
  (void)trained_detector_cache();  // train before timing the render
  const bench::stopwatch render_clock;
  const std::vector<sim::session_script> scripts = generator.render_all();
  double fleet_audio_s = 0.0;
  std::size_t attack_streams = 0;
  for (const sim::session_script& s : scripts) {
    fleet_audio_s += s.capture.duration_s();
    attack_streams += s.is_attack ? 1 : 0;
  }
  bench::note("fleet: %zu streams (%zu attack), %.1f s of audio, "
              "rendered in %.2f s",
              scripts.size(), attack_streams, fleet_audio_s,
              render_clock.elapsed_s());
  report.add_metric("fleet_streams", static_cast<double>(scripts.size()));
  report.add_metric("fleet_attack_streams",
                    static_cast<double>(attack_streams));
  report.add_metric("fleet_audio_s", fleet_audio_s);
  bench::rule();

  // ---- Sweep: sessions × block size × workers. -----------------------
  sim::result_table sweep{
      {"sessions", "block_ms", "workers"},
      {"wall_s", "audio_s", "rtf", "p50_ms", "p95_ms", "p99_ms",
       "shed_blocks", "events"}};
  bool determinism_ok = true;
  double serving_detection_rate = 0.0;
  double serving_fpr = 0.0;
  std::printf("%9s %9s %8s %9s %9s %9s %9s %9s %7s\n", "sessions", "block",
              "workers", "wall s", "rtf", "p50 ms", "p95 ms", "p99 ms",
              "events");
  for (const std::size_t S : session_counts) {
    for (const double B : block_ms) {
      // Reference verdict streams for this (S, B): the 1-worker run.
      std::vector<std::vector<defense::stream_event>> reference;
      for (const std::size_t W : workers) {
        serve::serve_config cfg;
        cfg.worker_threads = W;
        cfg.queue_capacity = 64;
        cfg.policy = serve::overflow_policy::reject;
        const combo_result r = run_combo(scripts, S, B, cfg,
                                         /*drain_every=*/4);
        if (reference.empty()) {
          reference = r.verdicts;
          // Serving-level ground truth at the full fleet size: a stream
          // counts as flagged when any of its verdicts says attack.
          if (S == session_counts.back() && B == block_ms.front()) {
            std::size_t attacks = 0, flagged_attack = 0, flagged_genuine = 0;
            for (std::size_t s = 0; s < S; ++s) {
              bool flagged = false;
              for (const defense::stream_event& e : r.verdicts[s]) {
                flagged = flagged || e.is_attack;
              }
              if (scripts[s].is_attack) {
                ++attacks;
                flagged_attack += flagged ? 1 : 0;
              } else {
                flagged_genuine += flagged ? 1 : 0;
              }
            }
            serving_detection_rate =
                attacks > 0 ? static_cast<double>(flagged_attack) /
                                  static_cast<double>(attacks)
                            : 0.0;
            serving_fpr = (S - attacks) > 0
                              ? static_cast<double>(flagged_genuine) /
                                    static_cast<double>(S - attacks)
                              : 0.0;
          }
        } else {
          for (std::size_t s = 0; s < S; ++s) {
            if (!identical_verdicts(reference[s], r.verdicts[s])) {
              determinism_ok = false;
              std::fprintf(stderr,
                           "DETERMINISM VIOLATION: session %zu verdicts "
                           "differ at %zu vs %zu workers\n",
                           s, workers.front(), W);
            }
          }
        }
        const serve::serve_totals& t = r.totals;
        const double audio_s = t.stats.audio_s_processed;
        const double rtf = audio_s / r.wall_s;
        const double p50 = 1e3 * t.stats.latency.quantile(0.50);
        const double p95 = 1e3 * t.stats.latency.quantile(0.95);
        const double p99 = 1e3 * t.stats.latency.quantile(0.99);
        std::printf("%9zu %7.0fms %8zu %9.2f %9.1f %9.2f %9.2f %9.2f %7llu\n",
                    S, B, W, r.wall_s, rtf, p50, p95, p99,
                    static_cast<unsigned long long>(t.stats.events));
        sim::result_table::row row;
        row.labels = {std::to_string(S), std::to_string(B),
                      std::to_string(W)};
        row.coords = {static_cast<double>(S), B, static_cast<double>(W)};
        row.metrics = {r.wall_s,
                       audio_s,
                       rtf,
                       p50,
                       p95,
                       p99,
                       static_cast<double>(t.stats.blocks_shed),
                       static_cast<double>(t.stats.events)};
        sweep.add_row(row);
      }
    }
  }
  sweep.print();
  report.add_table("sweep", sweep);
  report.add_metric("determinism_ok", determinism_ok ? 1.0 : 0.0);
  report.add_metric("max_sessions",
                    static_cast<double>(session_counts.back()));
  report.add_metric("serving_detection_rate", serving_detection_rate);
  report.add_metric("serving_fpr", serving_fpr);
  bench::note("serving-level rates at %zu streams: detection %.0f%%, "
              "false positives %.0f%%",
              session_counts.back(), 100.0 * serving_detection_rate,
              100.0 * serving_fpr);
  bench::rule();

  // ---- Overload: tiny queue bound, shed_newest, sparse drains. -------
  // Offers between two drains exceed the ring, so the shed count is a
  // deterministic function of the schedule (drains are barriers and the
  // producer is single-threaded): every session sheds
  // (drain_every - capacity) blocks per full inter-drain burst.
  {
    const std::size_t S = std::min<std::size_t>(session_counts.back(),
                                                scripts.size());
    serve::serve_config cfg;
    cfg.worker_threads = workers.back();
    cfg.queue_capacity = 4;
    cfg.policy = serve::overflow_policy::shed_newest;
    const combo_result r =
        run_combo(scripts, S, block_ms.front(), cfg, /*drain_every=*/16);
    const serve::serve_totals& t = r.totals;
    const double offered = static_cast<double>(t.stats.blocks_offered);
    const double shed_fraction =
        offered > 0.0 ? static_cast<double>(t.stats.blocks_shed) / offered
                      : 0.0;
    bench::note("overload (queue=4, drain every 16): %llu of %llu blocks "
                "shed (%.0f%%), p99 %.2f ms",
                static_cast<unsigned long long>(t.stats.blocks_shed),
                static_cast<unsigned long long>(t.stats.blocks_offered),
                100.0 * shed_fraction,
                1e3 * t.stats.latency.quantile(0.99));
    report.add_metric("overload_shed_blocks",
                      static_cast<double>(t.stats.blocks_shed));
    report.add_metric("overload_shed_fraction", shed_fraction);
    report.add_metric("overload_p99_ms",
                      1e3 * t.stats.latency.quantile(0.99));
    if (t.stats.blocks_shed == 0) {
      std::fprintf(stderr, "overload pass unexpectedly shed nothing\n");
      return 1;
    }
  }

  const double elapsed = total_clock.elapsed_s();
  report.add_metric("elapsed_s", elapsed);
  bench::rule();
  bench::note("verdict streams bit-identical at 1 vs N workers: %s",
              determinism_ok ? "yes" : "NO");
  bench::note("wrote %s in %.2f s", opts.json_path.c_str(), elapsed);
  report.write(opts);
  return determinism_ok ? 0 : 1;
}
