// SERVE: scenario-driven load harness for the serving layer.
//
// Renders a fleet of mixed genuine/attack device streams with
// sim::traffic (deterministic per-session seeds) and replays it through
// serve::shard_manager, the front the serving code and perfbench use.
// Every protocol goes through one driver, replay(): it opens the fleet
// on an M-shard front, offers blocks in a given ORDER from a given
// SOURCE under a given SCHEDULE, finishes, and reads back every
// session's verdict and outcome streams plus the fleet views. Protocols
// that are not about sharding run M = 1, which the shard-count identity
// contract makes bit-identical to an unsharded manager.
//
//   order     round-robin rounds (round r offers block r of every
//             session: the concurrent-arrival shape), or the arrival
//             timeline sim::traffic stamps on the fleet (Poisson session
//             starts + per-block capture times).
//   source    session_script::block(i), the capture cut into block_ms
//             blocks, or a small script pool shared by a large fleet.
//   schedule  drain() cycles: offers interleaved with drain() every k
//             rounds, a rejected offer drains and retries; or streaming:
//             live start(W)/stop() workers, a rejected offer sleeps and
//             retries, each session closed after its last block, and
//             optionally each block offered at its arrival time / pace.
//
// "Fork-join" in arm names, notes and JSON labels means the drain()
// cycles schedule. The label is kept so run-log records stay comparable
// across commits, and the schedule is kept because its barrier drains
// make the overload pass's shed count deterministic.
//
// Each protocol CHECKS its gates (exit 1 on any violation) and writes a
// JSON report plus a run-log record under its own signature:
//
//   (default)  serve-load-v1, BENCH_serve.json: sessions × block size ×
//              workers. Verdict streams must be bit-identical at 1 vs N
//              workers, and an overload pass (queue bound 4, shed_newest,
//              drain every 16 rounds) must shed.
//   --paced    serve-paced-v1: the timeline replayed at arrival_s / pace
//              against live streaming workers, queue-wait and service
//              latency reported as separate histograms. Every paced run's
//              verdicts must equal an unpaced drain() replay's.
//   --e2e      serve-e2e-v1, BENCH_serve_e2e.json: every session opens
//              with its own config that adds the command stage
//              (segmenter → shared recognizer → intent). Outcome streams
//              are scored against the traffic ground truth — attacker
//              success means the intended command EXECUTED, genuine
//              completion means a genuine user's command did — and ASR
//              latency is reported apart from detector service time.
//              Every run (drain() cycles at each worker count, plus
//              streaming) must match the 1-worker reference's verdicts
//              and outcomes; only the asr_s wall time is exempt.
//   --chaos    serve-chaos-v1, BENCH_serve_chaos.json: the e2e fleet
//              under a seeded serve::fault_injector at several fault
//              scales. Streams must stay identical across 1/2/8 workers
//              and both schedules under the same faults, faults must
//              never raise attacker success or benign false executes
//              over the fault-free run, and in smoke mode the top scale
//              must fault >= 25% of sessions at 0% attacker success.
//   --shard    serve-shard-v1, BENCH_serve_shard.json. Phase A is the
//              identity matrix: the e2e fleet at 2/4 shards × workers ×
//              schedules × eviction bounds × shard_kill, and with stage
//              faults, each row identical to its 1-shard reference (the
//              stage-fault row's reference carries the same injector).
//              Bounded rows must evict, kill rows must kill, the
//              stage-fault row must quarantine. Phase B is the scale
//              run: 1M sessions (smoke: 10k) over a 32-script pool speak
//              in two bursts each against a live 4-shard front whose
//              per-shard residency bound keeps peak resident within
//              1.5× the aggregate bound — sessions evict to snapshots
//              between bursts and rehydrate on the next offer. Its
//              throttled producer is the one offer loop outside
//              replay(). A sub-fleet replayed with and without eviction
//              must produce the same verdict-stream hash.
//
// Flags (on top of the common --json/--runlog/--threads/--trials):
//   --smoke             CI-sized run
//   --sessions <n>      override the fleet size
//   --paced | --e2e | --chaos | --shard   the protocol (at most one)
//   --pace <x>          paced replay speed (default 4: 4x real time)
//   --rate <s/s>        paced Poisson session-start rate (default 32/s)
//   --telemetry <dir>   --e2e: the worker matrix widens to 1/2/8 workers
//                       × both schedules, each run gets a fresh
//                       obs::metrics_registry, and the deterministic
//                       counter fingerprint and the wall-clock-stripped
//                       span traces must be bit-identical across runs
//                       (artifacts in <dir>, a serve-telemetry-v1
//                       record in the run log). --paced/--shard: an
//                       obs::fleet_sampler appends a JSONL time-series.
//                       --chaos: every quarantine dumps its flight
//                       recorder to <dir>/quarantine_traces.jsonl, which
//                       must be non-empty when sessions quarantined.
// An unknown flag, a value flag without its value, or two protocols at
// once print a usage line and exit 2.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
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
#include "serve/shard.h"
#include "serve/telemetry.h"
#include "sim/corpus.h"
#include "sim/scenario.h"
#include "sim/traffic.h"

namespace {

using namespace ivc;

// Classifier trained on a small real corpus (same physics as the
// traffic), so serving-level verdict rates mean something. Small caps
// keep the bench about the serving layer, not corpus rendering. Trained
// once, on first use.
const defense::classifier_detector& trained_detector() {
  static const defense::classifier_detector detector = [] {
    sim::corpus_config cfg;
    cfg.rig = attack::monolithic_rig();
    cfg.max_attack_commands = 4;
    cfg.max_genuine_phrases = 6;
    defense::logistic_classifier clf;
    clf.train(sim::build_defense_corpus(cfg, 70).train);
    return defense::classifier_detector{clf};
  }();
  return detector;
}

// ---- The fleet -------------------------------------------------------

struct fleet {
  std::vector<sim::session_script> scripts;
  double audio_s = 0.0;
  double timeline_s = 0.0;  // arrival of the last block
  std::size_t attack_streams = 0;
};

// Renders `sessions` streams. The detector is trained (and, for the
// command stage, the shared template bank enrolled — every device
// profile captures at 16 kHz) first, so the noted render time is the
// traffic's alone.
fleet render_fleet(const bench::options& opts, std::size_t sessions,
                   std::size_t utterances, bool commands,
                   double session_rate_hz = 0.0, std::uint64_t seed = 7) {
  sim::traffic_config tc;
  tc.num_sessions = sessions;
  tc.utterances_per_session = utterances;
  tc.session_rate_hz = session_rate_hz;
  tc.num_threads = opts.threads;
  (void)trained_detector();
  if (commands) {
    (void)sim::shared_enrolled_recognizer(16'000.0, 1);
  }
  const bench::stopwatch clock;
  fleet f;
  f.scripts = sim::traffic_generator{tc, seed}.render_all();
  for (const sim::session_script& s : f.scripts) {
    f.audio_s += s.capture.duration_s();
    f.timeline_s = std::max(f.timeline_s, s.end_s());
    f.attack_streams += s.is_attack ? 1 : 0;
  }
  bench::note("fleet: %zu streams (%zu attack), %.1f s of audio, "
              "rendered in %.2f s",
              f.scripts.size(), f.attack_streams, f.audio_s,
              clock.elapsed_s());
  return f;
}

// Where a replay's audio comes from: session s has count(s) blocks, and
// block(s, i) is its i-th.
struct block_source {
  std::function<std::size_t(std::size_t)> count;
  std::function<audio::buffer(std::size_t, std::size_t)> block;
};

block_source script_source(const std::vector<sim::session_script>& scripts) {
  return {[&scripts](std::size_t s) { return scripts[s].num_blocks(); },
          [&scripts](std::size_t s, std::size_t i) {
            return scripts[s].block(i);
          }};
}

// Session s's capture cut into blocks of samples(s) samples, at most
// `max_blocks` of them (the last block may be short).
block_source cut_source(
    std::function<const audio::buffer&(std::size_t)> capture,
    std::function<std::size_t(std::size_t)> samples,
    std::size_t max_blocks = std::numeric_limits<std::size_t>::max()) {
  return {[=](std::size_t s) {
            const std::size_t n = samples(s);
            return std::min(max_blocks, (capture(s).size() + n - 1) / n);
          },
          [=](std::size_t s, std::size_t i) {
            const audio::buffer& c = capture(s);
            const std::size_t start = i * samples(s);
            const std::size_t end = std::min(start + samples(s), c.size());
            return audio::buffer{
                {c.samples.begin() + static_cast<std::ptrdiff_t>(start),
                 c.samples.begin() + static_cast<std::ptrdiff_t>(end)},
                c.sample_rate_hz};
          }};
}

// block_ms of audio per block on every device, from each capture's own
// sample rate.
block_source block_ms_source(const std::vector<sim::session_script>& scripts,
                             double block_ms) {
  return cut_source(
      [&scripts](std::size_t s) -> const audio::buffer& {
        return scripts[s].capture;
      },
      [&scripts, block_ms](std::size_t s) {
        return std::max<std::size_t>(
            1, static_cast<std::size_t>(block_ms * 1e-3 *
                                        scripts[s].capture.sample_rate_hz));
      });
}

// One offer: block `block` of session `session`, due at `arrival_s` on
// the fleet timeline (read by paced schedules only).
struct offer_event {
  double arrival_s = 0.0;
  std::size_t session = 0;
  std::size_t block = 0;
};

// Round r offers block r of every session that has one.
std::vector<offer_event> round_robin(const block_source& src,
                                     std::size_t sessions) {
  std::vector<offer_event> order;
  for (std::size_t round = 0;; ++round) {
    const std::size_t before = order.size();
    for (std::size_t s = 0; s < sessions; ++s) {
      if (round < src.count(s)) {
        order.push_back({0.0, s, round});
      }
    }
    if (order.size() == before) {
      return order;
    }
  }
}

// Every block in arrival order (ties break by session then block, so
// the order is deterministic even when the timeline has no spread).
std::vector<offer_event> arrival_order(
    const std::vector<sim::session_script>& scripts, std::size_t sessions) {
  std::vector<offer_event> order;
  for (std::size_t s = 0; s < sessions; ++s) {
    for (std::size_t b = 0; b < scripts[s].num_blocks(); ++b) {
      order.push_back({scripts[s].block_arrival_s(b), s, b});
    }
  }
  std::sort(order.begin(), order.end(),
            [](const offer_event& a, const offer_event& b) {
              return std::tie(a.arrival_s, a.session, a.block) <
                     std::tie(b.arrival_s, b.session, b.block);
            });
  return order;
}

// ---- The driver ------------------------------------------------------

// The session queues every protocol starts from: 64 blocks that reject
// when full, so the producer sees backpressure.
serve::serve_config backpressure_config() {
  serve::serve_config cfg;
  cfg.queue_capacity = 64;
  cfg.policy = serve::overflow_policy::reject;
  return cfg;
}

struct replay_spec {
  std::size_t sessions = 0;
  std::size_t shards = 1;
  std::size_t workers = 1;  // per shard
  // false: drain() cycles, drain() after every drain_every-th round (0 =
  // only on a rejected offer and at finish()). true: live streaming.
  bool streaming = false;
  std::size_t drain_every = 4;
  double pace = 0.0;  // streaming: > 0 offers at arrival_s / pace
  serve::serve_config cfg = backpressure_config();  // every shard's
  // Every session opens with its own config adding the command stage.
  bool commands = false;
  // A fresh metrics registry per run; the run keeps its fingerprints.
  bool telemetry = false;
  std::string timeseries;  // non-empty: fleet sampler JSONL path
};

struct fleet_run {
  double wall_s = 0.0;
  serve::serve_totals totals;
  serve::eviction_stats eviction;
  serve::shard_balance balance;
  std::vector<std::vector<defense::stream_event>> verdicts;
  std::vector<std::vector<serve::command_outcome>> outcomes;
  std::vector<serve::session_stats> stats;
  // With telemetry: the registry, its deterministic counter subset, and
  // every session's flight recorder with wall-clock fields zeroed — the
  // two strings the telemetry gate compares bit-for-bit across runs.
  std::shared_ptr<obs::metrics_registry> registry;
  std::string metrics_fingerprint;
  std::string trace_fingerprint;
  std::size_t telemetry_samples = 0;  // JSONL lines appended
};

std::unique_ptr<obs::fleet_sampler> start_sampler(
    const serve::shard_manager& front, const std::string& path,
    double interval_s) {
  if (path.empty()) {
    return nullptr;
  }
  obs::sampler_config sc;
  sc.path = path;
  sc.interval_s = interval_s;
  auto sampler = std::make_unique<obs::fleet_sampler>(
      sc, [&front] { return serve::telemetry_sample(front); });
  sampler->start();
  return sampler;
}

// Opens spec.sessions sessions on a fresh front, offers `order` from
// `blocks` under the spec's schedule, finishes, and reads everything
// back.
fleet_run replay(const replay_spec& spec,
                 const std::vector<offer_event>& order,
                 const block_source& blocks) {
  fleet_run run;
  serve::serve_config cfg = spec.cfg;
  // Streaming workers come from start(); finish()'s drain needs one.
  cfg.worker_threads = spec.streaming ? 1 : spec.workers;
  if (spec.telemetry) {
    run.registry = std::make_shared<obs::metrics_registry>();
    cfg.metrics = run.registry;
  }
  serve::shard_manager front{trained_detector(), cfg, spec.shards};
  for (std::size_t s = 0; s < spec.sessions; ++s) {
    if (!spec.commands) {
      front.open_session();
      continue;
    }
    serve::serve_config own = cfg;
    serve::pipeline_config pipeline;  // decision window adopts window_s
    pipeline.recognizer = sim::shared_enrolled_recognizer(
        blocks.block(s, 0).sample_rate_hz, /*enrollment_seed=*/1);
    own.pipeline = pipeline;
    front.open_session(own);
  }
  if (spec.streaming) {
    front.start(spec.workers);
  }
  const auto sampler = start_sampler(front, spec.timeseries, 0.05);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < order.size(); ++i) {
    const offer_event& e = order[i];
    if (spec.pace > 0.0) {
      // A late offer goes out at once: a congested replay degrades
      // into a burst, like a backlogged capture pipe.
      std::this_thread::sleep_until(
          t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   std::chrono::duration<double>(e.arrival_s / spec.pace)));
    }
    while (front.offer(e.session, blocks.block(e.session, e.block)) ==
           serve::offer_status::rejected) {
      if (spec.streaming) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      } else {
        front.drain();
      }
    }
    if (spec.streaming) {
      // Closing at the last block interleaves end-of-stream flushes
      // with later arrivals instead of gathering them at the end.
      if (e.block + 1 == blocks.count(e.session)) {
        front.close(e.session);
      }
    } else if (spec.drain_every > 0 && (e.block + 1) % spec.drain_every == 0 &&
               (i + 1 == order.size() || order[i + 1].block != e.block)) {
      front.drain();  // the end of every drain_every-th round
    }
  }
  front.finish();
  if (sampler != nullptr) {
    sampler->stop();  // takes the final end-of-run sample
    run.telemetry_samples = sampler->samples();
  }
  run.wall_s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
  run.totals = front.aggregate();
  run.eviction = front.eviction();
  run.balance = front.balance();
  json::array traces;
  for (std::size_t s = 0; s < spec.sessions; ++s) {
    run.verdicts.push_back(front.verdicts(s));
    run.outcomes.push_back(front.outcomes(s));
    run.stats.push_back(front.stats(s));
    if (spec.telemetry) {
      traces.emplace_back(
          obs::encode_spans(obs::strip_wall_clock(front.trace(s))));
    }
  }
  if (spec.telemetry) {
    run.metrics_fingerprint = run.registry->deterministic_fingerprint();
    run.trace_fingerprint = json::write(json::value{std::move(traces)});
  }
  return run;
}

// True when every session's verdict and outcome streams equal the
// reference's (asr_s is wall time — timing, not content — and the only
// field allowed to differ); prints each session that differs.
bool same_streams(const fleet_run& ref, const fleet_run& run,
                  const std::string& where) {
  bool same = true;
  for (std::size_t s = 0; s < ref.verdicts.size(); ++s) {
    const bool verdicts_same = std::equal(
        ref.verdicts[s].begin(), ref.verdicts[s].end(),
        run.verdicts[s].begin(), run.verdicts[s].end(),
        [](const defense::stream_event& a, const defense::stream_event& b) {
          return a.time_s == b.time_s && a.score == b.score &&
                 a.is_attack == b.is_attack;
        });
    const bool outcomes_same = std::equal(
        ref.outcomes[s].begin(), ref.outcomes[s].end(),
        run.outcomes[s].begin(), run.outcomes[s].end(),
        [](const serve::command_outcome& a, const serve::command_outcome& b) {
          return a.start_s == b.start_s && a.end_s == b.end_s &&
                 a.kind == b.kind && a.fault == b.fault &&
                 a.command_id == b.command_id && a.intent == b.intent &&
                 a.asr_distance == b.asr_distance &&
                 a.asr_margin == b.asr_margin;
        });
    if (!verdicts_same || !outcomes_same) {
      same = false;
      std::fprintf(stderr,
                   "DETERMINISM VIOLATION: session %zu %s differs from the "
                   "reference (%s)\n",
                   s, verdicts_same ? "outcome stream" : "verdict stream",
                   where.c_str());
    }
  }
  return same;
}

std::size_t verdict_count(const fleet_run& run) {
  std::size_t n = 0;
  for (const auto& v : run.verdicts) {
    n += v.size();
  }
  return n;
}

// ---- Reporting helpers -----------------------------------------------

bench::json_report open_report(const std::string& id, const char* signature,
                               const std::string& title, bool smoke) {
  bench::banner(id.c_str(),
                (smoke ? title + " (smoke)" : title).c_str());
  bench::json_report report{smoke ? id + "-smoke" : id, title};
  report.set_signature(signature);
  report.set_seed(7);
  return report;
}

void write_report(bench::json_report& report, const bench::options& opts,
                  const bench::stopwatch& clock) {
  const double elapsed = clock.elapsed_s();
  report.add_metric("elapsed_s", elapsed);
  bench::note("wrote %s in %.2f s", opts.json_path.c_str(), elapsed);
  report.write(opts);
}

std::vector<std::size_t> sorted_unique(std::vector<std::size_t> v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

double rate(std::size_t num, std::size_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

// ---- Default sweep (serve-load-v1) -----------------------------------

int run_load_protocol(const bench::options& opts, bool smoke,
                      std::size_t sessions_override) {
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
  // (oversubscribed workers still interleave), and sweeping the same
  // counts everywhere keeps run-log records comparable across machines.
  const std::vector<std::size_t> workers = sorted_unique(
      smoke ? std::vector<std::size_t>{1, 4}
            : std::vector<std::size_t>{1, 2, 4, default_thread_count()});

  bench::json_report report = open_report(
      "SERVE", "serve-load-v1", "multi-stream serving load", smoke);
  const bench::stopwatch total_clock;
  const fleet f = render_fleet(
      opts, *std::max_element(session_counts.begin(), session_counts.end()),
      smoke ? 1 : 2, /*commands=*/false);
  report.add_metric("fleet_streams", static_cast<double>(f.scripts.size()));
  report.add_metric("fleet_attack_streams",
                    static_cast<double>(f.attack_streams));
  report.add_metric("fleet_audio_s", f.audio_s);
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
      const block_source src = block_ms_source(f.scripts, B);
      const std::vector<offer_event> order = round_robin(src, S);
      std::optional<fleet_run> reference;  // the 1-worker run
      for (const std::size_t W : workers) {
        replay_spec spec;
        spec.sessions = S;
        spec.workers = W;
        const fleet_run r = replay(spec, order, src);
        if (reference.has_value()) {
          determinism_ok &= same_streams(
              *reference, r,
              std::to_string(workers.front()) + " vs " + std::to_string(W) +
                  " workers");
        } else {
          reference = r;
          // Serving-level ground truth at the full fleet size: a stream
          // counts as flagged when any of its verdicts says attack.
          if (S == session_counts.back() && B == block_ms.front()) {
            std::size_t attacks = 0, flagged_attack = 0, flagged_genuine = 0;
            for (std::size_t s = 0; s < S; ++s) {
              const bool flagged = std::any_of(
                  r.verdicts[s].begin(), r.verdicts[s].end(),
                  [](const defense::stream_event& e) { return e.is_attack; });
              attacks += f.scripts[s].is_attack ? 1 : 0;
              flagged_attack += f.scripts[s].is_attack && flagged ? 1 : 0;
              flagged_genuine += !f.scripts[s].is_attack && flagged ? 1 : 0;
            }
            serving_detection_rate = rate(flagged_attack, attacks);
            serving_fpr = rate(flagged_genuine, S - attacks);
          }
        }
        const serve::session_stats& t = r.totals.stats;
        const double rtf = t.audio_s_processed / r.wall_s;
        const double p50 = 1e3 * t.latency.quantile(0.50);
        const double p95 = 1e3 * t.latency.quantile(0.95);
        const double p99 = 1e3 * t.latency.quantile(0.99);
        std::printf("%9zu %7.0fms %8zu %9.2f %9.1f %9.2f %9.2f %9.2f %7llu\n",
                    S, B, W, r.wall_s, rtf, p50, p95, p99,
                    static_cast<unsigned long long>(t.events));
        sim::result_table::row row;
        row.labels = {std::to_string(S), std::to_string(B),
                      std::to_string(W)};
        row.coords = {static_cast<double>(S), B, static_cast<double>(W)};
        row.metrics = {r.wall_s, t.audio_s_processed, rtf, p50, p95, p99,
                       static_cast<double>(t.blocks_shed),
                       static_cast<double>(t.events)};
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
    const block_source src = block_ms_source(f.scripts, block_ms.front());
    replay_spec spec;
    spec.sessions = std::min(session_counts.back(), f.scripts.size());
    spec.workers = workers.back();
    spec.drain_every = 16;
    spec.cfg.queue_capacity = 4;
    spec.cfg.policy = serve::overflow_policy::shed_newest;
    const serve::session_stats t =
        replay(spec, round_robin(src, spec.sessions), src).totals.stats;
    const double shed_fraction = rate(t.blocks_shed, t.blocks_offered);
    bench::note("overload (queue=4, drain every 16): %llu of %llu blocks "
                "shed (%.0f%%), p99 %.2f ms",
                static_cast<unsigned long long>(t.blocks_shed),
                static_cast<unsigned long long>(t.blocks_offered),
                100.0 * shed_fraction, 1e3 * t.latency.quantile(0.99));
    report.add_metric("overload_shed_blocks",
                      static_cast<double>(t.blocks_shed));
    report.add_metric("overload_shed_fraction", shed_fraction);
    report.add_metric("overload_p99_ms", 1e3 * t.latency.quantile(0.99));
    if (t.blocks_shed == 0) {
      std::fprintf(stderr, "overload pass unexpectedly shed nothing\n");
      return 1;
    }
  }

  bench::rule();
  bench::note("verdict streams bit-identical at 1 vs N workers: %s",
              determinism_ok ? "yes" : "NO");
  write_report(report, opts, total_clock);
  return determinism_ok ? 0 : 1;
}

// ---- Paced streaming replay (serve-paced-v1) -------------------------

// Timeline-stamped traffic, an unpaced drain() reference, then a paced
// streaming replay per worker count, each checked bit-identical to the
// reference. Under the reject policy nothing can shed — the
// backpressure signal of a paced run is its rejected-offer count.
int run_paced_protocol(const bench::options& opts, bool smoke,
                       std::size_t sessions_override, double pace,
                       double session_rate_hz,
                       const std::string& telemetry_dir) {
  const std::size_t num_sessions =
      sessions_override > 0 ? sessions_override
                            : (smoke ? std::size_t{64} : std::size_t{256});
  const std::vector<std::size_t> workers = sorted_unique(
      smoke ? std::vector<std::size_t>{1, 4}
            : std::vector<std::size_t>{1, 2, 4, default_thread_count()});

  bench::json_report report =
      open_report("SERVE-paced", "serve-paced-v1",
                  "streaming arrival-paced load", smoke);
  const bench::stopwatch total_clock;
  const fleet f = render_fleet(opts, num_sessions, smoke ? 1 : 2,
                               /*commands=*/false, session_rate_hz);
  bench::note("timeline: %.1f s (Poisson starts at %.0f/s), replayed at "
              "%.0fx",
              f.timeline_s, session_rate_hz, pace);
  report.add_metric("fleet_streams", static_cast<double>(f.scripts.size()));
  report.add_metric("fleet_audio_s", f.audio_s);
  report.add_metric("timeline_s", f.timeline_s);
  report.add_metric("pace", pace);
  report.add_metric("session_rate_hz", session_rate_hz);
  bench::rule();

  const std::vector<offer_event> timeline =
      arrival_order(f.scripts, num_sessions);
  const block_source src = script_source(f.scripts);
  replay_spec spec;
  spec.sessions = num_sessions;
  spec.drain_every = 0;
  const fleet_run reference = replay(spec, timeline, src);
  bench::note("fork-join reference: %zu verdicts over %zu sessions",
              verdict_count(reference), num_sessions);

  sim::result_table sweep{{"workers"},
                          {"wall_s", "rtf", "queue_p50_ms", "queue_p95_ms",
                           "queue_p99_ms", "service_p50_ms", "service_p95_ms",
                           "service_p99_ms", "rejected_blocks", "events"}};
  bool determinism_ok = true;
  std::printf("%8s %9s %9s %10s %10s %10s %12s %12s %7s\n", "workers",
              "wall s", "rtf", "queue p50", "queue p95", "queue p99",
              "service p50", "service p95", "events");
  std::size_t telemetry_samples = 0;
  spec.streaming = true;
  spec.pace = pace;
  for (const std::size_t W : workers) {
    spec.workers = W;
    // The widest run is the deployment shape; it carries the sampler.
    spec.timeseries = !telemetry_dir.empty() && W == workers.back()
                          ? telemetry_dir + "/paced_timeseries.jsonl"
                          : std::string{};
    const fleet_run r = replay(spec, timeline, src);
    if (!spec.timeseries.empty()) {
      telemetry_samples = r.telemetry_samples;
      bench::note("fleet sampler: %zu time-series samples -> %s",
                  r.telemetry_samples, spec.timeseries.c_str());
    }
    determinism_ok &= same_streams(
        reference, r, "paced, " + std::to_string(W) + " workers");
    const serve::session_stats& t = r.totals.stats;
    const double rtf = t.audio_s_processed / r.wall_s;
    std::printf("%8zu %9.2f %9.1f %8.2fms %8.2fms %8.2fms %10.2fms %10.2fms "
                "%7llu\n",
                W, r.wall_s, rtf, 1e3 * t.queue_wait.quantile(0.50),
                1e3 * t.queue_wait.quantile(0.95),
                1e3 * t.queue_wait.quantile(0.99),
                1e3 * t.service.quantile(0.50),
                1e3 * t.service.quantile(0.95),
                static_cast<unsigned long long>(t.events));
    sim::result_table::row row;
    row.labels = {std::to_string(W)};
    row.coords = {static_cast<double>(W)};
    row.metrics = {r.wall_s,
                   rtf,
                   1e3 * t.queue_wait.quantile(0.50),
                   1e3 * t.queue_wait.quantile(0.95),
                   1e3 * t.queue_wait.quantile(0.99),
                   1e3 * t.service.quantile(0.50),
                   1e3 * t.service.quantile(0.95),
                   1e3 * t.service.quantile(0.99),
                   static_cast<double>(t.blocks_rejected),
                   static_cast<double>(t.events)};
    sweep.add_row(row);
    if (W == workers.back()) {
      report.add_latency_metrics("latency", t.latency);
      report.add_latency_metrics("queue_wait", t.queue_wait);
      report.add_latency_metrics("service", t.service);
      report.add_metric("rejected_blocks",
                        static_cast<double>(t.blocks_rejected));
      report.add_metric("events", static_cast<double>(t.events));
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
  bench::rule();
  bench::note("paced verdict streams bit-identical to fork-join drain: %s",
              determinism_ok ? "yes" : "NO");
  write_report(report, opts, total_clock);
  return determinism_ok ? 0 : 1;
}

// ---- End-to-end command pipeline (serve-e2e-v1) ----------------------

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

  double attacker_success() const {
    return rate(attack_executed, attack_streams);
  }
  double benign_false_execute() const {
    return rate(benign_executed, benign_streams);
  }
};

e2e_scorecard score_e2e(const std::vector<sim::session_script>& scripts,
                        const fleet_run& r) {
  e2e_scorecard card;
  for (std::size_t s = 0; s < r.outcomes.size(); ++s) {
    bool intended_executed = false;
    bool any_executed = false;
    bool any_blocked = false;
    for (const serve::command_outcome& o : r.outcomes[s]) {
      using kind_t = serve::command_outcome::kind_t;
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

// The worker matrix of --e2e and --chaos: `spec` replayed by drain()
// cycles at each of `cycled` worker counts, then streaming at each of
// `streamed`. The first run (1 worker, drain() cycles) is the reference
// every later run must reproduce (`same` turns false otherwise).
// `each(streaming, workers, run, reference)` sees every run, the
// reference first; the reference is returned.
template <typename Each>
fleet_run run_matrix(replay_spec spec, const std::vector<offer_event>& order,
                     const block_source& src,
                     const std::vector<std::size_t>& cycled,
                     const std::vector<std::size_t>& streamed,
                     const std::string& where, bool& same, Each each) {
  std::optional<fleet_run> reference;
  const auto run_one = [&](bool streaming, std::size_t W) {
    spec.streaming = streaming;
    spec.workers = W;
    fleet_run r = replay(spec, order, src);
    if (reference.has_value()) {
      same &= same_streams(*reference, r,
                           where + (streaming ? "streaming, " : "fork-join, ") +
                               std::to_string(W) + " workers");
    }
    each(streaming, W, r, reference.has_value() ? *reference : r);
    if (!reference.has_value()) {
      reference = std::move(r);
    }
  };
  for (const std::size_t W : cycled) {
    run_one(false, W);
  }
  for (const std::size_t W : streamed) {
    run_one(true, W);
  }
  return std::move(*reference);
}

// The full end-to-end protocol: fleet traffic with ground-truth command
// labels, the 1-worker drain()-cycled reference, then the worker matrix
// — every run checked outcome- and verdict-bit-identical to the
// reference — reporting attacker success / blocked / genuine completion
// rates and the ASR latency histogram split from detector service time.
int run_e2e_protocol(const bench::options& opts, bool smoke,
                     std::size_t sessions_override,
                     const std::string& telemetry_dir) {
  const bool telemetry = !telemetry_dir.empty();
  const std::size_t num_sessions =
      sessions_override > 0 ? sessions_override
                            : (smoke ? std::size_t{64} : std::size_t{128});
  // With telemetry the worker matrix is pinned to 1/2/8 — the gate
  // compares counter/span fingerprints across exactly these runs, in
  // BOTH schedules, so the records stay comparable across machines.
  const std::vector<std::size_t> workers = sorted_unique(
      telemetry ? std::vector<std::size_t>{1, 2, 8}
                : (smoke ? std::vector<std::size_t>{1, 4}
                         : std::vector<std::size_t>{
                               1, 2, 4, default_thread_count()}));

  bench::json_report report = open_report(
      "SERVE-e2e", "serve-e2e-v1", "end-to-end command pipeline", smoke);
  const bench::stopwatch total_clock;
  const fleet f = render_fleet(opts, num_sessions, smoke ? 1 : 2,
                               /*commands=*/true);
  report.add_metric("fleet_streams", static_cast<double>(f.scripts.size()));
  report.add_metric("fleet_attack_streams",
                    static_cast<double>(f.attack_streams));
  report.add_metric("fleet_audio_s", f.audio_s);
  bench::rule();

  bool determinism_ok = true;
  bool telemetry_ok = true;
  sim::result_table sweep{{"mode", "workers"},
                          {"wall_s", "rtf", "service_p50_ms", "asr_p50_ms",
                           "asr_p95_ms", "utterances", "executed", "blocked"}};
  std::printf("%10s %8s %9s %9s %12s %10s %10s %7s %7s\n", "mode", "workers",
              "wall s", "rtf", "service p50", "asr p50", "asr p95", "utter",
              "exec");
  replay_spec spec;
  spec.sessions = num_sessions;
  spec.commands = true;
  spec.telemetry = telemetry;
  const block_source src = script_source(f.scripts);
  const auto each = [&](bool streaming, std::size_t W, const fleet_run& r,
                        const fleet_run& ref) {
    const char* mode = streaming ? "streaming" : "fork-join";
    // The telemetry gate proper: the deterministic counter subset and
    // the wall-stripped span traces must reproduce the reference
    // byte-for-byte, like the streams themselves.
    if (r.metrics_fingerprint != ref.metrics_fingerprint) {
      telemetry_ok = false;
      std::fprintf(stderr,
                   "TELEMETRY VIOLATION: deterministic counter fingerprint "
                   "differs from the reference (%s, %zu workers)\n",
                   mode, W);
    }
    if (r.trace_fingerprint != ref.trace_fingerprint) {
      telemetry_ok = false;
      std::fprintf(stderr,
                   "TELEMETRY VIOLATION: span traces (wall clock stripped) "
                   "differ from the reference (%s, %zu workers)\n",
                   mode, W);
    }
    const serve::session_stats& t = r.totals.stats;
    const double rtf = t.audio_s_processed / r.wall_s;
    std::printf("%10s %8zu %9.2f %9.1f %10.2fms %8.2fms %8.2fms %7llu "
                "%7llu\n",
                mode, W, r.wall_s, rtf, 1e3 * t.service.quantile(0.50),
                1e3 * t.asr_service.quantile(0.50),
                1e3 * t.asr_service.quantile(0.95),
                static_cast<unsigned long long>(t.utterances),
                static_cast<unsigned long long>(t.commands_executed));
    sim::result_table::row row;
    row.labels = {mode, std::to_string(W)};
    row.coords = {streaming ? 1.0 : 0.0, static_cast<double>(W)};
    row.metrics = {r.wall_s,
                   rtf,
                   1e3 * t.service.quantile(0.50),
                   1e3 * t.asr_service.quantile(0.50),
                   1e3 * t.asr_service.quantile(0.95),
                   static_cast<double>(t.utterances),
                   static_cast<double>(t.commands_executed),
                   static_cast<double>(t.commands_blocked)};
    sweep.add_row(row);
    if (streaming && W == workers.back()) {
      // The streaming run is the deployment shape: its histograms are
      // the report's canonical latency decomposition.
      report.add_latency_metrics("latency", t.latency);
      report.add_latency_metrics("service", t.service);
      report.add_latency_metrics("asr_service", t.asr_service);
      report.add_metric("utterances", static_cast<double>(t.utterances));
      report.add_metric("commands_blocked",
                        static_cast<double>(t.commands_blocked));
      report.add_metric("commands_executed",
                        static_cast<double>(t.commands_executed));
      report.add_metric("commands_rejected",
                        static_cast<double>(t.commands_rejected));
      report.add_metric("commands_ignored",
                        static_cast<double>(t.commands_ignored));
      report.add_metric("rtf", rtf);
      report.add_metric("wall_s", r.wall_s);
    }
  };
  // With telemetry, streaming runs at EVERY worker count, so the gate
  // covers 1/2/8 workers × both schedules.
  const fleet_run reference = run_matrix(
      spec, round_robin(src, num_sessions), src, workers,
      telemetry ? workers : std::vector<std::size_t>{workers.back()}, "",
      determinism_ok, each);
  sweep.print();
  report.add_table("e2e_sweep", sweep);
  bench::rule();

  // ---- Stream-level scoring against the traffic ground truth. --------
  const e2e_scorecard card = score_e2e(f.scripts, reference);
  const double attack_blocked = rate(card.attack_blocked, card.attack_streams);
  const double genuine_completion =
      rate(card.genuine_completed, card.genuine_command_streams);
  bench::note("attack streams: %zu — %.0f%% blocked by the defense, "
              "%.0f%% still executed their command (attacker success)",
              card.attack_streams, 100.0 * attack_blocked,
              100.0 * card.attacker_success());
  bench::note("genuine command streams: %zu — %.0f%% completed their task",
              card.genuine_command_streams, 100.0 * genuine_completion);
  bench::note("benign chatter streams: %zu — %.0f%% falsely executed "
              "a command",
              card.benign_streams, 100.0 * card.benign_false_execute());
  report.add_metric("attack_streams",
                    static_cast<double>(card.attack_streams));
  report.add_metric("genuine_command_streams",
                    static_cast<double>(card.genuine_command_streams));
  report.add_metric("benign_streams",
                    static_cast<double>(card.benign_streams));
  report.add_metric("attacker_success_rate", card.attacker_success());
  report.add_metric("attack_blocked_rate", attack_blocked);
  report.add_metric("genuine_completion_rate", genuine_completion);
  report.add_metric("benign_false_execute_rate", card.benign_false_execute());
  report.add_metric("determinism_ok", determinism_ok ? 1.0 : 0.0);
  report.add_metric("sessions", static_cast<double>(num_sessions));

  // ---- Telemetry artifacts + the serve-telemetry-v1 run record. ------
  if (telemetry) {
    const auto write_text = [&](const char* name, const std::string& text) {
      std::ofstream{telemetry_dir + "/" + name} << text;
    };
    write_text("metrics.json", reference.registry->to_json());
    write_text("metrics.prom", reference.registry->to_prometheus());
    write_text("counter_fingerprint.json",
               reference.metrics_fingerprint + "\n");
    write_text("trace_fingerprint.json", reference.trace_fingerprint + "\n");
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

  bench::rule();
  bench::note("outcome + verdict streams bit-identical across workers and "
              "modes: %s",
              determinism_ok ? "yes" : "NO");
  write_report(report, opts, total_clock);
  return determinism_ok && telemetry_ok ? 0 : 1;
}

// ---- Chaos: deterministic fault sweep (serve-chaos-v1) ---------------

// The stage-fault load at `scale` (seed 7). Base rates at scale 1:
// block-level faults are rare per block (sessions see many blocks),
// utterance-level faults common per utterance (sessions see few). The
// recognizer rates count only utterances that actually REACH
// recognition (vetoed, shed and overrun utterances never draw), so they
// are high enough that the site reliably fires in a 64-session smoke.
std::shared_ptr<const serve::fault_injector> stage_faults(double scale) {
  serve::fault_config fc;
  fc.seed = 7;
  fc.detector_throw_rate = std::min(1.0, 0.01 * scale);
  fc.corrupt_block_rate = std::min(1.0, 0.01 * scale);
  fc.recognizer_throw_rate = std::min(1.0, 0.35 * scale);
  fc.recognizer_overrun_rate = std::min(1.0, 0.25 * scale);
  return std::make_shared<serve::fault_injector>(fc);
}

// How many sessions of a run saw at least one injected/contained fault.
std::size_t sessions_with_faults(const fleet_run& r) {
  return static_cast<std::size_t>(std::count_if(
      r.stats.begin(), r.stats.end(), [](const serve::session_stats& st) {
        return st.detector_faults + st.recognizer_faults + st.corrupt_blocks +
                   st.asr_deadline_overruns >
               0;
      }));
}

// The e2e fleet under a deterministic fault-injection sweep (fault
// scale × workers). Checked, exit 1 on any violation:
//   * determinism under fault load — with a fixed fault seed the verdict
//     AND outcome streams are bit-identical across 1/2/8 workers and
//     across both schedules;
//   * fail-closed — injected faults never INCREASE attacker success (or
//     benign false executes) over the fault-free baseline;
//   * containment — the fleet completes every run without process
//     death, and in smoke mode the top fault scale actually exercises
//     the machinery: >= 25% of sessions carry faults and attacker
//     success stays 0%.
int run_chaos_protocol(const bench::options& opts, bool smoke,
                       std::size_t sessions_override,
                       const std::string& telemetry_dir) {
  const std::size_t num_sessions =
      sessions_override > 0 ? sessions_override
                            : (smoke ? std::size_t{64} : std::size_t{128});
  // 1/2/8 fixed: the determinism gate needs real concurrency even on a
  // small box, and fixed counts keep run-log records comparable.
  const std::vector<std::size_t> workers{1, 2, 8};
  const std::vector<double> fault_scales =
      smoke ? std::vector<double>{0.0, 1.0}
            : std::vector<double>{0.0, 0.25, 1.0, 2.0};

  bench::json_report report = open_report(
      "SERVE-chaos", "serve-chaos-v1", "fault-injection sweep", smoke);
  const bench::stopwatch total_clock;
  const fleet f = render_fleet(opts, num_sessions, smoke ? 1 : 2,
                               /*commands=*/true);
  bench::note("fault scales ×%zu, workers 1/2/8 fork-join + streaming",
              fault_scales.size());
  report.add_metric("fleet_streams", static_cast<double>(f.scripts.size()));
  report.add_metric("fleet_attack_streams",
                    static_cast<double>(f.attack_streams));
  bench::rule();

  replay_spec spec;
  spec.sessions = num_sessions;
  spec.commands = true;
  // With --telemetry every quarantine across every run dumps its flight
  // recorder to one JSONL file — the chaos run's black-box artifact.
  std::shared_ptr<obs::jsonl_trace_sink> trace_sink;
  if (!telemetry_dir.empty()) {
    const std::string dump_path = telemetry_dir + "/quarantine_traces.jsonl";
    std::filesystem::remove(dump_path);  // append-only sink: start fresh
    trace_sink = std::make_shared<obs::jsonl_trace_sink>(dump_path);
    spec.cfg.trace_sink = trace_sink;
  }
  const block_source src = script_source(f.scripts);
  const std::vector<offer_event> order = round_robin(src, num_sessions);

  bool determinism_ok = true;
  bool fail_closed_ok = true;
  std::uint64_t total_quarantines = 0;
  e2e_scorecard clean;
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
    spec.cfg.faults = scale > 0.0 ? stage_faults(scale) : nullptr;
    const auto each = [&](bool streaming, std::size_t W, const fleet_run& r,
                          const fleet_run&) {
      const char* mode = streaming ? "streaming" : "fork-join";
      const double attacker_success =
          score_e2e(f.scripts, r).attacker_success();
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
    const fleet_run reference =
        run_matrix(spec, order, src, workers, {workers.back()},
                   "scale " + std::to_string(scale) + ", ", determinism_ok,
                   each);
    const e2e_scorecard card = score_e2e(f.scripts, reference);
    if (scale == 0.0) {
      clean = card;
    } else if (card.attacker_success() > clean.attacker_success() ||
               card.benign_false_execute() > clean.benign_false_execute()) {
      // Fail-closed: faults may only ever SHRINK the executed set.
      fail_closed_ok = false;
      std::fprintf(stderr,
                   "FAIL-CLOSED VIOLATION: fault scale %.2f raised attacker "
                   "success %.3f→%.3f / benign false execute %.3f→%.3f\n",
                   scale, clean.attacker_success(), card.attacker_success(),
                   clean.benign_false_execute(), card.benign_false_execute());
    }
    if (scale == fault_scales.back()) {
      top_scale_fault_fraction =
          rate(sessions_with_faults(reference), num_sessions);
      top_scale_attacker_success = card.attacker_success();
    }
  }
  sweep.print();
  report.add_table("chaos_sweep", sweep);
  bench::rule();

  // Smoke-mode coverage gates: the chaos pass is only meaningful when
  // the fault machinery actually engaged.
  bool coverage_ok = true;
  if (smoke && top_scale_fault_fraction < 0.25) {
    coverage_ok = false;
    std::fprintf(stderr,
                 "CHAOS COVERAGE: only %.0f%% of sessions carried faults at "
                 "the top scale (need >= 25%%)\n",
                 100.0 * top_scale_fault_fraction);
  }
  if (smoke && top_scale_attacker_success > 0.0) {
    coverage_ok = false;
    std::fprintf(stderr,
                 "CHAOS GATE: attacker success %.3f under faults (must stay "
                 "0)\n",
                 top_scale_attacker_success);
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
    report.add_metric("trace_dumps", static_cast<double>(trace_sink->dumps()));
    report.add_metric("trace_dumps_ok", dumps_ok ? 1.0 : 0.0);
  }
  report.add_metric("determinism_ok", determinism_ok ? 1.0 : 0.0);
  report.add_metric("fail_closed_ok", fail_closed_ok ? 1.0 : 0.0);
  report.add_metric("clean_attacker_success", clean.attacker_success());
  report.add_metric("top_scale_attacker_success", top_scale_attacker_success);
  report.add_metric("top_scale_faulty_session_fraction",
                    top_scale_fault_fraction);
  report.add_metric("sessions", static_cast<double>(num_sessions));

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
  write_report(report, opts, total_clock);
  return determinism_ok && fail_closed_ok && coverage_ok && dumps_ok ? 0 : 1;
}

// ---- Sharded front + snapshot/eviction (serve-shard-v1) --------------

// FNV-1a over a fleet's verdict streams — the cheap bit-identity
// fingerprint the scale phase compares across eviction on/off.
std::uint64_t fleet_verdict_hash(
    const std::vector<std::vector<defense::stream_event>>& verdicts) {
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
    for (const defense::stream_event& e : stream) {
      mix(&e.time_s, sizeof e.time_s);
      mix(&e.score, sizeof e.score);
      const unsigned char atk = e.is_attack ? 1 : 0;
      mix(&atk, 1);
    }
  }
  return h;
}

// Phase A: identity matrix on a small e2e fleet. Phase B: the
// million-session (smoke: 10k) bursty scale run with a bounded resident
// set, plus an eviction-on/off hash check on a sub-fleet.
int run_shard_protocol(const bench::options& opts, bool smoke,
                       std::size_t sessions_override,
                       const std::string& telemetry_dir) {
  bench::json_report report =
      open_report("SERVE-shard", "serve-shard-v1",
                  "sharded front + snapshot eviction", smoke);
  const bench::stopwatch total_clock;

  // ---- Phase A: the identity matrix. ---------------------------------
  const std::size_t matrix_sessions = smoke ? 32 : 48;
  const fleet f = render_fleet(opts, matrix_sessions, 1, /*commands=*/true);
  const block_source src = script_source(f.scripts);
  const std::vector<offer_event> order = round_robin(src, matrix_sessions);
  replay_spec base;
  base.sessions = matrix_sessions;
  base.commands = true;
  const fleet_run reference = replay(base, order, src);
  bench::note("identity reference (1 shard, 1 worker, no eviction): "
              "%zu verdicts, %llu outcomes over %zu sessions",
              verdict_count(reference),
              static_cast<unsigned long long>(
                  reference.totals.stats.utterances),
              matrix_sessions);
  // Stage faults are drawn per session id, so the stage-fault row has
  // its own 1-shard reference under the same injector.
  const std::shared_ptr<const serve::fault_injector> faults = stage_faults(1.0);
  base.cfg.faults = faults;
  const fleet_run fault_reference = replay(base, order, src);
  bench::note("stage-fault reference (1 shard, 1 worker, same injector): "
              "%zu verdicts, %llu outcomes, %llu quarantines",
              verdict_count(fault_reference),
              static_cast<unsigned long long>(
                  fault_reference.totals.stats.utterances),
              static_cast<unsigned long long>(
                  fault_reference.totals.stats.quarantines));

  struct variant {
    const char* name;
    std::size_t shards;
    std::size_t workers;
    bool streaming;
    std::size_t max_resident;  // per shard; 0 = off
    double shard_kill_rate;
    bool stage_faults;
  };
  const std::vector<variant> variants = {
      {"2 shards fork-join", 2, 2, false, 0, 0.0, false},
      {"4 shards 4 workers", 4, 4, false, 0, 0.0, false},
      {"4 shards streaming", 4, 2, true, 0, 0.0, false},
      {"2 shards evict<=4", 2, 2, false, 4, 0.0, false},
      {"4 shards stream evict<=2", 4, 2, true, 2, 0.0, false},
      {"2 shards evict<=4 +kill", 2, 2, false, 4, 0.05, false},
      {"4 shards stream evict<=2 +faults", 4, 2, true, 2, 0.0, true},
  };
  bool identity_ok = true;
  bool eviction_engaged_ok = true;
  sim::result_table matrix{{"variant"},
                           {"shards", "workers", "streaming", "bound",
                            "wall_s", "evictions", "rehydrations",
                            "shard_kills", "identical"}};
  std::printf("%-32s %7s %8s %7s %9s %7s %9s %6s %5s\n", "variant", "shards",
              "workers", "stream", "wall s", "evict", "rehydrate", "kills",
              "same");
  for (const variant& v : variants) {
    replay_spec spec = base;
    spec.shards = v.shards;
    spec.workers = v.workers;
    spec.streaming = v.streaming;
    spec.cfg.max_resident_sessions = v.max_resident;
    spec.cfg.faults = v.stage_faults ? faults : nullptr;
    if (v.shard_kill_rate > 0.0) {
      serve::fault_config fc;
      fc.seed = 7;
      fc.shard_kill_rate = v.shard_kill_rate;
      spec.cfg.faults = std::make_shared<serve::fault_injector>(fc);
    }
    const fleet_run r = replay(spec, order, src);
    const bool same = same_streams(
        v.stage_faults ? fault_reference : reference, r, v.name);
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
    if (v.stage_faults && r.totals.stats.quarantines == 0) {
      eviction_engaged_ok = false;
      std::fprintf(stderr, "VACUOUS VARIANT: %s quarantined nothing\n",
                   v.name);
    }
    std::printf("%-32s %7zu %8zu %7s %9.2f %7llu %9llu %6llu %5s\n", v.name,
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
  const std::size_t workers_per_shard = std::max<std::size_t>(
      1, std::min<std::size_t>(4, default_thread_count() / scale_shards));
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

  const std::size_t blocks_per_burst = 3;
  const std::size_t num_bursts = 2;
  const fleet pool = render_fleet(opts, 32, 1, /*commands=*/false, 0.0, 11);
  const block_source pool_src = cut_source(
      [&pool](std::size_t s) -> const audio::buffer& {
        return pool.scripts[s % pool.scripts.size()].capture;
      },
      [](std::size_t) { return std::size_t{2'048}; },
      num_bursts * blocks_per_burst);

  serve::serve_config scale_cfg = backpressure_config();
  scale_cfg.worker_threads = 1;
  scale_cfg.max_resident_sessions = bound_per_shard;
  serve::shard_manager front{trained_detector(), scale_cfg, scale_shards};

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
  const auto sampler = start_sampler(
      front,
      telemetry_dir.empty() ? std::string{}
                            : telemetry_dir + "/shard_timeseries.jsonl",
      0.1);
  std::size_t peak_resident = 0;
  std::uint64_t offers = 0;
  std::uint64_t rejected_retries = 0;
  std::uint64_t throttle_us = 0;
  std::uint64_t throttle_sleeps = 0;
  const bench::stopwatch burst_clock;
  for (std::size_t burst = 0; burst < num_bursts; ++burst) {
    for (std::size_t s = 0; s < scale_sessions; ++s) {
      const std::size_t first = burst * blocks_per_burst;
      const std::size_t last =
          std::min(first + blocks_per_burst, pool_src.count(s));
      for (std::size_t b = first; b < last; ++b) {
        while (front.offer(s, pool_src.block(s, b)) ==
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
  const double eviction_rate = rate(ev.evictions, offers);
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
  // sub-fleet replays the same pool blocks at both settings, draining
  // after every block index, and the verdict-stream hashes must agree
  // bit-for-bit (phase A already pins eviction invisibility with full
  // stream compares — this extends the check to the pool traffic).
  replay_spec sub;
  sub.sessions = std::min<std::size_t>(
      512, std::max<std::size_t>(64, scale_sessions / 16));
  sub.shards = scale_shards;
  sub.workers = 2;
  sub.drain_every = 1;
  const std::vector<offer_event> sub_order = round_robin(pool_src, sub.sessions);
  sub.cfg.max_resident_sessions = 16;
  const fleet_run evicting = replay(sub, sub_order, pool_src);
  sub.cfg.max_resident_sessions = 0;
  const fleet_run unbounded = replay(sub, sub_order, pool_src);
  const std::uint64_t hash_evict = fleet_verdict_hash(evicting.verdicts);
  const std::uint64_t hash_free = fleet_verdict_hash(unbounded.verdicts);
  const bool hash_ok = hash_evict == hash_free &&
                       evicting.eviction.evictions > 0 &&
                       unbounded.eviction.evictions == 0;
  bench::note("sub-fleet (%zu sessions) verdict hash, evicting vs "
              "unbounded: %016llx vs %016llx (%llu evictions) — %s",
              sub.sessions, static_cast<unsigned long long>(hash_evict),
              static_cast<unsigned long long>(hash_free),
              static_cast<unsigned long long>(evicting.eviction.evictions),
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
  report.add_metric("offers_per_s", static_cast<double>(offers) / burst_s);
  report.add_metric("rtf", rtf);
  report.add_metric("wall_s", burst_s);
  report.add_metric("evictions", static_cast<double>(ev.evictions));
  report.add_metric("rehydrations", static_cast<double>(ev.rehydrations));
  report.add_metric("eviction_rate", eviction_rate);
  report.add_metric("frozen_mib",
                    static_cast<double>(ev.frozen_bytes) / (1024.0 * 1024.0));
  report.add_latency_metrics("rehydrate", ev.rehydrate_latency);
  report.add_metric("balance_min_sessions",
                    static_cast<double>(balance.min_sessions));
  report.add_metric("balance_max_sessions",
                    static_cast<double>(balance.max_sessions));
  report.add_metric("balance_mean_sessions", balance.mean_sessions);
  report.add_metric("hash_ok", hash_ok ? 1.0 : 0.0);
  report.add_metric("eviction_engaged_ok", eviction_engaged_ok ? 1.0 : 0.0);
  if (!telemetry_dir.empty()) {
    report.add_metric("telemetry_samples",
                      static_cast<double>(telemetry_samples));
  }

  bench::rule();
  bench::note("identity matrix bit-identical across shards/workers/"
              "modes/eviction/kills/stage faults: %s",
              identity_ok ? "yes" : "NO");
  bench::note("resident working set stayed bounded at scale: %s",
              bounded_ok ? "yes" : "NO");
  write_report(report, opts, total_clock);
  return identity_ok && eviction_engaged_ok && bounded_ok && hash_ok ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: serve_load [--smoke] [--paced | --e2e | --chaos | "
               "--shard] [--sessions n] [--pace x] [--rate s/s] "
               "[--telemetry dir] [--json path] [--runlog path] "
               "[--threads n] [--trials n]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bench::options opts = bench::parse_options(argc, argv);
  bool smoke = false;
  std::string protocol;  // empty = the default sweep
  double pace = 4.0;
  double session_rate_hz = 32.0;
  std::size_t sessions_override = 0;
  std::string telemetry_dir;
  // Validated in full before anything renders.
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
      continue;
    }
    if (arg == "--paced" || arg == "--e2e" || arg == "--chaos" ||
        arg == "--shard") {
      if (!protocol.empty() && protocol != arg) {
        return usage();
      }
      protocol = arg;
      continue;
    }
    const bool value_flag = arg == "--json" || arg == "--runlog" ||
                            arg == "--threads" || arg == "--trials" ||
                            arg == "--pace" || arg == "--rate" ||
                            arg == "--sessions" || arg == "--telemetry";
    if (!value_flag || i + 1 == argc ||
        std::string{argv[i + 1]}.starts_with("--")) {
      return usage();
    }
    const char* value = argv[++i];
    if (arg == "--pace") {
      pace = std::atof(value) > 0.0 ? std::atof(value) : pace;
    } else if (arg == "--rate") {
      session_rate_hz =
          std::atof(value) > 0.0 ? std::atof(value) : session_rate_hz;
    } else if (arg == "--sessions") {
      const long long v = std::atoll(value);
      sessions_override = v > 0 ? static_cast<std::size_t>(v) : 0;
    } else if (arg == "--telemetry") {
      telemetry_dir = value;
    }
  }
  if (!telemetry_dir.empty()) {
    std::filesystem::create_directories(telemetry_dir);
  }
  if (opts.json_path.empty()) {
    opts.json_path = protocol == "--shard"   ? "BENCH_serve_shard.json"
                     : protocol == "--chaos" ? "BENCH_serve_chaos.json"
                     : protocol == "--e2e"   ? "BENCH_serve_e2e.json"
                                             : "BENCH_serve.json";
  }
  if (protocol == "--shard") {
    return run_shard_protocol(opts, smoke, sessions_override, telemetry_dir);
  }
  if (protocol == "--chaos") {
    return run_chaos_protocol(opts, smoke, sessions_override, telemetry_dir);
  }
  if (protocol == "--e2e") {
    return run_e2e_protocol(opts, smoke, sessions_override, telemetry_dir);
  }
  if (protocol == "--paced") {
    return run_paced_protocol(opts, smoke, sessions_override, pace,
                              session_rate_hz, telemetry_dir);
  }
  return run_load_protocol(opts, smoke, sessions_override);
}
