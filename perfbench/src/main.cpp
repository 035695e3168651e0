// perfbench: the repository benchmark. Runs one named workload against
// the public serving front, checks its outputs, and prints every metric
// by name and unit; the last stdout line is one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer ledger of
// the traced run (--trace 1).
//
//   perfbench --workload command_burst|paced_verdicts|idle_churn
//             --seed <n> --seconds <s> --trace 0|1
//             [--commit <id>] [--out <dir>] [--smoke]
//
// Every thread count below is derived from the host's hardware thread
// count N: a workload never runs more than N threads, producer and reader
// included.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "fleet.h"
#include "layers.h"
#include "obs/registry.h"

#ifndef PB_COMPILER
#define PB_COMPILER "unknown"
#endif
#ifndef PB_BUILD_TYPE
#define PB_BUILD_TYPE "unknown"
#endif
#ifndef PB_FLAGS
#define PB_FLAGS "unknown"
#endif

namespace {

using namespace pb;
using ivc::serve::command_outcome;
using ivc::serve::serve_config;

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string commit = "unknown";
  std::string out_dir = ".";
  bool smoke = false;  // small sizes, for the benchmark's self-test
};

struct outcome {
  report e2e;
  report layer;
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

std::size_t hw_threads() {
  return std::max<std::size_t>(2, std::thread::hardware_concurrency());
}

// Latencies of the blocks of `r` due in [from, to).
std::vector<double> blocks_due_in(const front_result& r, double from,
                                  double to) {
  std::vector<double> out;
  for (std::size_t i = 0; i < r.block_ms.size(); ++i) {
    if (r.block_due_s[i] >= from && r.block_due_s[i] < to) {
      out.push_back(r.block_ms[i]);
    }
  }
  return out;
}

// Live-phase figures pooled over the repetitions of a workload's primary
// front run.
struct live_summary {
  std::vector<double> rtf, offer_us, cold_us, health_ms, late_ms, block_ms;
  double offers = 0.0, throttle_s = 0.0, wall_s = 0.0;
  std::uint64_t offer_calls = 0, rejected = 0, evictions = 0,
                rehydrations = 0;
  double queue_wait_p99_ms = 0.0, balance_spread = 0.0,
         frozen_bytes_per_session = 0.0;
  std::size_t peak_resident = 0;

  void add(const front_result& r) {
    rtf.push_back(r.audio_s / r.wall_s);
    const auto append = [](std::vector<double>& to,
                           const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(offer_us, r.offer_us);
    append(cold_us, r.cold_offer_us);
    append(block_ms, r.block_ms);
    append(health_ms, r.health_ms);
    append(late_ms, r.late_ms);
    offers += static_cast<double>(r.offers);
    throttle_s += r.throttle_s;
    wall_s += r.wall_s;
    offer_calls += r.offer_calls;
    rejected += r.rejected;
    evictions += r.eviction.evictions;
    rehydrations += r.eviction.rehydrations;
    queue_wait_p99_ms = 1e3 * r.totals.stats.queue_wait.quantile(0.99);
    balance_spread = r.balance.mean_sessions > 0.0
                         ? static_cast<double>(r.balance.max_sessions) /
                               r.balance.mean_sessions
                         : 0.0;
    const std::size_t frozen = r.totals.num_sessions - r.eviction.resident;
    frozen_bytes_per_session =
        frozen > 0 ? static_cast<double>(r.eviction.frozen_bytes) /
                         static_cast<double>(frozen)
                   : 0.0;
    peak_resident = std::max(peak_resident, r.peak_resident);
  }
};

// Accepted offers per second of time inside every offer() call.
double offers_per_s(const live_summary& live) {
  const double offer_s =
      1e-6 * std::accumulate(live.offer_us.begin(), live.offer_us.end(), 0.0);
  return offer_s > 0.0 ? live.offers / offer_s : 0.0;
}

void count_run(outcome& out, const front_result& r) {
  out.attempted += r.planned;
  out.failed += r.failed;
}

void check(outcome& out, bool ok, const std::string& what) {
  if (!ok) {
    out.failures.push_back(what);
  }
}

std::shared_ptr<const serve_config> with_pipeline(
    const serve_config& cfg, const trained_models& models) {
  auto out = std::make_shared<serve_config>(cfg);
  out->pipeline.emplace();
  out->pipeline->recognizer = models.recognizer;
  return out;
}

// Detector training and recognizer enrollment, front construction and
// session opens, `reps` times; returns the last models and every time.
std::pair<trained_models, std::vector<double>> timed_setup(
    std::size_t reps, const serve_config& cfg, std::size_t shards,
    std::size_t sessions, bool pipeline) {
  std::optional<trained_models> models;
  std::vector<double> times;
  for (std::size_t k = 0; k < reps; ++k) {
    const steady::time_point t0 = steady::now();
    models.emplace(train_and_enroll());
    const std::shared_ptr<const serve_config> session_cfg =
        pipeline ? with_pipeline(cfg, *models)
                 : std::make_shared<const serve_config>(cfg);
    ivc::serve::shard_manager front{models->detector, cfg, shards};
    for (std::size_t s = 0; s < sessions; ++s) {
      front.open_session(session_cfg);
    }
    times.push_back(seconds_since(t0));
  }
  return {std::move(*models), times};
}

// setup_s is an end-to-end metric: the traced run sets up once.
std::size_t setup_reps(const options& opt) {
  return opt.smoke || opt.trace ? 1 : 3;
}

std::size_t max_blocks(const script_pool& pool) {
  std::size_t n = 0;
  for (const auto& blocks : pool.blocks) {
    n = std::max(n, blocks.size());
  }
  return n;
}

// Detector-only stream outcome: a genuine stream completes when no window
// is flagged; an attack stream is blocked when one is.
struct detection_card {
  std::size_t genuine = 0, genuine_clean = 0, attack = 0, attack_flagged = 0;
};

detection_card score_verdicts(
    const script_pool& pool, const std::vector<std::size_t>& script_of,
    const std::vector<std::vector<ivc::defense::stream_event>>& verdicts) {
  detection_card card;
  for (std::size_t s = 0; s < verdicts.size(); ++s) {
    const bool flagged =
        std::any_of(verdicts[s].begin(), verdicts[s].end(),
                    [](const auto& e) { return e.is_attack; });
    if (pool.scripts[script_of[s]].is_attack) {
      ++card.attack;
      card.attack_flagged += flagged ? 1 : 0;
    } else {
      ++card.genuine;
      card.genuine_clean += flagged ? 0 : 1;
    }
  }
  return card;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// The end-to-end metrics every workload reports; `rtf` and `rtf_1w` hold
// one audio-s/s figure per closed-loop run at N-1 (churn: 2) and 1 worker.
void add_common_e2e(outcome& out, const std::vector<double>& setup_times,
                    const script_pool& pool, const std::vector<double>& rtf,
                    const std::vector<double>& rtf_1w,
                    double genuine_completion, double attack_blocked,
                    const live_summary& live) {
  report& e = out.e2e;
  e.add("setup_s", median(setup_times), "s", setup_times.size());
  e.add("render_rtf", pool.audio_s / pool.render_s, "audio-s/s",
        pool.scripts.size());
  e.add("serve_rtf", median(rtf), "audio-s/s", rtf.size());
  e.add("serve_rtf_1w", median(rtf_1w), "audio-s/s", rtf_1w.size());
  e.add("genuine_completion", genuine_completion, "fraction");
  e.add("attack_blocked", attack_blocked, "fraction");
  e.add("block_p50_ms", quantile(live.block_ms, 0.50), "ms",
        live.block_ms.size());
  e.add("peak_rss_mb", peak_rss_mb(), "MiB");
  // Figures that move with the host's load by more than any gate bound:
  // printed here, and in the traced run's ledger.
  std::printf("block_p99_ms = %.6g ms (n=%zu), offers_per_s = %.6g 1/s "
              "(n=%zu), health_read_p99_ms = %.6g ms (n=%zu)\n",
              quantile(live.block_ms, 0.99), live.block_ms.size(),
              offers_per_s(live), live.offer_us.size(),
              quantile(live.health_ms, 0.99), live.health_ms.size());
}

// ---- Traced run ------------------------------------------------------------

struct workload_inputs {
  const trained_models* models = nullptr;
  const script_pool* pool = nullptr;
  serve_config cfg;  // fleet config (no metrics registry)
  bool pipeline = false;
  const live_summary* live = nullptr;
  double sustained_load = 0.0;
};

// One untraced, traced or registry-wired 1-worker closed-loop replay of the
// first scripts of the pool. Returns the front wall time.
double overhead_run(const workload_inputs& in, const std::vector<offer_event>&
                        plan, std::size_t sessions, int variant,
                    span_recorder& spans, outcome& out) {
  serve_config cfg = in.cfg;
  cfg.trace_spans = 2 * max_blocks(*in.pool) + 64;
  if (variant == 2) {
    cfg.metrics = std::make_shared<ivc::obs::metrics_registry>();
  }
  front_options o;
  o.config = cfg;
  o.session_config = in.pipeline ? with_pipeline(cfg, *in.models) : nullptr;
  o.num_sessions = sessions;
  o.spans = variant == 1 ? &spans : nullptr;
  const front_result r = run_front(in.models->detector, *in.pool, plan, o);
  count_run(out, r);
  if (cfg.metrics != nullptr) {
    const scoped_span span{spans, "obs.export"};
    (void)cfg.metrics->snapshot();
    (void)cfg.metrics->deterministic_fingerprint();
  }
  return r.wall_s;
}

void traced_run(const options& opt,
                const traffic_mix& mix,
                const workload_inputs& in, outcome& out) {
  const script_pool& pool = *in.pool;
  span_recorder spans;
  spans.enabled = true;
  // One-thread render of the first scripts.
  const std::size_t n_render = std::min<std::size_t>(pool.scripts.size(), 4);
  double render_audio_s = 0.0;
  for (std::size_t i = 0; i < n_render; ++i) {
    const scoped_span span{spans, "sim.render", std::int64_t(i)};
    render_audio_s += mix.script(i).capture.duration_s();
  }
  serve_config session_cfg = in.cfg;
  if (in.pipeline) {
    session_cfg = *with_pipeline(in.cfg, *in.models);
  }
  const layer_counts lc = replay_layers(*in.models, pool, session_cfg, spans);

  // Front overheads on the first scripts: untraced, traced, registry.
  const std::size_t sub = std::min<std::size_t>(pool.scripts.size(), 16);
  std::vector<std::size_t> script_of(sub);
  std::iota(script_of.begin(), script_of.end(), 0);
  const std::vector<offer_event> plan = round_robin_plan(pool, script_of);
  std::vector<double> wall[3];
  const int reps = opt.smoke ? 1 : 3;
  for (int k = 0; k < reps; ++k) {
    for (int v = 0; v < 3; ++v) {
      wall[v].push_back(overhead_run(in, plan, sub, v, spans, out));
    }
  }
  double session_sub_s = 0.0;
  for (const span_record& s : spans.spans()) {
    if (std::string{"serve.session"} == s.name &&
        s.session < static_cast<std::int64_t>(sub)) {
      session_sub_s += s.end_s - s.start_s;
    }
  }
  const double plain_wall = median(wall[0]);
  std::printf("session spans cover %.1f%% of the 1-worker front wall\n",
              100.0 * session_sub_s / plain_wall);

  // Resident memory per session: heap growth from opening K sessions of
  // an unbounded front and feeding each one block.
  double resident_bytes = 0.0;
  {
    const std::size_t k = opt.smoke ? 64 : 512;
    serve_config unbounded = in.cfg;
    unbounded.max_resident_sessions = 0;
    const double heap0 = heap_bytes();
    ivc::serve::shard_manager front{in.models->detector, unbounded, 1};
    for (std::size_t s = 0; s < k; ++s) {
      front.open_session();
    }
    front.start(1);
    for (std::size_t s = 0; s < k; ++s) {
      (void)front.offer(s, pool.blocks[s % pool.blocks.size()][0]);
    }
    front.stop();
    resident_bytes = (heap_bytes() - heap0) / static_cast<double>(k);
  }

  const live_summary& live = *in.live;
  report& l = out.layer;
  const auto per = [](double s, double n) { return n > 0.0 ? 1e6 * s / n : 0.0; };
  const double audio = lc.audio_s;
  l.add("sim.render_us_per_audio_s",
        per(spans.total_s("sim.render"), render_audio_s), "us/audio-s",
        n_render);
  l.add("defense.detect_us_per_audio_s",
        per(spans.total_s("defense.detect"), audio), "us/audio-s",
        spans.count("defense.detect"));
  l.add("defense.features_us_per_window",
        per(spans.total_s("defense.features"), double(lc.windows)),
        "us/window", lc.windows);
  l.add("defense.classify_us_per_window",
        per(spans.total_s("defense.classify"), double(lc.windows)),
        "us/window", lc.windows);
  l.add("asr.segment_us_per_audio_s", per(spans.total_s("asr.segment"), audio),
        "us/audio-s", spans.count("asr.segment"));
  l.add("asr.mfcc_us_per_utt_s", per(spans.total_s("asr.mfcc"), lc.utterance_s),
        "us/utt-s", lc.utterances);
  l.add("asr.dtw_us_per_pair",
        per(spans.total_s("asr.dtw"), double(lc.template_pairs)), "us/pair",
        lc.template_pairs);
  l.add("asr.recognize_us_per_utt_s",
        per(spans.total_s("asr.recognize"), lc.utterance_s), "us/utt-s",
        lc.utterances);
  l.add("serve.pipeline_us_per_audio_s",
        per(spans.total_s("serve.pipeline"), audio), "us/audio-s",
        spans.count("serve.pipeline"));
  l.add("serve.session_us_per_block",
        per(spans.total_s("serve.session"), double(lc.blocks)), "us/block",
        lc.blocks);
  l.add("serve.sched_residual_frac",
        ratio(plain_wall - session_sub_s, plain_wall), "fraction",
        wall[0].size());
  l.add("serve.offer_us_p50", quantile(live.offer_us, 0.50), "us",
        live.offer_us.size());
  l.add("serve.offer_us_p99", quantile(live.offer_us, 0.99), "us",
        live.offer_us.size());
  l.add("serve.queue_wait_ms_p99", live.queue_wait_p99_ms, "ms");
  l.add("serve.rejected_offer_frac",
        ratio(double(live.rejected), double(live.offer_calls)), "fraction",
        live.offer_calls);
  l.add("serve.snapshot_encode_us",
        per(spans.total_s("serve.snapshot_encode"),
            double(spans.count("serve.snapshot_encode"))),
        "us", spans.count("serve.snapshot_encode"));
  l.add("serve.snapshot_decode_us",
        per(spans.total_s("serve.snapshot_decode"),
            double(spans.count("serve.snapshot_decode"))),
        "us", spans.count("serve.snapshot_decode"));
  // Frozen images of the live run when it evicted, else the replay's
  // idle-session images.
  l.add("serve.frozen_bytes_per_session",
        live.frozen_bytes_per_session > 0.0 ? live.frozen_bytes_per_session
                                            : lc.snapshot_bytes,
        "bytes");
  l.add("serve.resident_bytes_per_session", resident_bytes, "bytes");
  l.add("serve.evictions_per_offer", ratio(double(live.evictions), live.offers),
        "ratio");
  l.add("serve.rehydrations_per_eviction",
        ratio(double(live.rehydrations), double(live.evictions)), "ratio");
  l.add("shard.balance_spread", live.balance_spread, "ratio");
  l.add("obs.telemetry_overhead_frac", 1.0 - plain_wall / median(wall[2]),
        "fraction", wall[2].size());
  l.add("trace_overhead_frac", 1.0 - plain_wall / median(wall[1]), "fraction",
        wall[1].size());
  l.add("loadgen.late_p99_ms", quantile(live.late_ms, 0.99), "ms",
        live.late_ms.size());
  l.add("loadgen.throttle_frac", ratio(live.throttle_s, live.wall_s),
        "fraction");
  l.add("block_p99_ms", quantile(live.block_ms, 0.99), "ms",
        live.block_ms.size());
  l.add("offers_per_s", offers_per_s(live), "1/s", live.offer_us.size());
  l.add("health_read_p99_ms", quantile(live.health_ms, 0.99), "ms",
        live.health_ms.size());
  l.add("sustained_load", in.sustained_load, "audio-s/s");
  l.add("cold_offer_p50_ms", 1e-3 * quantile(live.cold_us, 0.50), "ms",
        live.cold_us.size());
  l.add("cold_offer_p99_ms", 1e-3 * quantile(live.cold_us, 0.99), "ms",
        live.cold_us.size());
  l.add("work.blocks", double(lc.blocks), "count");
  l.add("work.windows", double(lc.windows), "count");
  l.add("work.utterances", double(lc.utterances), "count");
  l.add("work.template_pairs", double(lc.template_pairs), "count");
  l.add("work.offers", live.offers, "count");
  l.add("work.evictions", double(live.evictions), "count");
  l.add("work.rehydrations", double(live.rehydrations), "count");
  // Self time per layer. A call's inner calls into other layers run out
  // of the spans' sight (see layers.h), so a call's self time is its time
  // less that of its inner calls, measured on the same inputs: the
  // pipeline less its segmenter and recognizer, the session less its
  // detector and pipeline. The re-measured inner calls (features,
  // classify, MFCC, DTW) are not counted again.
  const double detect = spans.total_s("defense.detect");
  const double segment = spans.total_s("asr.segment");
  const double pipeline = spans.total_s("serve.pipeline");
  const double pipeline_self =
      std::max(0.0, pipeline - segment - lc.pipeline_asr_s);
  const double session_self =
      std::max(0.0, spans.total_s("serve.session") - detect -
                        (in.pipeline ? pipeline : 0.0));
  l.add("self.sim_ms", 1e3 * spans.total_s("sim.render"), "ms");
  l.add("self.defense_ms", 1e3 * detect, "ms");
  l.add("self.asr_ms", 1e3 * (segment + spans.total_s("asr.recognize")),
        "ms");
  l.add("self.serve_ms",
        1e3 * (pipeline_self + session_self +
               spans.total_s("serve.snapshot_encode") +
               spans.total_s("serve.snapshot_decode") +
               spans.total_s("serve.front_offer")),
        "ms");
  l.add("self.obs_ms", 1e3 * spans.total_s("obs.export"), "ms");
  const std::string path = opt.out_dir + "/spans_" + opt.workload + "_seed" +
                           std::to_string(opt.seed) + ".jsonl";
  if (spans.write_jsonl(path)) {
    std::printf("spans: %zu written to %s\n", spans.spans().size(),
                path.c_str());
  } else {
    std::printf("spans: could not write %s\n", path.c_str());
  }
}

// ---- command_burst -----------------------------------------------------------
// Closed-loop batch replay of a mixed genuine/attack/benign fleet, every
// session carrying the full command pipeline, at 1 and N-1 workers.
outcome command_burst(const options& opt) {
  outcome out;
  const std::size_t n_scripts = opt.smoke ? 12 : 64;
  ivc::sim::traffic_config tc;
  tc.utterances_per_session = 1;
  const traffic_mix mix{tc, opt.seed, n_scripts / 4, n_scripts - n_scripts / 4};

  // A short ingest queue keeps the loop closed: each session holds at most
  // 8 blocks (0.4 s) ahead of its worker, so the producer waits on
  // rejections instead of queueing the whole fleet up front.
  serve_config cfg;
  cfg.queue_capacity = 8;
  cfg.policy = ivc::serve::overflow_policy::reject;
  auto [models, setup_times] =
      timed_setup(setup_reps(opt), cfg, 1, n_scripts, true);
  const script_pool pool = render_pool(mix);
  // Room for every block's ingest + detector span and the utterance spans.
  cfg.trace_spans = 2 * max_blocks(pool) + 64;

  std::vector<std::size_t> script_of(n_scripts);
  std::iota(script_of.begin(), script_of.end(), 0);
  const std::vector<offer_event> plan = round_robin_plan(pool, script_of);
  front_options o;
  o.config = cfg;
  o.session_config = with_pipeline(cfg, models);
  o.num_sessions = n_scripts;
  o.health_hz = 200.0;
  const std::size_t workers = hw_threads() - 1;

  live_summary one, many;
  std::optional<front_result> ref;
  const steady::time_point t0 = steady::now();
  for (int rep = 0; rep < 12; ++rep) {
    if (rep >= 2 && seconds_since(t0) >= opt.seconds) {
      break;
    }
    for (const std::size_t w : {std::size_t{1}, workers}) {
      o.workers_per_shard = w;
      front_result r = run_front(models.detector, pool, plan, o);
      count_run(out, r);
      (w == 1 ? one : many).add(r);
      if (!ref.has_value()) {
        ref = std::move(r);
        continue;
      }
      bool same = true;
      for (std::size_t s = 0; s < n_scripts; ++s) {
        same = same && same_verdicts(r.verdicts[s], ref->verdicts[s]) &&
               same_outcomes(r.outcomes[s], ref->outcomes[s]);
      }
      check(out, same,
            "verdict/outcome streams at " + std::to_string(w) +
                " worker(s) differ from the 1-worker run");
    }
    if (opt.smoke) {
      break;
    }
  }

  // Health queries of the 1-worker runs count too.
  many.health_ms.insert(many.health_ms.end(), one.health_ms.begin(),
                        one.health_ms.end());

  // Stream-level scoring against the traffic ground truth.
  std::size_t attack = 0, attack_exec = 0, genuine = 0, genuine_done = 0,
              benign = 0, benign_exec = 0;
  for (std::size_t s = 0; s < n_scripts; ++s) {
    const ivc::sim::session_script& script = pool.scripts[s];
    bool intended = false, any = false;
    for (const command_outcome& oc : ref->outcomes[s]) {
      if (oc.kind == command_outcome::kind_t::executed) {
        any = true;
        intended = intended || oc.command_id == script.intended_command_id;
      }
    }
    if (script.is_attack) {
      ++attack;
      attack_exec += intended ? 1 : 0;
    } else if (!script.intended_command_id.empty()) {
      ++genuine;
      genuine_done += intended ? 1 : 0;
    } else {
      ++benign;
      benign_exec += any ? 1 : 0;
    }
  }
  std::printf("fleet: %zu streams (%zu attack, %zu genuine command, %zu "
              "benign), %.1f audio-s; %zu worker(s) vs 1\n",
              n_scripts, attack, genuine, benign, pool.audio_s, workers);
  std::printf("attacker_success = %zu/%zu, genuine_completion = %zu/%zu, "
              "benign false executes = %zu/%zu\n",
              attack_exec, attack, genuine_done, genuine, benign_exec, benign);
  check(out, attack_exec == 0, "attacker_success is not 0");
  check(out, benign_exec == 0, "a benign stream executed a command");

  add_common_e2e(out, setup_times, pool, many.rtf, one.rtf,
                 ratio(double(genuine_done), double(genuine)),
                 1.0 - ratio(double(attack_exec), double(attack)), many);
  if (opt.trace) {
    workload_inputs in{&models, &pool, cfg, true, &many, 0.0};
    traced_run(opt, mix, in, out);
  }
  return out;
}

// ---- paced_verdicts ---------------------------------------------------------
// Open loop: detector-only sessions start as a Poisson process at fixed
// offered loads; each block is due when its capture completes.
outcome paced_verdicts(const options& opt) {
  outcome out;
  const std::size_t n_scripts = opt.smoke ? 8 : 32;
  const traffic_mix mix{{}, opt.seed, n_scripts / 4, n_scripts - n_scripts / 4};

  serve_config cfg;
  cfg.queue_capacity = 64;
  cfg.policy = ivc::serve::overflow_policy::reject;
  auto [models, setup_times] =
      timed_setup(setup_reps(opt), cfg, 1, n_scripts, false);
  const script_pool pool = render_pool(mix);
  cfg.trace_spans = 2 * max_blocks(pool) + 16;
  const std::size_t workers = hw_threads() - 1;

  // Closed-loop replays of the pool: the 1-worker reference every paced
  // stream must match, and the N-1 worker capacity.
  std::vector<std::size_t> script_ids(n_scripts);
  std::iota(script_ids.begin(), script_ids.end(), 0);
  const std::vector<offer_event> rr = round_robin_plan(pool, script_ids);
  front_options o;
  o.config = cfg;
  o.num_sessions = n_scripts;
  std::vector<double> rtf1, rtfn;
  std::vector<std::vector<ivc::defense::stream_event>> ref;
  for (int rep = 0; rep < (opt.smoke ? 1 : 3); ++rep) {
    for (const std::size_t w : {std::size_t{1}, workers}) {
      o.workers_per_shard = w;
      const front_result r = run_front(models.detector, pool, rr, o);
      count_run(out, r);
      (w == 1 ? rtf1 : rtfn).push_back(r.audio_s / r.wall_s);
      if (ref.empty()) {
        ref = r.verdicts;
      } else {
        bool same = true;
        for (std::size_t s = 0; s < n_scripts; ++s) {
          same = same && same_verdicts(r.verdicts[s], ref[s]);
        }
        check(out, same, "closed-loop replay differs from the 1-worker run");
      }
    }
  }
  const detection_card card = score_verdicts(pool, script_ids, ref);

  // Fixed offered loads (audio-s/s) from well below to past the capacity
  // of N-1 detector-only workers, played as one ascending staircase on a
  // single front. Each step's first script length is its warm-up; only
  // blocks due after it count towards the step. The first step is the
  // headline load and gets the longest window: well below capacity, its
  // p99 is the detector's window service time plus scheduling, not the
  // edge between waiting and not waiting for a worker.
  const std::vector<double> loads =
      opt.smoke ? std::vector<double>{40.0, 80.0}
                : std::vector<double>{40.0, 120.0, 240.0, 360.0};
  const double limit_ms = 100.0;
  const double mean_script_s = pool.audio_s / double(n_scripts);
  const double warmup_s = mean_script_s;
  std::vector<double> step_start, step_end;
  std::vector<offer_event> plan;
  std::vector<std::size_t> script_of;
  double t = 0.0;
  for (std::size_t li = 0; li < loads.size(); ++li) {
    const double window_s =
        opt.smoke ? 0.5 : opt.seconds * (li == 0 ? 0.6 : 0.08);
    const double step_s = warmup_s + window_s;
    const double rate = loads[li] / mean_script_s;  // sessions/s
    ivc::sim::traffic_config arrivals;
    arrivals.num_sessions = std::size_t(std::ceil(2.0 * rate * step_s)) + 1;
    arrivals.session_rate_hz = rate;
    const ivc::sim::traffic_generator timeline{arrivals,
                                               opt.seed * 16 + li + 1};
    for (std::size_t i = 0; i < arrivals.num_sessions; ++i) {
      const double start = timeline.session_start_s(i);
      if (start >= step_s) {
        break;
      }
      const std::size_t s = script_of.size();
      script_of.push_back(s % n_scripts);
      const ivc::sim::session_script& script = pool.scripts[s % n_scripts];
      const std::size_t nb = pool.blocks[s % n_scripts].size();
      for (std::size_t b = 0; b < nb; ++b) {
        plan.push_back({std::uint32_t(s), std::uint32_t(s % n_scripts),
                        std::uint32_t(b),
                        t + start + script.block_arrival_s(b), b + 1 == nb});
      }
    }
    step_start.push_back(t + warmup_s);
    step_end.push_back(t + step_s);
    t += step_s;
  }
  std::stable_sort(plan.begin(), plan.end(),
                   [](const offer_event& x, const offer_event& y) {
                     return x.due_s < y.due_s;
                   });
  front_options po;
  po.config = cfg;
  po.num_sessions = script_of.size();
  po.workers_per_shard = workers;
  po.health_hz = 200.0;
  const front_result run = run_front(models.detector, pool, plan, po);
  count_run(out, run);
  bool same = true;
  for (std::size_t s = 0; s < script_of.size(); ++s) {
    same = same && same_verdicts(run.verdicts[s], ref[script_of[s]]);
  }
  check(out, same, "paced verdicts differ from the 1-worker replay");
  std::printf("paced run: %zu sessions, late p99 %.3f ms, drain %.3f s\n",
              script_of.size(), quantile(run.late_ms, 0.99),
              run.wall_s - run.producer_s);

  live_summary live;
  live.add(run);
  live.block_ms = blocks_due_in(run, step_start[0], step_end[0]);
  std::vector<double> p99s;
  std::vector<bool> meets;
  for (std::size_t li = 0; li < loads.size(); ++li) {
    const std::vector<double> step_ms =
        blocks_due_in(run, step_start[li], step_end[li]);
    // A growing backlog shows as blocks late at the end of the step: the
    // last tenth of the step must meet the limit too.
    const std::vector<double> tail_ms = blocks_due_in(
        run, step_end[li] - 0.1 * (step_end[li] - step_start[li]),
        step_end[li]);
    p99s.push_back(quantile(step_ms, 0.99));
    meets.push_back(run.failed == 0 && p99s.back() <= limit_ms &&
                    quantile(tail_ms, 0.99) <= limit_ms);
    std::printf("load %6.1f audio-s/s: %6zu blocks, p50 %8.3f ms, p99 %9.3f "
                "ms -> %s\n",
                loads[li], step_ms.size(), quantile(step_ms, 0.5),
                p99s.back(), meets.back() ? "meets" : "misses");
  }
  // Highest load meeting the limit, interpolated in log p99 towards the
  // first load that misses it.
  double sustained = 0.0;
  for (std::size_t li = 0; li < loads.size(); ++li) {
    if (!meets[li]) {
      if (li > 0 && p99s[li] > p99s[li - 1] && p99s[li - 1] > 0.0) {
        const double f = std::clamp(
            std::log(limit_ms / p99s[li - 1]) / std::log(p99s[li] / p99s[li - 1]),
            0.0, 1.0);
        sustained = loads[li - 1] + f * (loads[li] - loads[li - 1]);
      }
      break;
    }
    sustained = loads[li];
  }
  std::printf("sustained_load = %.2f audio-s/s (p99 limit %.0f ms)\n",
              sustained, limit_ms);

  add_common_e2e(out, setup_times, pool, rtfn, rtf1,
                 ratio(double(card.genuine_clean), double(card.genuine)),
                 ratio(double(card.attack_flagged), double(card.attack)), live);
  if (opt.trace) {
    workload_inputs in{&models, &pool, cfg, false, &live, sustained};
    traced_run(opt, mix, in, out);
  }
  return out;
}

// ---- idle_churn ---------------------------------------------------------------
// A mostly idle fleet on a 2-shard evicting front: every session speaks in
// short bursts, is evicted between them and rehydrated on its next offer,
// while a reader thread issues fleet health queries at a fixed rate.
outcome idle_churn(const options& opt) {
  outcome out;
  const std::size_t pool_size = opt.smoke ? 16 : 32;
  const std::size_t n_sessions = opt.smoke ? 256 : 2048;
  const std::size_t shards = 2;
  const std::size_t bound_per_shard = 32;
  const std::size_t bound_total = bound_per_shard * shards;
  const std::size_t rounds = 3;
  const std::size_t burst = 2;  // blocks per burst
  ivc::sim::traffic_config tc;
  tc.block_s = 0.064;
  const traffic_mix mix{tc, opt.seed, pool_size / 2, pool_size / 2};

  serve_config cfg;
  cfg.queue_capacity = 64;
  cfg.policy = ivc::serve::overflow_policy::reject;
  cfg.max_resident_sessions = bound_per_shard;
  auto [models, setup_times] =
      timed_setup(setup_reps(opt), cfg, shards, n_sessions, false);
  const script_pool pool = render_pool(mix);

  // Session s replays `rounds` bursts from script s % pool_size, starting
  // at an offset that differs between the sessions sharing a script.
  std::vector<offer_event> plan;
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t s = 0; s < n_sessions; ++s) {
      const std::size_t script = s % pool_size;
      const std::size_t nb = pool.blocks[script].size();
      const std::size_t span_blocks = rounds * burst;
      const std::size_t offset =
          nb > span_blocks ? (s / pool_size * burst) % (nb - span_blocks) : 0;
      for (std::size_t b = 0; b < burst && offset + r * burst + b < nb; ++b) {
        plan.push_back({std::uint32_t(s), std::uint32_t(script),
                        std::uint32_t(offset + r * burst + b), -1.0, false});
      }
    }
  }
  front_options o;
  o.config = cfg;
  o.shards = shards;
  o.workers_per_shard = std::max<std::size_t>(1, (hw_threads() - 2) / shards);
  o.num_sessions = n_sessions;
  o.health_hz = 200.0;
  o.reader_thread = true;
  o.resident_watermark = bound_total + bound_total / 8;
  o.finish = false;  // idle devices stay connected
  live_summary live;
  const steady::time_point t0 = steady::now();
  for (int rep = 0; rep < 16; ++rep) {
    if (rep >= 2 && seconds_since(t0) >= 0.7 * opt.seconds) {
      break;
    }
    const front_result r = run_front(models.detector, pool, plan, o);
    count_run(out, r);
    live.add(r);
    if (opt.smoke) {
      break;
    }
  }
  std::printf("fleet: %zu sessions on %zu shards sharing a pool of %zu "
              "scripts; residency bound %zu, peak resident %zu\n",
              n_sessions, shards, pool_size, bound_total, live.peak_resident);
  check(out, double(live.peak_resident) <= 1.5 * double(bound_total),
        "peak resident sessions exceed 1.5x the residency bound");

  // Sub-fleet: every pool script streamed whole in bursts, with eviction
  // (2 shards, tiny bound) and without (1 shard, 1 worker: the reference).
  std::vector<std::size_t> script_ids(pool_size);
  std::iota(script_ids.begin(), script_ids.end(), 0);
  std::vector<offer_event> sub_plan;
  const std::size_t sub_rounds = (max_blocks(pool) + burst - 1) / burst;
  for (std::size_t r = 0; r < sub_rounds; ++r) {
    for (std::size_t s = 0; s < pool_size; ++s) {
      const std::size_t nb = pool.blocks[s].size();
      for (std::size_t b = r * burst; b < std::min(nb, (r + 1) * burst); ++b) {
        sub_plan.push_back({std::uint32_t(s), std::uint32_t(s),
                            std::uint32_t(b), -1.0, b + 1 == nb});
      }
    }
  }
  front_options evicting;
  evicting.config = cfg;
  evicting.config.max_resident_sessions = 2;
  evicting.config.trace_spans = 2 * max_blocks(pool) + 16;
  evicting.shards = shards;
  evicting.num_sessions = pool_size;
  front_options resident = evicting;
  resident.config.max_resident_sessions = 0;
  resident.shards = 1;
  std::vector<double> rtf, rtf1;
  std::vector<std::vector<ivc::defense::stream_event>> ref;
  for (int rep = 0; rep < (opt.smoke ? 1 : 3); ++rep) {
    const front_result a = run_front(models.detector, pool, sub_plan, evicting);
    const front_result b = run_front(models.detector, pool, sub_plan, resident);
    count_run(out, a);
    count_run(out, b);
    rtf.push_back(a.audio_s / a.wall_s);
    rtf1.push_back(b.audio_s / b.wall_s);
    check(out, a.eviction.evictions > 0, "the sub-fleet never evicted");
    check(out, verdict_hash(a.verdicts) == verdict_hash(b.verdicts),
          "sub-fleet verdict hash differs with eviction and without");
    ref = b.verdicts;
  }
  const detection_card card = score_verdicts(pool, script_ids, ref);

  add_common_e2e(out, setup_times, pool, rtf, rtf1,
                 ratio(double(card.genuine_clean), double(card.genuine)),
                 ratio(double(card.attack_flagged), double(card.attack)), live);
  std::printf("cold offers: p50 %.3f ms, p99 %.3f ms (n=%zu)\n",
              1e-3 * quantile(live.cold_us, 0.5),
              1e-3 * quantile(live.cold_us, 0.99), live.cold_us.size());
  if (opt.trace) {
    workload_inputs in{&models, &pool, cfg, false, &live, 0.0};
    traced_run(opt, mix, in, out);
  }
  return out;
}

options parse(int argc, char** argv) {
  options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        throw std::invalid_argument{"missing value for " + a};
      }
      return argv[++i];
    };
    if (a == "--workload") {
      opt.workload = next();
    } else if (a == "--seed") {
      opt.seed = std::stoull(next());
    } else if (a == "--seconds") {
      opt.seconds = std::stod(next());
    } else if (a == "--trace") {
      opt.trace = std::stoi(next()) != 0;
    } else if (a == "--commit") {
      opt.commit = next();
    } else if (a == "--out") {
      opt.out_dir = next();
    } else if (a == "--smoke") {
      opt.smoke = true;
    } else {
      throw std::invalid_argument{"unknown argument " + a};
    }
  }
  if (opt.seconds <= 0.0) {
    throw std::invalid_argument{"--seconds must be > 0"};
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  options opt;
  try {
    opt = parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  std::printf(
      "stamp: {\"nproc\": %zu, \"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"flags\": \"%s\", \"commit\": \"%s\", \"workload\": \"%s\", "
      "\"seed\": %llu, \"seconds\": %s, \"trace\": %d}\n",
      std::size_t(std::thread::hardware_concurrency()),
      json_escape(PB_COMPILER).c_str(), json_escape(PB_BUILD_TYPE).c_str(),
      json_escape(PB_FLAGS).c_str(), json_escape(opt.commit).c_str(),
      json_escape(opt.workload).c_str(),
      static_cast<unsigned long long>(opt.seed), fmt_double(opt.seconds).c_str(),
      opt.trace ? 1 : 0);
  outcome out;
  try {
    if (opt.workload == "command_burst") {
      out = command_burst(opt);
    } else if (opt.workload == "paced_verdicts") {
      out = paced_verdicts(opt);
    } else if (opt.workload == "idle_churn") {
      out = idle_churn(opt);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                   opt.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }
  if (out.failed > 0) {
    out.failures.push_back(std::to_string(out.failed) +
                           " block(s) failed (shed, refused or never scored)");
  }
  out.e2e.print_lines("end-to-end metrics (tracing off):");
  if (opt.trace) {
    out.layer.print_lines("per-layer metrics (traced run):");
  }
  for (const std::string& f : out.failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  const bool correct = out.failures.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              (opt.trace ? out.layer : out.e2e).json_object().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
