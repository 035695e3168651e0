#include "fleet.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <map>
#include <thread>
#include <utility>

#include "defense/classifier.h"
#include "sim/corpus.h"
#include "sim/scenario.h"

namespace pb {

using ivc::serve::offer_status;

trained_models train_and_enroll() {
  // The same corpus the serving benches train on: the monolithic rig and
  // capped banks keep the model representative at a few seconds' cost.
  ivc::sim::corpus_config cfg;
  cfg.rig = ivc::attack::monolithic_rig();
  cfg.max_attack_commands = 4;
  cfg.max_genuine_phrases = 6;
  cfg.num_threads = 0;
  const ivc::sim::defense_corpus corpus =
      ivc::sim::build_defense_corpus(cfg, 70);
  ivc::defense::logistic_classifier clf;
  clf.train(corpus.train);
  // Every device profile captures at 16 kHz, so one template bank serves
  // the fleet. Enrolled uncached so that each set-up pays for it.
  return {ivc::defense::classifier_detector{clf},
          std::make_shared<const ivc::asr::recognizer>(
              ivc::sim::make_enrolled_recognizer(16'000.0, 1))};
}

ivc::sim::traffic_config traffic_mix::with(ivc::sim::traffic_config c,
                                           std::size_t n,
                                           double attack_fraction) {
  c.num_sessions = n;
  c.attack_fraction = attack_fraction;
  return c;
}

traffic_mix::traffic_mix(ivc::sim::traffic_config config, std::uint64_t seed,
                         std::size_t attacks, std::size_t genuine)
    : attack_{with(config, attacks, 1.0), seed},
      genuine_{with(config, genuine, 0.0), seed ^ 0x9e3779b97f4a7c15ULL} {
  const std::size_t n = attacks + genuine;
  std::size_t a = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const bool attack = (i + 1) * attacks / n > i * attacks / n;
    attack_of_.push_back(attack);
    index_of_.push_back(attack ? a : i - a);
    a += attack ? 1 : 0;
  }
}

ivc::sim::session_script traffic_mix::script(std::size_t i) const {
  return attack_of_[i] ? attack_.script(index_of_[i])
                       : genuine_.script(index_of_[i]);
}

script_pool render_pool(const traffic_mix& mix) {
  script_pool pool;
  const steady::time_point t0 = steady::now();
  std::vector<ivc::sim::session_script> attacks = mix.attack().render_all();
  std::vector<ivc::sim::session_script> genuine = mix.genuine().render_all();
  pool.render_s = seconds_since(t0);
  for (std::size_t i = 0; i < mix.size(); ++i) {
    pool.scripts.push_back(std::move(
        mix.is_attack(i) ? attacks[mix.index_of(i)] : genuine[mix.index_of(i)]));
  }
  for (const ivc::sim::session_script& s : pool.scripts) {
    pool.audio_s += s.capture.duration_s();
    std::vector<ivc::audio::buffer> blocks;
    blocks.reserve(s.num_blocks());
    for (std::size_t b = 0; b < s.num_blocks(); ++b) {
      blocks.push_back(s.block(b));
    }
    pool.blocks.push_back(std::move(blocks));
  }
  return pool;
}

std::vector<offer_event> round_robin_plan(
    const script_pool& pool, const std::vector<std::size_t>& script_of) {
  std::size_t rounds = 0;
  for (const std::size_t script : script_of) {
    rounds = std::max(rounds, pool.blocks[script].size());
  }
  std::vector<offer_event> plan;
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t s = 0; s < script_of.size(); ++s) {
      const std::size_t n = pool.blocks[script_of[s]].size();
      if (r < n) {
        plan.push_back({static_cast<std::uint32_t>(s),
                        static_cast<std::uint32_t>(script_of[s]),
                        static_cast<std::uint32_t>(r), -1.0, r + 1 == n});
      }
    }
  }
  return plan;
}

namespace {

double us_between(steady::time_point a, steady::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// Every this-many-th health query is an aggregate(); the others alternate
// stats() of the session touched longest ago and balance(). Aggregates are
// 2% of the queries, so the rotation's p99 is the typical aggregate().
constexpr std::size_t aggregate_every = 50;

// Issues health query `k` of the rotation and returns its latency in ms.
// `target` is the session the producer touched longest ago (frozen on an
// evicting front).
double health_query(const ivc::serve::shard_manager& front, std::size_t k,
                    std::uint64_t target) {
  const steady::time_point t = steady::now();
  if (k % aggregate_every == aggregate_every - 1) {
    (void)front.aggregate();
  } else if (k % 2 == 0) {
    (void)front.stats(target);
  } else {
    (void)front.balance();
  }
  return us_between(t, steady::now()) * 1e-3;
}

}  // namespace

front_result run_front(const ivc::defense::classifier_detector& detector,
                       const script_pool& pool,
                       const std::vector<offer_event>& plan,
                       const front_options& o) {
  span_recorder untraced;
  span_recorder& spans = o.spans != nullptr ? *o.spans : untraced;
  ivc::serve::shard_manager front{detector, o.config, o.shards};
  for (std::size_t s = 0; s < o.num_sessions; ++s) {
    if (o.session_config != nullptr) {
      front.open_session(o.session_config);
    } else {
      front.open_session();
    }
  }
  front_result r;
  r.planned = plan.size();
  r.offer_us.reserve(plan.size());
  // Per session, per accepted block: its due time, and seconds from the
  // due time to the end of its offer() call.
  std::vector<std::vector<double>> due_s(o.num_sessions);
  std::vector<std::vector<double>> lead_s(o.num_sessions);

  const double period = o.health_hz > 0.0 ? 1.0 / o.health_hz : 0.0;
  // An open-loop producer never stops for a health query, so that how late
  // it runs is the front's doing alone: it issues its queries once the
  // plan is played and the front finished.
  const bool open_loop = !plan.empty() && plan.front().due_s >= 0.0;
  const bool inline_health = period > 0.0 && !o.reader_thread && !open_loop;
  std::atomic<std::uint64_t> last_session{0};
  std::atomic<bool> stop_reader{false};
  const auto frozen_target = [&] {
    const std::uint64_t n = o.num_sessions;
    return (last_session.load(std::memory_order_relaxed) + n / 2) % n;
  };

  front.start(o.workers_per_shard);
  const steady::time_point t0 = steady::now();
  std::vector<double> reader_ms;
  std::thread reader;
  // Stops and joins the reader on every way out of this function.
  struct reader_joiner {
    std::atomic<bool>& stop;
    std::thread& thread;
    ~reader_joiner() {
      stop.store(true);
      if (thread.joinable()) {
        thread.join();
      }
    }
  } joiner{stop_reader, reader};
  if (period > 0.0 && o.reader_thread) {
    reader = std::thread{[&] {
      std::size_t k = 0;
      while (true) {
        std::this_thread::sleep_until(
            t0 + std::chrono::duration_cast<steady::duration>(
                     std::chrono::duration<double>(period * double(k + 1))));
        if (stop_reader.load()) {
          break;
        }
        reader_ms.push_back(health_query(front, k++, frozen_target()));
      }
    }};
  }

  std::size_t health_k = 0;
  double next_health = period;
  std::uint64_t throttle_us = 0;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const offer_event& ev = plan[i];
    if (ev.due_s >= 0.0) {
      if (seconds_since(t0) < ev.due_s) {
        const steady::time_point s0 = steady::now();
        std::this_thread::sleep_until(
            t0 + std::chrono::duration_cast<steady::duration>(
                     std::chrono::duration<double>(ev.due_s)));
        r.throttle_s += seconds_since(s0);
      }
    } else if (inline_health && seconds_since(t0) >= next_health) {
      r.health_ms.push_back(health_query(front, health_k++, frozen_target()));
      next_health += period;
    }
    const double first_try = seconds_since(t0);
    const double due = ev.due_s >= 0.0 ? ev.due_s : first_try;
    if (ev.due_s >= 0.0) {
      r.late_ms.push_back(1e3 * (first_try - ev.due_s));
    }
    const bool cold =
        o.config.max_resident_sessions > 0 && !front.resident(ev.session);
    offer_status st = offer_status::rejected;
    while (true) {
      steady::time_point a;
      steady::time_point b;
      {
        const scoped_span span{spans, "serve.front_offer", ev.session,
                               ev.block};
        a = steady::now();
        st = front.offer(ev.session, pool.blocks[ev.script][ev.block]);
        b = steady::now();
      }
      ++r.offer_calls;
      r.offer_us.push_back(us_between(a, b));
      if (st != offer_status::rejected) {
        if (cold) {
          r.cold_offer_us.push_back(us_between(a, b));
        }
        if (st == offer_status::accepted) {
          due_s[ev.session].push_back(due);
          lead_s[ev.session].push_back(
              std::chrono::duration<double>(b - t0).count() - due);
        }
        break;
      }
      ++r.rejected;
      const steady::time_point s0 = steady::now();
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      r.throttle_s += seconds_since(s0);
    }
    if (st == offer_status::accepted) {
      ++r.offers;
    } else {
      ++r.failed;
    }
    last_session.store(ev.session, std::memory_order_relaxed);
    if (ev.close_after) {
      front.close(ev.session);
    }
    // Resident sessions change only inside offer() (rehydration, then
    // enforcement of the bound), so a sample after every offer sees every
    // peak a caller can observe. The throttle is a sticky per-offer sleep, re-set every 8
    // offers: it doubles while the fleet stays above the watermark and
    // clears once it is back under.
    if (o.config.max_resident_sessions > 0) {
      const std::size_t resident = front.eviction().resident;
      r.peak_resident = std::max(r.peak_resident, resident);
      if (o.resident_watermark > 0 && i % 8 == 0) {
        throttle_us = resident <= o.resident_watermark
                          ? 0
                          : std::min<std::uint64_t>(
                                throttle_us == 0 ? 100 : 2 * throttle_us,
                                2'000);
      }
    }
    if (throttle_us > 0) {
      const steady::time_point s0 = steady::now();
      std::this_thread::sleep_for(std::chrono::microseconds(throttle_us));
      r.throttle_s += seconds_since(s0);
    }
  }
  r.producer_s = seconds_since(t0);
  if (o.finish) {
    front.finish();
  } else {
    front.stop();
  }
  r.wall_s = seconds_since(t0);
  if (reader.joinable()) {
    stop_reader.store(true);
    reader.join();
  }
  r.health_ms.insert(r.health_ms.end(), reader_ms.begin(), reader_ms.end());
  if (open_loop && period > 0.0) {
    // As many queries as the rate gives over the producer's run.
    while (static_cast<double>(health_k) < r.producer_s / period) {
      r.health_ms.push_back(health_query(front, health_k++, frozen_target()));
    }
  }

  r.totals = front.aggregate();
  r.eviction = front.eviction();
  r.balance = front.balance();
  r.peak_resident = std::max(r.peak_resident, r.eviction.resident);
  r.audio_s = r.totals.stats.audio_s_processed;
  const ivc::serve::session_stats& st = r.totals.stats;
  r.failed += (st.blocks_accepted - st.blocks_processed) + st.blocks_shed +
              r.totals.sessions_quarantined;
  r.verdicts.resize(o.num_sessions);
  r.outcomes.resize(o.num_sessions);
  r.block_ms.reserve(r.offers);
  r.block_due_s.reserve(r.offers);
  for (std::size_t s = 0; s < o.num_sessions; ++s) {
    r.verdicts[s] = front.verdicts(s);
    r.outcomes[s] = front.outcomes(s);
    if (lead_s[s].empty()) {
      continue;
    }
    // Block index -> (queue wait, detector service), from the session's
    // ingest and detector spans.
    std::map<std::uint64_t, std::pair<double, double>> spans_of;
    for (const ivc::obs::span& sp : front.trace(s)) {
      if (sp.stage == ivc::obs::trace_stage::ingest) {
        spans_of[sp.index].first = sp.wall_s;
      } else if (sp.stage == ivc::obs::trace_stage::detector) {
        spans_of[sp.index].second = sp.wall_s;
      }
    }
    for (std::size_t k = 0; k < lead_s[s].size(); ++k) {
      const auto it = spans_of.find(k);
      if (it == spans_of.end()) {
        ++r.failed;  // never scored (or its spans were lost)
        continue;
      }
      const auto [queue_wait_s, service_s] = it->second;
      r.block_ms.push_back(
          1e3 * (open_loop ? lead_s[s][k] + queue_wait_s + service_s
                           : service_s));
      r.block_due_s.push_back(due_s[s][k]);
    }
  }
  return r;
}

bool same_verdicts(const std::vector<ivc::defense::stream_event>& a,
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

bool same_outcomes(const std::vector<ivc::serve::command_outcome>& a,
                   const std::vector<ivc::serve::command_outcome>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    // asr_s is the recognizer's wall time: timing, not content.
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

std::uint64_t verdict_hash(
    const std::vector<std::vector<ivc::defense::stream_event>>& streams) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((v >> (8 * i)) & 0xffU)) * 1099511628211ULL;
    }
  };
  for (std::size_t s = 0; s < streams.size(); ++s) {
    mix(s);
    for (const ivc::defense::stream_event& e : streams[s]) {
      mix(std::bit_cast<std::uint64_t>(e.time_s));
      mix(std::bit_cast<std::uint64_t>(e.score));
      mix(e.is_attack ? 1 : 0);
    }
  }
  return h;
}

}  // namespace pb
