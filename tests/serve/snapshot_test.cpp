// Snapshot/restore across the serving stack: stream detector, utterance
// segmenter, intent engine, whole detection sessions, and the manager's
// evict/rehydrate path.
//
// The contract under test everywhere: snapshot() + restore() resumes a
// stream BIT-EXACTLY — the remaining verdicts/outcomes are the ones the
// original object would have produced, under any feed() chunking
// (1-sample, odd, large) and any snapshot boundary. That is what lets
// the manager evict idle sessions at fleet scale and lets the fault
// ladder recover from a checkpoint instead of a cold reset.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <string>
#include <vector>

#include "asr/segmenter.h"
#include "audio/buffer.h"
#include "audio/ops.h"
#include "common/json_min.h"
#include "common/rng.h"
#include "defense/classifier.h"
#include "defense/stream.h"
#include "serve/session_manager.h"
#include "sim/scenario.h"
#include "synth/commands.h"

namespace ivc::serve {
namespace {

constexpr double kRate = 16'000.0;

defense::logistic_classifier tiny_classifier() {
  ivc::rng rng{90};
  defense::labelled_features data;
  for (int i = 0; i < 120; ++i) {
    defense::trace_features f;
    const bool attack = i % 2 == 0;
    const double c = attack ? 1.0 : -1.0;
    f.low_band_envelope_corr = c + rng.normal(0.0, 0.3);
    f.low_band_ratio_db = 4.0 * c + rng.normal(0.0, 1.0);
    f.amplitude_skew = 0.4 * c + rng.normal(0.0, 0.2);
    f.low_band_waveform_corr = c + rng.normal(0.0, 0.3);
    data.add(f, attack ? 1 : 0);
  }
  defense::logistic_classifier clf;
  clf.train(data);
  return clf;
}

defense::classifier_detector tiny_detector() {
  return defense::classifier_detector{tiny_classifier()};
}

audio::buffer command_stream(std::uint64_t seed) {
  ivc::rng rng{seed};
  std::vector<audio::buffer> parts;
  parts.push_back(audio::silence(0.3, kRate));
  parts.push_back(synth::render_command(synth::command_by_id("open_door"),
                                        synth::male_voice(), rng, kRate));
  parts.push_back(audio::silence(0.4, kRate));
  parts.push_back(synth::render_command(synth::command_by_id("play_music"),
                                        synth::male_voice(), rng, kRate));
  parts.push_back(audio::silence(0.4, kRate));
  return audio::remove_dc(audio::concat(parts));
}

audio::buffer cut(const audio::buffer& b, std::size_t start,
                    std::size_t end) {
  return audio::buffer{
      {b.samples.begin() + static_cast<std::ptrdiff_t>(start),
       b.samples.begin() + static_cast<std::ptrdiff_t>(end)},
      b.sample_rate_hz};
}

serve_config fleet_config() {
  serve_config cfg;
  cfg.queue_capacity = 64;
  cfg.policy = overflow_policy::reject;
  cfg.worker_threads = 2;
  pipeline_config pc;
  pc.recognizer = sim::shared_enrolled_recognizer(kRate, 1);
  cfg.pipeline = pc;
  return cfg;
}

void expect_same_verdicts(const std::vector<defense::stream_event>& a,
                          const std::vector<defense::stream_event>& b,
                          const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time_s, b[i].time_s) << what << " #" << i;
    EXPECT_EQ(a[i].score, b[i].score) << what << " #" << i;
    EXPECT_EQ(a[i].is_attack, b[i].is_attack) << what << " #" << i;
  }
}

// Outcome equality minus asr_s (wall time, excluded like latency).
void expect_same_outcomes(const std::vector<command_outcome>& a,
                          const std::vector<command_outcome>& b,
                          const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].start_s, b[i].start_s) << what << " #" << i;
    EXPECT_EQ(a[i].end_s, b[i].end_s) << what << " #" << i;
    EXPECT_EQ(a[i].kind, b[i].kind) << what << " #" << i;
    EXPECT_EQ(a[i].fault, b[i].fault) << what << " #" << i;
    EXPECT_EQ(a[i].command_id, b[i].command_id) << what << " #" << i;
    EXPECT_EQ(a[i].intent, b[i].intent) << what << " #" << i;
    EXPECT_EQ(a[i].asr_distance, b[i].asr_distance) << what << " #" << i;
    EXPECT_EQ(a[i].asr_margin, b[i].asr_margin) << what << " #" << i;
  }
}

// ---- stage snapshots -------------------------------------------------

TEST(snapshot, stream_detector_resumes_bit_exactly_at_any_boundary) {
  const audio::buffer stream = command_stream(42);
  const defense::stream_config sc;

  defense::stream_detector ref{tiny_detector(), sc};
  std::vector<defense::stream_event> want = ref.feed(stream);
  {
    const std::vector<defense::stream_event> tail = ref.finish();
    want.insert(want.end(), tail.begin(), tail.end());
  }

  for (const std::size_t chunk : {std::size_t{997}, std::size_t{4096}}) {
    defense::stream_detector cur{tiny_detector(), sc};
    std::vector<defense::stream_event> got;
    for (std::size_t start = 0; start < stream.size(); start += chunk) {
      const std::size_t end = std::min(start + chunk, stream.size());
      const std::vector<defense::stream_event> ev =
          cur.feed(cut(stream, start, end));
      got.insert(got.end(), ev.begin(), ev.end());
      // Evict at EVERY chunk boundary, alternating the two codecs so
      // both the text writer and the binary TLV round-trip is pinned.
      json::value snap = cur.snapshot();
      if ((start / chunk) % 2 == 0) {
        snap = json::parse(json::write(snap));
      } else {
        snap = json::from_binary(json::to_binary(snap));
      }
      cur = defense::stream_detector{tiny_detector(), sc};
      cur.restore(snap);
    }
    const std::vector<defense::stream_event> tail = cur.finish();
    got.insert(got.end(), tail.begin(), tail.end());
    expect_same_verdicts(want, got, "chunk " + std::to_string(chunk));
  }
}

TEST(snapshot, stream_detector_survives_single_sample_chunking) {
  // 1-sample feeds over a short stream, snapshot/restore every 997
  // samples — the adversarial chunking of the invariance contract.
  const audio::buffer full = command_stream(43);
  const audio::buffer stream = cut(full, 0, 12'000);
  const defense::stream_config sc;

  defense::stream_detector ref{tiny_detector(), sc};
  std::vector<defense::stream_event> want = ref.feed(stream);
  {
    const std::vector<defense::stream_event> tail = ref.finish();
    want.insert(want.end(), tail.begin(), tail.end());
  }

  defense::stream_detector cur{tiny_detector(), sc};
  std::vector<defense::stream_event> got;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const std::vector<defense::stream_event> ev =
        cur.feed(cut(stream, i, i + 1));
    got.insert(got.end(), ev.begin(), ev.end());
    if (i % 997 == 0) {
      const json::value snap = cur.snapshot();
      cur = defense::stream_detector{tiny_detector(), sc};
      cur.restore(snap);
    }
  }
  const std::vector<defense::stream_event> tail = cur.finish();
  got.insert(got.end(), tail.begin(), tail.end());
  expect_same_verdicts(want, got, "1-sample chunking");
}

TEST(snapshot, segmenter_resumes_the_cut_stream_bit_exactly) {
  const audio::buffer stream = command_stream(44);
  const asr::segmenter_config sc;

  asr::utterance_segmenter ref{sc};
  std::vector<asr::utterance> want = ref.feed(stream);
  {
    std::vector<asr::utterance> tail = ref.finish();
    want.insert(want.end(), tail.begin(), tail.end());
  }
  ASSERT_GE(want.size(), 2u);  // both commands must survive the gate

  for (const std::size_t chunk : {std::size_t{997}, std::size_t{4096}}) {
    asr::utterance_segmenter cur{sc};
    std::vector<asr::utterance> got;
    for (std::size_t start = 0; start < stream.size(); start += chunk) {
      const std::size_t end = std::min(start + chunk, stream.size());
      std::vector<asr::utterance> u = cur.feed(cut(stream, start, end));
      got.insert(got.end(), std::make_move_iterator(u.begin()),
                 std::make_move_iterator(u.end()));
      // Snapshot mid-utterance too: the open utterance state must ride.
      const json::value snap =
          json::from_binary(json::to_binary(cur.snapshot()));
      cur = asr::utterance_segmenter{sc};
      cur.restore(snap);
    }
    std::vector<asr::utterance> tail = cur.finish();
    got.insert(got.end(), std::make_move_iterator(tail.begin()),
               std::make_move_iterator(tail.end()));

    ASSERT_EQ(want.size(), got.size()) << chunk;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(want[i].start_s, got[i].start_s) << i;
      EXPECT_EQ(want[i].end_s, got[i].end_s) << i;
      ASSERT_EQ(want[i].samples.size(), got[i].samples.size()) << i;
      EXPECT_TRUE(want[i].samples.samples == got[i].samples.samples) << i;
    }
  }
}

TEST(snapshot, intent_engine_arm_state_rides_through) {
  intent_config ic;
  ic.wake_command_id = "wake_up";
  ic.timeout_s = 2.0;
  intent_engine a{ic};
  EXPECT_FALSE(a.on_command("wake_up", 1.0).has_value());  // arms
  ASSERT_TRUE(a.armed_at(2.5));

  intent_engine b{ic};
  b.restore(json::parse(json::write(a.snapshot())));
  EXPECT_TRUE(b.armed_at(2.5));
  EXPECT_FALSE(b.armed_at(3.5));  // timeout carried over too
  // The restored engine maps commands exactly like the original.
  EXPECT_EQ(a.on_command("open_door", 2.0), b.on_command("open_door", 2.0));
}

// ---- whole-session snapshots -----------------------------------------

// Drains a session completely (single consumer, direct process calls).
void drain_session(detection_session& s) {
  while (s.has_work()) {
    s.process();
  }
}

// The tentpole invariant: offering the same sample stream with eviction/
// rehydration at arbitrary idle points yields verdict and outcome
// streams bit-identical to a session that was never evicted — under
// 1-sample, 997-sample, and 4096-sample offer chunking.
TEST(snapshot, session_evict_rehydrate_is_bit_identical) {
  const serve_config cfg = fleet_config();
  const audio::buffer stream = command_stream(45);

  // Reference: one session, 4096-sample offers, never snapshotted.
  auto ref = std::make_unique<detection_session>(7, tiny_detector(), cfg);
  for (std::size_t start = 0; start < stream.size(); start += 4096) {
    const std::size_t end = std::min(start + 4096, stream.size());
    ASSERT_EQ(ref->offer(cut(stream, start, end)), offer_status::accepted);
    ref->process();
  }
  ref->close();
  drain_session(*ref);
  const std::vector<defense::stream_event> want_v = ref->verdicts();
  const std::vector<command_outcome> want_o = ref->outcomes();
  ASSERT_GT(want_v.size(), 0u);
  ASSERT_GT(want_o.size(), 0u);

  struct variant {
    std::size_t chunk;
    std::size_t snap_every;  // evict/rehydrate every n-th offer
    std::size_t length;      // stream prefix fed before close()
  };
  // The 1-sample variant uses a prefix so the test stays fast; it is
  // compared against a fresh reference over the same prefix below.
  const std::vector<variant> variants = {
      {997, 1, stream.size()}, {4096, 2, stream.size()}, {1, 997, 12'000}};

  for (const variant& v : variants) {
    // Re-run the reference when the variant covers a prefix only.
    std::vector<defense::stream_event> ref_v = want_v;
    std::vector<command_outcome> ref_o = want_o;
    if (v.length != stream.size()) {
      auto prefix_ref =
          std::make_unique<detection_session>(7, tiny_detector(), cfg);
      for (std::size_t start = 0; start < v.length; start += 4096) {
        const std::size_t end = std::min(start + 4096, v.length);
        prefix_ref->offer(cut(stream, start, end));
        prefix_ref->process();
      }
      prefix_ref->close();
      drain_session(*prefix_ref);
      ref_v = prefix_ref->verdicts();
      ref_o = prefix_ref->outcomes();
    }

    auto cur = std::make_unique<detection_session>(7, tiny_detector(), cfg);
    std::size_t offers = 0;
    for (std::size_t start = 0; start < v.length; start += v.chunk) {
      const std::size_t end = std::min(start + v.chunk, v.length);
      ASSERT_EQ(cur->offer(cut(stream, start, end)),
                offer_status::accepted);
      cur->process();
      if (++offers % v.snap_every == 0) {
        json::value snap;
        ASSERT_TRUE(cur->try_snapshot(snap));  // idle: must succeed
        cur = std::make_unique<detection_session>(7, tiny_detector(), cfg);
        cur->restore(json::from_binary(json::to_binary(snap)));
      }
    }
    cur->close();
    drain_session(*cur);
    const std::string what = "chunk " + std::to_string(v.chunk);
    expect_same_verdicts(ref_v, cur->verdicts(), what);
    expect_same_outcomes(ref_o, cur->outcomes(), what);
    // The rebuilt session's counter state rode along exactly.
    const session_stats st = cur->stats();
    EXPECT_EQ(st.events, ref_v.size()) << what;
    EXPECT_EQ(st.utterances, ref_o.size()) << what;
  }
}

TEST(snapshot, try_snapshot_refuses_non_idle_sessions) {
  const serve_config cfg = fleet_config();
  detection_session s{0, tiny_detector(), cfg};
  const audio::buffer stream = command_stream(46);

  // Queued audio is never serialized.
  ASSERT_EQ(s.offer(cut(stream, 0, 4096)), offer_status::accepted);
  json::value snap;
  EXPECT_FALSE(s.try_snapshot(snap));
  s.process();
  EXPECT_TRUE(s.try_snapshot(snap));

  // A close() flush still owed blocks the snapshot too.
  s.close();
  EXPECT_FALSE(s.try_snapshot(snap));
  drain_session(s);
  EXPECT_TRUE(s.try_snapshot(snap));

  // And a restored session refuses mismatched shapes: a with-pipeline
  // snapshot cannot restore into a pipeline-less session.
  serve_config bare = cfg;
  bare.pipeline.reset();
  detection_session fresh{0, tiny_detector(), bare};
  EXPECT_THROW(fresh.restore(snap), std::invalid_argument);
}

// ---- checkpoint-based crash recovery ---------------------------------

TEST(snapshot, fault_recovery_restores_from_checkpoint_deterministically) {
  serve_config cfg = fleet_config();
  cfg.fault_tolerance.snapshot_recovery = true;
  cfg.fault_tolerance.snapshot_every_blocks = 4;
  cfg.fault_tolerance.backoff_blocks = 2;
  fault_config fc;
  fc.schedule.push_back({fault_kind::detector_throw, /*session=*/0,
                         /*index=*/40});
  cfg.faults = std::make_shared<fault_injector>(fc);

  // Checkpoints only land at SAFE points — segmenter quiet, no pending
  // utterance — so the stream needs silence gaps long enough for each
  // utterance to RESOLVE (decision window + guard past its end) with
  // aligned block indices to spare. 1.5 s gaps give every gap a wide
  // safe zone; a 4-block cadence (0.256 s) is sure to sample it.
  ivc::rng srng{47};
  std::vector<audio::buffer> parts;
  parts.push_back(audio::silence(0.3, kRate));
  parts.push_back(synth::render_command(synth::command_by_id("open_door"),
                                        synth::male_voice(), srng, kRate));
  parts.push_back(audio::silence(1.5, kRate));
  parts.push_back(synth::render_command(synth::command_by_id("play_music"),
                                        synth::male_voice(), srng, kRate));
  parts.push_back(audio::silence(1.5, kRate));
  const audio::buffer stream = audio::remove_dc(audio::concat(parts));
  const std::size_t block = 1'024;

  auto run = [&](std::size_t workers, bool streaming) {
    serve_config c = cfg;
    c.worker_threads = workers;
    session_manager manager{tiny_detector(), c};
    const std::uint64_t sid = manager.open_session();
    if (streaming) {
      manager.start(workers);
    }
    for (std::size_t start = 0; start < stream.size(); start += block) {
      const std::size_t end = std::min(start + block, stream.size());
      const audio::buffer piece = cut(stream, start, end);
      // Backpressure, not loss: a rejected offer retries until the
      // worker catches up — every block must reach the session or the
      // bit-identity comparison below would be vacuous.
      while (manager.offer(sid, piece) == offer_status::rejected) {
        if (streaming) {
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        } else {
          manager.drain();
        }
      }
      if (!streaming && (start / block) % 8 == 7) {
        manager.drain();
      }
    }
    manager.finish();
    return std::make_tuple(manager.verdicts(sid), manager.outcomes(sid),
                           manager.stats(sid), manager.session(sid).state());
  };

  const auto [v1, o1, st1, state1] = run(1, false);
  // The fault fired, checkpoints were taken, and recovery came from a
  // checkpoint rather than a cold stage reset.
  EXPECT_EQ(st1.detector_faults, 1u);
  EXPECT_GT(st1.stage_snapshots, 0u);
  EXPECT_EQ(st1.snapshot_restores, 1u);
  EXPECT_EQ(state1, session_state::serving);  // recovered
  // The stream RESUMED: verdicts kept flowing after the fault point at
  // positions continuing the checkpointed timeline, and the session
  // still resolved command outcomes.
  ASSERT_GT(v1.size(), 0u);
  EXPECT_GT(o1.size(), 0u);
  // Fail-closed survived recovery: nothing executed out of the fault.
  for (const command_outcome& o : o1) {
    if (o.fault != command_outcome::fault_t::none) {
      EXPECT_NE(o.kind, command_outcome::kind_t::executed);
    }
  }

  // Identical at any worker count and in both drain disciplines — the
  // checkpoint schedule is block-counted, never wall clock.
  const auto [v4, o4, st4, state4] = run(4, false);
  const auto [vs, os, sts, states] = run(3, true);
  expect_same_verdicts(v1, v4, "fork-join 4 workers");
  expect_same_outcomes(o1, o4, "fork-join 4 workers");
  expect_same_verdicts(v1, vs, "streaming 3 workers");
  expect_same_outcomes(o1, os, "streaming 3 workers");
  EXPECT_EQ(st4.snapshot_restores, 1u);
  EXPECT_EQ(sts.snapshot_restores, 1u);
}

// ---- manager eviction ------------------------------------------------

TEST(snapshot, manager_enforces_residency_bound_transparently) {
  std::vector<audio::buffer> streams;
  for (std::uint64_t s = 0; s < 6; ++s) {
    streams.push_back(command_stream(800 + s));
  }
  const std::size_t block = 2'048;

  struct fleet_result {
    std::vector<std::vector<defense::stream_event>> verdicts;
    std::vector<std::vector<command_outcome>> outcomes;
    eviction_stats eviction;
  };
  auto run = [&](std::size_t bound) {
    serve_config cfg = fleet_config();
    cfg.max_resident_sessions = bound;
    session_manager manager{tiny_detector(), cfg};
    for (std::size_t s = 0; s < streams.size(); ++s) {
      manager.open_session();
    }
    std::size_t max_rounds = 0;
    for (const audio::buffer& st : streams) {
      max_rounds = std::max(max_rounds, (st.size() + block - 1) / block);
    }
    // Drain every round so sessions go idle — exactly the shape that
    // lets the LRU evict between one session's bursts.
    for (std::size_t round = 0; round < max_rounds; ++round) {
      for (std::size_t s = 0; s < streams.size(); ++s) {
        const std::size_t start = round * block;
        if (start >= streams[s].size()) {
          continue;
        }
        const std::size_t end = std::min(start + block, streams[s].size());
        manager.offer(s, cut(streams[s], start, end));
      }
      manager.drain();
    }
    manager.finish();
    fleet_result out;
    for (std::size_t s = 0; s < streams.size(); ++s) {
      out.verdicts.push_back(manager.verdicts(s));
      out.outcomes.push_back(manager.outcomes(s));
    }
    out.eviction = manager.eviction();
    return out;
  };

  const fleet_result free_run = run(0);
  const fleet_result bounded = run(2);

  // The bound actually bit: sessions were evicted AND came back.
  EXPECT_GT(bounded.eviction.evictions, 0u);
  EXPECT_GT(bounded.eviction.rehydrations, 0u);
  EXPECT_GT(bounded.eviction.rehydrate_latency.count(), 0u);
  EXPECT_EQ(free_run.eviction.evictions, 0u);

  // ... and was invisible: every session's streams are bit-identical.
  for (std::size_t s = 0; s < streams.size(); ++s) {
    ASSERT_GT(free_run.verdicts[s].size(), 0u) << s;  // non-vacuous
    expect_same_verdicts(free_run.verdicts[s], bounded.verdicts[s],
                         "session " + std::to_string(s));
    expect_same_outcomes(free_run.outcomes[s], bounded.outcomes[s],
                         "session " + std::to_string(s));
  }
}

TEST(snapshot, frozen_sessions_are_readable_without_rehydrating) {
  serve_config cfg = fleet_config();
  session_manager manager{tiny_detector(), cfg};
  const std::uint64_t sid = manager.open_session();
  const audio::buffer stream = command_stream(48);
  for (std::size_t start = 0; start < stream.size(); start += 4'096) {
    const std::size_t end = std::min(start + 4'096, stream.size());
    manager.offer(sid, cut(stream, start, end));
  }
  manager.drain();
  const std::vector<defense::stream_event> before_v = manager.verdicts(sid);
  const std::vector<command_outcome> before_o = manager.outcomes(sid);
  const session_stats before_st = manager.stats(sid);

  ASSERT_TRUE(manager.evict(sid));
  ASSERT_FALSE(manager.resident(sid));
  EXPECT_GT(manager.eviction().frozen_bytes, 0u);

  // Reads decode the snapshot in place — and must NOT rehydrate.
  expect_same_verdicts(before_v, manager.verdicts(sid), "frozen verdicts");
  expect_same_outcomes(before_o, manager.outcomes(sid), "frozen outcomes");
  const session_stats frozen_st = manager.stats(sid);
  EXPECT_EQ(frozen_st.blocks_processed, before_st.blocks_processed);
  EXPECT_EQ(frozen_st.events, before_st.events);
  EXPECT_EQ(frozen_st.utterances, before_st.utterances);
  EXPECT_EQ(frozen_st.latency.count(), before_st.latency.count());
  EXPECT_EQ(frozen_st.latency.quantile(0.5), before_st.latency.quantile(0.5));
  const serve_totals totals = manager.aggregate();
  EXPECT_EQ(totals.stats.blocks_processed, before_st.blocks_processed);
  EXPECT_FALSE(manager.resident(sid));
  // Direct object access is the one read that requires residency.
  EXPECT_THROW(manager.session(sid), std::invalid_argument);

  // A double evict is a no-op; the next offer transparently rehydrates.
  EXPECT_FALSE(manager.evict(sid));
  EXPECT_EQ(manager.offer(sid, cut(stream, 0, 1'024)),
            offer_status::accepted);
  EXPECT_TRUE(manager.resident(sid));
  EXPECT_EQ(manager.eviction().rehydrations, 1u);
  manager.finish();
}

}  // namespace
}  // namespace ivc::serve
