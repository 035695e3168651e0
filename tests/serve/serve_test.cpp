#include "serve/session_manager.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "audio/buffer.h"
#include "audio/ops.h"
#include "common/rng.h"
#include "defense/classifier.h"
#include "synth/commands.h"

namespace ivc::serve {
namespace {

// Tiny trained classifier fixture (same shape as the stream tests).
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

// A per-session stream: rendered speech with a quadratic trace whose
// strength varies by seed, padded so several windows complete.
audio::buffer session_stream(std::uint64_t seed) {
  ivc::rng rng{seed};
  audio::buffer v = synth::render_command(synth::command_by_id("open_door"),
                                          synth::male_voice(), rng, 16'000.0);
  const double beta = 0.1 + 0.05 * static_cast<double>(seed % 5);
  for (double& s : v.samples) {
    s = s + beta * s * s;
  }
  return audio::remove_dc(v);
}

// Offers every session's stream in `block` sample slices, round-robin
// across sessions, draining every fourth round; returns the per-session
// verdict streams.
std::vector<std::vector<defense::stream_event>> run_fleet(
    const std::vector<audio::buffer>& streams, std::size_t block,
    serve_config cfg) {
  session_manager manager{tiny_detector(), cfg};
  for (std::size_t s = 0; s < streams.size(); ++s) {
    manager.open_session();
  }
  std::size_t max_rounds = 0;
  for (const audio::buffer& st : streams) {
    max_rounds = std::max(max_rounds, (st.size() + block - 1) / block);
  }
  for (std::size_t round = 0; round < max_rounds; ++round) {
    for (std::size_t s = 0; s < streams.size(); ++s) {
      const std::size_t start = round * block;
      if (start >= streams[s].size()) {
        continue;
      }
      const std::size_t end = std::min(start + block, streams[s].size());
      audio::buffer piece{
          {streams[s].samples.begin() + static_cast<std::ptrdiff_t>(start),
           streams[s].samples.begin() + static_cast<std::ptrdiff_t>(end)},
          streams[s].sample_rate_hz};
      while (manager.offer(s, piece) == offer_status::rejected) {
        manager.drain();
      }
    }
    if ((round + 1) % 4 == 0) {
      manager.drain();
    }
  }
  manager.finish();
  std::vector<std::vector<defense::stream_event>> verdicts;
  for (std::size_t s = 0; s < streams.size(); ++s) {
    verdicts.push_back(manager.verdicts(s));
  }
  return verdicts;
}

TEST(serve, verdict_streams_identical_at_any_worker_count) {
  std::vector<audio::buffer> streams;
  for (std::uint64_t s = 0; s < 8; ++s) {
    streams.push_back(session_stream(100 + s));
  }
  serve_config cfg;
  cfg.queue_capacity = 16;
  cfg.policy = overflow_policy::reject;

  cfg.worker_threads = 1;
  const auto serial = run_fleet(streams, 1'024, cfg);
  std::size_t total_events = 0;
  for (const auto& v : serial) {
    total_events += v.size();
  }
  ASSERT_GT(total_events, 0u);

  for (const std::size_t workers : {3u, 8u}) {
    cfg.worker_threads = workers;
    const auto parallel = run_fleet(streams, 1'024, cfg);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t s = 0; s < serial.size(); ++s) {
      ASSERT_EQ(serial[s].size(), parallel[s].size())
          << "session " << s << " at " << workers << " workers";
      for (std::size_t i = 0; i < serial[s].size(); ++i) {
        EXPECT_EQ(serial[s][i].time_s, parallel[s][i].time_s);
        EXPECT_EQ(serial[s][i].score, parallel[s][i].score);
        EXPECT_EQ(serial[s][i].is_attack, parallel[s][i].is_attack);
      }
    }
  }
}

TEST(serve, reject_policy_bounces_until_drained) {
  serve_config cfg;
  cfg.queue_capacity = 2;
  cfg.policy = overflow_policy::reject;
  cfg.worker_threads = 1;
  session_manager manager{tiny_detector(), cfg};
  const std::uint64_t sid = manager.open_session();
  const audio::buffer block = audio::silence(0.05, 16'000.0);

  EXPECT_EQ(manager.offer(sid, block), offer_status::accepted);
  EXPECT_EQ(manager.offer(sid, block), offer_status::accepted);
  EXPECT_EQ(manager.offer(sid, block), offer_status::rejected);
  EXPECT_EQ(manager.offer(sid, block), offer_status::rejected);

  session_stats st = manager.stats(sid);
  EXPECT_EQ(st.blocks_accepted, 2u);
  EXPECT_EQ(st.blocks_rejected, 2u);
  EXPECT_EQ(st.blocks_shed, 0u);

  // Draining empties the queue; the producer can continue.
  manager.drain();
  EXPECT_EQ(manager.offer(sid, block), offer_status::accepted);
  manager.finish();
  st = manager.stats(sid);
  EXPECT_EQ(st.blocks_processed, 3u);
}

TEST(serve, shed_newest_drops_the_offered_block) {
  serve_config cfg;
  cfg.queue_capacity = 2;
  cfg.policy = overflow_policy::shed_newest;
  cfg.worker_threads = 1;
  session_manager manager{tiny_detector(), cfg};
  const std::uint64_t sid = manager.open_session();
  const audio::buffer block = audio::silence(0.05, 16'000.0);
  for (int i = 0; i < 5; ++i) {
    manager.offer(sid, block);
  }
  const session_stats st = manager.stats(sid);
  EXPECT_EQ(st.blocks_offered, 5u);
  EXPECT_EQ(st.blocks_accepted, 2u);
  EXPECT_EQ(st.blocks_shed, 3u);
  manager.finish();
  EXPECT_EQ(manager.stats(sid).blocks_processed, 2u);
}

TEST(serve, shed_oldest_evicts_but_accepts) {
  serve_config cfg;
  cfg.queue_capacity = 2;
  cfg.policy = overflow_policy::shed_oldest;
  cfg.worker_threads = 1;
  session_manager manager{tiny_detector(), cfg};
  const std::uint64_t sid = manager.open_session();
  const audio::buffer block = audio::silence(0.05, 16'000.0);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(manager.offer(sid, block), offer_status::accepted);
  }
  const session_stats st = manager.stats(sid);
  EXPECT_EQ(st.blocks_accepted, 5u);
  EXPECT_EQ(st.blocks_shed, 3u);
  manager.finish();
  // Only the last `capacity` blocks survive to be scored.
  EXPECT_EQ(manager.stats(sid).blocks_processed, 2u);
}

TEST(serve, close_rejects_offers_and_flushes_partial_window) {
  serve_config cfg;
  cfg.worker_threads = 2;
  session_manager manager{tiny_detector(), cfg};
  const std::uint64_t sid = manager.open_session();
  // 0.7 s of speech: less than one full 1 s window, more than the 0.5 s
  // flush threshold — only finish() can produce the verdict.
  audio::buffer stream = session_stream(7);
  stream.samples.resize(static_cast<std::size_t>(0.7 * 16'000.0));
  manager.offer(sid, stream);
  manager.drain();
  EXPECT_TRUE(manager.verdicts(sid).empty());

  manager.close(sid);
  EXPECT_EQ(manager.offer(sid, stream), offer_status::closed);
  manager.drain();
  EXPECT_EQ(manager.verdicts(sid).size(), 1u);
  // The flush happens exactly once.
  manager.drain();
  EXPECT_EQ(manager.verdicts(sid).size(), 1u);
}

// Streaming counterpart of run_fleet: long-lived workers via
// start()/stop(), no fork-join drains. A rejected offer retries after a
// short yield — the workers are draining concurrently.
std::vector<std::vector<defense::stream_event>> run_fleet_streaming(
    const std::vector<audio::buffer>& streams, std::size_t block,
    serve_config cfg, std::size_t workers) {
  cfg.worker_threads = 1;  // streaming workers come from start(), not the pool
  session_manager manager{tiny_detector(), cfg};
  for (std::size_t s = 0; s < streams.size(); ++s) {
    manager.open_session();
  }
  manager.start(workers);
  std::size_t max_rounds = 0;
  for (const audio::buffer& st : streams) {
    max_rounds = std::max(max_rounds, (st.size() + block - 1) / block);
  }
  for (std::size_t round = 0; round < max_rounds; ++round) {
    for (std::size_t s = 0; s < streams.size(); ++s) {
      const std::size_t start = round * block;
      if (start >= streams[s].size()) {
        continue;
      }
      const std::size_t end = std::min(start + block, streams[s].size());
      audio::buffer piece{
          {streams[s].samples.begin() + static_cast<std::ptrdiff_t>(start),
           streams[s].samples.begin() + static_cast<std::ptrdiff_t>(end)},
          streams[s].sample_rate_hz};
      while (manager.offer(s, piece) == offer_status::rejected) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
  }
  manager.close_all();
  manager.stop();
  manager.finish();  // sweep anything that raced the stop
  std::vector<std::vector<defense::stream_event>> verdicts;
  for (std::size_t s = 0; s < streams.size(); ++s) {
    verdicts.push_back(manager.verdicts(s));
  }
  return verdicts;
}

// The tentpole invariant: the streaming drain mode reproduces the
// fork-join verdict streams bit-exactly at any worker count — long-lived
// workers and the ready-queue only change latency, never decisions.
TEST(serve, streaming_matches_forkjoin_at_any_worker_count) {
  std::vector<audio::buffer> streams;
  for (std::uint64_t s = 0; s < 6; ++s) {
    streams.push_back(session_stream(200 + s));
  }
  serve_config cfg;
  cfg.queue_capacity = 16;
  cfg.policy = overflow_policy::reject;

  cfg.worker_threads = 1;
  const auto reference = run_fleet(streams, 1'024, cfg);
  std::size_t total_events = 0;
  for (const auto& v : reference) {
    total_events += v.size();
  }
  ASSERT_GT(total_events, 0u);

  for (const std::size_t workers : {1u, 2u, 8u}) {
    const auto streaming = run_fleet_streaming(streams, 1'024, cfg, workers);
    ASSERT_EQ(reference.size(), streaming.size());
    for (std::size_t s = 0; s < reference.size(); ++s) {
      ASSERT_EQ(reference[s].size(), streaming[s].size())
          << "session " << s << " at " << workers << " streaming workers";
      for (std::size_t i = 0; i < reference[s].size(); ++i) {
        EXPECT_EQ(reference[s][i].time_s, streaming[s][i].time_s);
        EXPECT_EQ(reference[s][i].score, streaming[s][i].score);
        EXPECT_EQ(reference[s][i].is_attack, streaming[s][i].is_attack);
      }
    }
  }
}

TEST(serve, streaming_start_stop_idempotent_with_mid_stream_opens) {
  serve_config cfg;
  cfg.queue_capacity = 8;
  cfg.policy = overflow_policy::reject;
  session_manager manager{tiny_detector(), cfg};
  const audio::buffer stream = session_stream(31);

  // Work offered BEFORE start() must be picked up by the backlog scan.
  const std::uint64_t first = manager.open_session();
  manager.offer(first, stream);

  manager.start(2);
  EXPECT_TRUE(manager.streaming());
  manager.start(8);  // idempotent no-op while streaming
  EXPECT_TRUE(manager.streaming());

  // Sessions opened mid-stream join the ready-queue on their first offer.
  const std::uint64_t second = manager.open_session();
  while (manager.offer(second, stream) == offer_status::rejected) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }

  manager.close_all();
  manager.stop();
  EXPECT_FALSE(manager.streaming());
  manager.stop();  // idempotent no-op when not streaming
  manager.finish();

  for (const std::uint64_t id : {first, second}) {
    const session_stats st = manager.stats(id);
    EXPECT_EQ(st.blocks_processed, st.blocks_accepted) << "session " << id;
    EXPECT_GT(manager.verdicts(id).size(), 0u) << "session " << id;
  }

  // A fresh start() after stop() works (and drains nothing new).
  manager.start(1);
  manager.stop();
}

// Shed accounting must be a pure function of the offer schedule, not of
// worker timing: with no workers running, a paced burst over a tiny ring
// sheds exactly (offers - capacity) blocks; the streaming workers then
// score exactly the `capacity` survivors.
TEST(serve, streaming_shed_counters_deterministic_under_paced_overload) {
  serve_config cfg;
  cfg.queue_capacity = 4;
  cfg.policy = overflow_policy::shed_newest;
  session_manager manager{tiny_detector(), cfg};
  const std::uint64_t sid = manager.open_session();
  const audio::buffer block = audio::silence(0.05, 16'000.0);
  for (int i = 0; i < 20; ++i) {
    manager.offer(sid, block);  // paced arrivals, consumer not yet started
  }
  session_stats st = manager.stats(sid);
  EXPECT_EQ(st.blocks_offered, 20u);
  EXPECT_EQ(st.blocks_accepted, 4u);
  EXPECT_EQ(st.blocks_shed, 16u);

  manager.start(2);
  manager.close_all();
  manager.stop();
  st = manager.stats(sid);
  EXPECT_EQ(st.blocks_processed, 4u);
  EXPECT_EQ(st.blocks_shed, 16u);
}

// Regression for the verdicts_ data race: snapshots must be safe while
// streaming workers are appending. The reader thread hammers verdicts()
// and stats() concurrently with live scoring; sizes may only grow.
TEST(serve, verdict_snapshots_are_safe_while_streaming) {
  serve_config cfg;
  cfg.queue_capacity = 32;
  cfg.policy = overflow_policy::reject;
  session_manager manager{tiny_detector(), cfg};
  const std::uint64_t sid = manager.open_session();
  const audio::buffer stream = session_stream(47);

  manager.start(2);
  std::atomic<bool> done{false};
  std::size_t last_seen = 0;
  bool monotonic = true;
  std::thread reader{[&] {
    while (!done.load()) {
      const std::size_t n = manager.verdicts(sid).size();
      monotonic = monotonic && n >= last_seen;
      last_seen = n;
      (void)manager.stats(sid).events;
    }
  }};
  const std::size_t block = 512;
  for (std::size_t start = 0; start < stream.size(); start += block) {
    const std::size_t end = std::min(start + block, stream.size());
    audio::buffer piece{
        {stream.samples.begin() + static_cast<std::ptrdiff_t>(start),
         stream.samples.begin() + static_cast<std::ptrdiff_t>(end)},
        stream.sample_rate_hz};
    while (manager.offer(sid, piece) == offer_status::rejected) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  manager.close_all();
  manager.stop();
  done.store(true);
  reader.join();
  EXPECT_TRUE(monotonic);
  const session_stats st = manager.stats(sid);
  EXPECT_EQ(st.blocks_processed, st.blocks_accepted);
  EXPECT_EQ(manager.verdicts(sid).size(), st.events);
}

// The queue-wait / service decomposition: every processed block records
// one sample in each histogram, and the parts sum to about the total.
TEST(serve, latency_split_accounts_every_block) {
  serve_config cfg;
  cfg.worker_threads = 2;
  session_manager manager{tiny_detector(), cfg};
  const std::uint64_t sid = manager.open_session();
  manager.offer(sid, session_stream(12));
  manager.finish();
  const session_stats st = manager.stats(sid);
  ASSERT_GT(st.blocks_processed, 0u);
  EXPECT_EQ(st.latency.count(), st.blocks_processed);
  EXPECT_EQ(st.queue_wait.count(), st.blocks_processed);
  EXPECT_EQ(st.service.count(), st.blocks_processed);
  EXPECT_LE(st.queue_wait.mean(), st.latency.mean());
  EXPECT_LE(st.service.mean(), st.latency.mean());
}

TEST(serve, aggregate_sums_sessions_and_latency) {
  serve_config cfg;
  cfg.worker_threads = 2;
  session_manager manager{tiny_detector(), cfg};
  const audio::buffer stream = session_stream(11);
  for (int s = 0; s < 3; ++s) {
    manager.open_session();
    manager.offer(static_cast<std::uint64_t>(s), stream);
  }
  manager.finish();
  const serve_totals totals = manager.aggregate();
  EXPECT_EQ(totals.num_sessions, 3u);
  EXPECT_EQ(totals.stats.blocks_processed, 3u);
  EXPECT_EQ(totals.stats.latency.count(), 3u);
  std::uint64_t events = 0;
  for (int s = 0; s < 3; ++s) {
    events += manager.stats(static_cast<std::uint64_t>(s)).events;
  }
  EXPECT_EQ(totals.stats.events, events);
  EXPECT_GE(totals.stats.latency.quantile(0.99),
            totals.stats.latency.quantile(0.50));
}

// ---- lifecycle edges (pinned, not left implicit) ---------------------

TEST(serve, close_is_idempotent) {
  serve_config cfg;
  cfg.worker_threads = 1;
  session_manager manager{tiny_detector(), cfg};
  const std::uint64_t sid = manager.open_session();
  manager.offer(sid, session_stream(21));
  manager.close(sid);
  manager.close(sid);  // second close: no-op, no double flush
  manager.drain();
  const std::size_t verdicts = manager.verdicts(sid).size();
  EXPECT_GT(verdicts, 0u);
  manager.close(sid);  // close after the flush: still a no-op
  manager.drain();
  EXPECT_EQ(manager.verdicts(sid).size(), verdicts);
}

TEST(serve, offer_after_close_bounces_and_counts) {
  serve_config cfg;
  cfg.worker_threads = 1;
  session_manager manager{tiny_detector(), cfg};
  const std::uint64_t sid = manager.open_session();
  const audio::buffer block = audio::silence(0.1, 16'000.0);
  EXPECT_EQ(manager.offer(sid, block), offer_status::accepted);
  manager.close(sid);
  // Offers after close() return `closed` — a terminal status, distinct
  // from `rejected` (which invites drain-and-retry) — and each bounce is
  // counted against blocks_rejected.
  EXPECT_EQ(manager.offer(sid, block), offer_status::closed);
  EXPECT_EQ(manager.offer(sid, block), offer_status::closed);
  session_stats st = manager.stats(sid);
  EXPECT_EQ(st.blocks_offered, 3u);
  EXPECT_EQ(st.blocks_accepted, 1u);
  EXPECT_EQ(st.blocks_rejected, 2u);
  // The block accepted BEFORE the close is still scored.
  manager.drain();
  st = manager.stats(sid);
  EXPECT_EQ(st.blocks_processed, 1u);
}

TEST(serve, finish_on_never_offered_session_flushes_once) {
  serve_config cfg;
  cfg.worker_threads = 1;
  session_manager manager{tiny_detector(), cfg};
  const std::uint64_t sid = manager.open_session();
  // Close a session that never accepted a block: the (empty) end-of-
  // stream flush runs exactly once and produces nothing.
  manager.finish();
  session_stats st = manager.stats(sid);
  EXPECT_EQ(st.blocks_processed, 0u);
  EXPECT_EQ(st.events, 0u);
  EXPECT_TRUE(manager.verdicts(sid).empty());
  // Repeat drains do not re-run the flush.
  manager.drain();
  EXPECT_TRUE(manager.verdicts(sid).empty());
  EXPECT_EQ(manager.session(sid).state(), session_state::serving);
}

// ---- the drain() contract ---------------------------------------------

TEST(serve, drain_throws_while_streaming) {
  serve_config cfg;
  cfg.worker_threads = 1;
  session_manager manager{tiny_detector(), cfg};
  const std::uint64_t sid = manager.open_session();
  manager.start(2);
  EXPECT_THROW(manager.drain(), std::invalid_argument);
  // The refused drain() left the live stream running.
  EXPECT_TRUE(manager.streaming());
  EXPECT_EQ(manager.offer(sid, session_stream(31)), offer_status::accepted);
  manager.stop();
  EXPECT_EQ(manager.stats(sid).blocks_processed, 1u);
}

TEST(serve, drain_leaves_the_manager_not_streaming) {
  serve_config cfg;
  cfg.worker_threads = 2;
  session_manager manager{tiny_detector(), cfg};
  const std::uint64_t sid = manager.open_session();
  manager.offer(sid, session_stream(32));
  manager.drain();
  EXPECT_FALSE(manager.streaming());
  EXPECT_EQ(manager.stats(sid).blocks_processed, 1u);
  manager.drain();  // nothing queued: still a clean run-until-idle
  EXPECT_FALSE(manager.streaming());
}

// A 4-worker drain() scores every queued block of every session and runs
// each close() flush exactly once: the streams equal a single-threaded
// process() of the same blocks, and a second drain() changes nothing.
TEST(serve, four_worker_drain_scores_every_block_and_flushes_once) {
  serve_config cfg;
  cfg.queue_capacity = 256;
  cfg.worker_threads = 4;
  constexpr std::size_t kSessions = 8;
  constexpr std::size_t kBlock = 1'024;
  session_manager manager{tiny_detector(), cfg};
  std::vector<std::size_t> blocks(kSessions, 0);
  std::vector<std::vector<defense::stream_event>> reference;
  for (std::size_t s = 0; s < kSessions; ++s) {
    const std::uint64_t sid = manager.open_session();
    detection_session serial{sid, tiny_detector(), cfg};
    const audio::buffer stream = session_stream(600 + s);
    for (std::size_t start = 0; start < stream.size(); start += kBlock) {
      const std::size_t end = std::min(start + kBlock, stream.size());
      const audio::buffer piece{
          {stream.samples.begin() + static_cast<std::ptrdiff_t>(start),
           stream.samples.begin() + static_cast<std::ptrdiff_t>(end)},
          stream.sample_rate_hz};
      ASSERT_EQ(manager.offer(sid, piece), offer_status::accepted);
      ASSERT_EQ(serial.offer(piece), offer_status::accepted);
      ++blocks[s];
    }
    serial.process();
    const std::size_t before_flush = serial.verdicts().size();
    serial.close();
    serial.process();
    reference.push_back(serial.verdicts());
    // The flush is observable: it adds the partial tail window.
    ASSERT_GT(reference.back().size(), before_flush) << "session " << s;
  }
  manager.close_all();
  manager.drain();
  EXPECT_FALSE(manager.streaming());
  for (std::size_t s = 0; s < kSessions; ++s) {
    const session_stats st = manager.stats(s);
    EXPECT_EQ(st.blocks_processed, blocks[s]) << "session " << s;
    EXPECT_EQ(st.latency.count(), blocks[s]) << "session " << s;
    EXPECT_FALSE(manager.session(s).has_work()) << "session " << s;
    const std::vector<defense::stream_event> v = manager.verdicts(s);
    ASSERT_EQ(v.size(), reference[s].size()) << "session " << s;
    ASSERT_FALSE(v.empty()) << "session " << s;
    for (std::size_t i = 0; i < v.size(); ++i) {
      EXPECT_EQ(v[i].time_s, reference[s][i].time_s);
      EXPECT_EQ(v[i].score, reference[s][i].score);
      EXPECT_EQ(v[i].is_attack, reference[s][i].is_attack);
    }
  }
  manager.drain();
  for (std::size_t s = 0; s < kSessions; ++s) {
    EXPECT_EQ(manager.verdicts(s).size(), reference[s].size())
        << "session " << s;
  }
}

}  // namespace
}  // namespace ivc::serve
