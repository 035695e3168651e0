// Sharded serving front: session ids hash across M independent
// session_manager shards behind the one-manager API.
//
// The load-bearing claim: sharding is INVISIBLE in the streams. A
// session's verdict/outcome streams are a pure function of its accepted
// sample sequence, so they are bit-identical at any shard count, any
// per-shard worker count, in both drain disciplines, with eviction on
// or off — and under shard_kill faults, because a killed shard drops to
// bit-exact snapshots. Only placement, latency, and throughput move.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "audio/buffer.h"
#include "audio/ops.h"
#include "common/rng.h"
#include "common/sync.h"
#include "defense/classifier.h"
#include "obs/trace.h"
#include "serve/shard.h"
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
  }
}

struct fleet_result {
  std::vector<std::vector<defense::stream_event>> verdicts;
  std::vector<std::vector<command_outcome>> outcomes;
  serve_totals totals;
  eviction_stats eviction;
  shard_balance balance;
};

struct fleet_params {
  std::size_t shards = 1;
  std::size_t workers = 2;           // per shard
  bool streaming = false;            // fork-join otherwise
  std::size_t max_resident = 0;      // per shard; 0 = unbounded
  std::shared_ptr<const fault_injector> faults;
  std::shared_ptr<obs::trace_sink> sink;  // quarantine dumps
};

// Keeps the session id of every quarantine dump.
class recording_sink : public obs::trace_sink {
 public:
  void on_quarantine(std::uint64_t session_id, const std::string&,
                     const std::vector<obs::span>&) override {
    const ts_lock lock{mutex_};
    ids_.push_back(session_id);
  }
  // Dumped ids in ascending order (workers dump in any order).
  std::vector<std::uint64_t> ids() const {
    const ts_lock lock{mutex_};
    std::vector<std::uint64_t> out = ids_;
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  mutable ts_mutex mutex_;
  std::vector<std::uint64_t> ids_ IVC_GUARDED_BY(mutex_);
};

fleet_result run_fleet(const std::vector<audio::buffer>& streams,
                       std::size_t block, const fleet_params& p) {
  serve_config cfg = fleet_config();
  cfg.worker_threads = p.workers;
  cfg.max_resident_sessions = p.max_resident;
  cfg.faults = p.faults;
  cfg.trace_sink = p.sink;
  shard_manager front{tiny_detector(), cfg, p.shards};
  for (std::size_t s = 0; s < streams.size(); ++s) {
    front.open_session();
  }
  if (p.streaming) {
    front.start(p.workers);
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
      EXPECT_EQ(front.offer(s, cut(streams[s], start, end)),
                offer_status::accepted);
    }
    if (!p.streaming && round % 4 == 3) {
      front.drain();
    }
  }
  front.finish();
  fleet_result out;
  for (std::size_t s = 0; s < streams.size(); ++s) {
    out.verdicts.push_back(front.verdicts(s));
    out.outcomes.push_back(front.outcomes(s));
  }
  out.totals = front.aggregate();
  out.eviction = front.eviction();
  out.balance = front.balance();
  return out;
}

std::vector<audio::buffer> fleet_streams(std::size_t n) {
  std::vector<audio::buffer> streams;
  streams.reserve(n);
  for (std::uint64_t s = 0; s < n; ++s) {
    streams.push_back(command_stream(500 + s));
  }
  return streams;
}

// ---- the tentpole identity matrix ------------------------------------

TEST(shard, streams_are_bit_identical_across_the_serving_matrix) {
  const std::vector<audio::buffer> streams = fleet_streams(8);
  const std::size_t block = 2'048;

  // Reference: one shard, one worker, fork-join, no eviction.
  fleet_params ref_p;
  ref_p.shards = 1;
  ref_p.workers = 1;
  const fleet_result ref = run_fleet(streams, block, ref_p);
  std::size_t total_verdicts = 0;
  for (const auto& v : ref.verdicts) {
    total_verdicts += v.size();
  }
  ASSERT_GT(total_verdicts, 0u);
  EXPECT_GT(ref.totals.stats.commands_executed, 0u);  // non-vacuous

  struct case_t {
    const char* name;
    fleet_params p;
  };
  std::vector<case_t> cases;
  cases.push_back({"2 shards, fork-join", {}});
  cases.back().p.shards = 2;
  cases.push_back({"4 shards, 4 workers, fork-join", {}});
  cases.back().p.shards = 4;
  cases.back().p.workers = 4;
  cases.push_back({"4 shards, streaming", {}});
  cases.back().p.shards = 4;
  cases.back().p.streaming = true;
  cases.push_back({"2 shards, eviction bound 2", {}});
  cases.back().p.shards = 2;
  cases.back().p.max_resident = 2;
  cases.push_back({"4 shards, streaming, eviction bound 1", {}});
  cases.back().p.shards = 4;
  cases.back().p.streaming = true;
  cases.back().p.max_resident = 1;

  for (const case_t& c : cases) {
    const fleet_result got = run_fleet(streams, block, c.p);
    for (std::size_t s = 0; s < streams.size(); ++s) {
      const std::string what =
          std::string{c.name} + ", session " + std::to_string(s);
      expect_same_verdicts(ref.verdicts[s], got.verdicts[s], what);
      expect_same_outcomes(ref.outcomes[s], got.outcomes[s], what);
    }
    // Aggregate content counters match too (latency/timing excluded).
    EXPECT_EQ(ref.totals.stats.events, got.totals.stats.events) << c.name;
    EXPECT_EQ(ref.totals.stats.commands_executed,
              got.totals.stats.commands_executed)
        << c.name;
    EXPECT_EQ(ref.totals.stats.commands_blocked,
              got.totals.stats.commands_blocked)
        << c.name;
    if (c.p.max_resident > 0) {
      EXPECT_GT(got.eviction.evictions, 0u) << c.name;  // bound bit
    }
  }

  // Stage faults are drawn per (session id, block or utterance index):
  // a sharded fleet must draw, contain and dump exactly the faults of
  // the same fleet on one shard, whatever shard holds a session.
  fault_config fc;
  fc.seed = 7;
  fc.detector_throw_rate = 0.01;
  fc.corrupt_block_rate = 0.01;
  fc.recognizer_throw_rate = 0.35;
  fc.recognizer_overrun_rate = 0.25;
  fleet_params fault_ref_p = ref_p;
  fault_ref_p.faults = std::make_shared<fault_injector>(fc);
  const auto ref_sink = std::make_shared<recording_sink>();
  fault_ref_p.sink = ref_sink;
  const fleet_result fault_ref = run_fleet(streams, block, fault_ref_p);
  ASSERT_GT(fault_ref.totals.stats.quarantines, 0u);  // non-vacuous
  ASSERT_FALSE(ref_sink->ids().empty());

  std::vector<case_t> fault_cases;
  fault_cases.push_back({"2 shards, stage faults", {}});
  fault_cases.back().p.shards = 2;
  fault_cases.push_back({"4 shards, streaming, eviction bound 1, stage faults",
                         {}});
  fault_cases.back().p.shards = 4;
  fault_cases.back().p.streaming = true;
  fault_cases.back().p.max_resident = 1;
  for (case_t& c : fault_cases) {
    c.p.faults = fault_ref_p.faults;
    const auto sink = std::make_shared<recording_sink>();
    c.p.sink = sink;
    const fleet_result got = run_fleet(streams, block, c.p);
    for (std::size_t s = 0; s < streams.size(); ++s) {
      const std::string what =
          std::string{c.name} + ", session " + std::to_string(s);
      expect_same_verdicts(fault_ref.verdicts[s], got.verdicts[s], what);
      expect_same_outcomes(fault_ref.outcomes[s], got.outcomes[s], what);
    }
    EXPECT_EQ(fault_ref.totals.stats.quarantines,
              got.totals.stats.quarantines)
        << c.name;
    // Quarantine dumps name the global ids the 1-shard fleet names.
    EXPECT_EQ(ref_sink->ids(), sink->ids()) << c.name;
  }
}

// ---- placement -------------------------------------------------------

TEST(shard, placement_is_stable_and_roughly_balanced) {
  serve_config cfg;  // no pipeline: placement only, keep it cheap
  shard_manager front{tiny_detector(), cfg, 4};
  for (std::size_t s = 0; s < 256; ++s) {
    front.open_session();
  }
  ASSERT_EQ(front.num_sessions(), 256u);

  // Stable: the same id always routes to the same shard.
  for (std::uint64_t id = 0; id < 256; id += 17) {
    EXPECT_EQ(front.shard_of(id), front.shard_of(id));
    EXPECT_LT(front.shard_of(id), 4u);
  }

  // Balanced: dense ids spread via splitmix64, so no shard is empty and
  // none holds more than twice the fair share at n=256, m=4.
  const shard_balance b = front.balance();
  ASSERT_EQ(b.shards.size(), 4u);
  std::size_t total = 0;
  for (const shard_load& l : b.shards) {
    total += l.sessions;
  }
  EXPECT_EQ(total, 256u);
  EXPECT_DOUBLE_EQ(b.mean_sessions, 64.0);
  EXPECT_GT(b.min_sessions, 0u);
  EXPECT_LE(b.max_sessions, 128u);

  // Local managers are reachable and consistent with the route table.
  std::size_t via_shards = 0;
  for (std::size_t i = 0; i < front.num_shards(); ++i) {
    via_shards += front.shard(i).num_sessions();
  }
  EXPECT_EQ(via_shards, 256u);
}

// Placement is a pure function of (id, M): every block of M consecutive
// ids covers all M shards, the offer counter that rises is the one of
// shard_of(id), and concurrent openers still get dense ids.
TEST(shard, placement_is_a_pure_function_of_the_id) {
  constexpr std::uint64_t kSessions = 64;
  serve_config cfg;
  for (std::size_t m = 1; m <= 4; ++m) {
    SCOPED_TRACE("shards " + std::to_string(m));
    shard_manager front{tiny_detector(), cfg, m};
    for (std::uint64_t n = 1; n <= kSessions; ++n) {
      front.open_session();
      const shard_balance b = front.balance();
      ASSERT_LE(b.max_sessions - b.min_sessions, 1u) << "n " << n;
    }

    for (std::uint64_t id = 0; id < kSessions; ++id) {
      const std::size_t owner = front.shard_of(id);
      const shard_balance before = front.balance();
      ASSERT_EQ(front.offer(id, audio::silence(0.01, kRate)),
                offer_status::accepted);
      const shard_balance after = front.balance();
      for (std::size_t i = 0; i < m; ++i) {
        EXPECT_EQ(after.shards[i].offers - before.shards[i].offers,
                  i == owner ? 1u : 0u)
            << "id " << id << " shard " << i;
      }
    }

    shard_manager concurrent{tiny_detector(), cfg, m};
    std::vector<std::vector<std::uint64_t>> got(4);
    std::vector<std::thread> openers;
    for (std::vector<std::uint64_t>& ids : got) {
      openers.emplace_back([&concurrent, &ids] {
        for (std::uint64_t s = 0; s < kSessions / 4; ++s) {
          ids.push_back(concurrent.open_session());
        }
      });
    }
    for (std::thread& t : openers) {
      t.join();
    }
    std::vector<std::uint64_t> all;
    for (const std::vector<std::uint64_t>& ids : got) {
      all.insert(all.end(), ids.begin(), ids.end());
    }
    std::sort(all.begin(), all.end());
    std::vector<std::uint64_t> dense(kSessions);
    std::iota(dense.begin(), dense.end(), 0);
    EXPECT_EQ(all, dense);
    for (std::uint64_t id = 0; id < kSessions; ++id) {
      EXPECT_EQ(concurrent.shard_of(id), front.shard_of(id)) << "id " << id;
    }
  }
}

// A session opened on shard(i) directly takes the local id the next
// routed open on that shard needs. That open must refuse instead of
// handing out a global id that maps to the direct session.
TEST(shard, routed_open_after_a_direct_shard_open_throws) {
  serve_config cfg;
  shard_manager front{tiny_detector(), cfg, 2};
  front.shard(0).open_session();
  // Ids 0 and 1 form one placement block, so one of them lands on shard 0.
  EXPECT_THROW(
      {
        front.open_session();
        front.open_session();
      },
      std::invalid_argument);
}

// ---- shard_kill faults -----------------------------------------------

TEST(shard, shard_kill_is_invisible_in_the_streams) {
  const std::vector<audio::buffer> streams = fleet_streams(6);
  const std::size_t block = 2'048;

  fleet_params clean;
  clean.shards = 2;
  const fleet_result want = run_fleet(streams, block, clean);

  fault_config fc;
  fc.seed = 7;
  fc.shard_kill_rate = 0.05;  // every ~20th shard-front offer
  fleet_params chaos = clean;
  chaos.faults = std::make_shared<fault_injector>(fc);
  const fleet_result got = run_fleet(streams, block, chaos);

  // Kills actually happened and evicted sessions...
  std::uint64_t kills = 0;
  for (const shard_load& l : got.balance.shards) {
    kills += l.shard_kills;
  }
  ASSERT_GT(kills, 0u);
  EXPECT_GT(got.eviction.evictions, 0u);

  // ...yet every stream is bit-identical to the fault-free run, and the
  // attacker gained nothing: executed counts match exactly.
  for (std::size_t s = 0; s < streams.size(); ++s) {
    expect_same_verdicts(want.verdicts[s], got.verdicts[s],
                         "session " + std::to_string(s));
    expect_same_outcomes(want.outcomes[s], got.outcomes[s],
                         "session " + std::to_string(s));
  }
  EXPECT_EQ(want.totals.stats.commands_executed,
            got.totals.stats.commands_executed);
  EXPECT_EQ(want.totals.stats.commands_blocked,
            got.totals.stats.commands_blocked);
}

// ---- balance + eviction counters under streaming drain ---------------

// balance() is the fleet operator's load view; this pins its counters
// while the hard mode runs — streaming workers (start/stop) with a
// per-shard residency bound forcing the evict/rehydrate cycle.
TEST(shard, balance_counts_evictions_under_streaming_drain) {
  const std::vector<audio::buffer> streams = fleet_streams(8);
  fleet_params p;
  p.shards = 2;
  p.workers = 2;
  p.streaming = true;
  p.max_resident = 1;  // per shard: every round trips the eviction heap
  const fleet_result r = run_fleet(streams, 2'048, p);

  // The bound actually engaged, and rehydration brought sessions back.
  EXPECT_GT(r.eviction.evictions, 0u);
  EXPECT_GT(r.eviction.rehydrations, 0u);
  EXPECT_EQ(r.eviction.rehydrate_latency.count(), r.eviction.rehydrations);

  // Per-shard rows sum to the fleet eviction totals...
  ASSERT_EQ(r.balance.shards.size(), 2u);
  std::uint64_t evictions = 0;
  std::uint64_t rehydrations = 0;
  std::uint64_t offers = 0;
  std::size_t sessions = 0;
  std::size_t resident = 0;
  for (const shard_load& l : r.balance.shards) {
    evictions += l.evictions;
    rehydrations += l.rehydrations;
    offers += l.offers;
    sessions += l.sessions;
    resident += l.resident;
    EXPECT_EQ(l.quarantined, 0u);  // healthy run
  }
  EXPECT_EQ(evictions, r.eviction.evictions);
  EXPECT_EQ(rehydrations, r.eviction.rehydrations);
  EXPECT_EQ(sessions, streams.size());
  EXPECT_EQ(resident, r.eviction.resident);
  // ...and every offer the round-robin producer made was routed.
  std::size_t expected_offers = 0;
  for (const audio::buffer& st : streams) {
    expected_offers += (st.size() + 2'048 - 1) / 2'048;
  }
  EXPECT_EQ(offers, expected_offers);
  // min/max/mean stay consistent with the per-shard rows.
  EXPECT_EQ(r.balance.min_sessions,
            std::min(r.balance.shards[0].sessions,
                     r.balance.shards[1].sessions));
  EXPECT_EQ(r.balance.max_sessions,
            std::max(r.balance.shards[0].sessions,
                     r.balance.shards[1].sessions));
  EXPECT_DOUBLE_EQ(r.balance.mean_sessions,
                   static_cast<double>(streams.size()) / 2.0);

  // Same evicting streaming run, different shard count: the streams are
  // bit-identical (the tentpole contract), only the load view moves.
  fleet_params q = p;
  q.shards = 1;
  const fleet_result single = run_fleet(streams, 2'048, q);
  EXPECT_GT(single.eviction.evictions, 0u);
  for (std::size_t s = 0; s < streams.size(); ++s) {
    expect_same_verdicts(single.verdicts[s], r.verdicts[s],
                         "session " + std::to_string(s));
    expect_same_outcomes(single.outcomes[s], r.outcomes[s],
                         "session " + std::to_string(s));
  }
}

TEST(shard, front_validates_inputs) {
  serve_config cfg;
  EXPECT_THROW(shard_manager(tiny_detector(), cfg, 0), std::invalid_argument);
  shard_manager front{tiny_detector(), cfg, 2};
  EXPECT_THROW(front.offer(0, audio::silence(0.1, kRate)),
               std::invalid_argument);
  EXPECT_THROW(front.shard_of(0), std::invalid_argument);
  EXPECT_THROW(front.shard(2), std::invalid_argument);
  const std::uint64_t id = front.open_session();
  EXPECT_EQ(id, 0u);
  EXPECT_TRUE(front.resident(id));
  EXPECT_EQ(front.verdicts(id).size(), 0u);
}

// A session opened on shard(i) directly has a local id the front never
// routed. Once it parks, the fleet views must refuse to map it to a
// global id instead of reading past the routing table.
TEST(shard, fleet_views_reject_an_unrouted_quarantined_session) {
  serve_config cfg;
  cfg.worker_threads = 1;
  shard_manager front{tiny_detector(), cfg, 2};
  for (int s = 0; s < 4; ++s) {
    front.open_session();
  }
  const std::uint64_t local = front.shard(0).num_sessions();
  serve_config parked = cfg;
  parked.fault_tolerance.auto_reopen = false;
  fault_config fc;
  fc.schedule.push_back({fault_kind::corrupt_block, local, /*index=*/0});
  parked.faults = std::make_shared<fault_injector>(fc);
  ASSERT_EQ(front.shard(0).open_session(parked), local);
  front.shard(0).offer(local, audio::silence(0.1, kRate));
  front.drain();
  ASSERT_EQ(front.shard(0).quarantine_errors().size(), 1u);
  EXPECT_THROW(front.aggregate(), std::invalid_argument);
  EXPECT_THROW(front.balance(), std::invalid_argument);
}

// ---- the drain() contract ---------------------------------------------

TEST(shard, drain_throws_while_streaming) {
  serve_config cfg;
  cfg.worker_threads = 1;
  shard_manager front{tiny_detector(), cfg, 2};
  const std::uint64_t id = front.open_session();
  front.start(1);
  EXPECT_THROW(front.drain(), std::invalid_argument);
  // The refused drain() left every shard streaming.
  EXPECT_TRUE(front.shard(0).streaming());
  EXPECT_TRUE(front.shard(1).streaming());
  EXPECT_EQ(front.offer(id, command_stream(700)), offer_status::accepted);
  front.stop();
  EXPECT_FALSE(front.streaming());
  EXPECT_EQ(front.stats(id).blocks_processed, 1u);
}

TEST(shard, four_worker_drain_scores_every_block_and_flushes_once) {
  serve_config cfg;
  cfg.queue_capacity = 256;
  cfg.worker_threads = 4;
  constexpr std::size_t kSessions = 6;
  constexpr std::size_t kBlock = 2'048;
  shard_manager front{tiny_detector(), cfg, 2};
  std::vector<std::size_t> blocks(kSessions, 0);
  std::vector<std::vector<defense::stream_event>> reference;
  for (std::size_t s = 0; s < kSessions; ++s) {
    const std::uint64_t id = front.open_session();
    detection_session serial{id, tiny_detector(), cfg};
    const audio::buffer stream = command_stream(710 + s);
    for (std::size_t start = 0; start < stream.size(); start += kBlock) {
      const audio::buffer piece =
          cut(stream, start, std::min(start + kBlock, stream.size()));
      ASSERT_EQ(front.offer(id, piece), offer_status::accepted);
      ASSERT_EQ(serial.offer(piece), offer_status::accepted);
      ++blocks[s];
    }
    serial.close();
    serial.process();
    reference.push_back(serial.verdicts());
  }
  front.close_all();
  front.drain();
  EXPECT_FALSE(front.streaming());
  for (std::size_t s = 0; s < kSessions; ++s) {
    EXPECT_EQ(front.stats(s).blocks_processed, blocks[s]) << "session " << s;
    expect_same_verdicts(front.verdicts(s), reference[s],
                         "session " + std::to_string(s));
  }
  front.drain();
  for (std::size_t s = 0; s < kSessions; ++s) {
    EXPECT_EQ(front.verdicts(s).size(), reference[s].size())
        << "session " << s;
  }
}

}  // namespace
}  // namespace ivc::serve
