#include "serve/session_manager.h"

#include <chrono>
#include <utility>

#include "common/error.h"
#include "common/parallel.h"

namespace ivc::serve {

session_manager::metric_handles::metric_handles(obs::metrics_registry* reg)
    : evictions{reg == nullptr
                    ? obs::counter{}
                    : reg->get_counter("serve_evictions_total", {},
                                       /*deterministic=*/false)},
      rehydrations{reg == nullptr
                       ? obs::counter{}
                       : reg->get_counter("serve_rehydrations_total", {},
                                          /*deterministic=*/false)},
      resident{reg == nullptr ? obs::gauge{}
                              : reg->get_gauge("serve_resident_sessions")},
      frozen_bytes{reg == nullptr ? obs::gauge{}
                                  : reg->get_gauge("serve_frozen_bytes")},
      rehydrate_latency{
          reg == nullptr
              ? obs::histogram{}
              : reg->get_histogram("serve_rehydrate_latency_seconds")} {}

session_manager::session_manager(defense::classifier_detector detector,
                                 serve_config config)
    : detector_{std::move(detector)},
      config_{config},
      metrics_{config.metrics.get()},
      evic_{config.latency_bins} {}

session_manager::~session_manager() { stop(); }

std::uint64_t session_manager::open_session() {
  const ts_lock lock{sessions_mutex_};
  return open_slot(nullptr, config_, std::nullopt);
}

std::uint64_t session_manager::open_session(const serve_config& config) {
  const ts_lock lock{sessions_mutex_};
  return open_slot(std::make_shared<const serve_config>(config), config,
                   std::nullopt);
}

std::uint64_t session_manager::open_session(
    std::shared_ptr<const serve_config> config) {
  expects(config != nullptr, "session_manager: null shared config");
  const ts_lock lock{sessions_mutex_};
  const serve_config& effective = *config;
  return open_slot(std::move(config), effective, std::nullopt);
}

std::uint64_t session_manager::open_keyed(
    std::uint64_t key, std::shared_ptr<const serve_config> config) {
  const ts_lock lock{sessions_mutex_};
  const serve_config& effective = config != nullptr ? *config : config_;
  return open_slot(std::move(config), effective, key);
}

std::uint64_t session_manager::open_slot(
    std::shared_ptr<const serve_config> cfg, const serve_config& effective,
    std::optional<std::uint64_t> key) {
  expects(effective.latency_bins == config_.latency_bins,
          "session_manager: a per-session config must keep the fleet's "
          "latency binning — aggregate() merges histograms config-checked");
  const auto id = static_cast<std::uint64_t>(slots_.size());
  slot sl;
  sl.key = key.value_or(id);
  sl.live = std::make_shared<detection_session>(sl.key, detector_, effective);
  sl.cfg = std::move(cfg);
  sl.touch = ++touch_counter_;
  slots_.push_back(std::move(sl));
  ++resident_count_;
  metrics_.resident.set(static_cast<double>(resident_count_));
  if (config_.max_resident_sessions > 0) {
    lru_.emplace(slots_.back().touch, id);
  }
  {
    const ts_lock sched_lock{sched_mutex_};
    sched_.push_back(sched_state::idle);
  }
  enforce_residency();
  return id;
}

std::size_t session_manager::num_sessions() const {
  const ts_lock lock{sessions_mutex_};
  return slots_.size();
}

const detection_session& session_manager::session(std::uint64_t id) const {
  const ts_lock lock{sessions_mutex_};
  expects(id < slots_.size(), "session_manager: unknown session id");
  expects(slots_[id].live != nullptr,
          "session_manager: session is evicted — use the id-keyed "
          "accessors, which read frozen sessions in place");
  return *slots_[id].live;
}

bool session_manager::resident(std::uint64_t id) const {
  const ts_lock lock{sessions_mutex_};
  expects(id < slots_.size(), "session_manager: unknown session id");
  return slots_[id].live != nullptr;
}

// Rebuilds an evicted session from its frozen snapshot. Caller holds
// sessions_mutex_ — rehydration and eviction are fully serialized.
const std::shared_ptr<detection_session>& session_manager::ensure_resident(
    std::uint64_t id) {
  slot& sl = slots_[id];
  if (sl.live != nullptr) {
    return sl.live;
  }
  ensures(!sl.frozen.empty(),
          "session_manager: slot has neither a live session nor a snapshot");
  const auto t0 = std::chrono::steady_clock::now();
  const serve_config& cfg = sl.cfg != nullptr ? *sl.cfg : config_;
  auto s = std::make_shared<detection_session>(sl.key, detector_, cfg);
  s->restore(json::from_binary(sl.frozen));
  evic_.frozen_bytes -= sl.frozen.size();
  sl.frozen.clear();
  sl.frozen.shrink_to_fit();
  sl.live = std::move(s);
  sl.touch = ++touch_counter_;
  ++resident_count_;
  ++evic_.rehydrations;
  if (config_.max_resident_sessions > 0) {
    lru_.emplace(sl.touch, id);
  }
  const double dt =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  evic_.rehydrate_latency.record(dt);
  metrics_.rehydrations.inc();
  metrics_.rehydrate_latency.record(dt);
  metrics_.resident.set(static_cast<double>(resident_count_));
  metrics_.frozen_bytes.set(static_cast<double>(evic_.frozen_bytes));
  return sl.live;
}

// Freezes session `id` if it is idle. Caller holds sessions_mutex_.
bool session_manager::evict_locked(std::uint64_t id) {
  slot& sl = slots_[id];
  if (sl.live == nullptr) {
    return false;  // already evicted
  }
  json::value snap;
  if (!sl.live->try_snapshot(snap)) {
    return false;  // busy, queued work, or a close() flush owed
  }
  sl.closed_hint = snapshot_closed(snap);
  // Cache the health facts aggregate() needs, so the fleet roll-up
  // never decodes frozen images just to count quarantined sessions.
  sl.state_hint = snapshot_state(snap);
  sl.err_hint = snapshot_last_error(snap);
  sl.frozen = json::to_binary(snap);
  evic_.frozen_bytes += sl.frozen.size();
  sl.live.reset();
  --resident_count_;
  ++evic_.evictions;
  metrics_.evictions.inc();
  metrics_.resident.set(static_cast<double>(resident_count_));
  metrics_.frozen_bytes.set(static_cast<double>(evic_.frozen_bytes));
  return true;
}

// Evicts least-recently-offered idle sessions until the resident count
// is back under the bound (or no candidate can be frozen — busy/queued
// sessions stay, and the bound is enforced again on the next offer).
// Caller holds sessions_mutex_.
void session_manager::enforce_residency() {
  const std::size_t bound = config_.max_resident_sessions;
  if (bound == 0) {
    return;
  }
  // Candidates that refused to freeze go back on the heap AFTER the
  // loop, or the loop would pop them forever.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> busy;
  while (resident_count_ > bound && !lru_.empty()) {
    const auto [touch, id] = lru_.top();
    lru_.pop();
    const slot& sl = slots_[id];
    if (sl.live == nullptr) {
      continue;  // dead entry: session was evicted through another path
    }
    if (sl.touch != touch) {
      // Stale: the session was offered again since this entry was
      // pushed. Re-file it under its real recency and keep looking.
      lru_.emplace(sl.touch, id);
      continue;
    }
    if (!evict_locked(id)) {
      busy.emplace_back(touch, id);
    }
  }
  for (const auto& e : busy) {
    lru_.push(e);
  }
}

bool session_manager::evict(std::uint64_t id) {
  const ts_lock lock{sessions_mutex_};
  expects(id < slots_.size(), "session_manager: unknown session id");
  return evict_locked(id);
}

std::size_t session_manager::evict_idle() {
  const ts_lock lock{sessions_mutex_};
  std::size_t evicted = 0;
  for (std::uint64_t id = 0; id < slots_.size(); ++id) {
    evicted += evict_locked(id) ? 1 : 0;
  }
  return evicted;
}

eviction_stats session_manager::eviction() const {
  const ts_lock lock{sessions_mutex_};
  eviction_stats out = evic_;
  out.resident = resident_count_;
  return out;
}

offer_status session_manager::offer(std::uint64_t id, audio::buffer block) {
  // One critical section for rehydrate + offer + LRU touch + residency
  // enforcement: an eviction can never interleave with an offer to the
  // same session and drop its block.
  const ts_lock lock{sessions_mutex_};
  expects(id < slots_.size(), "session_manager: unknown session id");
  const std::shared_ptr<detection_session> s = ensure_resident(id);
  const offer_status status = s->offer(std::move(block));
  slots_[id].touch = ++touch_counter_;
  if (status == offer_status::accepted) {
    notify_ready(id, s);
  }
  enforce_residency();
  return status;
}

void session_manager::close(std::uint64_t id) {
  const ts_lock lock{sessions_mutex_};
  expects(id < slots_.size(), "session_manager: unknown session id");
  slot& sl = slots_[id];
  if (sl.live == nullptr && sl.closed_hint) {
    return;  // frozen image is already closed + flushed: nothing owed
  }
  const std::shared_ptr<detection_session> s = ensure_resident(id);
  s->close();
  notify_ready(id, s);  // the close() flush is work
}

void session_manager::close_all() {
  const ts_lock lock{sessions_mutex_};
  for (std::uint64_t id = 0; id < slots_.size(); ++id) {
    slot& sl = slots_[id];
    if (sl.live == nullptr && sl.closed_hint) {
      continue;  // already closed + flushed when it was frozen
    }
    // Rehydrating to flush can overshoot the residency bound; the
    // freshly closed sessions become evictable again once drained.
    const std::shared_ptr<detection_session> s = ensure_resident(id);
    s->close();
    notify_ready(id, s);
  }
}

void session_manager::drain() {
  expects(!streaming(),
          "session_manager: drain() must not run while streaming workers "
          "are live — call stop() first");
  start(config_.worker_threads);
  stop();
}

void session_manager::start(std::size_t n_workers) {
  std::size_t count = n_workers == 0 ? config_.worker_threads : n_workers;
  if (count == 0) {
    count = default_thread_count();
  }
  {
    // Hold BOTH locks (sessions, then sched — the global order) across
    // seeding and worker spawn: an open_session + offer racing start()
    // then either lands before (and the seed scan below sees its work)
    // or after (and notify_ready sees live workers and enqueues it) —
    // never in a gap where both miss it.
    const ts_lock sessions_lock{sessions_mutex_};
    const ts_lock lock{sched_mutex_};
    if (!workers_.empty()) {
      return;  // idempotent: already streaming
    }
    stopping_ = false;
    // Seed the ready-queue with everything offered before start(): those
    // offers saw no live workers and did not enqueue.
    for (std::uint64_t id = 0; id < slots_.size(); ++id) {
      const slot& sl = slots_[id];
      if (sl.live != nullptr && sched_[id] == sched_state::idle &&
          sl.live->has_work()) {
        sched_[id] = sched_state::queued;
        ready_.emplace_back(id, sl.live);
      }
    }
    workers_.reserve(count);
    for (std::size_t w = 0; w < count; ++w) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }
  sched_cv_.notify_all();
}

void session_manager::stop() {
  std::vector<std::thread> workers;
  {
    const ts_lock lock{sched_mutex_};
    if (workers_.empty()) {
      return;  // idempotent: not streaming
    }
    stopping_ = true;
    workers.swap(workers_);
  }
  sched_cv_.notify_all();
  for (std::thread& t : workers) {
    t.join();
  }
  const ts_lock lock{sched_mutex_};
  // Offers racing with stop() can strand entries after the last worker
  // exits; reset the schedule — the blocks themselves are still queued
  // in their sessions and the next start()/drain() picks them up.
  ready_.clear();
  for (sched_state& st : sched_) {
    st = sched_state::idle;
  }
}

bool session_manager::streaming() const {
  const ts_lock lock{sched_mutex_};
  return !workers_.empty();
}

bool session_manager::reopen(std::uint64_t id) {
  const ts_lock lock{sessions_mutex_};
  expects(id < slots_.size(), "session_manager: unknown session id");
  slot& sl = slots_[id];
  // Check the freeze-time state first: reopening is only meaningful for
  // a quarantined session, and a plain `false` must not change the
  // resident set.
  if (sl.live == nullptr && sl.state_hint != session_state::quarantined) {
    return false;
  }
  const std::shared_ptr<detection_session> s = ensure_resident(id);
  if (!s->reopen()) {
    return false;
  }
  // While quarantined the session refused the ready-queue via
  // has_work() == false; blocks that were already queued (or a pending
  // close() flush) are work again now.
  if (s->has_work()) {
    notify_ready(id, s);
  }
  return true;
}

void session_manager::notify_ready(std::uint64_t id,
                                   const std::shared_ptr<detection_session>& s) {
  bool enqueued = false;
  {
    const ts_lock lock{sched_mutex_};
    if (workers_.empty()) {
      return;  // not streaming: the next start() seeds it by scanning
    }
    if (sched_[id] == sched_state::idle) {
      sched_[id] = sched_state::queued;
      ready_.emplace_back(id, s);
      enqueued = true;
    }
  }
  if (enqueued) {
    sched_cv_.notify_one();
  }
}

void session_manager::worker_loop() {
  for (;;) {
    ts_unique_lock lock{sched_mutex_};
    // Explicit wait loop (not the predicate overload): the predicate
    // would be a lambda reading stopping_/ready_, which the analysis
    // treats as a separate function with no lock held. The semantics
    // are identical — wait() re-acquires before the predicate re-check.
    while (!stopping_ && ready_.empty()) {
      sched_cv_.wait(lock.native());
    }
    if (ready_.empty()) {
      return;  // stopping_ and nothing left to do
    }
    const auto [id, s] = ready_.front();
    ready_.pop_front();
    sched_[id] = sched_state::claimed;
    lock.unlock();

    // The fleet's containment of last resort: process() contains stage
    // faults itself, but a worker thread that lets an exception escape
    // dies in std::terminate and takes the process with it. Park the
    // session instead; the worker survives to serve the rest of the
    // fleet.
    try {
      s->process();
    } catch (const std::exception& e) {
      s->force_quarantine(e.what());
    } catch (...) {
      s->force_quarantine("unknown exception escaped process()");
    }

    lock.lock();
    // Re-check under the scheduler lock: an offer that arrived while we
    // were processing saw state `claimed` and did not enqueue — it is
    // our job to re-queue. Conversely an offer that lands after this
    // check sees `idle` and enqueues itself. Either way no block is
    // stranded.
    bool renotify = false;
    if (s->has_work()) {
      sched_[id] = sched_state::queued;
      ready_.emplace_back(id, s);
      renotify = true;
    } else {
      sched_[id] = sched_state::idle;
    }
    lock.unlock();
    if (renotify) {
      sched_cv_.notify_one();
    }
  }
}

void session_manager::finish() {
  close_all();
  // stop() is a no-op when not streaming; when streaming it flushes
  // everything enqueued, and drain()'s seeding scan sweeps any block a
  // racing offer left behind.
  stop();
  drain();
}

std::vector<defense::stream_event> session_manager::verdicts(
    std::uint64_t id) const {
  const ts_lock lock{sessions_mutex_};
  expects(id < slots_.size(), "session_manager: unknown session id");
  const slot& sl = slots_[id];
  if (sl.live != nullptr) {
    return sl.live->verdicts();
  }
  return snapshot_verdicts(json::from_binary(sl.frozen));
}

std::vector<command_outcome> session_manager::outcomes(
    std::uint64_t id) const {
  const ts_lock lock{sessions_mutex_};
  expects(id < slots_.size(), "session_manager: unknown session id");
  const slot& sl = slots_[id];
  if (sl.live != nullptr) {
    return sl.live->outcomes();
  }
  return snapshot_outcomes(json::from_binary(sl.frozen));
}

session_stats session_manager::stats(std::uint64_t id) const {
  const ts_lock lock{sessions_mutex_};
  expects(id < slots_.size(), "session_manager: unknown session id");
  const slot& sl = slots_[id];
  if (sl.live != nullptr) {
    return sl.live->stats();
  }
  return snapshot_stats(json::from_binary(sl.frozen), config_.latency_bins);
}

serve_totals session_manager::aggregate() const {
  const ts_lock lock{sessions_mutex_};
  // The fleet histograms must use the same binning as the per-session
  // ones: log_histogram::merge requires matching configs.
  serve_totals totals;
  totals.stats = session_stats{config_.latency_bins};
  totals.num_sessions = slots_.size();
  for (std::uint64_t id = 0; id < slots_.size(); ++id) {
    const slot& sl = slots_[id];
    session_stats st{config_.latency_bins};
    session_state state = session_state::serving;
    std::string error;
    if (sl.live != nullptr) {
      st = sl.live->stats();
      state = sl.live->state();
      if (state == session_state::quarantined) {
        error = sl.live->last_error();
      }
    } else {
      // Frozen sessions aggregate from their snapshot in place —
      // observing the fleet must not change the resident set. The
      // health facts come from the freeze-time hints, not a decode.
      st = snapshot_stats(json::from_binary(sl.frozen),
                          config_.latency_bins);
      state = sl.state_hint;
      error = sl.err_hint;
    }
    totals.stats.merge(st);
    totals.sessions_with_attack_events += st.attack_events > 0 ? 1 : 0;
    switch (state) {
      case session_state::serving:
        break;
      case session_state::degraded:
        ++totals.sessions_degraded;
        break;
      case session_state::recovering:
        ++totals.sessions_recovering;
        break;
      case session_state::quarantined:
        ++totals.sessions_quarantined;
        totals.quarantine_errors.emplace_back(id, std::move(error));
        break;
    }
  }
  return totals;
}

std::vector<std::pair<std::uint64_t, std::string>>
session_manager::quarantine_errors() const {
  const ts_lock lock{sessions_mutex_};
  std::vector<std::pair<std::uint64_t, std::string>> out;
  for (std::uint64_t id = 0; id < slots_.size(); ++id) {
    const slot& sl = slots_[id];
    if (sl.live != nullptr) {
      if (sl.live->state() == session_state::quarantined) {
        out.emplace_back(id, sl.live->last_error());
      }
    } else if (sl.state_hint == session_state::quarantined) {
      out.emplace_back(id, sl.err_hint);
    }
  }
  return out;
}

std::vector<obs::span> session_manager::trace(std::uint64_t id) const {
  const ts_lock lock{sessions_mutex_};
  expects(id < slots_.size(), "session_manager: unknown session id");
  const slot& sl = slots_[id];
  if (sl.live != nullptr) {
    return sl.live->trace();
  }
  return snapshot_trace(json::from_binary(sl.frozen));
}

}  // namespace ivc::serve
