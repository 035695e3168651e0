#include "serve/shard.h"

#include <utility>

#include "common/error.h"

namespace ivc::serve {

namespace {

// splitmix64 finalizer — the same mixer the fault injector uses, so
// placement is stable across platforms.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e37'79b9'7f4a'7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58'476d'1ce4'e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d0'49bb'1331'11ebULL;
  return x ^ (x >> 31);
}

// The placement rule of shard.h; the local id is id / m. Reduced mod m
// term by term so the sum cannot wrap.
std::size_t place(std::uint64_t id, std::size_t m) {
  return static_cast<std::size_t>((id % m + mix64(id / m) % m) % m);
}

// Its inverse: the global id of `local` on `shard`.
std::uint64_t unplace(std::size_t shard, std::uint64_t local, std::size_t m) {
  return local * m + (shard + m - mix64(local) % m) % m;
}

}  // namespace

shard_manager::shard_manager(defense::classifier_detector detector,
                             serve_config config, std::size_t num_shards)
    : config_{config},
      faults_{config.faults},
      offers_(num_shards),
      shard_kills_(num_shards) {
  expects(num_shards >= 1, "shard_manager: need at least one shard");
  shards_.reserve(num_shards);
  for (std::size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<session_manager>(detector, config));
  }
}

std::uint64_t shard_manager::open_routed(
    std::shared_ptr<const serve_config> config) {
  const ts_lock lock{open_mutex_};
  const std::uint64_t id = count_.load();
  const std::size_t m = shards_.size();
  const std::uint64_t local =
      shards_[place(id, m)]->open_keyed(id, std::move(config));
  expects(local == id / m,
          "shard_manager: shard local ids out of step with the front "
          "(a session opened through shard(i) directly?)");
  count_.store(id + 1);
  return id;
}

std::uint64_t shard_manager::open_session() { return open_routed(nullptr); }

std::uint64_t shard_manager::open_session(const serve_config& config) {
  return open_routed(std::make_shared<const serve_config>(config));
}

std::uint64_t shard_manager::open_session(
    std::shared_ptr<const serve_config> config) {
  expects(config != nullptr, "shard_manager: null shared config");
  return open_routed(std::move(config));
}

std::size_t shard_manager::num_sessions() const {
  return static_cast<std::size_t>(count_.load());
}

std::size_t shard_manager::shard_of(std::uint64_t id) const {
  expects(id < count_.load(), "shard_manager: unknown session id");
  return place(id, shards_.size());
}

session_manager& shard_manager::shard(std::size_t i) {
  expects(i < shards_.size(), "shard_manager: shard index out of range");
  return *shards_[i];
}

const session_manager& shard_manager::shard(std::size_t i) const {
  expects(i < shards_.size(), "shard_manager: shard index out of range");
  return *shards_[i];
}

offer_status shard_manager::offer(std::uint64_t id, audio::buffer block) {
  const std::size_t sh = shard_of(id);
  const std::uint64_t offer_index = offers_[sh].fetch_add(1);
  const offer_status status =
      shards_[sh]->offer(id / shards_.size(), std::move(block));
  // shard_kill draw AFTER delivery: the offered session has queued work
  // now, so it survives the kill resident — the rest of the shard's
  // idle sessions drop to their snapshots.
  if (faults_ != nullptr &&
      faults_->fires(fault_kind::shard_kill, sh, offer_index)) {
    shards_[sh]->evict_idle();
    ++shard_kills_[sh];
  }
  return status;
}

void shard_manager::close(std::uint64_t id) {
  shards_[shard_of(id)]->close(id / shards_.size());
}

void shard_manager::close_all() {
  for (const std::unique_ptr<session_manager>& sh : shards_) {
    sh->close_all();
  }
}

void shard_manager::drain() {
  // Guard before starting anything: a drain() on a live stream would
  // otherwise silently stop it.
  expects(!streaming(),
          "shard_manager: drain() must not run while streaming workers "
          "are live — call stop() first");
  // Start every shard before stopping any, so shards drain concurrently.
  start(config_.worker_threads);
  stop();
}

void shard_manager::start(std::size_t workers_per_shard) {
  for (const std::unique_ptr<session_manager>& sh : shards_) {
    sh->start(workers_per_shard);
  }
}

void shard_manager::stop() {
  for (const std::unique_ptr<session_manager>& sh : shards_) {
    sh->stop();
  }
}

bool shard_manager::streaming() const {
  for (const std::unique_ptr<session_manager>& sh : shards_) {
    if (sh->streaming()) {
      return true;
    }
  }
  return false;
}

void shard_manager::finish() {
  close_all();
  stop();
  drain();
}

bool shard_manager::reopen(std::uint64_t id) {
  return shards_[shard_of(id)]->reopen(id / shards_.size());
}

bool shard_manager::resident(std::uint64_t id) const {
  return shards_[shard_of(id)]->resident(id / shards_.size());
}

std::vector<defense::stream_event> shard_manager::verdicts(
    std::uint64_t id) const {
  return shards_[shard_of(id)]->verdicts(id / shards_.size());
}

std::vector<command_outcome> shard_manager::outcomes(std::uint64_t id) const {
  return shards_[shard_of(id)]->outcomes(id / shards_.size());
}

session_stats shard_manager::stats(std::uint64_t id) const {
  return shards_[shard_of(id)]->stats(id / shards_.size());
}

std::vector<obs::span> shard_manager::trace(std::uint64_t id) const {
  return shards_[shard_of(id)]->trace(id / shards_.size());
}

void shard_manager::append_global(
    std::size_t shard,
    const std::vector<std::pair<std::uint64_t, std::string>>& local,
    std::vector<std::pair<std::uint64_t, std::string>>& out) const {
  // Read the count after the shard: a routed session is counted before
  // its id is handed out, so before it can ever park.
  const std::uint64_t n = count_.load();
  for (const auto& [id, err] : local) {
    const std::uint64_t gid = unplace(shard, id, shards_.size());
    expects(gid < n,
            "shard_manager: shard reports a session the front never "
            "opened (opened through shard(i) directly?)");
    out.emplace_back(gid, err);
  }
}

serve_totals shard_manager::aggregate() const {
  std::vector<serve_totals> per_shard;
  per_shard.reserve(shards_.size());
  for (const std::unique_ptr<session_manager>& sh : shards_) {
    per_shard.push_back(sh->aggregate());
  }
  serve_totals totals;
  totals.stats = session_stats{config_.latency_bins};
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const serve_totals& t = per_shard[i];
    totals.stats.merge(t.stats);
    totals.num_sessions += t.num_sessions;
    totals.sessions_with_attack_events += t.sessions_with_attack_events;
    totals.sessions_degraded += t.sessions_degraded;
    totals.sessions_recovering += t.sessions_recovering;
    totals.sessions_quarantined += t.sessions_quarantined;
    append_global(i, t.quarantine_errors, totals.quarantine_errors);
  }
  return totals;
}

eviction_stats shard_manager::eviction() const {
  eviction_stats totals{config_.latency_bins};
  for (const std::unique_ptr<session_manager>& sh : shards_) {
    const eviction_stats e = sh->eviction();
    totals.evictions += e.evictions;
    totals.rehydrations += e.rehydrations;
    totals.frozen_bytes += e.frozen_bytes;
    totals.resident += e.resident;
    totals.rehydrate_latency.merge(e.rehydrate_latency);
  }
  return totals;
}

shard_balance shard_manager::balance() const {
  shard_balance out;
  out.shards.reserve(shards_.size());
  std::size_t total = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    shard_load load;
    load.sessions = shards_[i]->num_sessions();
    const eviction_stats e = shards_[i]->eviction();
    load.resident = e.resident;
    load.evictions = e.evictions;
    load.rehydrations = e.rehydrations;
    load.offers = offers_[i].load();
    load.shard_kills = shard_kills_[i].load();
    const std::vector<std::pair<std::uint64_t, std::string>> parked =
        shards_[i]->quarantine_errors();
    load.quarantined = parked.size();
    append_global(i, parked, out.quarantine_errors);
    if (i == 0 || load.sessions < out.min_sessions) {
      out.min_sessions = load.sessions;
    }
    if (load.sessions > out.max_sessions) {
      out.max_sessions = load.sessions;
    }
    total += load.sessions;
    out.shards.push_back(load);
  }
  out.mean_sessions = shards_.empty()
                          ? 0.0
                          : static_cast<double>(total) /
                                static_cast<double>(shards_.size());
  return out;
}

}  // namespace ivc::serve
