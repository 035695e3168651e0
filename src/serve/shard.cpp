#include "serve/shard.h"

#include <utility>

#include "common/error.h"

namespace ivc::serve {

namespace {

// splitmix64 finalizer — the same mixer the fault injector uses, so the
// shard assignment is stable across platforms and sessions spread
// uniformly even when ids are dense (0, 1, 2, ...).
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e37'79b9'7f4a'7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58'476d'1ce4'e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d0'49bb'1331'11ebULL;
  return x ^ (x >> 31);
}

// Maps shard-local (id, error) pairs to global ids through `to_global`
// (one table of global_ids()). A local id the front never routed — a
// session opened through shard(i) directly — is a caller bug.
void append_global(
    const std::vector<std::uint64_t>& to_global,
    const std::vector<std::pair<std::uint64_t, std::string>>& local,
    std::vector<std::pair<std::uint64_t, std::string>>& out) {
  for (const auto& [id, err] : local) {
    expects(id < to_global.size(),
            "shard_manager: shard reports a session the front never "
            "routed (opened through shard(i) directly?)");
    out.emplace_back(to_global[id], err);
  }
}

}  // namespace

shard_manager::shard_manager(defense::classifier_detector detector,
                             serve_config config, std::size_t num_shards)
    : config_{config}, faults_{config.faults} {
  expects(num_shards >= 1, "shard_manager: need at least one shard");
  shards_.reserve(num_shards);
  for (std::size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<session_manager>(detector, config));
  }
  offers_.assign(num_shards, 0);
  shard_kills_.assign(num_shards, 0);
}

shard_manager::route shard_manager::route_of(std::uint64_t id) const {
  const ts_lock lock{routes_mutex_};
  expects(id < routes_.size(), "shard_manager: unknown session id");
  return routes_[id];
}

std::uint64_t shard_manager::open_session() {
  const ts_lock lock{routes_mutex_};
  const auto id = static_cast<std::uint64_t>(routes_.size());
  const auto sh = static_cast<std::uint32_t>(mix64(id) % shards_.size());
  const std::uint64_t local = shards_[sh]->open_session();
  routes_.push_back(route{sh, local});
  return id;
}

std::uint64_t shard_manager::open_session(const serve_config& config) {
  const ts_lock lock{routes_mutex_};
  const auto id = static_cast<std::uint64_t>(routes_.size());
  const auto sh = static_cast<std::uint32_t>(mix64(id) % shards_.size());
  const std::uint64_t local = shards_[sh]->open_session(config);
  routes_.push_back(route{sh, local});
  return id;
}

std::uint64_t shard_manager::open_session(
    std::shared_ptr<const serve_config> config) {
  const ts_lock lock{routes_mutex_};
  const auto id = static_cast<std::uint64_t>(routes_.size());
  const auto sh = static_cast<std::uint32_t>(mix64(id) % shards_.size());
  const std::uint64_t local = shards_[sh]->open_session(std::move(config));
  routes_.push_back(route{sh, local});
  return id;
}

std::size_t shard_manager::num_sessions() const {
  const ts_lock lock{routes_mutex_};
  return routes_.size();
}

std::size_t shard_manager::shard_of(std::uint64_t id) const {
  return route_of(id).shard;
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
  route r;
  std::uint64_t offer_index = 0;
  {
    const ts_lock lock{routes_mutex_};
    expects(id < routes_.size(), "shard_manager: unknown session id");
    r = routes_[id];
    offer_index = offers_[r.shard]++;
  }
  const offer_status status = shards_[r.shard]->offer(r.local, std::move(block));
  // shard_kill draw AFTER delivery: the offered session has queued work
  // now, so it survives the kill resident — the rest of the shard's
  // idle sessions drop to their snapshots.
  if (faults_ != nullptr &&
      faults_->fires(fault_kind::shard_kill, r.shard, offer_index)) {
    shards_[r.shard]->evict_idle();
    const ts_lock lock{routes_mutex_};
    ++shard_kills_[r.shard];
  }
  return status;
}

void shard_manager::close(std::uint64_t id) {
  const route r = route_of(id);
  shards_[r.shard]->close(r.local);
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
  const route r = route_of(id);
  return shards_[r.shard]->reopen(r.local);
}

bool shard_manager::resident(std::uint64_t id) const {
  const route r = route_of(id);
  return shards_[r.shard]->resident(r.local);
}

std::vector<defense::stream_event> shard_manager::verdicts(
    std::uint64_t id) const {
  const route r = route_of(id);
  return shards_[r.shard]->verdicts(r.local);
}

std::vector<command_outcome> shard_manager::outcomes(std::uint64_t id) const {
  const route r = route_of(id);
  return shards_[r.shard]->outcomes(r.local);
}

session_stats shard_manager::stats(std::uint64_t id) const {
  const route r = route_of(id);
  return shards_[r.shard]->stats(r.local);
}

std::vector<obs::span> shard_manager::trace(std::uint64_t id) const {
  const route r = route_of(id);
  return shards_[r.shard]->trace(r.local);
}

std::vector<std::vector<std::uint64_t>> shard_manager::global_ids() const {
  std::vector<std::vector<std::uint64_t>> to_global(shards_.size());
  const ts_lock lock{routes_mutex_};
  for (std::uint64_t gid = 0; gid < routes_.size(); ++gid) {
    // open_session hands out local ids densely in global-id order, so
    // this scan appends each shard's table already in local-id order.
    to_global[routes_[gid].shard].push_back(gid);
  }
  return to_global;
}

serve_totals shard_manager::aggregate() const {
  std::vector<serve_totals> per_shard;
  per_shard.reserve(shards_.size());
  for (const std::unique_ptr<session_manager>& sh : shards_) {
    per_shard.push_back(sh->aggregate());
  }
  const std::vector<std::vector<std::uint64_t>> to_global = global_ids();
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
    append_global(to_global[i], t.quarantine_errors,
                  totals.quarantine_errors);
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
  std::vector<std::uint64_t> offers;
  std::vector<std::uint64_t> kills;
  {
    const ts_lock lock{routes_mutex_};
    offers = offers_;
    kills = shard_kills_;
  }
  std::vector<std::vector<std::pair<std::uint64_t, std::string>>> parked;
  parked.reserve(shards_.size());
  std::size_t total = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    shard_load load;
    load.sessions = shards_[i]->num_sessions();
    const eviction_stats e = shards_[i]->eviction();
    load.resident = e.resident;
    load.evictions = e.evictions;
    load.rehydrations = e.rehydrations;
    load.offers = offers[i];
    load.shard_kills = kills[i];
    parked.push_back(shards_[i]->quarantine_errors());
    load.quarantined = parked.back().size();
    if (i == 0 || load.sessions < out.min_sessions) {
      out.min_sessions = load.sessions;
    }
    if (load.sessions > out.max_sessions) {
      out.max_sessions = load.sessions;
    }
    total += load.sessions;
    out.shards.push_back(load);
  }
  const std::vector<std::vector<std::uint64_t>> to_global = global_ids();
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    append_global(to_global[i], parked[i], out.quarantine_errors);
  }
  out.mean_sessions = shards_.empty()
                          ? 0.0
                          : static_cast<double>(total) /
                                static_cast<double>(shards_.size());
  return out;
}

}  // namespace ivc::serve
