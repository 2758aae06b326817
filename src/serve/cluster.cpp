#include "serve/cluster.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "graph/validate.hpp"
#include "sim/error.hpp"
#include "sim/rng.hpp"

namespace gaudi::serve {

namespace {

/// Side ids of hedged duplicates live above this base so they can never
/// collide with stream request ids (validated at run()).
constexpr std::int64_t kHedgeIdBase = std::int64_t{1} << 40;

std::string pct(double v) {
  if (!std::isfinite(v)) return "n/a";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.1f%%", v * 100.0);
  return buf;
}

}  // namespace

const char* load_balance_policy_name(LoadBalancePolicy p) {
  switch (p) {
    case LoadBalancePolicy::kRoundRobin: return "round-robin";
    case LoadBalancePolicy::kJoinShortestQueue: return "jsq";
    case LoadBalancePolicy::kLeastKvLoad: return "least-kv";
  }
  return "unknown";
}

LoadBalancePolicy parse_load_balance_policy(const std::string& name) {
  if (name == "round-robin") return LoadBalancePolicy::kRoundRobin;
  if (name == "jsq") return LoadBalancePolicy::kJoinShortestQueue;
  if (name == "least-kv") return LoadBalancePolicy::kLeastKvLoad;
  throw sim::InvalidArgument("unknown load-balance policy '" + name +
                             "' (expected round-robin | jsq | least-kv)");
}

ClusterRouter::ClusterRouter(const graph::Runtime& rt, ClusterConfig cfg)
    : rt_(rt), cfg_(std::move(cfg)) {
  GAUDI_CHECK(cfg_.replicas >= 1, "a cluster needs at least one replica");
  GAUDI_CHECK(!cfg_.replica.faults.enabled(),
              "cluster replicas draw fault streams from "
              "ClusterConfig::fault_profile, not ServeConfig::faults");
  GAUDI_CHECK(cfg_.suspicion_timeout > sim::SimTime::zero(),
              "suspicion_timeout must be positive");
  GAUDI_CHECK(cfg_.heartbeat_interval >= sim::SimTime::zero(),
              "heartbeat_interval must be >= 0");
  GAUDI_CHECK(cfg_.hedge_budget >= sim::SimTime::zero(),
              "hedge_budget must be >= 0");
  if (cfg_.breaker_enabled) {
    GAUDI_CHECK(cfg_.breaker_window >= 1, "breaker_window must be >= 1");
    GAUDI_CHECK(cfg_.breaker_min_samples >= 1 &&
                    cfg_.breaker_min_samples <= cfg_.breaker_window,
                "breaker_min_samples must be in [1, breaker_window]");
    GAUDI_CHECK(cfg_.breaker_threshold > 0.0 && cfg_.breaker_threshold <= 1.0,
                "breaker_threshold must be in (0, 1]");
    GAUDI_CHECK(cfg_.breaker_cooldown > sim::SimTime::zero(),
                "breaker_cooldown must be positive");
  }
  if (cfg_.migration.enabled) {
    GAUDI_CHECK(cfg_.migration.chunk_blocks >= 1,
                "migration chunk_blocks must be >= 1");
  }
  if (cfg_.drain_replica >= 0) {
    GAUDI_CHECK(cfg_.replicas >= 2,
                "draining a replica needs at least two replicas");
    GAUDI_CHECK(cfg_.drain_replica < cfg_.replicas,
                "drain_replica must index a configured replica");
    GAUDI_CHECK(cfg_.drain_at >= sim::SimTime::zero(),
                "drain_at must be >= 0");
  }
  GAUDI_CHECK(cfg_.health_window > sim::SimTime::zero(),
              "health_window must be positive");
  GAUDI_CHECK(cfg_.degraded_after >= 1, "degraded_after must be >= 1");
  validate_ = graph::validation_requested_from_env();
  const bool faults_on = cfg_.fault_profile.any_rate_positive();
  if (faults_on && cfg_.migration.enabled) {
    // The migration path's fabric link draws from its own decorrelated
    // stream: seed ^ salt so it never collides with a replica's
    // splitmix64(seed + r + 1) iteration stream.
    link_faults_ = sim::FaultInjector{
        sim::splitmix64(cfg_.fault_seed ^ 0x4B56ACEull), cfg_.fault_profile};
  }
  replicas_.resize(static_cast<std::size_t>(cfg_.replicas));
  for (std::int64_t r = 0; r < cfg_.replicas; ++r) {
    ServeConfig rcfg = cfg_.replica;
    if (faults_on) {
      // One cluster seed, N decorrelated per-replica streams: splitmix64
      // spreads neighbouring replica indices across the counter-RNG space.
      rcfg.faults = sim::FaultInjector{
          sim::splitmix64(cfg_.fault_seed + static_cast<std::uint64_t>(r) + 1),
          cfg_.fault_profile};
    }
    Replica& rep = replicas_[static_cast<std::size_t>(r)];
    rep.sched = std::make_unique<ContinuousBatchScheduler>(rt_, rcfg);
    rep.health = HealthTracker{cfg_.health_window, cfg_.degraded_after};
  }
}

bool ClusterRouter::evacuating(const Replica& rep, sim::SimTime now) const {
  if (rep.draining) return true;
  // Degraded health evacuates proactively only when migration can actually
  // move the work; a drain-only configuration leaves sick-but-alive
  // replicas in rotation exactly as before.
  return cfg_.migration.enabled && rep.health.degraded(now);
}

sim::SimTime ClusterRouter::heartbeat_ceil(sim::SimTime t) const {
  const std::int64_t hb = cfg_.heartbeat_interval.ps();
  if (hb <= 0) return t;
  const std::int64_t ticks = (t.ps() + hb - 1) / hb;
  return sim::SimTime::from_ps(ticks * hb);
}

bool ClusterRouter::breaker_allows(Replica& rep, sim::SimTime now) const {
  if (!cfg_.breaker_enabled) return true;
  if (rep.breaker == BreakerState::kOpen && now >= rep.open_until) {
    // Cooldown expired: half-open, awaiting a single probe.
    rep.breaker = BreakerState::kHalfOpen;
    rep.probe_live = false;
    rep.probe_id = -1;
  }
  switch (rep.breaker) {
    case BreakerState::kClosed: return true;
    case BreakerState::kOpen: return false;
    case BreakerState::kHalfOpen: return !rep.probe_live;
  }
  return true;
}

void ClusterRouter::breaker_record(std::int64_t r, bool ok, sim::SimTime now) {
  if (!cfg_.breaker_enabled) return;
  Replica& rep = replicas_[static_cast<std::size_t>(r)];
  const auto open_now = [&] {
    rep.breaker = BreakerState::kOpen;
    rep.open_until = now + cfg_.breaker_cooldown;
    rep.outcomes.clear();
    rep.probe_live = false;
    rep.probe_id = -1;
    rep.stats.breaker_opens += 1;
    ++breaker_opens_;
  };
  switch (rep.breaker) {
    case BreakerState::kClosed: {
      rep.outcomes.push_back(ok);
      while (static_cast<std::int64_t>(rep.outcomes.size()) >
             cfg_.breaker_window) {
        rep.outcomes.pop_front();
      }
      if (ok) return;
      const auto samples = static_cast<std::int64_t>(rep.outcomes.size());
      if (samples < cfg_.breaker_min_samples) return;
      std::int64_t failures = 0;
      for (const bool o : rep.outcomes) failures += o ? 0 : 1;
      if (static_cast<double>(failures) >=
          cfg_.breaker_threshold * static_cast<double>(samples)) {
        open_now();
      }
      return;
    }
    case BreakerState::kHalfOpen: {
      // The probe's fate decides; a failure from any lingering pre-open
      // request is equally disqualifying.
      if (!ok) {
        open_now();
      } else if (rep.probe_live) {
        rep.breaker = BreakerState::kClosed;
        rep.outcomes.clear();
        rep.probe_live = false;
        rep.probe_id = -1;
      }
      return;
    }
    case BreakerState::kOpen:
      return;  // outcomes of pre-open residue carry no new information
  }
}

std::int64_t ClusterRouter::pick_replica(sim::SimTime now,
                                         std::int64_t exclude) {
  const std::int64_t n = cfg_.replicas;
  const auto eligible = [&](std::int64_t idx) {
    Replica& rep = replicas_[static_cast<std::size_t>(idx)];
    // An undetected-dead replica is still believed up: dispatches to it
    // strand until the suspicion timeout — the cost of slow detection.
    // The evacuation check precedes breaker_allows so a draining replica
    // never consumes the open->half-open transition or hosts a probe.
    if (idx == exclude || rep.suspected) return false;
    if (evacuating(rep, now)) return false;
    return breaker_allows(rep, now);
  };
  switch (cfg_.policy) {
    case LoadBalancePolicy::kRoundRobin: {
      for (std::int64_t k = 0; k < n; ++k) {
        const std::int64_t idx = (rr_cursor_ + k) % n;
        if (!eligible(idx)) continue;
        rr_cursor_ = idx + 1;
        return idx;
      }
      return -1;
    }
    case LoadBalancePolicy::kJoinShortestQueue: {
      std::int64_t best = -1;
      std::int64_t best_load = 0;
      for (std::int64_t idx = 0; idx < n; ++idx) {
        if (!eligible(idx)) continue;
        const Replica& rep = replicas_[static_cast<std::size_t>(idx)];
        const std::int64_t load =
            rep.sched->load() +
            static_cast<std::int64_t>(rep.stranded.size());
        if (best < 0 || load < best_load) {
          best = idx;
          best_load = load;
        }
      }
      return best;
    }
    case LoadBalancePolicy::kLeastKvLoad: {
      std::int64_t best = -1;
      std::int64_t best_free = -1;
      for (std::int64_t idx = 0; idx < n; ++idx) {
        if (!eligible(idx)) continue;
        const std::int64_t free =
            replicas_[static_cast<std::size_t>(idx)].sched->free_kv_blocks();
        if (free > best_free) {
          best = idx;
          best_free = free;
        }
      }
      return best;
    }
  }
  return -1;
}

void ClusterRouter::place(const Routed& routed, std::int64_t r,
                          sim::SimTime now) {
  Replica& rep = replicas_[static_cast<std::size_t>(r)];
  const std::int64_t sid = routed.req.id;
  const std::int64_t orig = sid >= kHedgeIdBase ? sid - kHedgeIdBase : sid;
  Track& t = tracks_.at(orig);
  t.sides[sid] = r;
  side_to_orig_[sid] = orig;
  rep.stats.dispatched += 1;
  if (cfg_.breaker_enabled && rep.breaker == BreakerState::kHalfOpen &&
      !rep.probe_live) {
    rep.probe_live = true;
    rep.probe_id = orig;
  }
  if (!rep.up) {
    // The chip is dead and the router does not know yet: the request is
    // lost on the wire until the suspicion timeout fails it over.
    rep.stranded.push_back(routed);
  } else if (routed.generated >= 1) {
    rep.sched->enqueue_resume(routed.req, routed.generated, routed.last_token,
                              now);
  } else {
    rep.sched->enqueue(routed.req);
  }
  if (sid == orig) {
    t.dispatch_time = now;
    if (cfg_.hedge_budget > sim::SimTime::zero() && !t.hedged && !t.started &&
        routed.generated == 0) {
      hedges_.push_back({now + cfg_.hedge_budget, orig, now});
    }
  }
}

ClusterRouter::Track* ClusterRouter::drop_side(std::int64_t sid,
                                               std::int64_t* orig_out) {
  const auto sit = side_to_orig_.find(sid);
  if (sit == side_to_orig_.end()) return nullptr;
  const std::int64_t orig = sit->second;
  side_to_orig_.erase(sit);
  Track& t = tracks_.at(orig);
  t.sides.erase(sid);
  *orig_out = orig;
  return &t;
}

void ClusterRouter::cancel_side(std::int64_t sid, std::int64_t r) {
  std::int64_t orig = 0;
  if (drop_side(sid, &orig) == nullptr) return;
  Replica& rep = replicas_[static_cast<std::size_t>(r)];
  const auto d = rep.sched->extract(sid);
  if (!d) {
    // Not in the machine: the side strands on a dead replica's wire.
    rep.stranded.erase(
        std::remove_if(rep.stranded.begin(), rep.stranded.end(),
                       [&](const Routed& q) { return q.req.id == sid; }),
        rep.stranded.end());
  } else if (d->lost_rows > 0) {
    sink_.on_wasted(d->lost_rows);
    hedge_wasted_ += d->lost_rows;
  }
  // A cancelled probe proves nothing about the replica: allow a new probe.
  if (cfg_.breaker_enabled && rep.breaker == BreakerState::kHalfOpen &&
      rep.probe_live && rep.probe_id == orig) {
    rep.probe_live = false;
    rep.probe_id = -1;
  }
}

void ClusterRouter::finish_track(std::int64_t orig) {
  const auto it = tracks_.find(orig);
  GAUDI_ASSERT(it != tracks_.end(), "finishing an unknown request");
  for (const auto& [sid, r] : it->second.sides) {
    (void)r;
    side_to_orig_.erase(sid);
  }
  tracks_.erase(it);
  // A probe that ends in a non-breaker outcome (shed, rejected, dropped)
  // proves nothing: free the half-open slot or the replica wedges shut.
  for (Replica& rep : replicas_) {
    if (rep.breaker == BreakerState::kHalfOpen && rep.probe_live &&
        rep.probe_id == orig) {
      rep.probe_live = false;
      rep.probe_id = -1;
    }
  }
}

void ClusterRouter::process_death(std::int64_t r, sim::SimTime now) {
  Replica& rep = replicas_[static_cast<std::size_t>(r)];
  rep.up = false;
  rep.death_pending = true;
  rep.dead_work = rep.sched->drain_all();
  rep.rejoin_time = now + cfg_.replica.chip_restart;
  // Detection: suspicion timeout, or the restarted chip's first heartbeat
  // announcing a new incarnation — whichever heartbeat tick comes first.
  rep.detect_time = heartbeat_ceil(
      now + std::min(cfg_.suspicion_timeout, cfg_.replica.chip_restart));
  ++chip_failures_;
  rep.stats.chip_failures += 1;
  rep.stats.down_time += cfg_.replica.chip_restart;
  if (!migrations_.empty()) {
    // A migration interrupted by the chip loss aborts on either end.  A
    // dead source drained the side into dead_work, so the existing
    // re-prefill failover re-queues it exactly like today — no request
    // lost, no tokens double-billed; a dead destination leaves the side
    // running at the source, and evacuation retries toward a survivor.
    migrations_.erase(
        std::remove_if(migrations_.begin(), migrations_.end(),
                       [&](const Migration& m) {
                         if (m.src != r && m.dst != r) return false;
                         ++migrations_aborted_;
                         return true;
                       }),
        migrations_.end());
  }
}

void ClusterRouter::process_detection(std::int64_t r, sim::SimTime now) {
  Replica& rep = replicas_[static_cast<std::size_t>(r)];
  rep.death_pending = false;
  if (!rep.up) rep.suspected = true;

  std::vector<std::pair<Routed, std::int64_t>> lost;  // (side, wasted rows)
  lost.reserve(rep.dead_work.size() + rep.stranded.size());
  for (const ContinuousBatchScheduler::DrainedRequest& d : rep.dead_work) {
    lost.push_back({Routed{d.req, d.generated, d.last_token}, d.lost_rows});
  }
  for (const Routed& q : rep.stranded) lost.push_back({q, 0});
  rep.dead_work.clear();
  rep.stranded.clear();

  for (const auto& [side, wasted] : lost) {
    std::int64_t orig = 0;
    Track* t = drop_side(side.req.id, &orig);
    if (t == nullptr) continue;  // cancelled before the chip died
    breaker_record(r, false, now);
    rep.stats.failed_over += 1;
    const bool is_loser = t->started && side.req.id != t->winner;
    if (is_loser || !t->sides.empty()) {
      // A twin survives on another replica (a cancelled-too-late hedge
      // loser, or an unstarted hedge pair losing one side): the surviving
      // side carries the request, only the computed rows are lost.
      if (wasted > 0) {
        sink_.on_wasted(wasted);
        hedge_wasted_ += wasted;
      }
      continue;
    }
    // Last live side lost: fail over with a full re-prefill, consuming one
    // unit of the retry budget — or end kFailed when it is spent.
    t->attempts += 1;
    if (t->attempts > cfg_.replica.retry_max) {
      sink_.on_fail(orig, now, wasted);
      finish_track(orig);
      continue;
    }
    sink_.on_fault_retry(orig, wasted);
    // The re-dispatched side (id = orig) carries the request from here on:
    // its token events must count, and a later chip loss must read it as
    // the last live side — not as a dead hedge winner's leftover twin.
    if (t->started) t->winner = orig;
    ++failovers_;
    Routed resume;
    resume.req = t->req;
    resume.generated = side.generated;
    resume.last_token = side.last_token;
    queue_.push_back(
        {resume, now + retry_backoff_delay(cfg_.replica.retry_backoff,
                                           cfg_.replica.retry_backoff_max,
                                           t->attempts)});
  }
}

void ClusterRouter::apply_events(std::int64_t r,
                                 const std::vector<ReplicaEvent>& events) {
  Replica& rep = replicas_[static_cast<std::size_t>(r)];
  for (const ReplicaEvent& e : events) {
    const auto sit = side_to_orig_.find(e.id);
    if (sit == side_to_orig_.end()) continue;  // stale side (cancelled)
    const std::int64_t orig = sit->second;
    Track& t = tracks_.at(orig);
    switch (e.kind) {
      case ReplicaEventKind::kFirstToken: {
        if (t.started) {
          // Photo finish: the twin won at this same instant and was
          // processed first (replica-index order); this side loses.
          cancel_side(e.id, r);
          break;
        }
        t.started = true;
        t.winner = e.id;
        sink_.on_first_token(orig, e.at);
        if (e.id != orig) ++hedge_wins_;
        std::vector<std::pair<std::int64_t, std::int64_t>> losers;
        for (const auto& [sid, sr] : t.sides) {
          if (sid != e.id) losers.push_back({sid, sr});
        }
        for (const auto& [sid, sr] : losers) cancel_side(sid, sr);
        break;
      }
      case ReplicaEventKind::kToken:
        if (t.winner == e.id) {
          sink_.on_token(orig, sim::SimTime::from_ps(e.aux));
        }
        break;
      case ReplicaEventKind::kComplete: {
        sink_.on_complete(orig, e.at);
        rep.stats.completed += 1;
        if (cfg_.breaker_enabled && rep.breaker == BreakerState::kHalfOpen &&
            rep.probe_live && rep.probe_id != orig) {
          // Pre-open residue completing is healthy but not the probe.
          finish_track(orig);
          break;
        }
        breaker_record(r, true, e.at);
        finish_track(orig);
        break;
      }
      case ReplicaEventKind::kPreempt:
        sink_.on_preempt(orig, e.aux);
        break;
      case ReplicaEventKind::kTimeout:
      case ReplicaEventKind::kDrop:
      case ReplicaEventKind::kShed:
      case ReplicaEventKind::kReject: {
        std::int64_t dropped_orig = 0;
        Track* dt = drop_side(e.id, &dropped_orig);
        GAUDI_ASSERT(dt != nullptr, "terminal event for an unmapped side");
        if (e.kind == ReplicaEventKind::kTimeout) {
          breaker_record(r, false, e.at);
        }
        if (!dt->sides.empty()) break;  // the twin carries the request on
        switch (e.kind) {
          case ReplicaEventKind::kTimeout:
            sink_.on_timeout(dropped_orig, e.at);
            break;
          case ReplicaEventKind::kDrop:
            sink_.on_drop(dropped_orig, e.at);
            ++deadline_drops_;
            break;
          case ReplicaEventKind::kShed:
            sink_.on_shed(dropped_orig, e.at);
            break;
          default:
            sink_.on_reject(dropped_orig, e.at);
            break;
        }
        finish_track(dropped_orig);
        break;
      }
    }
  }
}

void ClusterRouter::process_hedges(sim::SimTime now) {
  std::vector<HedgeTimer> due;
  for (auto it = hedges_.begin(); it != hedges_.end();) {
    if (it->fire <= now) {
      due.push_back(*it);
      it = hedges_.erase(it);
    } else {
      ++it;
    }
  }
  std::stable_sort(due.begin(), due.end(),
                   [](const HedgeTimer& a, const HedgeTimer& b) {
                     return a.fire != b.fire ? a.fire < b.fire
                                             : a.orig < b.orig;
                   });
  for (const HedgeTimer& timer : due) {
    const auto tit = tracks_.find(timer.orig);
    if (tit == tracks_.end()) continue;
    Track& t = tit->second;
    if (t.started || t.hedged) continue;
    if (t.dispatch_time != timer.armed_at) continue;  // re-armed since
    if (t.sides.size() != 1) continue;  // back in the router queue
    if (!migrations_.empty() &&
        std::any_of(migrations_.begin(), migrations_.end(),
                    [&](const Migration& m) { return m.orig == timer.orig; })) {
      // A live migration already has a second copy of this request's state
      // in flight; adopt it as the hedge instead of launching a third copy
      // — exactly one duplicate ever exists, so no double completion and
      // no double-billed KV.
      t.hedged = true;
      continue;
    }
    const std::int64_t primary = t.sides.begin()->second;
    t.hedged = true;  // one duplicate per request, launched or not
    const std::int64_t r = pick_replica(now, primary);
    if (r < 0) continue;  // no second replica admits work right now
    Routed copy;
    copy.req = t.req;
    copy.req.id = t.req.id + kHedgeIdBase;
    ++hedges_launched_;
    place(copy, r, now);
  }
}

void ClusterRouter::start_migration(std::int64_t sid, std::int64_t orig,
                                    std::int64_t src, std::int64_t dst,
                                    std::int64_t rows, sim::SimTime now) {
  const TransferPlan plan = plan_kv_transfer(
      cfg_.migration, link_faults_, migration_seq_++, rows,
      cfg_.replica.block_tokens, kv_bytes_per_token(cfg_.replica.model));
  Migration m;
  m.sid = sid;
  m.orig = orig;
  m.src = src;
  m.dst = dst;
  m.phase = 0;
  m.for_drain = replicas_[static_cast<std::size_t>(src)].draining;
  m.rows_synced = rows;
  m.done_at = now + plan.duration;
  migrations_.push_back(m);
  ++migrations_started_;
  migrated_blocks_ += plan.blocks;
  migration_link_retries_ += plan.link_retries;
  migration_time_ += plan.duration;
}

void ClusterRouter::process_migrations(sim::SimTime now) {
  for (std::size_t i = 0; i < migrations_.size();) {
    Migration& m = migrations_[i];
    const auto abort = [&] {
      ++migrations_aborted_;
      migrations_.erase(migrations_.begin() +
                        static_cast<std::ptrdiff_t>(i));
    };
    // Stale: the side completed, was cancelled, or was failed over (its
    // mapping died with the track or moved replicas).  The re-prefill
    // failover path already owns the request; nothing to cut over.
    const auto sit = side_to_orig_.find(m.sid);
    bool stale = sit == side_to_orig_.end();
    if (!stale) {
      const Track& t = tracks_.at(m.orig);
      const auto side_it = t.sides.find(m.sid);
      stale = side_it == t.sides.end() || side_it->second != m.src;
    }
    if (stale) {
      abort();
      continue;
    }
    if (m.done_at > now) {
      ++i;
      continue;
    }
    Replica& src = replicas_[static_cast<std::size_t>(m.src)];
    // The source keeps decoding while a leg flies; its scheduler state is
    // consistent only at iteration boundaries, so a leg that lands while
    // the source is mid-iteration settles when that iteration does.
    if (src.busy) {
      ++i;
      continue;
    }
    const auto prog = src.sched->running_progress(m.sid);
    if (!prog) {
      // No longer running at the source (preempted back to its queue
      // between legs): evacuation re-routes the queued copy instead.
      abort();
      continue;
    }
    const std::int64_t delta = prog->rows - m.rows_synced;
    if (m.phase == 0 && delta > 0) {
      // Delta sync: one extra leg for the rows generated while the base
      // copy was on the wire.  Rows generated during *this* leg ride the
      // cutover message itself — the transfer converges in two legs.
      const TransferPlan plan = plan_kv_transfer(
          cfg_.migration, link_faults_, migration_seq_++, delta,
          cfg_.replica.block_tokens, kv_bytes_per_token(cfg_.replica.model));
      m.phase = 1;
      m.rows_synced = prog->rows;
      m.done_at = now + plan.duration;
      migrated_blocks_ += plan.blocks;
      migration_link_retries_ += plan.link_retries;
      migration_time_ += plan.duration;
      ++i;
      continue;
    }
    Replica& dst = replicas_[static_cast<std::size_t>(m.dst)];
    if (!dst.up || dst.suspected || evacuating(dst, now)) {
      // The destination got sick while the KV flew: abort, leave the side
      // running at the source, and let evacuation retry toward a healthy
      // peer.
      abort();
      continue;
    }
    // --- Atomic cutover. ---
    const auto d = src.sched->extract(m.sid);
    GAUDI_ASSERT(d.has_value(), "cutover extract after running_progress");
    Track& t = tracks_.at(m.orig);
    t.sides[m.sid] = m.dst;
    if (!m.for_drain) t.health_migrated = true;
    dst.sched->enqueue_migrated(d->req, d->generated, d->last_token,
                                d->lost_rows, now);
    sink_.on_migrated(m.orig, d->lost_rows);
    src.stats.migrated_out += 1;
    dst.stats.migrated_in += 1;
    ++migrations_completed_;
    migrated_rows_ += d->lost_rows;
    // A migrated-away probe proves nothing about the source: free the
    // half-open slot or the breaker wedges shut (mirrors cancel_side).
    if (cfg_.breaker_enabled && src.breaker == BreakerState::kHalfOpen &&
        src.probe_live && src.probe_id == m.orig) {
      src.probe_live = false;
      src.probe_id = -1;
    }
    if (validate_) {
      // Kill-and-migrate invariant: after cutover no KV block is owned by
      // two replicas — the source released the blocks before the
      // destination admits (and re-reserves) the request.
      src.sched->audit_kv();
      dst.sched->audit_kv();
      GAUDI_ASSERT(!src.sched->holds_kv(m.sid),
                   "source still holds KV after cutover");
    }
    migrations_.erase(migrations_.begin() + static_cast<std::ptrdiff_t>(i));
  }
}

void ClusterRouter::evacuation_round(sim::SimTime now) {
  for (std::int64_t r = 0; r < cfg_.replicas; ++r) {
    Replica& rep = replicas_[static_cast<std::size_t>(r)];
    if (!rep.up || rep.suspected) continue;
    if (!evacuating(rep, now)) continue;
    // Snapshot this replica's sides in ascending side-id order (std::map)
    // so evacuation decisions are deterministic; each entry is re-validated
    // against the live maps because earlier moves mutate them.
    std::vector<std::pair<std::int64_t, std::int64_t>> sides;  // (sid, orig)
    for (const auto& [sid, orig] : side_to_orig_) {
      const Track& t = tracks_.at(orig);
      const auto it = t.sides.find(sid);
      if (it != t.sides.end() && it->second == r) sides.push_back({sid, orig});
    }
    for (const auto& [sid, orig] : sides) {
      const auto sit = side_to_orig_.find(sid);
      if (sit == side_to_orig_.end()) continue;
      Track& t = tracks_.at(orig);
      const auto side_it = t.sides.find(sid);
      if (side_it == t.sides.end() || side_it->second != r) continue;
      if (std::any_of(migrations_.begin(), migrations_.end(),
                      [&](const Migration& m) { return m.sid == sid; })) {
        continue;  // already on the wire
      }
      // Twin rule: if another side of this request lives on a healthy
      // replica, the local copy is redundant — cancel it instead of
      // spending fabric time on it.  Never cancel the side streaming
      // tokens to the client.
      if (t.sides.size() > 1 && !(t.started && t.winner == sid)) {
        bool twin_ok = false;
        for (const auto& [osid, orep] : t.sides) {
          if (osid == sid) continue;
          const Replica& other = replicas_[static_cast<std::size_t>(orep)];
          if (other.up && !other.suspected && !evacuating(other, now)) {
            twin_ok = true;
            break;
          }
        }
        if (twin_ok) {
          cancel_side(sid, r);
          continue;
        }
      }
      const auto prog = rep.sched->running_progress(sid);
      if (prog && prog->rows > 0 && cfg_.migration.enabled) {
        // Damping: degraded-health evacuation moves a request at most once
        // (drains always may) — without this, fleet-wide degradation would
        // ping-pong the same KV across the fabric indefinitely.
        if (!rep.draining && t.health_migrated) continue;
        const std::int64_t dst = pick_replica(now, r);
        if (dst < 0) continue;  // no healthy target yet; retry next round
        start_migration(sid, orig, r, dst, prog->rows, now);
        continue;
      }
      // Queued work (waiting / requeued / zero-row running / stranded)
      // holds no KV worth streaming: re-route it for free — no retry
      // budget consumed, no rows billed.  Running work evacuated without
      // migration (a drain on the pre-migration path) is preempted
      // instead: its KV releases here and the full context re-prefills on
      // a peer — lossless, but the recomputed rows are the price live
      // migration exists to avoid.
      std::int64_t gen = 0;
      sim::SimTime last{};
      if (const auto d = rep.sched->extract(sid)) {
        gen = d->generated;
        last = d->last_token;
        if (d->lost_rows > 0) sink_.on_preempt(orig, d->lost_rows);
      } else {
        const auto qit = std::find_if(
            rep.stranded.begin(), rep.stranded.end(),
            [&](const Routed& q) { return q.req.id == sid; });
        if (qit == rep.stranded.end()) continue;
        gen = qit->generated;
        last = qit->last_token;
        rep.stranded.erase(qit);
      }
      std::int64_t dropped_orig = 0;
      Track* dt = drop_side(sid, &dropped_orig);
      GAUDI_ASSERT(dt != nullptr, "evacuating an unmapped side");
      // The re-routed side re-dispatches under the original id; if this
      // side was the winner, the successor must inherit that role.
      if (dt->started && dt->winner == sid) dt->winner = dropped_orig;
      Routed resume;
      resume.req = dt->req;
      resume.generated = gen;
      resume.last_token = last;
      queue_.push_back({resume, now});
      ++evac_requeues_;
    }
  }
}

void ClusterRouter::process_drain(sim::SimTime now) {
  if (cfg_.drain_replica >= 0 && !drain_fired_ && cfg_.drain_at <= now) {
    drain_fired_ = true;
    replicas_[static_cast<std::size_t>(cfg_.drain_replica)].draining = true;
  }
  for (Replica& rep : replicas_) {
    if (!rep.draining || rep.drain_done) continue;
    if (rep.up && !rep.busy && !rep.sched->has_work() &&
        rep.stranded.empty()) {
      rep.drain_done = true;
      if (validate_) rep.sched->audit_kv();
    }
  }
}

void ClusterRouter::dispatch_round(sim::SimTime now) {
  for (auto it = queue_.begin(); it != queue_.end();) {
    if (it->eligible_at > now) {
      ++it;
      continue;
    }
    const std::int64_t r = pick_replica(now, -1);
    if (r < 0) break;  // nothing admits dispatches; retry at the next event
    place(it->routed, r, now);
    it = queue_.erase(it);
  }
}

ClusterReport ClusterRouter::run(const std::vector<Request>& stream) {
  GAUDI_CHECK(!ran_,
              "ClusterRouter::run is one-shot; construct a fresh router per "
              "stream");
  ran_ = true;

  std::vector<Request> pending(stream);
  std::stable_sort(pending.begin(), pending.end(),
                   [](const Request& a, const Request& b) {
                     return a.arrival != b.arrival ? a.arrival < b.arrival
                                                   : a.id < b.id;
                   });
  for (const Request& q : pending) {
    GAUDI_CHECK(q.id >= 0 && q.id < kHedgeIdBase,
                "request ids must stay below the hedge id base");
    sink_.on_offered(q);
  }

  const std::int64_t n = cfg_.replicas;
  std::size_t arr = 0;
  sim::SimTime now = sim::SimTime::zero();

  while (true) {
    // Everything actionable at `now`, in a fixed order: rejoins, then
    // detections, then arrivals, then iteration completions (by replica
    // index), then hedge deadlines, then dispatch, then new iterations.
    for (std::int64_t r = 0; r < n; ++r) {
      Replica& rep = replicas_[static_cast<std::size_t>(r)];
      if (!rep.up && rep.rejoin_time <= now) {
        // Warm spare rejoins: empty KV pool, heartbeats resume.
        rep.up = true;
        rep.suspected = false;
      }
    }
    for (std::int64_t r = 0; r < n; ++r) {
      Replica& rep = replicas_[static_cast<std::size_t>(r)];
      if (rep.death_pending && rep.detect_time <= now) {
        process_detection(r, now);
      }
    }
    while (arr < pending.size() && pending[arr].arrival <= now) {
      const Request& q = pending[arr];
      Track t;
      t.req = q;
      tracks_.emplace(q.id, t);
      queue_.push_back({Routed{q, 0, sim::SimTime::zero()}, q.arrival});
      ++arr;
    }
    for (std::int64_t r = 0; r < n; ++r) {
      Replica& rep = replicas_[static_cast<std::size_t>(r)];
      if (!rep.busy || rep.busy_until > now) continue;
      rep.busy = false;
      ContinuousBatchScheduler::StepResult result = std::move(rep.pending);
      rep.pending = {};
      if (result.straggled || result.hbm_stalled) {
        // A fault-stretched iteration delays this replica's heartbeats —
        // the router-visible health signal (serve/migration.*).
        rep.health.record(result.end);
      }
      apply_events(r, result.events);
      rep.sched->recycle(std::move(result.events));
      if (result.chip_failed) process_death(r, result.end);
    }
    process_drain(now);
    process_migrations(now);
    evacuation_round(now);
    process_drain(now);
    process_hedges(now);
    dispatch_round(now);
    bool replay = false;
    for (std::int64_t r = 0; r < n; ++r) {
      Replica& rep = replicas_[static_cast<std::size_t>(r)];
      if (!rep.up || rep.busy || !rep.sched->has_work()) continue;
      ContinuousBatchScheduler::StepResult sr = rep.sched->step(now);
      if (!sr.worked) {
        // Only backed-off work was queued, but admission may still have
        // shed or deadline-dropped at `now` — apply those outcomes and
        // replay the at-now phases, since a freed probe slot or finished
        // track can unblock the dispatch round that already ran.
        if (!sr.events.empty()) {
          apply_events(r, sr.events);
          replay = true;
        }
        rep.sched->recycle(std::move(sr.events));
        continue;
      }
      rep.busy = true;
      rep.busy_until = sr.end;
      rep.pending = std::move(sr);
    }
    if (replay) continue;

    if (arr >= pending.size() && tracks_.empty()) break;

    // --- Next event horizon. ---
    bool have = false;
    sim::SimTime next{};
    const auto consider = [&](sim::SimTime t) {
      if (t <= now) return;
      if (!have || t < next) {
        next = t;
        have = true;
      }
    };
    if (arr < pending.size()) consider(pending[arr].arrival);
    for (std::int64_t r = 0; r < n; ++r) {
      Replica& rep = replicas_[static_cast<std::size_t>(r)];
      if (rep.busy) consider(rep.busy_until);
      if (rep.death_pending) consider(rep.detect_time);
      if (!rep.up) consider(rep.rejoin_time);
      if (cfg_.breaker_enabled && rep.breaker == BreakerState::kOpen) {
        consider(rep.open_until);
      }
      if (rep.up && !rep.busy && rep.sched->has_work()) {
        if (const std::optional<sim::SimTime> wake = rep.sched->next_wake()) {
          consider(*wake);
        }
      }
    }
    for (const QueueEntry& q : queue_) consider(q.eligible_at);
    for (const HedgeTimer& h : hedges_) consider(h.fire);
    if (cfg_.drain_replica >= 0 && !drain_fired_) consider(cfg_.drain_at);
    for (const Migration& m : migrations_) consider(m.done_at);
    if (cfg_.migration.enabled) {
      // A degraded replica re-enters rotation when enough health events
      // age out of the window; without this instant on the horizon a fleet
      // that is all-degraded would stall instead of recovering.
      for (const Replica& rep : replicas_) {
        if (!rep.health.degraded(now)) continue;
        if (const auto decay = rep.health.next_decay(now)) consider(*decay);
      }
    }
    if (!have) {
      std::ostringstream dump;
      dump << "cluster stalled with " << tracks_.size()
           << " unresolved requests and no future event";
      dump << "; queue=" << queue_.size() << " now=" << now.ps();
      for (std::size_t r = 0; r < replicas_.size(); ++r) {
        const Replica& rep = replicas_[r];
        dump << " [r" << r << " up=" << rep.up << " susp=" << rep.suspected
             << " busy=" << rep.busy << " dp=" << rep.death_pending
             << " brk=" << static_cast<int>(rep.breaker)
             << " probe=" << rep.probe_live
             << " load=" << rep.sched->load()
             << " work=" << rep.sched->has_work()
             << " stranded=" << rep.stranded.size() << "]";
      }
      for (const auto& [orig, t] : tracks_) {
        dump << " {track " << orig << " attempts=" << t.attempts
             << " started=" << t.started << " hedged=" << t.hedged
             << " winner=" << t.winner << " sides=";
        for (const auto& [sid, sr] : t.sides) dump << sid << "@r" << sr << ",";
        dump << "}";
      }
      throw sim::InternalError(dump.str());
    }
    GAUDI_ASSERT(next > now, "cluster failed to advance time");
    now = next;
  }

  GAUDI_ASSERT(tracks_.empty() && side_to_orig_.empty(),
               "every offered request must end in exactly one typed outcome");

  ClusterReport report;
  report.summary = sink_.summary(now);
  report.requests = sink_.requests();
  report.replicas = n;
  report.policy = cfg_.policy;
  report.faults_enabled = cfg_.fault_profile.any_rate_positive();
  report.hedging_enabled = cfg_.hedge_budget > sim::SimTime::zero();
  report.chip_failures = chip_failures_;
  report.failovers = failovers_;
  report.hedges_launched = hedges_launched_;
  report.hedge_wins = hedge_wins_;
  report.hedge_wasted_tokens = hedge_wasted_;
  report.breaker_opens = breaker_opens_;
  report.deadline_drops = deadline_drops_;
  report.migration_enabled = cfg_.migration.enabled;
  report.drain_enabled = cfg_.drain_replica >= 0;
  report.drain_replica = cfg_.drain_replica;
  report.drain_completed =
      report.drain_enabled &&
      replicas_[static_cast<std::size_t>(cfg_.drain_replica)].drain_done;
  report.migrations_started = migrations_started_;
  report.migrations_completed = migrations_completed_;
  report.migrations_aborted = migrations_aborted_;
  report.migrated_rows = migrated_rows_;
  report.migrated_blocks = migrated_blocks_;
  report.migration_link_retries = migration_link_retries_;
  report.migration_time = migration_time_;
  report.evac_requeues = evac_requeues_;
  report.per_replica.reserve(replicas_.size());
  for (Replica& rep : replicas_) {
    rep.stats.iterations = rep.sched->iterations();
    report.per_replica.push_back(rep.stats);
  }
  return report;
}

std::string ClusterReport::to_report() const {
  std::ostringstream os;
  os << summary.to_report();
  os << "cluster:  " << replicas << " replicas ("
     << load_balance_policy_name(policy) << "), " << failovers
     << " failovers, " << breaker_opens << " breaker opens\n";
  if (hedging_enabled) {
    const double win_rate =
        hedges_launched > 0 ? static_cast<double>(hedge_wins) /
                                  static_cast<double>(hedges_launched)
                            : std::nan("");
    os << "hedges:   " << hedges_launched << " launched, " << hedge_wins
       << " won (" << pct(win_rate) << "), " << hedge_wasted_tokens
       << " rows wasted by losers\n";
  }
  if (faults_enabled) {
    // Rendered only when the injector is enabled so a disabled injector
    // stays byte-identical to a fault-free configuration.
    os << "faults:   " << chip_failures << " chip failures across the fleet\n";
  }
  if (migration_enabled) {
    os << "migrate:  " << migrations_started << " started, "
       << migrations_completed << " cut over, " << migrations_aborted
       << " aborted; " << migrated_rows << " rows kept ("
       << migrated_blocks << " blocks, " << migration_link_retries
       << " link retries, " << sim::to_string(migration_time)
       << " on the wire), " << evac_requeues << " queue evacuations\n";
  }
  if (drain_enabled) {
    os << "drain:    replica " << drain_replica << " "
       << (drain_completed ? "drained cleanly" : "still draining at end");
    if (!migration_enabled) {
      os << ", " << evac_requeues << " queue evacuations";
    }
    os << "\n";
  }
  for (std::size_t r = 0; r < per_replica.size(); ++r) {
    const ReplicaStats& s = per_replica[r];
    const double avail =
        s.dispatched > 0 ? static_cast<double>(s.completed) /
                               static_cast<double>(s.dispatched)
                         : std::nan("");
    os << "replica " << r << ": " << s.dispatched << " dispatched, "
       << s.completed << " completed, " << s.chip_failures
       << " chip failures, " << s.failed_over
       << " failed over, availability " << pct(avail);
    if (migration_enabled || drain_enabled) {
      os << ", " << s.migrated_in << " migrated in, " << s.migrated_out
         << " out";
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace gaudi::serve
