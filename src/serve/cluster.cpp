#include "serve/cluster.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <sstream>

#include "graph/validate.hpp"
#include "sim/error.hpp"
#include "sim/rng.hpp"

namespace gaudi::serve {

namespace {

/// Side ids of hedged duplicates live above this base so they can never
/// collide with stream request ids (validated at run()).
constexpr std::int64_t kHedgeIdBase = std::int64_t{1} << 40;

/// The request a side copies: a hedge id sits kHedgeIdBase above it.
std::int64_t request_of(std::int64_t sid) {
  return sid >= kHedgeIdBase ? sid - kHedgeIdBase : sid;
}

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
    rep.probe_id = -1;
  }
  switch (rep.breaker) {
    case BreakerState::kClosed: return true;
    case BreakerState::kOpen: return false;
    case BreakerState::kHalfOpen: return rep.probe_id < 0;
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
    rep.probe_id = -1;
    rep.stats.breaker_opens += 1;
    ++report_.breaker_opens;
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
      } else if (rep.probe_id >= 0) {
        rep.breaker = BreakerState::kClosed;
        rep.outcomes.clear();
        rep.probe_id = -1;
      }
      return;
    }
    case BreakerState::kOpen:
      return;  // outcomes of pre-open residue carry no new information
  }
}

void ClusterRouter::release_probe(Replica& rep, std::int64_t orig) {
  // Only a half-open breaker ever holds a probe id.
  if (rep.probe_id == orig) rep.probe_id = -1;
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

void ClusterRouter::place(const RequestProgress& copy, std::int64_t r,
                          sim::SimTime now) {
  Replica& rep = replicas_[static_cast<std::size_t>(r)];
  const std::int64_t sid = copy.req.id;
  const std::int64_t orig = request_of(sid);
  Track& t = tracks_.at(orig);
  // A second live copy under one id would double-bill the request (and
  // trip the KV allocator on a shared replica): fail where it is made.
  const bool fresh = t.sides.emplace(sid, r).second;
  GAUDI_ASSERT(fresh,
               "request copy " + std::to_string(sid) + " is already live");
  rep.stats.dispatched += 1;
  if (cfg_.breaker_enabled && rep.breaker == BreakerState::kHalfOpen &&
      rep.probe_id < 0) {
    rep.probe_id = orig;
  }
  if (!rep.up) {
    // The chip is dead and the router does not know yet: the request is
    // lost on the wire until the suspicion timeout fails it over.
    rep.stranded.push_back({copy.req, copy.generated, copy.last_token});
  } else if (copy.generated >= 1) {
    rep.sched->enqueue_resume(copy.req, copy.generated, copy.last_token, 0,
                              now);
  } else {
    rep.sched->enqueue(copy.req);
  }
  if (sid == orig) {
    t.dispatch_time = now;
    if (cfg_.hedge_budget > sim::SimTime::zero() && !t.hedged && !t.started &&
        copy.generated == 0) {
      hedges_.push_back({now + cfg_.hedge_budget, orig, now});
    }
  }
}

ClusterRouter::Track* ClusterRouter::track_of(std::int64_t sid) {
  const auto it = tracks_.find(request_of(sid));
  if (it == tracks_.end() || !it->second.sides.contains(sid)) return nullptr;
  return &it->second;
}

ClusterRouter::Track* ClusterRouter::drop_side(std::int64_t sid) {
  Track* t = track_of(sid);
  if (t != nullptr) t->sides.erase(sid);
  return t;
}

void ClusterRouter::cancel_side(std::int64_t sid, std::int64_t r) {
  if (drop_side(sid) == nullptr) return;
  Replica& rep = replicas_[static_cast<std::size_t>(r)];
  const auto d = rep.sched->extract(sid);
  if (!d) {
    // Not in the machine: the side strands on a dead replica's wire.
    std::erase_if(rep.stranded, [&](const RequestProgress& q) {
      return q.req.id == sid;
    });
  } else if (d->rows > 0) {
    sink_.on_wasted(d->rows);
    report_.hedge_wasted_tokens += d->rows;
  }
  release_probe(rep, request_of(sid));
}

void ClusterRouter::finish_track(std::int64_t orig) {
  const bool known = tracks_.erase(orig) == 1;
  GAUDI_ASSERT(known, "finishing an unknown request");
  for (Replica& rep : replicas_) release_probe(rep, orig);
}

void ClusterRouter::process_death(std::int64_t r, sim::SimTime now) {
  Replica& rep = replicas_[static_cast<std::size_t>(r)];
  rep.up = false;
  std::vector<RequestProgress> drained = rep.sched->drain_all();
  rep.dead_work.insert(rep.dead_work.end(),
                       std::make_move_iterator(drained.begin()),
                       std::make_move_iterator(drained.end()));
  rep.rejoin_time = now + cfg_.replica.chip_restart;
  // Detection: suspicion timeout, or the restarted chip's first heartbeat
  // announcing a new incarnation — whichever heartbeat tick comes first.
  // A chip that rejoins and dies again before that tick keeps it: the tick
  // finds the chip down and fails over the work of both deaths.
  if (!rep.death_pending) {
    rep.death_pending = true;
    rep.detect_time = heartbeat_ceil(
        now + std::min(cfg_.suspicion_timeout, cfg_.replica.chip_restart));
  }
  ++report_.chip_failures;
  rep.stats.chip_failures += 1;
  rep.stats.down_time += cfg_.replica.chip_restart;
  // A migration interrupted by the chip loss aborts on either end.  A dead
  // source drained the side into dead_work, so the existing re-prefill
  // failover re-queues it — no request lost, no tokens double-billed; a
  // dead destination leaves the side running at the source, and evacuation
  // retries toward a survivor.
  report_.migrations_aborted += static_cast<std::int64_t>(
      std::erase_if(migrations_, [&](const Migration& m) {
        return m.src == r || m.dst == r;
      }));
}

void ClusterRouter::process_detection(std::int64_t r, sim::SimTime now) {
  Replica& rep = replicas_[static_cast<std::size_t>(r)];
  rep.death_pending = false;
  if (!rep.up) rep.suspected = true;

  std::vector<RequestProgress> lost = std::move(rep.dead_work);
  lost.insert(lost.end(), rep.stranded.begin(), rep.stranded.end());
  rep.dead_work.clear();
  rep.stranded.clear();

  for (const RequestProgress& side : lost) {
    Track* t = drop_side(side.req.id);
    if (t == nullptr) continue;  // cancelled before the chip died
    const std::int64_t orig = t->req.id;
    breaker_record(r, false, now);
    rep.stats.failed_over += 1;
    const bool is_loser = t->started && side.req.id != t->winner;
    if (is_loser || !t->sides.empty()) {
      // A twin survives on another replica (a cancelled-too-late hedge
      // loser, or an unstarted hedge pair losing one side): the surviving
      // side carries the request, only the computed rows are lost.
      if (side.rows > 0) {
        sink_.on_wasted(side.rows);
        report_.hedge_wasted_tokens += side.rows;
      }
      continue;
    }
    // Last live side lost: fail over with a full re-prefill, consuming one
    // unit of the retry budget — or end kFailed when it is spent.
    t->attempts += 1;
    if (t->attempts > cfg_.replica.retry_max) {
      sink_.on_fail(orig, now, side.rows);
      finish_track(orig);
      continue;
    }
    sink_.on_fault_retry(orig, side.rows);
    // The re-dispatched side (id = orig) carries the request from here on:
    // its token events must count, and a later chip loss must read it as
    // the last live side — not as a dead hedge winner's leftover twin.
    if (t->started) t->winner = orig;
    ++report_.failovers;
    queue_.push_back(
        {{t->req, side.generated, side.last_token},
         now + sim::backoff_delay(cfg_.replica.retry_backoff,
                                  cfg_.replica.retry_backoff_max,
                                  t->attempts)});
  }
}

void ClusterRouter::apply_events(std::int64_t r,
                                 const std::vector<ReplicaEvent>& events) {
  Replica& rep = replicas_[static_cast<std::size_t>(r)];
  for (const ReplicaEvent& e : events) {
    Track* live = track_of(e.id);
    if (live == nullptr) continue;  // stale side (cancelled)
    Track& t = *live;
    const std::int64_t orig = t.req.id;
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
        if (e.id != orig) ++report_.hedge_wins;
        std::vector<std::pair<std::int64_t, std::int64_t>> losers;
        for (const auto& [sid, sr] : t.sides) {
          if (sid != e.id) losers.push_back({sid, sr});
        }
        for (const auto& [sid, sr] : losers) cancel_side(sid, sr);
        break;
      }
      case ReplicaEventKind::kToken:
        if (t.winner == e.id) {
          sink_.on_token(orig, sim::SimTime::from_ps(e.aux), e.count);
        }
        break;
      case ReplicaEventKind::kComplete: {
        sink_.on_complete(orig, e.at);
        rep.stats.completed += 1;
        // Pre-open residue completing while another request holds the
        // half-open probe is healthy, but it is not the probe.
        if (rep.probe_id < 0 || rep.probe_id == orig) {
          breaker_record(r, true, e.at);
        }
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
        t.sides.erase(e.id);
        if (e.kind == ReplicaEventKind::kTimeout) {
          breaker_record(r, false, e.at);
        }
        if (!t.sides.empty()) break;  // the twin carries the request on
        switch (e.kind) {
          case ReplicaEventKind::kTimeout:
            sink_.on_timeout(orig, e.at);
            break;
          case ReplicaEventKind::kDrop:
            sink_.on_drop(orig, e.at);
            ++report_.deadline_drops;
            break;
          case ReplicaEventKind::kShed:
            sink_.on_shed(orig, e.at);
            break;
          default:
            sink_.on_reject(orig, e.at);
            break;
        }
        finish_track(orig);
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
    if (std::any_of(migrations_.begin(), migrations_.end(),
                    [&](const Migration& m) {
                      return request_of(m.sid) == timer.orig;
                    })) {
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
    RequestProgress copy{t.req};
    copy.req.id += kHedgeIdBase;
    ++report_.hedges_launched;
    place(copy, r, now);
  }
}

sim::SimTime ClusterRouter::send_leg(std::int64_t rows) {
  const TransferPlan plan = plan_kv_transfer(
      cfg_.migration, link_faults_, migration_seq_++, rows,
      cfg_.replica.block_tokens, kv_bytes_per_token(cfg_.replica.model));
  report_.migrated_blocks += plan.blocks;
  report_.migration_link_retries += plan.link_retries;
  report_.migration_time += plan.duration;
  return plan.duration;
}

void ClusterRouter::process_migrations(sim::SimTime now) {
  for (std::size_t i = 0; i < migrations_.size();) {
    Migration& m = migrations_[i];
    const auto abort = [&] {
      ++report_.migrations_aborted;
      migrations_.erase(migrations_.begin() +
                        static_cast<std::ptrdiff_t>(i));
    };
    // Stale: the side completed, was cancelled, or was failed over (it left
    // its track or moved replicas).  The re-prefill failover path already
    // owns the request; nothing to cut over.
    Track* t = track_of(m.sid);
    if (t == nullptr || t->sides.at(m.sid) != m.src) {
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
    if (src.pending) {
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
      m.phase = 1;
      m.rows_synced = prog->rows;
      m.done_at = now + send_leg(delta);
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
    t->sides[m.sid] = m.dst;
    if (!m.for_drain) t->health_migrated = true;
    dst.sched->enqueue_resume(d->req, d->generated, d->last_token, d->rows,
                              now);
    sink_.on_migrated(t->req.id, d->rows);
    src.stats.migrated_out += 1;
    dst.stats.migrated_in += 1;
    ++report_.migrations_completed;
    report_.migrated_rows += d->rows;
    release_probe(src, t->req.id);
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
    // Only between iterations of a live replica does its scheduler hold
    // exactly the sides mapped to it (no stranded or dead work, no events
    // still in flight), so its ids are this replica's sides.
    if (!rep.up || rep.death_pending || rep.pending) continue;
    if (!evacuating(rep, now)) continue;
    // Snapshot this replica's sides in ascending side-id order so
    // evacuation decisions are deterministic; each entry is re-validated
    // against the live tracks because earlier moves mutate them.
    const std::vector<std::int64_t> sides = rep.sched->ids();
    if (validate_) {
      std::vector<std::int64_t> mapped;
      for (const auto& [orig, t] : tracks_) {
        for (const auto& [sid, sr] : t.sides) {
          if (sr == r) mapped.push_back(sid);
        }
      }
      std::sort(mapped.begin(), mapped.end());
      GAUDI_ASSERT(mapped == sides, "replica " + std::to_string(r) +
                                        " holds other sides than the "
                                        "tracks map to it");
    }
    for (const std::int64_t sid : sides) {
      Track* live = track_of(sid);
      if (live == nullptr || live->sides.at(sid) != r) continue;
      Track& t = *live;
      const std::int64_t orig = t.req.id;
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
      const bool migrate = prog && prog->rows > 0 && cfg_.migration.enabled;
      // Damping: degraded-health evacuation moves a request at most once
      // (drains always may) — without this, fleet-wide degradation would
      // ping-pong the same KV across the fabric indefinitely.
      if (migrate && !rep.draining && t.health_migrated) continue;
      const std::int64_t dst = pick_replica(now, r);
      if (dst < 0) continue;  // no healthy target yet: it keeps running here
      if (migrate) {
        migrations_.push_back({.sid = sid,
                               .src = r,
                               .dst = dst,
                               .for_drain = rep.draining,
                               .done_at = now + send_leg(prog->rows),
                               .rows_synced = prog->rows});
        ++report_.migrations_started;
        continue;
      }
      // Work holding no KV worth streaming (waiting, requeued, or running
      // with zero rows) re-routes for free — no retry budget consumed, no
      // rows billed.  Running work evacuated without migration (a drain on
      // the pre-migration path) is preempted instead: its KV releases here
      // and the full context re-prefills on a peer — lossless, but the
      // recomputed rows are the price live migration exists to avoid.
      const std::optional<RequestProgress> copy = rep.sched->extract(sid);
      GAUDI_ASSERT(copy.has_value(),
                   "a side mapped here is not scheduled here");
      if (copy->rows > 0) sink_.on_preempt(orig, copy->rows);
      // The copy keeps its side id wherever it goes, and with it any winner
      // role.
      t.sides.erase(sid);
      place(*copy, dst, now);
      ++report_.evac_requeues;
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
    if (rep.up && !rep.pending && !rep.sched->has_work() &&
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
    place(it->copy, r, now);
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
      queue_.push_back({{q}, q.arrival});
      ++arr;
    }
    for (std::int64_t r = 0; r < n; ++r) {
      Replica& rep = replicas_[static_cast<std::size_t>(r)];
      if (!rep.pending || rep.pending->end > now) continue;
      ContinuousBatchScheduler::StepResult result = std::move(*rep.pending);
      rep.pending.reset();
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
      if (!rep.up || rep.pending || !rep.sched->has_work()) continue;
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
      if (rep.pending) consider(rep.pending->end);
      if (rep.death_pending) consider(rep.detect_time);
      if (!rep.up) consider(rep.rejoin_time);
      if (cfg_.breaker_enabled && rep.breaker == BreakerState::kOpen) {
        consider(rep.open_until);
      }
      if (rep.up && !rep.pending && rep.sched->has_work()) {
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
             << " busy=" << rep.pending.has_value()
             << " dp=" << rep.death_pending
             << " brk=" << static_cast<int>(rep.breaker)
             << " probe=" << rep.probe_id
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

  GAUDI_ASSERT(tracks_.empty(),
               "every offered request must end in exactly one typed outcome");

  report_.summary = sink_.summary(now);
  report_.requests = sink_.requests();
  report_.replicas = n;
  report_.policy = cfg_.policy;
  report_.faults_enabled = cfg_.fault_profile.any_rate_positive();
  report_.hedging_enabled = cfg_.hedge_budget > sim::SimTime::zero();
  report_.migration_enabled = cfg_.migration.enabled;
  report_.drain_enabled = cfg_.drain_replica >= 0;
  report_.drain_replica = cfg_.drain_replica;
  report_.drain_completed =
      report_.drain_enabled &&
      replicas_[static_cast<std::size_t>(cfg_.drain_replica)].drain_done;
  report_.per_replica.reserve(replicas_.size());
  for (Replica& rep : replicas_) {
    rep.stats.iterations = rep.sched->iterations();
    report_.per_replica.push_back(rep.stats);
  }
  return std::move(report_);
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
