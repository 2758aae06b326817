#include "serve/scheduler.hpp"

#include <algorithm>
#include <limits>
#include <sstream>
#include <utility>

#include "graph/fingerprint.hpp"
#include "graph/timing_memo.hpp"
#include "graph/validate.hpp"
#include "sim/error.hpp"

namespace gaudi::serve {

std::size_t kv_bytes_per_token(const nn::DecodeConfig& cfg) {
  // K and V rows of [heads, head_dim] f32 per layer, one sequence.
  return static_cast<std::size_t>(cfg.n_layers) * 2u *
         static_cast<std::size_t>(cfg.heads) *
         static_cast<std::size_t>(cfg.head_dim) * sizeof(float);
}

namespace {

/// Explicitly disabled injector handed to the pricer's runs: the per-bucket
/// cost tables are clean baselines, so a process-wide GAUDI_FAULTS opt-in
/// must not perturb them — serve-level faults apply at iteration
/// granularity, on top of the clean costs.  (The runtime treats a pointer
/// to a disabled injector as "faults off", overriding the env fallback.)
const sim::FaultInjector kNoFaults{};

/// A cost-table slot no bucket has been priced into yet.
constexpr sim::SimTime kUnpriced = sim::SimTime::from_ps(-1);

/// Victim order of preemption and load shedding: true when `a` goes before
/// `b` — lowest priority first, then latest arrival, then highest id.
bool evict_before(const Request& a, const Request& b) {
  if (a.priority != b.priority) return a.priority < b.priority;
  if (a.arrival != b.arrival) return a.arrival > b.arrival;
  return a.id > b.id;
}

/// run()'s half of the event stream: one scheduler event into its sink.
void record_event(MetricsSink& sink, const ReplicaEvent& e) {
  switch (e.kind) {
    case ReplicaEventKind::kFirstToken: sink.on_first_token(e.id, e.at); break;
    case ReplicaEventKind::kToken:
      sink.on_token(e.id, sim::SimTime::from_ps(e.aux), e.count);
      break;
    case ReplicaEventKind::kComplete: sink.on_complete(e.id, e.at); break;
    case ReplicaEventKind::kReject: sink.on_reject(e.id, e.at); break;
    case ReplicaEventKind::kDrop: sink.on_drop(e.id, e.at); break;
    case ReplicaEventKind::kShed: sink.on_shed(e.id, e.at); break;
    case ReplicaEventKind::kTimeout: sink.on_timeout(e.id, e.at); break;
    case ReplicaEventKind::kPreempt: sink.on_preempt(e.id, e.aux); break;
  }
}

PagedKvConfig kv_config(const ServeConfig& cfg) {
  PagedKvConfig kv;
  kv.block_tokens = cfg.block_tokens;
  kv.bytes_per_token = kv_bytes_per_token(cfg.model);
  const std::size_t block_bytes =
      static_cast<std::size_t>(cfg.block_tokens) * kv.bytes_per_token;
  GAUDI_CHECK(block_bytes > 0, "KV block size must be positive");
  kv.num_blocks = static_cast<std::int64_t>(cfg.kv_budget_bytes / block_bytes);
  GAUDI_CHECK(kv.num_blocks >= 1,
              "KV budget of " + std::to_string(cfg.kv_budget_bytes) +
                  " bytes holds no " + std::to_string(block_bytes) +
                  "-byte block");
  return kv;
}

}  // namespace

ContinuousBatchScheduler::ContinuousBatchScheduler(const graph::Runtime& rt,
                                                   ServeConfig cfg)
    : rt_(rt),
      cfg_(std::move(cfg)),
      timing_only_(cfg_.timing_only.has_value()
                       ? *cfg_.timing_only
                       : graph::timing_only_from_env()),
      validate_(graph::validation_requested_from_env()),
      hbm_(rt_.config().memory),
      kv_(kv_config(cfg_), &hbm_) {
  GAUDI_CHECK(cfg_.max_batch >= 1, "max_batch must be >= 1");
  GAUDI_CHECK(cfg_.prefill_chunk >= 1, "prefill_chunk must be >= 1");
  GAUDI_CHECK(cfg_.ctx_bucket >= 1, "ctx_bucket must be >= 1");
  GAUDI_CHECK(cfg_.retry_max >= 0, "retry_max must be >= 0");
  GAUDI_CHECK(cfg_.retry_backoff >= sim::SimTime::zero() &&
                  cfg_.chip_restart >= sim::SimTime::zero() &&
                  cfg_.watchdog >= sim::SimTime::zero(),
              "fault-tolerance timings must be >= 0");
  GAUDI_CHECK(cfg_.retry_backoff_max > sim::SimTime::zero(),
              "retry_backoff_max must be positive");
  GAUDI_CHECK(cfg_.shed_queue_depth >= 0 && cfg_.shed_min_free_blocks >= 0,
              "overload-shedding thresholds must be >= 0");
}

std::int64_t ContinuousBatchScheduler::ctx_to_bucket(std::int64_t ctx) const {
  const std::int64_t b = cfg_.ctx_bucket;
  const std::int64_t rounded = (ctx + b - 1) / b * b;
  return std::clamp<std::int64_t>(rounded, 1, cfg_.model.max_seq - 1);
}

std::string ContinuousBatchScheduler::price_key(Phase phase,
                                                std::int64_t bucket,
                                                std::int64_t batch) const {
  // The pricer always runs the default schedule policy, so the policy is
  // not part of the key.
  graph::Fingerprint fp;
  fp.u64(graph::chip_fingerprint(rt_.config()));
  fp.i64(cfg_.model.vocab);
  fp.i64(cfg_.model.heads);
  fp.i64(cfg_.model.head_dim);
  fp.i64(cfg_.model.n_layers);
  fp.i64(cfg_.model.ffn_dim);
  fp.i64(cfg_.model.max_seq);
  fp.i64(batch);
  fp.u8(static_cast<std::uint8_t>(phase));
  fp.i64(bucket);
  std::ostringstream os;
  os << "serve-cost:" << std::hex << fp.digest();
  return os.str();
}

sim::SimTime ContinuousBatchScheduler::price(Phase phase,
                                             std::int64_t bucket) {
  // Buckets are multiples of ctx_bucket except the top one, clamped to
  // max_seq - 1, which rounds up to a slot of its own.
  std::vector<sim::SimTime>& table = costs_[static_cast<std::size_t>(phase)];
  const auto slot = static_cast<std::size_t>(
      (bucket + cfg_.ctx_bucket - 1) / cfg_.ctx_bucket);
  if (slot < table.size() && table[slot] != kUnpriced) return table[slot];
  // A decode step runs the whole batch shape; a prefill chunk runs one
  // request at a time.
  nn::DecodeConfig m = cfg_.model;
  m.batch = phase == Phase::kDecode ? cfg_.max_batch : 1;
  graph::TimingMemo& memo = graph::TimingMemo::global();
  const std::string key = timing_only_ ? price_key(phase, bucket, m.batch) : "";
  sim::SimTime cost{};
  if (!timing_only_ || !memo.find_time(key, &cost)) {
    graph::Graph g;
    if (phase == Phase::kDecode) {
      (void)nn::build_gpt_decode_step(g, m, bucket);
    } else {
      (void)nn::build_gpt_prefill(g, m, bucket);
    }
    graph::RunOptions opts;
    opts.mode = tpc::ExecMode::kTiming;
    // Cost tables are pure timing: guard sweeps (e.g. a process-wide
    // GAUDI_GUARD) must not inflate serving costs, and env-level fault
    // injection must not perturb them either.
    opts.guard = sim::NumericsPolicy::kOff;
    opts.faults = &kNoFaults;
    cost = rt_.run(g, {}, opts).makespan;
    if (timing_only_) memo.insert_time(key, cost);
  }
  if (slot >= table.size()) table.resize(slot + 1, kUnpriced);
  table[slot] = cost;
  return cost;
}

void ContinuousBatchScheduler::preempt(std::size_t victim_index) {
  Active a = running_[victim_index];
  kv_.release(a.req.id);
  emit(ReplicaEventKind::kPreempt, a.req.id, sim::SimTime::zero(),
       a.prefilled);
  a.prefilled = 0;
  a.prefill_needed = 0;  // recomputed at re-admission
  requeued_.push_back(a);
  running_.erase(running_.begin() +
                 static_cast<std::ptrdiff_t>(victim_index));
}

bool ContinuousBatchScheduler::make_room(std::int64_t tokens,
                                         std::int64_t self_id) {
  while (!kv_.can_reserve(tokens)) {
    // Victim: the first in evict_before order, never the request asking for
    // room.
    std::size_t victim = running_.size();
    for (std::size_t i = 0; i < running_.size(); ++i) {
      const Request& c = running_[i].req;
      if (c.id == self_id) continue;
      if (victim == running_.size() || evict_before(c, running_[victim].req)) {
        victim = i;
      }
    }
    if (victim == running_.size()) return false;
    preempt(victim);
  }
  return true;
}

void ContinuousBatchScheduler::admit(sim::SimTime now) {
  // A deadline that expired while the request sat preempted or in retry
  // backoff can never contribute goodput: drop it instead of re-reserving
  // KV and recomputing work the front-end already abandoned.
  for (auto it = requeued_.begin(); it != requeued_.end();) {
    if (it->req.deadline > sim::SimTime::zero() &&
        now > it->req.arrival + it->req.deadline) {
      emit(ReplicaEventKind::kDrop, it->req.id, now);
      ++stats_.deadline_drops;
      it = requeued_.erase(it);
    } else {
      ++it;
    }
  }

  while (static_cast<std::int64_t>(running_.size()) < cfg_.max_batch) {
    // Requeued (preempted or retrying) requests re-admit first, in queue
    // order, once their backoff window has passed.
    const auto rq =
        std::find_if(requeued_.begin(), requeued_.end(),
                     [&](const Active& a) { return a.eligible_at <= now; });
    if (rq != requeued_.end()) {
      Active a = *rq;
      const std::int64_t rows = a.kv_tokens();
      if (!kv_.can_reserve(rows)) break;  // head-of-line blocking
      const bool reserved = kv_.reserve(a.req.id, rows);
      GAUDI_ASSERT(reserved, "reserve after can_reserve");
      a.prefill_needed = rows;
      a.prefilled = 0;
      if (a.migrated_rows > 0) {
        // Live-migrated rows arrived over the fabric and skip re-prefill.
        // A request that has not yet emitted its first token keeps one row
        // to prefill so the first-token path still fires here; a fully
        // synced decode-phase request resumes with zero prefill chunks.
        const std::int64_t cap = a.generated >= 1 ? rows : rows - 1;
        a.prefilled = std::clamp<std::int64_t>(a.migrated_rows, 0, cap);
        a.migrated_rows = 0;
      }
      requeued_.erase(rq);
      running_.push_back(a);
      continue;
    }
    if (waiting_.empty()) break;
    const Request r = waiting_.front();
    const std::int64_t max_rows = r.prompt_len + r.output_len - 1;
    const bool valid =
        r.prompt_len >= 1 && r.output_len >= 1 &&
        max_rows <= cfg_.model.max_seq &&
        (max_rows + cfg_.block_tokens - 1) / cfg_.block_tokens <=
            kv_.total_blocks();
    if (!valid) {
      emit(ReplicaEventKind::kReject, r.id, now);
      waiting_.pop_front();
      continue;
    }
    // A deadline that expired while the request queued can never
    // contribute goodput: drop it at admission instead of spending KV
    // blocks and iterations on work the front-end already abandoned.
    if (r.deadline > sim::SimTime::zero() && now > r.arrival + r.deadline) {
      emit(ReplicaEventKind::kDrop, r.id, now);
      ++stats_.deadline_drops;
      waiting_.pop_front();
      continue;
    }
    if (!kv_.can_reserve(r.prompt_len)) break;  // head-of-line blocking
    const bool reserved = kv_.reserve(r.id, r.prompt_len);
    GAUDI_ASSERT(reserved, "reserve after can_reserve");
    Active a;
    a.req = r;
    a.prefill_needed = r.prompt_len;
    running_.push_back(a);
    waiting_.pop_front();
  }
}

void ContinuousBatchScheduler::shed_overload(sim::SimTime now) {
  if (cfg_.shed_queue_depth <= 0 && cfg_.shed_min_free_blocks <= 0) return;
  // Victim choice is preemption's evict_before order.  Only never-admitted
  // arrivals shed — preempted or retrying requests already have compute
  // invested in them.
  const auto shed_one = [&] {
    const auto victim =
        std::min_element(waiting_.begin(), waiting_.end(), evict_before);
    emit(ReplicaEventKind::kShed, victim->id, now);
    waiting_.erase(victim);
  };
  if (cfg_.shed_queue_depth > 0) {
    while (!waiting_.empty() &&
           static_cast<std::int64_t>(waiting_.size() + requeued_.size()) >
               cfg_.shed_queue_depth) {
      shed_one();
    }
  }
  if (cfg_.shed_min_free_blocks > 0 &&
      kv_.free_blocks() < cfg_.shed_min_free_blocks) {
    while (!waiting_.empty()) shed_one();
  }
}

void ContinuousBatchScheduler::on_chip_failure(sim::SimTime now,
                                               MetricsSink& sink) {
  // The batch's in-flight work aborts: every running request loses its
  // paged KV blocks (the replacement chip's HBM starts cold) and either
  // re-queues with capped exponential backoff or — with the retry budget
  // spent — ends in the typed kFailed outcome.  Nothing is lost silently.
  for (Active& a : running_) {
    kv_.release(a.req.id);
    const std::int64_t wasted = computed_rows(a);
    if (a.fault_retries >= cfg_.retry_max) {
      sink.on_fail(a.req.id, now, wasted);
      continue;
    }
    a.fault_retries += 1;
    sink.on_fault_retry(a.req.id, wasted);
    a.prefilled = 0;
    a.prefill_needed = 0;  // recomputed at re-admission
    a.eligible_at = now + sim::backoff_delay(cfg_.retry_backoff,
                                             cfg_.retry_backoff_max,
                                             a.fault_retries);
    requeued_.push_back(a);
  }
  running_.clear();
  GAUDI_ASSERT(kv_.free_blocks() == kv_.total_blocks(),
               "a chip failure must leave the KV pool empty");
}

void ContinuousBatchScheduler::finish_iteration(sim::SimTime now) {
  run_watchdog(now);
  stats_.kv_peak_fragmented_tokens =
      std::max(stats_.kv_peak_fragmented_tokens, kv_.stats().fragmented_tokens);
  if (validate_) kv_.audit();
}

void ContinuousBatchScheduler::run_watchdog(sim::SimTime now) {
  if (cfg_.watchdog <= sim::SimTime::zero()) return;
  // A request's next-token clock runs from arrival until the first token
  // (TTFT) and from the previous token afterwards (ITL); preemption and
  // retry backoff do not pause it — the client experiences the stall either
  // way.  Aborting frees the slot and the KV blocks immediately.
  for (std::size_t i = running_.size(); i-- > 0;) {
    const Active& a = running_[i];
    const sim::SimTime since = a.generated == 0 ? a.req.arrival : a.last_token;
    if (now - since <= cfg_.watchdog) continue;
    kv_.release(a.req.id);
    emit(ReplicaEventKind::kTimeout, a.req.id, now);
    running_.erase(running_.begin() + static_cast<std::ptrdiff_t>(i));
  }
  for (auto it = requeued_.begin(); it != requeued_.end();) {
    const sim::SimTime since =
        it->generated == 0 ? it->req.arrival : it->last_token;
    if (now - since > cfg_.watchdog) {
      emit(ReplicaEventKind::kTimeout, it->req.id, now);
      it = requeued_.erase(it);
    } else {
      ++it;
    }
  }
}

void ContinuousBatchScheduler::enqueue(const Request& r) {
  waiting_.push_back(r);
}

void ContinuousBatchScheduler::enqueue_resume(const Request& r,
                                              std::int64_t generated,
                                              sim::SimTime last_token,
                                              std::int64_t rows_ready,
                                              sim::SimTime now) {
  GAUDI_ASSERT(generated >= 0 && rows_ready >= 0,
               "resumed progress cannot be negative");
  Active a;
  a.req = r;
  a.generated = generated;
  a.last_token = last_token;
  // prefill_needed is recomputed (prompt + generated prefix) at admission,
  // where the migrated rows skip it.
  a.migrated_rows = rows_ready;
  a.eligible_at = now;
  requeued_.push_back(a);
}

std::optional<RequestProgress> ContinuousBatchScheduler::running_progress(
    std::int64_t id) const {
  for (const Active& a : running_) {
    if (a.req.id == id) return progress(a, computed_rows(a));
  }
  return std::nullopt;
}

std::optional<RequestProgress> ContinuousBatchScheduler::extract(
    std::int64_t id) {
  for (std::size_t i = 0; i < running_.size(); ++i) {
    const Active& a = running_[i];
    if (a.req.id != id) continue;
    const RequestProgress out = progress(a, computed_rows(a));
    kv_.release(id);
    running_.erase(running_.begin() + static_cast<std::ptrdiff_t>(i));
    return out;
  }
  // Queued entries hold no KV (preempted requests surrendered theirs at
  // preemption; waiting ones never reserved any), so they carry zero rows.
  for (auto it = requeued_.begin(); it != requeued_.end(); ++it) {
    if (it->req.id != id) continue;
    const RequestProgress out = progress(*it, 0);
    requeued_.erase(it);
    return out;
  }
  for (auto it = waiting_.begin(); it != waiting_.end(); ++it) {
    if (it->id != id) continue;
    const RequestProgress out{*it};
    waiting_.erase(it);
    return out;
  }
  return std::nullopt;
}

bool ContinuousBatchScheduler::has_work() const {
  return !running_.empty() || !requeued_.empty() || !waiting_.empty();
}

std::optional<sim::SimTime> ContinuousBatchScheduler::next_wake() const {
  std::optional<sim::SimTime> wake;
  for (const Active& a : requeued_) {
    if (!wake || a.eligible_at < *wake) wake = a.eligible_at;
  }
  return wake;
}

std::vector<RequestProgress> ContinuousBatchScheduler::drain_all() {
  std::vector<RequestProgress> out;
  out.reserve(running_.size() + requeued_.size() + waiting_.size());
  for (const Active& a : running_) {
    kv_.release(a.req.id);
    out.push_back(progress(a, computed_rows(a)));
  }
  running_.clear();
  // Requeued/waiting requests hold no KV here: preempted entries already
  // surrendered theirs (and were billed), waiting ones never reserved any.
  for (const Active& a : requeued_) out.push_back(progress(a, 0));
  requeued_.clear();
  for (const Request& r : waiting_) out.push_back({r});
  waiting_.clear();
  GAUDI_ASSERT(kv_.free_blocks() == kv_.total_blocks(),
               "a drained replica must leave its KV pool empty");
  return out;
}

std::int64_t ContinuousBatchScheduler::load() const {
  return static_cast<std::int64_t>(running_.size() + requeued_.size() +
                                   waiting_.size());
}

std::vector<std::int64_t> ContinuousBatchScheduler::ids() const {
  std::vector<std::int64_t> out;
  out.reserve(static_cast<std::size_t>(load()));
  for (const Active& a : running_) out.push_back(a.req.id);
  for (const Active& a : requeued_) out.push_back(a.req.id);
  for (const Request& r : waiting_) out.push_back(r.id);
  std::sort(out.begin(), out.end());
  return out;
}

std::int64_t ContinuousBatchScheduler::free_kv_blocks() const {
  return kv_.free_blocks();
}

void ContinuousBatchScheduler::stretch(sim::SimTime& now,
                                       sim::SimTime until) {
  // The next iteration starts at `now`.  It repeats the last decode step
  // exactly when admission and overload control have nothing to do, nothing
  // waits out a backoff, and no fault can fire.
  if (running_.empty() || !requeued_.empty() || cfg_.faults.enabled()) return;
  if (!waiting_.empty() &&
      (static_cast<std::int64_t>(running_.size()) < cfg_.max_batch ||
       cfg_.shed_queue_depth > 0 || cfg_.shed_min_free_blocks > 0)) {
    return;
  }
  // Every running request must have its last token at `now`: then it
  // decodes (a request in prefill emitted none), each repeat appends one
  // row to it and emits one token T after the last, and the watchdog, which
  // runs after emission, finds nothing pending.  k is bounded by the first
  // repeat that would allocate a KV block or finish a request.
  const std::int64_t block = cfg_.block_tokens;
  // Bounded so that a token event's count, folded or not, fits its int32.
  std::int64_t k = std::numeric_limits<std::int32_t>::max() - 1;
  std::int64_t max_ctx = 1;
  for (const Active& a : running_) {
    if (a.last_token != now) return;
    const std::int64_t rows = a.kv_tokens();
    k = std::min({k, (rows + block - 1) / block * block - rows,
                  a.req.output_len - 1 - a.generated});
    max_ctx = std::max(max_ctx, rows);
  }
  // The j-th repeat attends over max_ctx + j - 1 rows; it keeps the first
  // repeat's bucket up to the bucket's edge (the top bucket has none).
  const std::int64_t bucket = ctx_to_bucket(max_ctx);
  if (bucket < cfg_.model.max_seq - 1) k = std::min(k, bucket - max_ctx + 1);
  if (k < 1) return;
  // The next iteration is a repeat, so pricing it here prices nothing a
  // single step would not.
  const sim::SimTime cost = price(Phase::kDecode, bucket);
  GAUDI_ASSERT(cost > sim::SimTime::zero(), "a decode step costs no time");
  // Repeats start at now, now + T, ...: ceil((until - now) / T) of them
  // start before `until`.
  k = std::min(k, ((until - now).ps() - 1) / cost.ps() + 1);

  // Fragmentation only falls while no block is allocated, so the peak
  // recorded at the last iteration's end stands.
  const std::int64_t free_blocks = kv_.free_blocks();
  now += cost * k;
  // A request whose token at the iteration just run came T after the one
  // before extends that event; the others get one of their own.
  for (Active& a : running_) {
    const bool grown = kv_.grow(a.req.id, a.kv_tokens() + k);
    GAUDI_ASSERT(grown, "a stretch grows inside held blocks");
    a.generated += k;
    a.last_token = now;
    const auto last = std::find_if(
        events_.begin(), events_.end(), [&](const ReplicaEvent& e) {
          return e.kind == ReplicaEventKind::kToken && e.id == a.req.id;
        });
    if (last != events_.end() && last->aux == cost.ps()) {
      last->count += static_cast<std::int32_t>(k);
      last->at = now;
    } else {
      emit(ReplicaEventKind::kToken, a.req.id, now, cost.ps(),
           static_cast<std::int32_t>(k));
    }
  }
  GAUDI_ASSERT(kv_.free_blocks() == free_blocks,
               "a stretch allocated a KV block");
  stats_.iterations += k;
  stats_.decode_steps += k;
  if (validate_) kv_.audit();
}

ContinuousBatchScheduler::StepResult ContinuousBatchScheduler::step(
    sim::SimTime now, sim::SimTime until) {
  StepResult out;
  events_.clear();

  // --- Admission, then overload control over the leftover backlog. ---
  admit(now);
  shed_overload(now);

  if (running_.empty()) {
    GAUDI_ASSERT(waiting_.empty(),
                 "waiting arrival failed to admit into an empty machine");
    out.end = now;
    out.events = std::move(events_);
    return out;
  }

  out.worked = true;
  ++stats_.iterations;

  // --- KV growth for this iteration's decode appends (may preempt). ---
  // Snapshot decode-eligible ids; growth walks them in admission order so
  // victim choices (and therefore metrics) are deterministic.
  decode_set_.clear();
  for (const Active& a : running_) {
    if (!a.in_prefill() && !a.done() && a.generated >= 1) {
      decode_set_.push_back({a.req.id, a.kv_tokens()});
    }
  }
  survivors_.clear();
  for (const DecodeSlot& slot : decode_set_) {
    const auto it = std::find_if(
        running_.begin(), running_.end(),
        [&](const Active& a) { return a.req.id == slot.id; });
    if (it == running_.end()) continue;  // preempted by an earlier grower
    const std::int64_t rows_after = it->kv_tokens() + 1;
    if (!kv_.grow(slot.id, rows_after)) {
      const std::int64_t short_tokens =
          rows_after - kv_.reserved_tokens(slot.id);
      if (!make_room(short_tokens, slot.id)) {
        // Alone and still does not fit — admission validated against this,
        // so treat it as an internal inconsistency rather than losing the
        // request silently.
        throw sim::InternalError(
            "KV pool cannot hold a single admitted request");
      }
      const bool grown = kv_.grow(slot.id, rows_after);
      GAUDI_ASSERT(grown, "grow after make_room");
    }
    survivors_.push_back(slot);
  }
  // A later grower may preempt an earlier survivor within the same
  // iteration; the victim's appended row went back with its blocks, so it
  // must not be billed or emit a token this round.
  survivors_.erase(
      std::remove_if(survivors_.begin(), survivors_.end(),
                     [&](const DecodeSlot& slot) {
                       return std::none_of(running_.begin(), running_.end(),
                                           [&](const Active& a) {
                                             return a.req.id == slot.id;
                                           });
                     }),
      survivors_.end());

  // --- Select the prefill chunk (after preemption settled the set). ---
  sim::SimTime iter_time = sim::SimTime::zero();
  std::int64_t prefill_id = -1;
  for (Active& a : running_) {
    if (!a.in_prefill()) continue;
    const std::int64_t chunk =
        std::min(cfg_.prefill_chunk, a.prefill_needed - a.prefilled);
    iter_time += price(Phase::kPrefill, ctx_to_bucket(chunk));
    a.prefilled += chunk;
    prefill_id = a.req.id;
    ++stats_.prefill_chunks;
    break;  // one prefill request per iteration
  }

  if (!survivors_.empty()) {
    std::int64_t max_ctx = 1;
    for (const DecodeSlot& slot : survivors_) {
      max_ctx = std::max(max_ctx, slot.ctx_in);
    }
    iter_time += price(Phase::kDecode, ctx_to_bucket(max_ctx));
    ++stats_.decode_steps;
  }

  GAUDI_ASSERT(iter_time > sim::SimTime::zero(),
               "scheduler iteration performed no work");

  // --- Fault injection: one oracle query per kind per iteration. ---
  // The site is a pure function of the iteration index, so the same
  // (stream, config, fault seed) replays the same fault schedule even
  // across timing-only and functional builds of the run.
  bool chip_died = false;
  if (cfg_.faults.enabled()) {
    const std::uint64_t site = sim::FaultInjector::site(
        static_cast<std::uint64_t>(stats_.iterations - 1), 0);
    const sim::FaultProfile& prof = cfg_.faults.profile();
    if (cfg_.faults.fires(sim::FaultKind::kTpcStraggler, site)) {
      ++stats_.tpc_stragglers;
      out.straggled = true;
      iter_time = iter_time.stretched(prof.straggler_slowdown);
    }
    if (cfg_.faults.fires(sim::FaultKind::kHbmPressure, site)) {
      ++stats_.hbm_stalls;
      out.hbm_stalled = true;
      iter_time += prof.hbm_pressure_stall;
    }
    chip_died = cfg_.faults.fires(sim::FaultKind::kChipFailure, site);
  }
  now += iter_time;

  if (chip_died) {
    // The chip died mid-iteration: the step's results never materialize,
    // so no tokens emit this round.  The driver recovers — run() restarts
    // the chip and retries the batch, the router drains this replica and
    // fails its work over.
    ++stats_.chip_failures;
    out.chip_failed = true;
  } else {
    // --- Token emission & completion. ---
    for (const DecodeSlot& slot : survivors_) {
      const auto it = std::find_if(
          running_.begin(), running_.end(),
          [&](const Active& a) { return a.req.id == slot.id; });
      GAUDI_ASSERT(it != running_.end(), "surviving decode request vanished");
      it->generated += 1;
      emit(ReplicaEventKind::kToken, slot.id, now,
           (now - it->last_token).ps());
      it->last_token = now;
    }
    if (prefill_id >= 0) {
      const auto it = std::find_if(
          running_.begin(), running_.end(),
          [&](const Active& a) { return a.req.id == prefill_id; });
      if (it != running_.end() && !it->in_prefill() && it->generated == 0) {
        // Prefill just completed: the prompt's last logits yield the first
        // output token with no separate decode step.
        it->generated = 1;
        it->last_token = now;
        emit(ReplicaEventKind::kFirstToken, prefill_id, now);
      }
    }
    for (std::size_t i = running_.size(); i-- > 0;) {
      if (!running_[i].done()) continue;
      kv_.release(running_[i].req.id);
      emit(ReplicaEventKind::kComplete, running_[i].req.id, now);
      running_.erase(running_.begin() + static_cast<std::ptrdiff_t>(i));
    }
    finish_iteration(now);
    if (until > now) stretch(now, until);
  }

  out.end = now;
  out.events = std::move(events_);
  return out;
}

void ContinuousBatchScheduler::recycle(std::vector<ReplicaEvent>&& events) {
  events_ = std::move(events);
  events_.clear();
}

ServeReport ContinuousBatchScheduler::run(const std::vector<Request>& stream) {
  GAUDI_CHECK(stats_.iterations == 0 && !has_work(),
              "ContinuousBatchScheduler::run is one-shot; construct a fresh "
              "scheduler per stream");

  std::vector<Request> pending(stream);
  std::stable_sort(pending.begin(), pending.end(),
                   [](const Request& a, const Request& b) {
                     return a.arrival != b.arrival ? a.arrival < b.arrival
                                                   : a.id < b.id;
                   });
  MetricsSink sink;
  for (const Request& r : pending) sink.on_offered(r);
  const auto record = [&sink](const std::vector<ReplicaEvent>& events) {
    for (const ReplicaEvent& e : events) record_event(sink, e);
  };

  std::size_t next = 0;
  sim::SimTime now = sim::SimTime::zero();

  while (true) {
    // --- Arrivals ripen into the waiting queue. ---
    while (next < pending.size() && pending[next].arrival <= now) {
      enqueue(pending[next]);
      ++next;
    }

    // Nothing arrives before the next pending arrival, so step() may run
    // every exact repeat that starts before it in one stretch.
    StepResult sr = step(now, next < pending.size() ? pending[next].arrival
                                                    : sim::SimTime::max());
    record(sr.events);
    recycle(std::move(sr.events));
    if (sr.chip_failed) {
      // The replacement chip serves after the restart; every running
      // request retries or fails (see on_chip_failure), then the iteration
      // ends as a clean one would.
      now = sr.end + cfg_.chip_restart;
      on_chip_failure(now, sink);
      finish_iteration(now);
      record(events_);
      continue;
    }
    if (!sr.worked) {
      // Idle: jump to the next actionable instant — an arrival or a retry
      // backoff window opening.
      bool have = false;
      sim::SimTime next_event{};
      if (next < pending.size()) {
        next_event = pending[next].arrival;
        have = true;
      }
      if (const std::optional<sim::SimTime> wake = next_wake()) {
        if (!have || *wake < next_event) next_event = *wake;
        have = true;
      }
      if (!have) break;  // drained
      GAUDI_ASSERT(next_event > now, "idle scheduler failed to advance time");
      now = next_event;
      continue;
    }
    now = sr.end;
  }

  ServeReport report = stats_;
  report.summary = sink.summary(now);
  report.requests = sink.requests();
  report.faults_enabled = cfg_.faults.enabled();
  const std::vector<sim::SimTime>& decode =
      costs_[static_cast<std::size_t>(Phase::kDecode)];
  report.compiled_decode_steps = static_cast<std::size_t>(
      std::count_if(decode.begin(), decode.end(),
                    [](sim::SimTime c) { return c != kUnpriced; }));
  report.kv_total_blocks = kv_.total_blocks();
  report.kv_peak_blocks = kv_.peak_used_blocks();
  return report;
}

std::string ServeReport::to_report() const {
  std::ostringstream os;
  os << summary.to_report();
  // Nothing is evicted; the fixed "0 evicted" keeps the line's bytes, which
  // reports and CI lanes compare across builds.
  os << "schedule: " << iterations << " iterations (" << decode_steps
     << " decode steps, " << prefill_chunks << " prefill chunks), "
     << compiled_decode_steps
     << " compiled step graphs resident, 0 evicted\n";
  os << "kv pool:  " << kv_peak_blocks << " of " << kv_total_blocks
     << " blocks at peak, " << kv_peak_fragmented_tokens
     << " token slots fragmented at peak\n";
  if (faults_enabled) {
    // Rendered only when the injector is enabled so a disabled injector
    // stays byte-identical to a fault-free configuration.
    os << "faults:   " << chip_failures << " chip failures, " << hbm_stalls
       << " hbm stalls, " << tpc_stragglers << " tpc stragglers injected\n";
  }
  return os.str();
}

}  // namespace gaudi::serve
