#include "sim/engine.hpp"

#include <algorithm>
#include <stdexcept>

namespace wfd::sim {

Engine::Engine(EngineConfig config)
    : config_(config),
      rng_(config.seed),
      trace_(config.trace_capacity, config.trace_retain_kinds) {
  if (config.metrics != nullptr) {
    m_steps_ = config.metrics->counter("sim.steps");
    m_sent_ = config.metrics->counter("sim.sent");
    m_delivered_ = config.metrics->counter("sim.delivered");
    m_dropped_ = config.metrics->counter("sim.dropped");
    m_crashes_ = config.metrics->counter("sim.crashes");
    m_lost_ = config.metrics->counter("sim.lost");
    m_duplicated_ = config.metrics->counter("sim.duplicated");
    m_retransmitted_ = config.metrics->counter("sim.retransmitted");
    metrics_ = std::make_unique<obs::Scope>(*config.metrics);
    trace_.bind_metrics(config.metrics);
  }
}

Engine::~Engine() { flush_metrics(); }

void Engine::flush_metrics() {
  if (!metrics_) return;
  metrics_->add(m_steps_, stats_.steps - flushed_.steps);
  metrics_->add(m_sent_, stats_.messages_sent - flushed_.messages_sent);
  metrics_->add(m_delivered_,
                stats_.messages_delivered - flushed_.messages_delivered);
  metrics_->add(m_dropped_,
                stats_.messages_dropped - flushed_.messages_dropped);
  metrics_->add(m_crashes_, stats_.crashes - flushed_.crashes);
  metrics_->add(m_lost_, stats_.messages_lost - flushed_.messages_lost);
  metrics_->add(m_duplicated_,
                stats_.messages_duplicated - flushed_.messages_duplicated);
  metrics_->add(m_retransmitted_, stats_.messages_retransmitted -
                                      flushed_.messages_retransmitted);
  flushed_ = stats_;
}

ProcessId Engine::add_process(std::unique_ptr<Process> process) {
  if (initialized_) throw std::logic_error("add_process after init");
  const ProcessId pid = static_cast<ProcessId>(processes_.size());
  process->id_ = pid;
  processes_.push_back(std::move(process));
  crashed_.push_back(false);
  crash_at_.push_back(kNever);
  return pid;
}

void Engine::set_delay_model(std::unique_ptr<DelayModel> model) {
  delay_ = std::move(model);
}

void Engine::set_scheduler(std::unique_ptr<Scheduler> scheduler) {
  scheduler_ = std::move(scheduler);
}

void Engine::set_network(NetConfig net) {
  // A disabled config leaves net_ null: send_from stays on the adversary-
  // free path and the run is bit-identical to an engine without this
  // feature.
  if (!net.enabled()) {
    net_.reset();
    return;
  }
  net_ = std::make_unique<NetState>(net, config_.seed);
}

bool Engine::net_cut(ProcessId src, ProcessId dst, Time at) const {
  for (const PartitionWindow& window : net_->config.partitions) {
    if (window.cuts(src, dst, at)) return true;
  }
  return false;
}

bool Engine::net_drops(ProcessId src, ProcessId dst) {
  // Partition cuts are deterministic (no draw): an active window severing
  // src from dst eats the message regardless of rates.
  if (net_cut(src, dst, now_)) return true;
  return net_->config.loss_rate > 0.0 &&
         net_->rng.chance(net_->config.loss_rate);
}

bool Engine::try_retransmit(ProcessId src, ProcessId dst, Port port,
                            const Payload& payload) {
  // Send-time resolution: the whole retry schedule is decided now, from the
  // adversary's own generator, so the engine's draw sequence and the
  // retransmit-off behavior stay untouched. Attempt k re-offers the message
  // to the channel at now + k*retransmit_every; the first attempt the
  // adversary does not eat goes into transit with a fresh delay draw from
  // that instant. Recovered messages are not re-duplicated.
  const NetConfig& net = net_->config;
  Time attempt = now_;
  for (std::uint32_t k = 0; k < net.retransmit_max; ++k) {
    attempt += net.retransmit_every;
    ++stats_.messages_retransmitted;
    if (net_cut(src, dst, attempt)) continue;
    if (net.loss_rate > 0.0 && net_->rng.chance(net.loss_rate)) continue;
    const Time transit = delay_uniform_
                             ? delay_min_ + net_->rng.below(delay_span_)
                             : delay_->delay(src, dst, attempt, net_->rng);
    enqueue(attempt + (transit < 1 ? Time{1} : transit), src, dst, port,
            payload);
    return true;
  }
  return false;
}

void Engine::schedule_crash(ProcessId pid, Time at) {
  if (pid >= processes_.size()) throw std::out_of_range("schedule_crash: pid");
  crash_at_[pid] = at;
  // Rescheduling leaves the superseded entry in the band; apply_crashes_due
  // filters entries that no longer match crash_at_. Cancellation (kNever)
  // queues nothing.
  if (at == kNever) return;
  const PendingCrash entry{at, pid};
  pending_crashes_.insert(
      std::upper_bound(pending_crashes_.begin(), pending_crashes_.end(), entry),
      entry);
}

void Engine::init() {
  if (initialized_) return;
  if (!delay_) delay_ = std::make_unique<UniformDelay>(1, 8);
  if (!scheduler_) scheduler_ = std::make_unique<RandomScheduler>();
  Time delay_max = 1;
  delay_uniform_ = delay_->uniform_bounds(delay_min_, delay_max);
  if (delay_uniform_) delay_span_ = delay_max - delay_min_ + 1;
  live_.clear();
  live_pos_.assign(processes_.size(), 0);
  for (ProcessId pid = 0; pid < processes_.size(); ++pid) {
    live_.push_back(pid);
    live_pos_[pid] = pid;
  }
  sender_epoch_.assign(processes_.size(), 0);
  recv_epoch_ = 0;
  transit_.reset(processes_.size());
  initialized_ = true;
  for (ProcessId pid = 0; pid < processes_.size(); ++pid) {
    Context ctx(*this, pid);
    processes_[pid]->on_init(ctx);
  }
}

void Engine::apply_crashes_due() {
  // Entries pop in (time, pid) order; step() only calls this when the back
  // entry is actually due. Superseded entries (crash rescheduled or
  // cancelled after queueing) no longer match crash_at_ and are skipped.
  while (!pending_crashes_.empty() && pending_crashes_.back().at <= now_) {
    const PendingCrash entry = pending_crashes_.back();
    pending_crashes_.pop_back();
    const ProcessId pid = entry.pid;
    if (crashed_[pid] || crash_at_[pid] != entry.at) continue;
    crashed_[pid] = true;
    ++stats_.crashes;
    // A crashed process never takes another step; pending inbound traffic
    // can never be observed, so discard it now.
    stats_.messages_dropped += transit_.clear_dst(pid);
    trace_.emit(EventKind::kCrash, now_, pid);
    const std::size_t pos = live_pos_[pid];
    live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(pos));
    for (std::size_t i = pos; i < live_.size(); ++i) live_pos_[live_[i]] = i;
  }
}

void Engine::deliver_phase(ProcessId pid, Context& ctx) {
  // Receive at most one deliverable message per sender (Section 4's step
  // semantics). advance() already scattered everything due onto pid's
  // ready list in exact (deliver_at, seq) order, so this is a list drain.
  // Later-deadline duplicates from the same sender stay on the list for
  // subsequent steps; reliability is preserved because deadlines are
  // finite and the process steps infinitely often while correct.
  if (!transit_.has_ready(pid)) return;
  const std::uint64_t epoch = ++recv_epoch_;
  // Hoisted locals: on_message may send (mutating engine state the compiler
  // must otherwise assume aliases these), but never the clock, the stamp
  // array, or the receiving process.
  std::uint64_t* const stamps = sender_epoch_.data();
  Process* const proc = processes_[pid].get();
  const Time now = now_;
  std::uint64_t delivered = 0;
  transit_.drain_ready(pid, [&](const InTransit& item) {
    const ProcessId src = item.msg.src;
    if (stamps[src] == epoch) return false;  // defer the duplicate
    stamps[src] = epoch;
    ++delivered;
    trace_.emit(EventKind::kDeliver, now, pid, src, item.msg.port,
                item.msg.payload.kind);
    proc->on_message(ctx, item.msg);
    return true;
  });
  stats_.messages_delivered += delivered;
}

bool Engine::step() {
  if (!initialized_) init();
  ++now_;
  if (!pending_crashes_.empty() && pending_crashes_.back().at <= now_) {
    apply_crashes_due();
  }
  // Batched delivery: one advance scatters everything due this tick onto
  // the destinations' ready lists (crashes above settle first, so traffic
  // for a just-crashed pid frees instead of scattering). Runs even when no
  // live process remains so the wheel clock stays tick-contiguous.
  transit_.advance(now_);
  if (live_.empty()) return false;

  const ProcessId pid = scheduler_->next(live_, now_, rng_);
  assert(pid < processes_.size() && !crashed_[pid]);

  Context ctx(*this, pid);
  sends_this_step_ = 0;
  deliver_phase(pid, ctx);
  processes_[pid]->on_step(ctx);
  ++stats_.steps;
  trace_.emit(EventKind::kStep, now_, pid);
  return true;
}

std::uint64_t Engine::run(std::uint64_t n) {
  std::uint64_t executed = 0;
  while (executed < n && step()) ++executed;
  flush_metrics();
  return executed;
}

Time Engine::run_to(Time target) {
  // A live engine advances now_ by exactly 1 per executed step, so the
  // remaining distance in ticks is the remaining step budget. Once the
  // population fully crashes, the failed step() has already cost its one
  // tick — exactly as in a cold run(n) — and live_ stays empty forever, so
  // the guard makes every further call a no-op instead of re-paying a tick
  // per call (which would break cold/resumed bit-identity).
  while (now_ < target && !live_.empty()) {
    const std::uint64_t want = target - now_;
    if (run(want) < want) break;  // population fully crashed mid-stretch
  }
  return now_;
}

bool Engine::run_until(const std::function<bool()>& pred,
                       std::uint64_t max_steps, std::uint64_t check_every) {
  if (check_every == 0) check_every = 1;
  for (std::uint64_t executed = 0; executed < max_steps;) {
    if (pred()) {
      flush_metrics();
      return true;
    }
    for (std::uint64_t i = 0; i < check_every && executed < max_steps; ++i) {
      if (!step()) {
        flush_metrics();
        return pred();
      }
      ++executed;
    }
  }
  flush_metrics();
  return pred();
}

std::size_t Engine::in_transit_count() const { return transit_.size(); }

void Engine::enqueue(Time deliver_at, ProcessId src, ProcessId dst, Port port,
                     const Payload& payload) {
  Message& slot = transit_.push(deliver_at, dst);
  slot.src = src;
  slot.dst = dst;
  slot.port = port;
  slot.payload = payload;
  slot.sent_at = now_;
  slot.seq = next_seq_++;
}

void Engine::send_from(ProcessId src, ProcessId dst, Port port,
                       const Payload& payload) {
  if (dst >= processes_.size()) throw std::out_of_range("send: dst");
  if (config_.max_sends_per_step != 0 &&
      ++sends_this_step_ > config_.max_sends_per_step) {
    throw std::logic_error("send bound exceeded in one atomic step");
  }
  ++stats_.messages_sent;
  trace_.emit(EventKind::kSend, now_, src, dst, port, payload.kind);
  if (crashed_[dst]) {
    ++stats_.messages_dropped;
    trace_.emit(EventKind::kDrop, now_, dst, src, port, payload.kind);
    return;
  }
  if (net_ && net_drops(src, dst)) {
    // Opt-in retransmitting channel: a recovered message is in transit (no
    // drop, no loss); only exhausting every attempt drops it for real.
    if (net_->config.retransmit_every > 0 &&
        try_retransmit(src, dst, port, payload)) {
      return;
    }
    // Adversary loss (random or partition cut): dropped at send time, like
    // a crashed destination, but also counted in messages_lost so oracles
    // and experiments can tell the two apart.
    ++stats_.messages_dropped;
    ++stats_.messages_lost;
    trace_.emit(EventKind::kDrop, now_, dst, src, port, payload.kind);
    return;
  }
  Time deliver_at;
  if (delay_uniform_) {
    deliver_at = now_ + delay_min_ + rng_.below(delay_span_);  // min >= 1
  } else {
    const Time transit = delay_->delay(src, dst, now_, rng_);
    deliver_at = now_ + (transit < 1 ? 1 : transit);
  }
  enqueue(deliver_at, src, dst, port, payload);
  if (net_ && net_->config.dup_rate > 0.0 &&
      net_->rng.chance(net_->config.dup_rate)) {
    // Duplicate: a second in-flight copy of the same logical message,
    // landing 1..dup_spread ticks after the original (non-FIFO channels
    // make no ordering promise anyway). It gets its own seq so transit
    // ordering stays a strict total order.
    const Time spread = net_->config.dup_spread < 1 ? 1 : net_->config.dup_spread;
    enqueue(deliver_at + 1 + net_->rng.below(spread), src, dst, port,
            payload);
    ++stats_.messages_duplicated;
  }
}

}  // namespace wfd::sim
