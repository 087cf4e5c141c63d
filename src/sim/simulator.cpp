#include "sim/simulator.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <unordered_map>

#include "sim/backend.hpp"
#include "sim/compiled.hpp"
#include "sim/event.hpp"

namespace tut::sim {

namespace {

/// Converts component cycles to ticks (1 tick = 1 ns): ceil(c * 1000 / MHz).
Time cycles_to_ticks(long cycles, long freq_mhz) {
  if (cycles <= 0) return 0;
  if (freq_mhz <= 0) freq_mhz = 50;
  const auto c = static_cast<std::uint64_t>(cycles);
  const auto f = static_cast<std::uint64_t>(freq_mhz);
  return (c * 1000 + f - 1) / f;
}

}  // namespace

// The hot loop is a POD event queue (EventQueue) drained by the dispatch()
// switch below: event records carry dense indices into the flat pes_ /
// segs_ / procs_ / transfers_ tables, so dispatching touches no
// std::function and allocates nothing. All static model facts (routes,
// frequencies, arbitration modes, port destinations) come precomputed from
// the shared CompiledModel; this Impl holds only per-run mutable state.
struct Simulation::Impl {
  struct Pe;

  struct PendingEvent {
    enum class Kind { Start, Signal, Timer, Reset };
    Kind kind = Kind::Signal;
    efsm::Event event;                // Signal
    intern::Id from = intern::kNoId;  // Signal
    std::uint32_t timer = 0;          // Timer (id into timer_names_)
  };

  /// EFSM backend of one process: the bytecode image (both non-native
  /// constructors) or an out-of-line executor drawn from a BackendImage
  /// (e.g. dlopen'ed native code). Exactly one of the two is set.
  struct Behavior {
    std::optional<efsm::CompiledInstance> code;
    std::unique_ptr<ProcExecutor> ext;

    efsm::StepResult start() { return code ? code->start() : ext->start(); }
    efsm::StepResult reset() { return code ? code->reset() : ext->reset(); }
    efsm::StepResult deliver(const efsm::Event& e) {
      return code ? code->deliver(e) : ext->deliver(e);
    }
    efsm::StepResult timer_fired(const std::string& t) {
      return code ? code->timer_fired(t) : ext->timer_fired(t);
    }
    void rewind() {
      if (code) {
        code->rewind();
      } else {
        ext->rewind();
      }
    }
  };

  struct Proc {
    const CompiledModel::ProcInfo* info = nullptr;
    std::uint32_t index = 0;
    intern::Id name_id = intern::kNoId;
    Behavior inst;
    std::uint32_t pe = 0;    // executing PE; failover migrates this
    std::deque<PendingEvent> queue;
    std::map<std::uint32_t, std::uint64_t> timer_gen;  // by timer id
    bool ready = false;             // enlisted in pe->ready
    std::uint64_t ready_seq = 0;    // FIFO tie-break among equal priorities
    Time last_progress = 0;         // last fired transition (watchdog)
  };

  struct Pe {
    const CompiledModel::PeInfo* info = nullptr;
    std::uint32_t index = 0;
    intern::Id name_id = intern::kNoId;
    PeStats* stats = nullptr;  // owner_.pe_stats_ entry (map nodes are stable)
    bool failed = false;       // inside a PE fault window
    std::vector<Proc*> ready;

    // The step currently executing, if any. `run_gen` invalidates the
    // scheduled completion event when the step is preempted.
    struct Running {
      Proc* proc = nullptr;
      efsm::StepResult result;
      Time end = 0;
    };
    std::optional<Running> running;
    std::uint64_t run_gen = 0;

    // Steps suspended by preemption. LIFO: preemption only ever stacks a
    // strictly higher-priority step on top, so the back has the highest
    // priority among suspended steps.
    struct Suspended {
      Proc* proc = nullptr;
      efsm::StepResult result;
      Time remaining = 0;
    };
    std::vector<Suspended> suspended;

    bool busy() const noexcept { return running.has_value(); }
  };

  struct Seg {
    const CompiledModel::SegInfo* info = nullptr;
    std::uint32_t index = 0;
    intern::Id name_id = intern::kNoId;
    SegmentStats* stats = nullptr;
    bool busy = false;
    bool faulted = false;          // inside a segment fault window
    std::uint32_t ber_ppm = 0;     // bit errors per million completed hops
    std::uint64_t ber_seq = 0;     // FaultRng sequence counter
    long last_rr = -1;
    std::deque<std::size_t> waiting;  // indices into transfers_
  };

  struct Transfer {
    std::uint32_t dest = 0;    // destination process index
    intern::Id from = intern::kNoId;
    efsm::Event event;
    const std::vector<std::uint32_t>* path = nullptr;  // model route (segs)
    std::size_t hop = 0;
    std::size_t bytes = 0;
    long priority = 0;
    long rr_key = 0;           // sender instance ID (round-robin order)
    long max_grant_cycles = 0; // sender wrapper MaxTime; 0 = unlimited
    long remaining_cycles = 0; // on current hop; 0 = not yet computed
    Time enqueue_time = 0;
    int attempts = 0;          // fault retries consumed
    bool done = false;
  };

  /// A boundary injection, fired by an Inject event.
  struct Injection {
    std::string port;
    const uml::Signal* signal = nullptr;
    std::vector<long> args;
  };

  Impl(std::shared_ptr<const CompiledModel> model, Simulation& owner,
       std::vector<std::string> defects,
       std::shared_ptr<const BackendImage> backend = nullptr)
      : model_(std::move(model)),
        backend_(std::move(backend)),
        owner_(owner) {
    build(std::move(defects));
  }

  void build(std::vector<std::string> defects) {
    apply_envelope();
    env_id_ = owner_.log_.intern_name(kEnvironment);
    unknown_sig_id_ = owner_.log_.intern_name("?");
    faults_on_ = !owner_.config_.faults.empty();

    pes_.reserve(model_->pes().size());
    for (const CompiledModel::PeInfo& info : model_->pes()) {
      Pe pe;
      pe.info = &info;
      pe.index = static_cast<std::uint32_t>(pes_.size());
      pe.name_id = owner_.log_.intern_name(info.name);
      pe.stats = &owner_.pe_stats_[info.name];
      pes_.push_back(std::move(pe));
    }
    segs_.reserve(model_->segs().size());
    for (const CompiledModel::SegInfo& info : model_->segs()) {
      Seg seg;
      seg.info = &info;
      seg.index = static_cast<std::uint32_t>(segs_.size());
      seg.name_id = owner_.log_.intern_name(info.name);
      seg.stats = &owner_.segment_stats_[info.name];
      segs_.push_back(std::move(seg));
    }
    procs_.reserve(model_->procs().size());
    for (const CompiledModel::ProcInfo& info : model_->procs()) {
      Proc proc;
      proc.info = &info;
      proc.index = static_cast<std::uint32_t>(procs_.size());
      proc.name_id = owner_.log_.intern_name(info.name);
      if (backend_) {
        proc.inst.ext = backend_->make_executor(proc.index);
      } else {
        proc.inst.code.emplace(*info.machine, info.name);
      }
      proc.pe = info.home_pe;
      procs_.push_back(std::move(proc));
    }

    check_fault_plan(defects);
    if (!defects.empty()) throw_defects(defects);
  }

  [[noreturn]] static void throw_defects(
      const std::vector<std::string>& defects) {
    std::string msg = "model is not executable (" +
                      std::to_string(defects.size()) + " defect" +
                      (defects.size() == 1 ? "" : "s") + "):";
    for (const std::string& d : defects) msg += "\n  - " + d;
    throw std::runtime_error(msg);
  }

  /// Rewinds every piece of per-run state to its value after build() while
  /// keeping allocations: the event queue's heap, the EFSM slot files, the
  /// transfer/injection stores, the log's record vector and name table, and
  /// the stats map nodes all survive. The caller has already replaced
  /// owner_.config_, so fault resolution runs against the new plan. Interned
  /// ids (process names, timers, signals) deliberately persist — they map
  /// to the same names, and nothing observable depends on id values.
  void reset_run() {
    queue_.reset();
    started_ = false;
    ready_counter_ = 0;
    transfers_.clear();
    injects_.clear();
    stuck_.clear();
    faults_on_ = !owner_.config_.faults.empty();
    for (Proc& proc : procs_) {
      proc.inst.rewind();
      proc.pe = proc.info->home_pe;
      proc.queue.clear();
      proc.timer_gen.clear();
      proc.ready = false;
      proc.ready_seq = 0;
      proc.last_progress = 0;
    }
    for (Pe& pe : pes_) {
      pe.failed = false;
      pe.ready.clear();
      pe.running.reset();
      pe.run_gen = 0;
      pe.suspended.clear();
      *pe.stats = PeStats{};
    }
    for (Seg& seg : segs_) {
      seg.busy = false;
      seg.faulted = false;
      seg.ber_ppm = 0;
      seg.ber_seq = 0;
      seg.last_rr = -1;
      seg.waiting.clear();
      *seg.stats = SegmentStats{};
    }
    owner_.log_.clear();
    apply_envelope();  // config_ may carry a different profile now
    std::vector<std::string> defects;
    check_fault_plan(defects);  // re-resolves names, re-applies bit errors
    if (!defects.empty()) throw_defects(defects);
  }

  /// Arms the run's resource envelope on the log and the event queue.
  /// Unbounded caps (the default profile) disarm them, reproducing the
  /// pre-envelope behaviour exactly.
  void apply_envelope() {
    const ResourceProfile& env = owner_.config_.envelope;
    queue_.set_capacity(env.event_queue);
    owner_.log_.set_envelope(env.log_records, env.log_spill_path);
  }

  /// Appends fault-plan defects (structure + unresolved component names).
  void check_fault_plan(std::vector<std::string>& defects) {
    const FaultPlan& plan = owner_.config_.faults;
    if (!faults_on_) return;
    for (const std::string& d : plan.validate()) {
      defects.push_back("fault plan: " + d);
    }
    for (const FaultWindow& w : plan.pe_faults) {
      if (!w.component.empty() && model_->pe_index(w.component) < 0) {
        defects.push_back("fault plan: unknown component instance '" +
                          w.component + "'");
      }
    }
    for (const FaultWindow& w : plan.segment_faults) {
      if (!w.component.empty() && model_->seg_index(w.component) < 0) {
        defects.push_back("fault plan: unknown segment '" + w.component + "'");
      }
    }
    for (const BitErrorSpec& b : plan.bit_errors) {
      const std::int32_t seg = model_->seg_index(b.segment);
      if (seg < 0) {
        if (!b.segment.empty()) {
          defects.push_back("fault plan: unknown segment '" + b.segment + "'");
        }
      } else {
        segs_[seg].ber_ppm = b.rate_ppm;
      }
    }
    for (const SignalFault& s : plan.signal_faults) {
      if (!s.process.empty() && model_->proc_index(s.process) < 0) {
        defects.push_back("fault plan: unknown process '" + s.process + "'");
      }
    }
  }

  // -- event dispatch ----------------------------------------------------------

  void dispatch(const EventRec& ev) {
    switch (ev.kind) {
      case EventRec::Kind::PeFaultRaise:
        raise_pe_fault(pes_[ev.a]);
        break;
      case EventRec::Kind::PeFaultClear:
        clear_pe_fault(pes_[ev.a]);
        break;
      case EventRec::Kind::SegFaultRaise:
        raise_seg_fault(segs_[ev.a]);
        break;
      case EventRec::Kind::SegFaultClear:
        clear_seg_fault(segs_[ev.a]);
        break;
      case EventRec::Kind::SignalFaultStart:
        owner_.log_.fault_id(queue_.now(), procs_[ev.b].name_id);
        break;
      case EventRec::Kind::SignalFaultEnd:
        owner_.log_.clear_id(queue_.now(), procs_[ev.b].name_id);
        flush_stuck(ev.a);
        break;
      case EventRec::Kind::WatchdogCheck:
        watchdog_check(procs_[ev.a]);
        break;
      case EventRec::Kind::StepDone:
        if (pes_[ev.a].run_gen == ev.c) finish_step(pes_[ev.a]);
        break;
      case EventRec::Kind::TimerFired:
        on_timer(procs_[ev.a], ev.b, ev.c);
        break;
      case EventRec::Kind::RetryResume:
        request_segment(ev.a);
        break;
      case EventRec::Kind::GrantDone:
        grant_done(segs_[ev.a], ev.b, static_cast<long>(ev.c));
        break;
      case EventRec::Kind::Inject:
        fire_inject(injects_[ev.a]);
        break;
    }
  }

  void run_until(Time horizon) {
    start_all();
    EventRec ev;
    while (queue_.poll(horizon, ev)) dispatch(ev);
  }

  // -- fault injection ---------------------------------------------------------

  /// Schedules every fault event of the plan at simulation start. All times
  /// are absolute; recurring behaviour is expressed as multiple windows.
  /// Overlapping windows on the same component are not merged: the first
  /// clear ends the fault.
  void schedule_faults() {
    const FaultPlan& plan = owner_.config_.faults;
    for (const FaultWindow& w : plan.pe_faults) {
      const auto pe = static_cast<std::uint32_t>(model_->pe_index(w.component));
      queue_.schedule_at(w.start, {EventRec::Kind::PeFaultRaise, pe});
      if (w.end != 0) {
        queue_.schedule_at(w.end, {EventRec::Kind::PeFaultClear, pe});
      }
    }
    for (const FaultWindow& w : plan.segment_faults) {
      const auto seg =
          static_cast<std::uint32_t>(model_->seg_index(w.component));
      queue_.schedule_at(w.start, {EventRec::Kind::SegFaultRaise, seg});
      if (w.end != 0) {
        queue_.schedule_at(w.end, {EventRec::Kind::SegFaultClear, seg});
      }
    }
    for (std::size_t i = 0; i < plan.signal_faults.size(); ++i) {
      const SignalFault& s = plan.signal_faults[i];
      const auto sf = static_cast<std::uint32_t>(i);
      const auto proc =
          static_cast<std::uint32_t>(model_->proc_index(s.process));
      queue_.schedule_at(s.start,
                         {EventRec::Kind::SignalFaultStart, sf, proc});
      if (s.end != 0) {
        queue_.schedule_at(s.end, {EventRec::Kind::SignalFaultEnd, sf, proc});
      }
    }
    if (plan.watchdog_timeout > 0) {
      for (Proc& proc : procs_) {
        queue_.schedule_at(plan.watchdog_timeout,
                           {EventRec::Kind::WatchdogCheck, proc.index});
      }
    }
  }

  void raise_pe_fault(Pe& pe) {
    if (pe.failed) return;
    pe.failed = true;
    owner_.log_.fault_id(queue_.now(), pe.name_id);
    // Abort the step in flight and discard preempted work: a dead PE makes
    // no further progress, so half-finished transitions are lost.
    ++pe.run_gen;
    pe.running.reset();
    pe.suspended.clear();
    // Migrate residents to the least-loaded compatible survivor (hardware
    // processes only onto hardware accelerators, software processes onto
    // programmable PEs). With no survivor a process stays and stalls until
    // the PE recovers.
    Pe* sw_dest = pick_failover(false, pe);
    Pe* hw_dest = pick_failover(true, pe);
    for (Proc& proc : procs_) {
      if (proc.pe != pe.index) continue;
      Pe* dest = proc.info->hw ? hw_dest : sw_dest;
      if (dest != nullptr) migrate(proc, *dest);
    }
  }

  void clear_pe_fault(Pe& pe) {
    if (!pe.failed) return;
    pe.failed = false;
    owner_.log_.clear_id(queue_.now(), pe.name_id);
    // Evacuated processes come home; stranded ones resume in place.
    for (Proc& proc : procs_) {
      if (proc.info->home_pe == pe.index && proc.pe != pe.index) {
        migrate(proc, pe);
      }
    }
    start_step(pe);
  }

  /// The FailoverPolicy choice among compatible surviving PEs, or nullptr.
  /// Candidates are collected in platform instance order and loads are
  /// simulation state, so the choice is reproducible across runs.
  Pe* pick_failover(bool hw, const Pe& failed) {
    std::vector<mapping::FailoverPolicy::Candidate> candidates;
    std::vector<Pe*> pes;
    for (Pe& pe : pes_) {
      if (&pe == &failed || pe.failed || pe.info->hw_accel != hw) continue;
      candidates.push_back(
          {pe.info->name, static_cast<double>(pe.stats->busy_time)});
      pes.push_back(&pe);
    }
    const std::size_t pick = failover_.choose(candidates);
    return pick == mapping::FailoverPolicy::npos ? nullptr : pes[pick];
  }

  void migrate(Proc& proc, Pe& dest) {
    Pe& from = pes_[proc.pe];
    if (&from == &dest) return;
    if (proc.ready) {
      auto it = std::find(from.ready.begin(), from.ready.end(), &proc);
      if (it != from.ready.end()) from.ready.erase(it);
      proc.ready = false;
    }
    owner_.log_.migrate_id(queue_.now(), proc.name_id, from.name_id,
                           dest.name_id);
    proc.pe = dest.index;
    make_ready(proc);
  }

  void raise_seg_fault(Seg& seg) {
    if (seg.faulted) return;
    seg.faulted = true;
    owner_.log_.fault_id(queue_.now(), seg.name_id);
    // Queued transfers back off immediately; a transfer being granted right
    // now notices the fault when its grant completes.
    std::deque<std::size_t> waiting = std::move(seg.waiting);
    seg.waiting.clear();
    for (const std::size_t index : waiting) retry_transfer(index);
  }

  void clear_seg_fault(Seg& seg) {
    if (!seg.faulted) return;
    seg.faulted = false;
    owner_.log_.clear_id(queue_.now(), seg.name_id);
    try_grant(seg);
  }

  /// Restarts a transfer from its first hop after a fault or bit error,
  /// with exponential backoff, until the retry budget is spent (then the
  /// signal is dropped at the destination).
  void retry_transfer(std::size_t index) {
    Transfer& x = transfers_[index];
    x.hop = 0;
    x.remaining_cycles = 0;
    ++x.attempts;
    const FaultPlan& plan = owner_.config_.faults;
    if (x.attempts > plan.max_retries) {
      x.done = true;
      owner_.log_.drop_id(queue_.now(), procs_[x.dest].name_id,
                          signal_id(x.event.signal));
      return;
    }
    owner_.log_.retry_id(queue_.now(), x.from, signal_id(x.event.signal),
                         x.attempts);
    const Time delay = plan.retry_backoff << (x.attempts - 1);
    queue_.schedule_in(delay, {EventRec::Kind::RetryResume,
                               static_cast<std::uint32_t>(index)});
  }

  /// True when the hop whose grant just completed must be re-sent: the
  /// segment faulted mid-transfer, or the finished hop drew a bit error.
  /// The draw is counter-based — (seed, segment, per-segment sequence) —
  /// so it is identical run to run.
  bool hop_disturbed(Seg& seg, Transfer& x) {
    if (seg.faulted) return true;
    if (x.remaining_cycles > 0 || seg.ber_ppm == 0) return false;
    const FaultPlan& plan = owner_.config_.faults;
    return FaultRng::draw(plan.seed, seg.info->rng_key, seg.ber_seq++) %
               1'000'000 <
           seg.ber_ppm;
  }

  /// First active signal fault matching a delivery, or nullptr (index out).
  const SignalFault* active_signal_fault(const Proc& to,
                                         const efsm::Event& event,
                                         std::size_t& index_out) const {
    const auto& sfs = owner_.config_.faults.signal_faults;
    const Time now = queue_.now();
    for (std::size_t i = 0; i < sfs.size(); ++i) {
      const SignalFault& s = sfs[i];
      if (now < s.start || (s.end != 0 && now >= s.end)) continue;
      if (s.process != to.info->name) continue;
      if (!s.signal.empty() &&
          (event.signal == nullptr || s.signal != event.signal->name())) {
        continue;
      }
      index_out = i;
      return &s;
    }
    return nullptr;
  }

  /// Releases signals held by a stuck-signal window when it closes. Each is
  /// re-checked against the remaining windows on redelivery.
  void flush_stuck(std::size_t index) {
    auto it = stuck_.find(index);
    if (it == stuck_.end()) return;
    std::vector<Stuck> held = std::move(it->second);
    stuck_.erase(it);
    for (Stuck& s : held) {
      deliver_local(procs_[s.to], std::move(s.event), s.from);
    }
  }

  /// Per-process watchdog: when a process has not fired a transition for
  /// watchdog_timeout ticks, its EFSM instance is reset to the initial
  /// state (pending events are kept, armed timers are cancelled) and the
  /// timer re-arms.
  void watchdog_check(Proc& proc) {
    const Time timeout = owner_.config_.faults.watchdog_timeout;
    const Time due = proc.last_progress + timeout;
    if (queue_.now() < due) {
      queue_.schedule_at(due, {EventRec::Kind::WatchdogCheck, proc.index});
      return;
    }
    owner_.log_.watchdog_id(queue_.now(), proc.name_id);
    proc.last_progress = queue_.now();
    PendingEvent ev;
    ev.kind = PendingEvent::Kind::Reset;
    proc.queue.push_front(std::move(ev));
    make_ready(proc);
    queue_.schedule_at(queue_.now() + timeout,
                       {EventRec::Kind::WatchdogCheck, proc.index});
  }

  // -- PE scheduling -----------------------------------------------------------

  void make_ready(Proc& proc) {
    if (proc.ready || proc.queue.empty()) return;
    proc.ready = true;
    proc.ready_seq = ++ready_counter_;
    Pe& pe = pes_[proc.pe];
    pe.ready.push_back(&proc);
    maybe_preempt(pe, proc);
    start_step(pe);
  }

  /// Suspends the running step when a strictly higher-priority process
  /// becomes ready on a preemptive PE.
  void maybe_preempt(Pe& pe, const Proc& challenger) {
    if (!pe.info->preemptive || !pe.running.has_value()) return;
    if (challenger.info->priority <= pe.running->proc->info->priority) return;
    // Steps completing at the current instant are not preemptible: their
    // completion event is already due.
    if (pe.running->end <= queue_.now()) return;
    ++pe.run_gen;  // invalidate the scheduled completion
    Pe::Suspended s;
    s.proc = pe.running->proc;
    s.result = std::move(pe.running->result);
    s.remaining = pe.running->end - queue_.now();
    pe.suspended.push_back(std::move(s));
    pe.running.reset();
    ++pe.stats->preemptions;
  }

  /// The highest-priority ready process (FIFO among equals), or ready.end().
  std::vector<Proc*>::iterator best_ready(Pe& pe) {
    auto best = pe.ready.begin();
    for (auto it = pe.ready.begin(); it != pe.ready.end(); ++it) {
      if ((*it)->info->priority > (*best)->info->priority ||
          ((*it)->info->priority == (*best)->info->priority &&
           (*it)->ready_seq < (*best)->ready_seq)) {
        best = it;
      }
    }
    return best;
  }

  void schedule_completion(Pe& pe, Time dur) {
    pe.running->end = queue_.now() + dur;
    const std::uint64_t gen = ++pe.run_gen;
    queue_.schedule_in(dur, {EventRec::Kind::StepDone, pe.index, 0, gen});
  }

  /// Context-switch overhead in ticks, accounted as PE busy time.
  Time switch_overhead(Pe& pe) {
    const Time t =
        cycles_to_ticks(pe.info->ctx_switch_cycles, pe.info->freq_mhz);
    pe.stats->overhead_time += t;
    pe.stats->busy_time += t;
    return t;
  }

  void start_step(Pe& pe) {
    if (pe.busy() || pe.failed) return;

    // Resume a suspended step unless a strictly higher-priority process is
    // ready (it would immediately preempt again).
    auto best = best_ready(pe);
    const bool have_ready = best != pe.ready.end();
    if (!pe.suspended.empty() &&
        (!have_ready ||
         pe.suspended.back().proc->info->priority >= (*best)->info->priority)) {
      resume_step(pe);
      return;
    }
    if (!have_ready) return;

    Proc* proc = *best;
    pe.ready.erase(best);
    proc->ready = false;

    PendingEvent ev = std::move(proc->queue.front());
    proc->queue.pop_front();

    efsm::StepResult result;
    bool fired = true;
    switch (ev.kind) {
      case PendingEvent::Kind::Start:
        result = proc->inst.start();
        break;
      case PendingEvent::Kind::Signal:
        result = proc->inst.deliver(ev.event);
        fired = result.fired;
        if (!fired) {
          owner_.log_.drop_id(queue_.now(), proc->name_id,
                              signal_id(ev.event.signal));
        }
        break;
      case PendingEvent::Kind::Timer:
        result = proc->inst.timer_fired(timer_names_[ev.timer]);
        fired = result.fired;
        break;
      case PendingEvent::Kind::Reset:
        // Watchdog recovery: cancel every armed timer, then restart the
        // EFSM from its initial state.
        for (auto& [id, gen] : proc->timer_gen) ++gen;
        result = proc->inst.reset();
        break;
    }

    Time dur = cycles_to_ticks(result.compute_cycles, pe.info->freq_mhz);
    PeStats& stats = *pe.stats;
    ++stats.dispatched;
    if (fired) {
      if (faults_on_) proc->last_progress = queue_.now();
      ++stats.steps;
      stats.busy_time += dur;
      if (owner_.config_.log_runs) {
        owner_.log_.run_id(queue_.now(), proc->name_id, result.compute_cycles,
                           dur);
      }
    }
    // Dispatching on top of suspended work implies the RTOS switched
    // contexts to get here.
    if (!pe.suspended.empty()) dur += switch_overhead(pe);

    pe.running = Pe::Running{proc, std::move(result), 0};
    schedule_completion(pe, dur);
  }

  void resume_step(Pe& pe) {
    Pe::Suspended s = std::move(pe.suspended.back());
    pe.suspended.pop_back();
    // Switching back into the preempted context costs the RTOS overhead.
    const Time dur = s.remaining + switch_overhead(pe);
    pe.running = Pe::Running{s.proc, std::move(s.result), 0};
    schedule_completion(pe, dur);
  }

  void finish_step(Pe& pe) {
    Proc& proc = *pe.running->proc;
    const efsm::StepResult result = std::move(pe.running->result);
    pe.running.reset();
    // Timers first: a timer armed by this step may be reset by a later step,
    // but not vice versa within one step (actions already ordered upstream).
    for (const efsm::TimerOp& op : result.timers) {
      const std::uint32_t id = timer_id(op.name);
      const std::uint64_t gen = ++proc.timer_gen[id];
      if (op.kind == efsm::TimerOp::Kind::Set) {
        const Time delay = op.delay > 0 ? static_cast<Time>(op.delay) : 0;
        queue_.schedule_in(delay,
                           {EventRec::Kind::TimerFired, proc.index, id, gen});
      }
    }
    for (const efsm::Send& send : result.sends) {
      dispatch_send(proc, send);
    }
    make_ready(proc);  // it may have more pending events
    start_step(pe);
  }

  void on_timer(Proc& proc, std::uint32_t timer, std::uint64_t gen) {
    auto it = proc.timer_gen.find(timer);
    if (it == proc.timer_gen.end() || it->second != gen) return;  // stale
    PendingEvent ev;
    ev.kind = PendingEvent::Kind::Timer;
    ev.timer = timer;
    proc.queue.push_back(std::move(ev));
    make_ready(proc);
  }

  /// Dense id of a timer name (first use interns it).
  std::uint32_t timer_id(const std::string& name) {
    auto it = timer_ids_.find(name);
    if (it != timer_ids_.end()) return it->second;
    const auto id = static_cast<std::uint32_t>(timer_names_.size());
    timer_names_.push_back(name);
    timer_ids_.emplace(name, id);
    return id;
  }

  // -- communication -------------------------------------------------------------

  /// Precomputed destination of a send port (every Send-action port of the
  /// behaviour is in the table; absent or unconnected ports route to the
  /// environment).
  const CompiledModel::PortDest* find_port(const Proc& from,
                                           const std::string& port) const {
    for (const CompiledModel::PortDest& pd : from.info->ports) {
      if (pd.port == port) return &pd;
    }
    return nullptr;
  }

  void dispatch_send(Proc& from, const efsm::Send& send) {
    const Time now = queue_.now();
    const CompiledModel::PortDest* pd = find_port(from, send.port);
    const std::size_t bytes =
        send.signal != nullptr ? send.signal->payload_bytes() : 4;
    const intern::Id sig_id = signal_id(send.signal);

    if (pd == nullptr || pd->proc < 0) {
      // Environment, or a destination part that is not an executable
      // process (e.g. a structural part).
      owner_.log_.send_id(now, from.name_id, env_id_, sig_id, bytes);
      return;
    }
    Proc& to = procs_[pd->proc];
    owner_.log_.send_id(now, from.name_id, to.name_id, sig_id, bytes);

    efsm::Event event;
    event.signal = send.signal;
    event.port = pd->dest_port;
    event.args = send.args;

    if (to.pe == from.pe) {
      deliver_local(to, std::move(event), from.name_id);
      return;
    }

    // Remote: traverse the segment route.
    Transfer x;
    x.dest = to.index;
    x.from = from.name_id;
    x.event = std::move(event);
    x.path = &model_->route(from.pe, to.pe);
    x.bytes = bytes;
    x.priority = from.info->priority;
    x.rr_key = pes_[from.pe].info->rr_key;
    x.max_grant_cycles = pes_[from.pe].info->wrapper_max_cycles;
    const std::size_t index = transfers_.size();
    transfers_.push_back(std::move(x));
    request_segment(index);
  }

  void deliver_local(Proc& to, efsm::Event event, intern::Id from) {
    if (faults_on_) {
      std::size_t sf_index = 0;
      if (const SignalFault* sf =
              active_signal_fault(to, event, sf_index)) {
        if (sf->kind == SignalFault::Kind::Lost) {
          owner_.log_.drop_id(queue_.now(), to.name_id,
                              signal_id(event.signal));
        } else {
          stuck_[sf_index].push_back(Stuck{to.index, std::move(event), from});
        }
        return;
      }
    }
    owner_.log_.receive_id(queue_.now(), to.name_id, from,
                           signal_id(event.signal));
    PendingEvent ev;
    ev.kind = PendingEvent::Kind::Signal;
    ev.event = std::move(event);
    ev.from = from;
    to.queue.push_back(std::move(ev));
    make_ready(to);
  }

  /// Interned id of a signal's name, cached per Signal object.
  intern::Id signal_id(const uml::Signal* signal) {
    if (signal == nullptr) return unknown_sig_id_;
    auto [it, inserted] = signal_ids_.try_emplace(signal, intern::kNoId);
    if (inserted) it->second = owner_.log_.intern_name(signal->name());
    return it->second;
  }

  void request_segment(std::size_t index) {
    Transfer& x = transfers_[index];
    Seg& seg = segs_[(*x.path)[x.hop]];
    if (faults_on_ && seg.faulted) {
      retry_transfer(index);
      return;
    }
    if (x.remaining_cycles == 0) {
      const long words = static_cast<long>(
          (x.bytes * 8 + seg.info->width_bits - 1) / seg.info->width_bits);
      x.remaining_cycles = words + owner_.config_.segment_overhead_cycles;
    }
    x.enqueue_time = queue_.now();
    seg.waiting.push_back(index);
    try_grant(seg);
  }

  void try_grant(Seg& seg) {
    if (seg.busy || seg.waiting.empty()) return;

    // Pick the next transfer per the segment's arbitration scheme.
    std::size_t pick = 0;
    if (seg.info->priority_arb) {
      for (std::size_t i = 1; i < seg.waiting.size(); ++i) {
        if (transfers_[seg.waiting[i]].priority >
            transfers_[seg.waiting[pick]].priority) {
          pick = i;
        }
      }
    } else {
      // Round-robin over sender IDs: the smallest key strictly greater than
      // the last served, wrapping around.
      long best_key = -1;
      bool found = false;
      for (std::size_t i = 0; i < seg.waiting.size(); ++i) {
        const long key = transfers_[seg.waiting[i]].rr_key;
        const bool after = key > seg.last_rr;
        const bool best_after = best_key > seg.last_rr;
        if (!found ||
            (after && (!best_after || key < best_key)) ||
            (!after && !best_after && key < best_key)) {
          pick = i;
          best_key = key;
          found = true;
        }
      }
      seg.last_rr = best_key;
    }

    const std::size_t index = seg.waiting[pick];
    seg.waiting.erase(seg.waiting.begin() +
                      static_cast<std::ptrdiff_t>(pick));
    Transfer& x = transfers_[index];

    const bool capped = x.hop == 0 && x.max_grant_cycles > 0;
    const long grant =
        capped ? std::min(x.remaining_cycles, x.max_grant_cycles)
               : x.remaining_cycles;
    const Time dur = cycles_to_ticks(grant, seg.info->freq_mhz);

    SegmentStats& stats = *seg.stats;
    ++stats.grants;
    stats.busy_time += dur;
    stats.wait_time += queue_.now() - x.enqueue_time;

    seg.busy = true;
    queue_.schedule_in(dur, {EventRec::Kind::GrantDone, seg.index,
                             static_cast<std::uint32_t>(index),
                             static_cast<std::uint64_t>(grant)});
  }

  void grant_done(Seg& seg, std::size_t index, long granted) {
    seg.busy = false;
    Transfer& x = transfers_[index];
    x.remaining_cycles -= granted;
    if (faults_on_ && hop_disturbed(seg, x)) {
      retry_transfer(index);
      try_grant(seg);
      return;
    }
    if (x.remaining_cycles > 0) {
      // Re-arbitrate for the rest of this hop (MaxTime chunking).
      x.enqueue_time = queue_.now();
      seg.waiting.push_back(index);
    } else {
      ++seg.stats->transfers;
      ++x.hop;
      if (x.hop < x.path->size()) {
        x.remaining_cycles = 0;
        request_segment(index);
      } else {
        x.done = true;
        deliver_local(procs_[x.dest], std::move(x.event), x.from);
      }
    }
    try_grant(seg);
  }

  // -- environment ---------------------------------------------------------------

  void inject(Time t, const std::string& port, const uml::Signal& signal,
              std::vector<long> args) {
    if (t < queue_.now()) {
      throw std::invalid_argument(
          "cannot inject '" + signal.name() + "' at t=" + std::to_string(t) +
          ": simulation time has already advanced to " +
          std::to_string(queue_.now()));
    }
    const auto index = static_cast<std::uint32_t>(injects_.size());
    injects_.push_back(Injection{port, &signal, std::move(args)});
    queue_.schedule_at(t, {EventRec::Kind::Inject, index});
  }

  void fire_inject(const Injection& in) {
    const intern::Id sig_id = signal_id(in.signal);
    const efsm::Endpoint dest = model_->router().boundary_destination(in.port);
    const std::int32_t proc =
        dest.part != nullptr ? model_->proc_of_part(dest.part) : -1;
    if (proc < 0) {
      owner_.log_.send_id(queue_.now(), env_id_, env_id_, sig_id,
                          in.signal->payload_bytes());
      return;
    }
    Proc& to = procs_[proc];
    owner_.log_.send_id(queue_.now(), env_id_, to.name_id, sig_id,
                        in.signal->payload_bytes());
    efsm::Event event;
    event.signal = in.signal;
    event.port = dest.port != nullptr ? dest.port->name() : "";
    event.args = in.args;
    deliver_local(to, std::move(event), env_id_);
  }

  void start_all() {
    if (started_) return;
    started_ = true;
    if (faults_on_) schedule_faults();
    for (Proc& proc : procs_) {
      PendingEvent ev;
      ev.kind = PendingEvent::Kind::Start;
      proc.queue.push_front(std::move(ev));
      make_ready(proc);
    }
  }

  /// A delivery held back by a stuck-signal fault window.
  struct Stuck {
    std::uint32_t to = 0;
    efsm::Event event;
    intern::Id from = intern::kNoId;
  };

  const std::shared_ptr<const CompiledModel> model_;
  const std::shared_ptr<const BackendImage> backend_;  // null: interpreter
  Simulation& owner_;
  EventQueue queue_;
  bool started_ = false;
  std::uint64_t ready_counter_ = 0;
  bool faults_on_ = false;  // Config::faults is non-empty
  mapping::FailoverPolicy failover_;
  std::map<std::size_t, std::vector<Stuck>> stuck_;  // by signal-fault index

  std::vector<Proc> procs_;
  std::vector<Pe> pes_;
  std::vector<Seg> segs_;
  std::deque<Transfer> transfers_;
  std::deque<Injection> injects_;
  std::vector<std::string> timer_names_;
  std::unordered_map<std::string, std::uint32_t> timer_ids_;

  intern::Id env_id_ = intern::kNoId;
  intern::Id unknown_sig_id_ = intern::kNoId;
  std::unordered_map<const uml::Signal*, intern::Id> signal_ids_;
};

Simulation::Simulation(const mapping::SystemView& sys, Config config)
    : config_(config) {
  // Lowers exactly like CompiledModel::build, but collects structural
  // defects so the fault-plan check can append to the same diagnostic.
  // Malformed expression text throws efsm::ExprError here, eagerly.
  std::vector<std::string> defects;
  std::shared_ptr<const CompiledModel> model =
      CompiledModel::build_collect(sys, defects);
  impl_ = std::make_unique<Impl>(std::move(model), *this, std::move(defects));
}

Simulation::Simulation(std::shared_ptr<const CompiledModel> model,
                       Config config)
    : config_(config) {
  if (model == nullptr) {
    throw std::invalid_argument("Simulation requires a non-null model");
  }
  impl_ = std::make_unique<Impl>(std::move(model), *this,
                                 std::vector<std::string>{});
}

Simulation::Simulation(std::shared_ptr<const BackendImage> image,
                       Config config)
    : config_(config) {
  if (image == nullptr) {
    throw std::invalid_argument("Simulation requires a non-null backend image");
  }
  std::shared_ptr<const CompiledModel> model = image->model();
  if (model == nullptr) {
    throw std::invalid_argument(
        "Simulation backend image carries no CompiledModel");
  }
  impl_ = std::make_unique<Impl>(std::move(model), *this,
                                 std::vector<std::string>{}, std::move(image));
}

Simulation::~Simulation() = default;

void Simulation::reset(const Config& config) {
  config_ = config;
  impl_->reset_run();
}

void Simulation::inject(Time t, const std::string& boundary_port,
                        const uml::Signal& signal, std::vector<long> args) {
  impl_->inject(t, boundary_port, signal, std::move(args));
}

void Simulation::inject_periodic(Time first, Time period, std::size_t count,
                                 const std::string& boundary_port,
                                 const uml::Signal& signal,
                                 std::vector<long> args) {
  // Each injected signal typically yields a handful of records (env send,
  // receive, run, forwarded sends); reserve up front to curb reallocation.
  log_.reserve(log_.size() + 4 * count);
  for (std::size_t i = 0; i < count; ++i) {
    inject(first + static_cast<Time>(i) * period, boundary_port, signal, args);
  }
}

void Simulation::run() { run_until(config_.horizon); }

void Simulation::run_until(Time horizon) { impl_->run_until(horizon); }

Time Simulation::now() const noexcept { return impl_->queue_.now(); }

const efsm::CompiledInstance& Simulation::instance(
    const std::string& process) const {
  const std::int32_t index = impl_->model_->proc_index(process);
  if (index < 0) {
    throw std::out_of_range("no process named '" + process + "'");
  }
  const Impl::Proc& proc = impl_->procs_[index];
  if (!proc.inst.code.has_value()) {
    throw std::logic_error("process '" + process + "' runs on the '" +
                           std::string(impl_->backend_->name()) +
                           "' backend image; Simulation::instance() requires "
                           "the bytecode interpreter");
  }
  return *proc.inst.code;
}

std::uint64_t Simulation::events_dispatched() const noexcept {
  return impl_->queue_.dispatched();
}

}  // namespace tut::sim
