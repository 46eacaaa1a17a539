#include "mrpc/engine_pool.h"

#include <linux/futex.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <optional>

#include "compiler/chain_compile.h"
#include "obs/trace.h"
#include "rpc/table.h"

namespace adn::mrpc {

namespace {

// Thread CPU time (what this worker actually burned, preemption excluded) —
// the honest per-core cost basis for pool capacity on shared/overcommitted
// hosts where wall clock cannot attribute time to threads.
int64_t ThreadCpuNs() {
  timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// Park/unpark on a worker's 32-bit `sleeping` word. A raw futex, not
// std::atomic::wait: libstdc++'s wait spins and yields before it blocks,
// which costs an idle worker more CPU than the wait itself.
static_assert(sizeof(std::atomic<uint32_t>) == sizeof(uint32_t) &&
              std::atomic<uint32_t>::is_always_lock_free);

// Blocks while `word` holds `expected`, with no timeout. Returns on a wake,
// at once if the word already differs, or spuriously (EINTR): callers
// re-check their own condition.
void FutexWait(std::atomic<uint32_t>& word, uint32_t expected) {
  syscall(SYS_futex, reinterpret_cast<uint32_t*>(&word), FUTEX_WAIT_PRIVATE,
          expected, nullptr, nullptr, 0);
}

// Wakes the (at most one) thread blocked on `word`.
void FutexWakeOne(std::atomic<uint32_t>& word) {
  syscall(SYS_futex, reinterpret_cast<uint32_t*>(&word), FUTEX_WAKE_PRIVATE,
          1, nullptr, nullptr, 0);
}

// Interned once per process: the root span name the per-message path opens.
obs::NameId PoolRpcNameId() {
  static const obs::NameId id = obs::InternName("rpc");
  return id;
}

// Emit a reconfiguration state-machine transition (or program swap) as an
// instant event into the calling thread's ring. Names are the docs/RECONFIG.md
// "Emitted events" contract. Reconfigs are rare, so interning here is fine.
void EmitReconfigEvent(obs::EventKind kind, std::string_view name,
                       std::string_view processor, uint64_t arg) {
  if (!obs::Enabled() || !obs::Tracer::Default().tracing_enabled()) return;
  obs::TraceEvent ev;
  ev.kind = kind;
  ev.name_id = obs::InternName(name);
  ev.processor_id = obs::InternName(processor);
  ev.start_ns = obs::NowNs();
  ev.end_ns = ev.start_ns;
  ev.arg = arg;
  ev.tier = static_cast<uint8_t>(obs::Tier::kEngine);
  obs::EmitEvent(ev);
}

}  // namespace

// --- GroupRunner --------------------------------------------------------------

GroupRunner::GroupRunner(int helpers) {
  threads_.reserve(static_cast<size_t>(std::max(helpers, 0)));
  for (int i = 0; i < helpers; ++i) {
    threads_.emplace_back([this, i] { HelperLoop(i); });
  }
}

GroupRunner::~GroupRunner() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void GroupRunner::HelperLoop(int index) {
  uint64_t seen_epoch = 0;
  for (;;) {
    const std::vector<std::function<void()>>* tasks = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock,
                    [&] { return stop_ || (epoch_ != seen_epoch &&
                                           tasks_ != nullptr); });
      if (stop_) return;
      seen_epoch = epoch_;
      tasks = tasks_;
    }
    // Helper i owns tasks[i + 1] (task 0 runs on the caller).
    const size_t mine = static_cast<size_t>(index) + 1;
    if (mine < tasks->size()) (*tasks)[mine]();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--remaining_ == 0) done_cv_.notify_one();
    }
  }
}

void GroupRunner::Run(const std::vector<std::function<void()>>& tasks) {
  if (tasks.empty()) return;
  // Tasks beyond the helper pool run inline after task 0.
  const size_t dispatched =
      std::min(tasks.size() - 1, threads_.size());
  if (dispatched > 0) {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_ = &tasks;
    remaining_ = static_cast<int>(threads_.size());
    ++epoch_;
    work_cv_.notify_all();
  }
  tasks[0]();
  for (size_t i = threads_.size() + 1; i < tasks.size(); ++i) tasks[i]();
  if (dispatched > 0) {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return remaining_ == 0; });
    tasks_ = nullptr;
  }
}

// --- EnginePool ---------------------------------------------------------------

EnginePool::EnginePool(
    std::vector<std::shared_ptr<const ir::ElementIr>> elements,
    std::vector<int> parallel_groups, Config config)
    : elements_(std::move(elements)),
      parallel_groups_(std::move(parallel_groups)),
      config_(std::move(config)) {
  if (config_.workers < 1) config_.workers = 1;
  if (!config_.shard_key_field.empty()) {
    shard_key_fid_ = rpc::InternFieldName(config_.shard_key_field);
    has_shard_key_ = true;
  }
  template_instances_.reserve(elements_.size());
  for (size_t i = 0; i < elements_.size(); ++i) {
    template_instances_.push_back(std::make_unique<ir::ElementInstance>(
        elements_[i], config_.seed + i + 1));
  }
  // Compiled forms. The whole-chain program is the sequential fast path; the
  // per-element programs serve concurrent segments and the fallback path.
  element_programs_.resize(elements_.size());
  bool all_compiled = true;
  for (size_t i = 0; i < elements_.size(); ++i) {
    auto program = compiler::CompileElementProgram(*elements_[i]);
    if (program.ok()) {
      element_programs_[i] = std::move(program).value();
    } else {
      all_compiled = false;
    }
  }
  if (all_compiled && config_.group_mode == GroupMode::kSequential) {
    auto chain = compiler::CompileChainProgram(elements_, {});
    if (chain.ok()) whole_chain_program_ = std::move(chain).value();
  }
  if (whole_chain_program_ != nullptr) {
    program_version_.store(whole_chain_program_->version,
                           std::memory_order_relaxed);
  }
  // Initial routing: slots dealt round-robin across workers. Start() shards
  // tables with the same (slot % workers) assignment, so routing and state
  // agree from the first message.
  for (size_t s = 0; s < kRouteSlots; ++s) {
    route_[s] = static_cast<int32_t>(s % static_cast<size_t>(config_.workers));
  }
  BuildSegments();
}

EnginePool::~EnginePool() { Stop(); }

void EnginePool::BuildSegments() {
  segments_.clear();
  max_fused_width_ = 1;
  size_t i = 0;
  while (i < elements_.size()) {
    Segment seg;
    seg.begin = i;
    seg.end = i + 1;
    if (i < parallel_groups_.size()) {
      const int group = parallel_groups_[i];
      while (seg.end < elements_.size() && seg.end < parallel_groups_.size() &&
             parallel_groups_[seg.end] == group) {
        ++seg.end;
      }
    }
    // A fused concurrent segment must be provably safe on one shared
    // Message: every member compiled, and no member reshapes the field
    // vector (projection) or steers routing mid-group. Written fields are
    // collected so RunFusedSegment can pre-create them — after that, every
    // kStoreField lands in an existing slot and never reallocates.
    if (seg.end - seg.begin > 1) {
      bool safe = true;
      for (size_t e = seg.begin; e < seg.end && safe; ++e) {
        const ir::ChainProgram* program = element_programs_[e].get();
        if (program == nullptr) {
          safe = false;
          break;
        }
        for (const ir::Instr& instr : program->code) {
          if (instr.op == ir::Instr::Op::kProject ||
              instr.op == ir::Instr::Op::kRouteDest) {
            safe = false;
            break;
          }
          if (instr.op == ir::Instr::Op::kStoreField) {
            seg.precreate_fields.push_back(
                rpc::InternFieldName(program->field_names[instr.b]));
          }
        }
      }
      seg.fused = safe;
      if (!safe) seg.precreate_fields.clear();
      std::sort(seg.precreate_fields.begin(), seg.precreate_fields.end());
      seg.precreate_fields.erase(
          std::unique(seg.precreate_fields.begin(), seg.precreate_fields.end()),
          seg.precreate_fields.end());
      if (seg.fused) {
        max_fused_width_ = std::max(max_fused_width_, seg.end - seg.begin);
      }
    }
    segments_.push_back(std::move(seg));
    i = segments_.back().end;
  }
}

ir::ElementInstance* EnginePool::TemplateInstance(size_t element) {
  if (element >= template_instances_.size()) return nullptr;
  return template_instances_[element].get();
}

ir::ElementInstance* EnginePool::FindTemplateInstance(std::string_view name) {
  for (auto& inst : template_instances_) {
    if (inst->name() == name) return inst.get();
  }
  return nullptr;
}

Status EnginePool::Start() {
  if (started_) {
    return Status(ErrorCode::kInvalidArgument, "EnginePool already started");
  }
  const int n = config_.workers;
  // Shard the template state under the two-level slot partition
  // ((key hash % kRouteSlots) % workers) so table placement matches the
  // route_ slot table for ANY worker count — the invariant live migration
  // preserves one slot at a time.
  std::vector<std::vector<Bytes>> shards(elements_.size());
  for (size_t e = 0; e < elements_.size(); ++e) {
    auto split = template_instances_[e]->SplitStateSlotted(
        static_cast<size_t>(n), kRouteSlots);
    if (!split.ok()) return split.status();
    shards[e] = std::move(split).value();
  }

  workers_.reserve(static_cast<size_t>(n));
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  for (int w = 0; w < n; ++w) {
    auto worker = std::make_unique<Worker>(config_.ring_capacity);
    worker->trace_processor =
        config_.processor + "-w" + std::to_string(w);
    const std::string label =
        "processor=\"" + worker->trace_processor + "\"";
    worker->rpcs_counter = &reg.GetCounter("adn_chain_rpcs_total", label);
    worker->drops_counter = &reg.GetCounter("adn_chain_drops_total", label);
    worker->trace_processor_id = obs::InternName(worker->trace_processor);
    worker->instances.reserve(elements_.size());
    for (size_t e = 0; e < elements_.size(); ++e) {
      auto inst = std::make_unique<ir::ElementInstance>(
          elements_[e],
          config_.seed * 1'000'003 + static_cast<uint64_t>(w) * 131 + e);
      ADN_RETURN_IF_ERROR(inst->RestoreState(shards[e][w]));
      worker->instances.push_back(std::move(inst));
    }
    if (whole_chain_program_ != nullptr) {
      std::vector<ir::ElementInstance*> raw;
      for (auto& inst : worker->instances) raw.push_back(inst.get());
      worker->chain_exec = std::make_unique<ir::ChainExecutor>(
          whole_chain_program_, std::move(raw));
      worker->chain_exec->set_trace_identity(obs::Tier::kEngine,
                                             worker->trace_processor_id);
    } else {
      worker->element_exec.resize(elements_.size());
      for (size_t e = 0; e < elements_.size(); ++e) {
        if (element_programs_[e] == nullptr) continue;
        worker->element_exec[e] = std::make_unique<ir::ChainExecutor>(
            element_programs_[e],
            std::vector<ir::ElementInstance*>{worker->instances[e].get()});
        worker->element_exec[e]->set_trace_identity(
            obs::Tier::kEngine, worker->trace_processor_id);
      }
      if (config_.group_mode == GroupMode::kConcurrent &&
          max_fused_width_ > 1) {
        worker->group_runner = std::make_unique<GroupRunner>(
            static_cast<int>(max_fused_width_) - 1);
      }
    }
    workers_.push_back(std::move(worker));
  }
  stop_.store(false, std::memory_order_release);
  started_ = true;
  for (int w = 0; w < n; ++w) {
    workers_[static_cast<size_t>(w)]->thread =
        std::thread([this, w] { WorkerLoop(w); });
  }
  return Status::Ok();
}

int EnginePool::SlotOfKey(const rpc::Value& key) {
  return static_cast<int>(rpc::HashSingleKey(key) %
                          static_cast<uint64_t>(kRouteSlots));
}

int EnginePool::SlotOfMessage(const rpc::Message& message) const {
  if (has_shard_key_) {
    if (const rpc::Value* v = message.FindField(shard_key_fid_)) {
      return SlotOfKey(*v);
    }
  }
  // Connection/RPC-id fallback for messages without the shard key.
  return SlotOfKey(rpc::Value(static_cast<int64_t>(message.id())));
}

int EnginePool::WorkerOfSlot(int slot) const {
  return static_cast<int>(route_[static_cast<size_t>(slot)]);
}

int EnginePool::WorkerOfKey(const rpc::Value& key) const {
  return WorkerOfSlot(SlotOfKey(key));
}

int EnginePool::WorkerOfMessage(const rpc::Message& message) const {
  return WorkerOfSlot(SlotOfMessage(message));
}

int EnginePool::Submit(rpc::Message message) {
  if (mig_ != nullptr && mig_->holding) {
    // Cutover window: the moving slot's messages wait producer-side (in
    // order) until the delta lands at the destination; everything else
    // flows. This — not a pool-wide pause — is the whole blackout.
    const int slot = SlotOfMessage(message);
    if (slot == mig_->slot) {
      mig_->held.push_back(std::move(message));
      PumpMigration();
      return mig_->to;
    }
  }
  const int w = WorkerOfMessage(message);
  Worker& worker = *workers_[static_cast<size_t>(w)];
  worker.submitted.fetch_add(1, std::memory_order_relaxed);
  while (!worker.ring.TryPush(std::move(message))) {
    // Backpressure: the SPSC contract means only this thread pushes, so
    // yielding until the worker frees a slot is safe (and on an
    // oversubscribed host it donates the timeslice to the worker).
    std::this_thread::yield();
  }
  // StoreLoad barrier: TryPush published tail_ with a release store, which
  // may otherwise be reordered after the sleeping load below. Pairs with
  // the fence between the worker's sleeping store and its ring.empty()
  // check in WorkerLoop: either the worker sees this message or this
  // thread sees the worker parked, never neither.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (worker.sleeping.load(std::memory_order_seq_cst)) Wake(worker);
  return w;
}

void EnginePool::Wake(Worker& w) {
  // Whoever clears the word owns the wake; a worker not yet blocked sees 0
  // and its FUTEX_WAIT returns at once.
  if (w.sleeping.exchange(Worker::kAwake, std::memory_order_seq_cst) !=
      Worker::kAwake) {
    FutexWakeOne(w.sleeping);
  }
}

void EnginePool::Drain() {
  if (!started_) return;
  // Lost wake-up watchdog. While the producer drains it pushes nothing, and
  // a worker reaches kParked only after its re-check found the ring empty:
  // a worker seen kParked with messages queued for longer than
  // kLostWakeGrace was never woken for them. Count it and wake it.
  constexpr auto kLostWakeGrace = std::chrono::milliseconds(10);
  for (auto& worker : workers_) {
    Worker& w = *worker;
    std::optional<std::chrono::steady_clock::time_point> stuck_since;
    while (w.done.load(std::memory_order_acquire) <
           w.submitted.load(std::memory_order_relaxed)) {
      if (w.sleeping.load(std::memory_order_acquire) == Worker::kParked &&
          w.ring.size() != 0) {
        const auto now = std::chrono::steady_clock::now();
        if (!stuck_since) {
          stuck_since = now;
        } else if (now - *stuck_since > kLostWakeGrace) {
          w.lost_wakeups.fetch_add(1, std::memory_order_relaxed);
          Wake(w);
          stuck_since.reset();
        }
      } else {
        stuck_since.reset();
      }
      std::this_thread::yield();
    }
  }
}

void EnginePool::Stop() {
  if (!started_ || stopped_) return;
  Drain();
  stop_.store(true, std::memory_order_seq_cst);
  for (auto& worker : workers_) Wake(*worker);
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
    worker->group_runner.reset();  // joins helper threads
  }
  stopped_ = true;
}

void EnginePool::WorkerLoop(int index) {
  Worker& w = *workers_[static_cast<size_t>(index)];
  // Register + label this worker's event ring up front so tools list the
  // worker before its first emit. Registration allocates no slots; they
  // are allocated only if this worker emits (obs on).
  obs::EventRingRegistry::Default().SetThisThreadLabel(w.trace_processor);
  const int64_t cpu_start = ThreadCpuNs();
  int64_t exec_acc = 0;
  // One unified burst drain for both the measuring and non-measuring modes:
  // TryPopBurst moves up to burst_size messages per head/tail round trip
  // into a fixed worker-local array (no per-batch heap traffic), then
  // ProcessBatch runs the burst executor (or the per-message path when the
  // chain is not burst-compiled / observability is on).
  //
  // measure_exec wraps only the ProcessBatch call in a
  // CLOCK_THREAD_CPUTIME_ID window: thread CPU time excludes preemption
  // (wall clocks lie on oversubscribed hosts) and the burst amortizes the
  // two clock syscalls to ~nothing per message. Dequeue, on_done, message
  // destruction, and parking stay outside the window, so exec_ns measures
  // the same thing bench_breakdown's timed loop does.
  const size_t burst_max =
      std::clamp<size_t>(config_.burst_size, 1, ir::ChainExecutor::kMaxBurstLanes);
  std::array<rpc::Message, ir::ChainExecutor::kMaxBurstLanes> burst;
  std::array<ir::ProcessResult, ir::ChainExecutor::kMaxBurstLanes> results;
  int spins = 0;
  for (;;) {
    // Reconfiguration mailbox: one relaxed load per burst when idle. A
    // pending op whose barrier is ahead clamps the burst so no pop crosses
    // it — the "swap at burst boundaries" guarantee.
    size_t burst_limit = burst_max;
    if (w.ctrl_pending.load(std::memory_order_acquire)) {
      burst_limit = RunPendingControl(w, burst_max);
    }
    const size_t got = w.ring.TryPopBurst(burst.data(), burst_limit);
    if (got > 0) {
      spins = 0;
      const int64_t now_ns = config_.clock ? config_.clock() : 0;
      if (config_.measure_exec) {
        const int64_t exec_start = ThreadCpuNs();
        ProcessBatch(w, burst.data(), got, now_ns, results.data());
        exec_acc += ThreadCpuNs() - exec_start;
        // Publish exec before done: after Drain() observes done==submitted,
        // worker_exec_ns() is exact for everything processed so far.
        w.exec_ns.store(exec_acc, std::memory_order_release);
      } else {
        ProcessBatch(w, burst.data(), got, now_ns, results.data());
      }
      uint64_t drops = 0;
      for (size_t i = 0; i < got; ++i) {
        // kReply lanes completed successfully (cache short-circuit).
        if (results[i].outcome != ir::ProcessOutcome::kPass &&
            results[i].outcome != ir::ProcessOutcome::kReply) {
          ++drops;
        }
        if (config_.on_done) config_.on_done(index, burst[i], results[i]);
      }
      if (drops > 0) w.dropped.fetch_add(drops, std::memory_order_relaxed);
      w.done.fetch_add(got, std::memory_order_release);
      continue;
    }
    if (stop_.load(std::memory_order_acquire)) break;
    // A short pre-park spin bridges back-to-back bursts; keep it SMALL.
    // Submit() notifies a sleeping worker, so parking promptly costs one
    // futex wake (~µs) — while a long yield loop on a host with fewer cores
    // than threads ping-pongs timeslices between spinning workers (tens of
    // thousands of context switches per second) and starves the control
    // ops whose latency is the live-migration blackout window.
    if (++spins < 4) {
      std::this_thread::yield();
      continue;
    }
    // Park so idle workers burn no CPU (keeps worker_cpu_ns ≈ busy time).
    // The seq_cst store + fence pair with the fence after Submit's push and
    // with PostControl's and Stop's seq_cst stores: either the waker sees a
    // non-zero word and wakes this thread, or the re-check below sees its
    // message, control op or stop. A wake that lands after the re-check
    // fails the CAS (the word is kAwake) or makes FUTEX_WAIT return at once.
    // The wait has no timeout (a timed futex arms a kernel timer on every
    // park); Drain() is the watchdog.
    w.sleeping.store(Worker::kParking, std::memory_order_seq_cst);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    uint32_t parking = Worker::kParking;
    if (w.ring.empty() && !stop_.load(std::memory_order_acquire) &&
        !w.ctrl_pending.load(std::memory_order_seq_cst) &&
        w.sleeping.compare_exchange_strong(parking, Worker::kParked,
                                           std::memory_order_seq_cst)) {
      FutexWait(w.sleeping, Worker::kParked);
    }
    w.sleeping.store(Worker::kAwake, std::memory_order_relaxed);
    spins = 0;
  }
  // Drain any control ops posted after the last mailbox check; the ring is
  // empty here, so every barrier has been reached.
  if (w.ctrl_pending.load(std::memory_order_acquire)) {
    RunPendingControl(w, burst_max);
  }
  w.cpu_ns.store(ThreadCpuNs() - cpu_start, std::memory_order_release);
  w.exec_ns.store(exec_acc, std::memory_order_release);
}

void EnginePool::PostControl(int worker, std::function<void()> fn) {
  Worker& w = *workers_[static_cast<size_t>(worker)];
  ControlOp op;
  // Barrier: everything submitted so far must be done before fn runs. The
  // ring is FIFO, so this equals "every message ahead of this post".
  op.after_submitted = w.submitted.load(std::memory_order_relaxed);
  op.fn = std::move(fn);
  {
    std::lock_guard<std::mutex> lock(w.ctrl_mu);
    w.ctrl_ops.push_back(std::move(op));
  }
  w.ctrl_pending.store(true, std::memory_order_seq_cst);
  if (w.sleeping.load(std::memory_order_seq_cst)) Wake(w);
}

size_t EnginePool::RunPendingControl(Worker& w, size_t burst_max) {
  const uint64_t done = w.done.load(std::memory_order_relaxed);
  std::vector<std::function<void()>> ready;
  uint64_t next_barrier = 0;
  bool have_barrier = false;
  {
    std::lock_guard<std::mutex> lock(w.ctrl_mu);
    while (!w.ctrl_ops.empty() && w.ctrl_ops.front().after_submitted <= done) {
      ready.push_back(std::move(w.ctrl_ops.front().fn));
      w.ctrl_ops.pop_front();
    }
    if (w.ctrl_ops.empty()) {
      w.ctrl_pending.store(false, std::memory_order_release);
    } else {
      have_barrier = true;
      next_barrier = w.ctrl_ops.front().after_submitted;
    }
  }
  for (auto& fn : ready) fn();
  if (!have_barrier) return burst_max;
  // next_barrier > done (a reached barrier was popped above), so the clamp
  // is never zero: progress toward the barrier is always possible.
  return static_cast<size_t>(
      std::min<uint64_t>(burst_max, next_barrier - done));
}

void EnginePool::ProcessBatch(Worker& w, rpc::Message* msgs, size_t n,
                              int64_t now_ns, ir::ProcessResult* results) {
  // Observability is NOT a fallback condition: a burst-vectorizable
  // whole-chain executor runs the SoA burst path with telemetry on — the
  // executor batches histograms/spans internally (burst-granular, written
  // to this worker's event ring) and the pool counters batch to one Inc(n)
  // here. Only a chain the analysis could not vectorize takes the
  // per-message path when obs is on, keeping its per-RPC trace scopes.
  if (w.chain_exec != nullptr &&
      (!obs::Enabled() || w.chain_exec->burst_vectorizable())) {
    const bool timing = obs::Enabled();
    w.chain_exec->ProcessBurst(msgs, n, now_ns, results);
    if (timing) {
      w.rpcs_counter->Inc(n);
      uint64_t drops = 0;
      for (size_t i = 0; i < n; ++i) {
        if (results[i].outcome != ir::ProcessOutcome::kPass &&
            results[i].outcome != ir::ProcessOutcome::kReply) {
          ++drops;
        }
      }
      if (drops > 0) w.drops_counter->Inc(drops);
    }
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    results[i] = ProcessMessage(w, msgs[i], now_ns);
  }
}

ir::ProcessResult EnginePool::ProcessMessage(Worker& w, rpc::Message& m,
                                             int64_t now_ns) {
  const bool timing = obs::Enabled();
  std::optional<obs::RpcTraceScope> scope;
  if (timing) {
    w.rpcs_counter->Inc();
    scope.emplace(m.id(), obs::Tier::kEngine, w.trace_processor_id,
                  PoolRpcNameId());
  }
  ir::ProcessResult result = ir::ProcessResult::Pass();
  if (w.chain_exec != nullptr) {
    result = w.chain_exec->Process(m, now_ns);
  } else {
    for (const Segment& seg : segments_) {
      if (seg.fused && w.group_runner != nullptr) {
        result = RunFusedSegment(w, seg, m, now_ns);
      } else {
        for (size_t e = seg.begin; e < seg.end; ++e) {
          result = RunElement(w, e, m, now_ns);
          if (result.outcome != ir::ProcessOutcome::kPass) break;
        }
      }
      if (result.outcome != ir::ProcessOutcome::kPass) break;
    }
  }
  if (timing && result.outcome != ir::ProcessOutcome::kPass &&
      result.outcome != ir::ProcessOutcome::kReply) {
    w.drops_counter->Inc();
  }
  return result;
}

ir::ProcessResult EnginePool::RunElement(Worker& w, size_t element,
                                         rpc::Message& m, int64_t now_ns) {
  ir::ElementInstance& inst = *w.instances[element];
  if (!inst.AppliesTo(m.kind())) return ir::ProcessResult::Pass();
  if (w.element_exec[element] != nullptr) {
    return w.element_exec[element]->Process(m, now_ns);
  }
  return inst.Process(m, now_ns);
}

ir::ProcessResult EnginePool::RunFusedSegment(Worker& w, const Segment& seg,
                                              rpc::Message& m,
                                              int64_t now_ns) {
  // Collect applicable members; a group that degenerates to one member runs
  // inline with no fork-join cost.
  std::vector<size_t> members;
  members.reserve(seg.end - seg.begin);
  for (size_t e = seg.begin; e < seg.end; ++e) {
    if (w.instances[e]->AppliesTo(m.kind())) members.push_back(e);
  }
  if (members.empty()) return ir::ProcessResult::Pass();
  if (members.size() == 1) return RunElement(w, members[0], m, now_ns);

  // Pre-create every field the segment writes: after this, member stores
  // overwrite existing slots in place and the field vector never moves while
  // the helpers run. The effect analysis already guarantees the members'
  // read/write field sets are pairwise disjoint.
  for (const rpc::FieldId field : seg.precreate_fields) {
    if (!m.HasField(field)) m.SetField(field, rpc::Value());
  }

  std::vector<ir::ProcessResult> results(members.size());
  std::vector<std::function<void()>> tasks;
  tasks.reserve(members.size());
  for (size_t k = 0; k < members.size(); ++k) {
    tasks.push_back([this, &w, &m, &results, &members, k, now_ns] {
      results[k] = w.element_exec[members[k]]->Process(m, now_ns);
    });
  }
  w.group_runner->Run(tasks);
  // All members saw the same input snapshot; the first non-pass in chain
  // order decides the message's fate (CheckParallelizable admits at most
  // one dropper per group).
  for (const ir::ProcessResult& r : results) {
    if (r.outcome != ir::ProcessOutcome::kPass) return r;
  }
  return ir::ProcessResult::Pass();
}

uint64_t EnginePool::processed() const {
  uint64_t total = 0;
  for (const auto& worker : workers_) {
    total += worker->done.load(std::memory_order_acquire);
  }
  return total;
}

uint64_t EnginePool::dropped() const {
  uint64_t total = 0;
  for (const auto& worker : workers_) {
    total += worker->dropped.load(std::memory_order_acquire);
  }
  return total;
}

uint64_t EnginePool::processed_by(int worker) const {
  return workers_[static_cast<size_t>(worker)]->done.load(
      std::memory_order_acquire);
}

int64_t EnginePool::worker_cpu_ns(int worker) const {
  return workers_[static_cast<size_t>(worker)]->cpu_ns.load(
      std::memory_order_acquire);
}

int64_t EnginePool::worker_exec_ns(int worker) const {
  return workers_[static_cast<size_t>(worker)]->exec_ns.load(
      std::memory_order_acquire);
}

uint64_t EnginePool::lost_wakeups(int worker) const {
  return workers_[static_cast<size_t>(worker)]->lost_wakeups.load(
      std::memory_order_relaxed);
}

ir::ElementInstance& EnginePool::WorkerInstance(int worker, size_t element) {
  return *workers_[static_cast<size_t>(worker)]->instances[element];
}

Result<std::unique_ptr<ir::ElementInstance>> EnginePool::MergedInstance(
    size_t element) const {
  auto merged = std::make_unique<ir::ElementInstance>(elements_[element],
                                                      config_.seed);
  for (const auto& worker : workers_) {
    const Bytes snapshot = worker->instances[element]->SnapshotState();
    ADN_RETURN_IF_ERROR(merged->MergeState(snapshot));
  }
  return merged;
}

uint64_t EnginePool::MergedStateHash(size_t element) const {
  uint64_t h = 0;
  for (const auto& worker : workers_) {
    h ^= worker->instances[element]->StateContentHash();
  }
  return h;
}

// --- Live reconfiguration (docs/RECONFIG.md) ----------------------------------

Status EnginePool::BeginSlotMigration(int slot, int to_worker) {
  if (!started_ || stopped_) {
    return Status(ErrorCode::kFailedPrecondition,
                  "BeginSlotMigration: pool is not running");
  }
  if (slot < 0 || static_cast<size_t>(slot) >= kRouteSlots) {
    return Status(ErrorCode::kInvalidArgument,
                  "BeginSlotMigration: slot out of range");
  }
  if (to_worker < 0 || to_worker >= config_.workers) {
    return Status(ErrorCode::kInvalidArgument,
                  "BeginSlotMigration: destination worker out of range");
  }
  if (mig_ != nullptr && mig_->phase != MigrationPhase::kIdle &&
      mig_->phase != MigrationPhase::kDone) {
    return Status(ErrorCode::kFailedPrecondition,
                  "BeginSlotMigration: a migration is already in flight");
  }
  const int from = WorkerOfSlot(slot);
  if (from == to_worker) {
    return Status(ErrorCode::kInvalidArgument,
                  "BeginSlotMigration: slot already lives on that worker");
  }
  auto mig = std::make_unique<LiveMigration>();
  mig->phase = MigrationPhase::kSnapshot;
  mig->slot = slot;
  mig->from = from;
  mig->to = to_worker;
  mig->stats.slot = slot;
  mig->stats.from = from;
  mig->stats.to = to_worker;
  LiveMigration* m = mig.get();
  mig_ = std::move(mig);
  EmitReconfigEvent(obs::EventKind::kReconfig, obs::kEventReconfigSnapshot,
                    config_.processor, static_cast<uint64_t>(slot));
  // Source worker, between bursts: capture the slice snapshot (the bulk
  // copy) and a mutation baseline of the slot's keyed rows. The slot keeps
  // serving at the source while the destination absorbs the bulk.
  PostControl(from, [this, m] {
    Worker& src = *workers_[static_cast<size_t>(m->from)];
    m->baselines.reserve(src.instances.size());
    m->bulk.reserve(src.instances.size());
    for (auto& inst : src.instances) {
      m->baselines.push_back(ir::StateBaseline::Capture(
          *inst, m->slot, kRouteSlots));
      m->bulk.push_back(inst->SnapshotSlice(
          static_cast<size_t>(m->slot), kRouteSlots));
    }
    m->snapshot_ready.store(true, std::memory_order_release);
  });
  return Status::Ok();
}

EnginePool::MigrationPhase EnginePool::PumpMigration() {
  if (mig_ == nullptr) return MigrationPhase::kIdle;
  LiveMigration* m = mig_.get();
  switch (m->phase) {
    case MigrationPhase::kIdle:
    case MigrationPhase::kDone:
      break;
    case MigrationPhase::kSnapshot: {
      if (!m->snapshot_ready.load(std::memory_order_acquire)) break;
      for (const Bytes& b : m->bulk) m->stats.bulk_bytes += b.size();
      // Destination absorbs the bulk slice while the source keeps serving —
      // the double-buffer window. Mutations racing this copy are caught by
      // the baseline diff at cutover.
      PostControl(m->to, [this, m] {
        Worker& dst = *workers_[static_cast<size_t>(m->to)];
        for (size_t e = 0; e < dst.instances.size(); ++e) {
          // Same element layout on both sides: cannot fail.
          (void)dst.instances[e]->MergeState(m->bulk[e]);
        }
        m->bulk_merged.store(true, std::memory_order_release);
      });
      m->phase = MigrationPhase::kBulkMerge;
      EmitReconfigEvent(obs::EventKind::kReconfig, obs::kEventReconfigBulkMerge,
                        config_.processor, m->stats.bulk_bytes);
      break;
    }
    case MigrationPhase::kBulkMerge: {
      if (!m->bulk_merged.load(std::memory_order_acquire)) break;
      // Cutover: hold the slot's traffic producer-side (everything else
      // flows) and ask the source — after it drains everything submitted
      // before this instant — for the mutation delta, then drop its slice.
      m->holding = true;
      m->hold_start = std::chrono::steady_clock::now();
      PostControl(m->from, [this, m] {
        Worker& src = *workers_[static_cast<size_t>(m->from)];
        m->deltas.reserve(src.instances.size());
        for (size_t e = 0; e < src.instances.size(); ++e) {
          auto delta = m->baselines[e].Diff(*src.instances[e]);
          // Diff only fails on layout drift, impossible mid-run.
          m->deltas.push_back(std::move(delta).value());
        }
        m->delta_ready.store(true, std::memory_order_release);
      });
      // Slice cleanup is a separate op so the hold window ends at
      // delta_ready, not after the erase: the source's slot state is final
      // once the diff ran (its barrier covers every pre-hold message, and
      // held traffic never reaches the source), so the erase can overlap
      // the flip. FIFO ctrl order keeps it behind the diff.
      PostControl(m->from, [this, m] {
        Worker& src = *workers_[static_cast<size_t>(m->from)];
        for (auto& inst : src.instances) {
          inst->EraseSlice(static_cast<size_t>(m->slot), kRouteSlots);
        }
        m->erase_done.store(true, std::memory_order_release);
      });
      m->phase = MigrationPhase::kCutover;
      EmitReconfigEvent(obs::EventKind::kReconfig, obs::kEventReconfigCutover,
                        config_.processor, static_cast<uint64_t>(m->slot));
      break;
    }
    case MigrationPhase::kCutover: {
      if (!m->delta_ready.load(std::memory_order_acquire)) break;
      for (const ir::StateDelta& d : m->deltas) {
        m->stats.delta_upserts += d.upserts;
        m->stats.delta_deletes += d.deletes;
      }
      // Replay the delta at the destination, ahead of the flipped traffic:
      // the ctrl op's barrier is the destination's submitted count NOW, so
      // it runs before any message flushed or routed after this point.
      PostControl(m->to, [this, m] {
        Worker& dst = *workers_[static_cast<size_t>(m->to)];
        for (size_t e = 0; e < dst.instances.size(); ++e) {
          (void)m->deltas[e].ApplyTo(*dst.instances[e]);
        }
        m->delta_applied.store(true, std::memory_order_release);
      });
      // Atomic flip + flush: the slot now routes to the destination and the
      // held messages re-enter in their original order, behind the replay.
      route_[static_cast<size_t>(m->slot)] = static_cast<int32_t>(m->to);
      m->holding = false;
      m->stats.held_messages = static_cast<uint64_t>(m->held.size());
      std::vector<rpc::Message> held = std::move(m->held);
      m->held.clear();
      for (rpc::Message& msg : held) Submit(std::move(msg));
      m->stats.blackout_ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - m->hold_start)
              .count();
      m->phase = MigrationPhase::kReplay;
      EmitReconfigEvent(obs::EventKind::kReconfig, obs::kEventReconfigReplay,
                        config_.processor,
                        static_cast<uint64_t>(m->stats.blackout_ns));
      break;
    }
    case MigrationPhase::kReplay: {
      if (!m->delta_applied.load(std::memory_order_acquire) ||
          !m->erase_done.load(std::memory_order_acquire)) {
        break;
      }
      if (obs::Enabled()) {
        obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
        const std::string label = "processor=\"" + config_.processor + "\"";
        reg.GetHistogram("adn_reconfig_blackout_ns", label)
            .Observe(static_cast<double>(m->stats.blackout_ns));
        reg.GetCounter("adn_reconfig_delta_replayed", label)
            .Inc(m->stats.delta_upserts + m->stats.delta_deletes);
      }
      m->phase = MigrationPhase::kDone;
      break;
    }
  }
  return m->phase;
}

bool EnginePool::MigrationActive() const {
  return mig_ != nullptr && mig_->phase != MigrationPhase::kIdle &&
         mig_->phase != MigrationPhase::kDone;
}

const EnginePool::LiveMigrationStats& EnginePool::migration_stats() const {
  static const LiveMigrationStats kNone;
  return mig_ != nullptr ? mig_->stats : kNone;
}

Status EnginePool::SwapProgram(
    std::vector<std::shared_ptr<const ir::ElementIr>> new_elements) {
  if (!started_ || stopped_) {
    return Status(ErrorCode::kFailedPrecondition,
                  "SwapProgram: pool is not running");
  }
  if (whole_chain_program_ == nullptr) {
    return Status(ErrorCode::kFailedPrecondition,
                  "SwapProgram: hot reload requires the whole-chain compiled "
                  "tier (sequential mode, SQL-only elements)");
  }
  if (swap_pending_.load(std::memory_order_acquire) != 0) {
    return Status(ErrorCode::kFailedPrecondition,
                  "SwapProgram: a swap is already in flight");
  }
  if (new_elements.size() != elements_.size()) {
    return Status(ErrorCode::kFailedPrecondition,
                  "SwapProgram: new chain has a different element count; "
                  "drain and redeploy instead");
  }
  // State compatibility first (same tables, same schemas per element), then
  // compile — an incompatible or non-compiling chain leaves the running
  // program untouched.
  for (size_t e = 0; e < new_elements.size(); ++e) {
    ADN_RETURN_IF_ERROR(
        ir::CheckStateCompatible(*elements_[e], *new_elements[e]));
  }
  auto chain = compiler::CompileChainProgram(new_elements, {});
  if (!chain.ok()) {
    return Status(chain.error().code(),
                  "SwapProgram: new chain does not compile: " +
                      chain.error().message());
  }
  std::shared_ptr<const ir::ChainProgram> program = std::move(chain).value();
  swap_pending_.store(config_.workers, std::memory_order_release);
  for (int w = 0; w < config_.workers; ++w) {
    // Each worker swaps between bursts, after draining what was already in
    // its ring: code pointer replaced in place (live tables kept), executor
    // rebuilt over the new program.
    PostControl(w, [this, w, program, new_elements] {
      Worker& wk = *workers_[static_cast<size_t>(w)];
      for (size_t e = 0; e < new_elements.size(); ++e) {
        (void)wk.instances[e]->ReplaceCode(new_elements[e]);  // pre-validated
      }
      std::vector<ir::ElementInstance*> raw;
      raw.reserve(wk.instances.size());
      for (auto& inst : wk.instances) raw.push_back(inst.get());
      wk.chain_exec =
          std::make_unique<ir::ChainExecutor>(program, std::move(raw));
      wk.chain_exec->set_trace_identity(obs::Tier::kEngine,
                                        wk.trace_processor_id);
      swap_pending_.fetch_sub(1, std::memory_order_release);
    });
  }
  // Producer-side bookkeeping so MergedInstance/TemplateInstance and any
  // later Start-style rebuild see the new chain.
  for (size_t e = 0; e < new_elements.size(); ++e) {
    (void)template_instances_[e]->ReplaceCode(new_elements[e]);
  }
  elements_ = new_elements;
  whole_chain_program_ = program;
  program_version_.store(program->version, std::memory_order_release);
  EmitReconfigEvent(obs::EventKind::kSwap, obs::kEventReconfigSwapProgram,
                    config_.processor, program->version);
  return Status::Ok();
}

bool EnginePool::SwapComplete() const {
  return swap_pending_.load(std::memory_order_acquire) == 0;
}

uint64_t EnginePool::program_version() const {
  return program_version_.load(std::memory_order_acquire);
}

}  // namespace adn::mrpc
