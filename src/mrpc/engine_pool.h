// EnginePool: the multi-worker mRPC engine runtime (mRPC, NSDI '23 is a
// multi-core shared-memory runtime; this is that shape for the ADN engine
// tier).
//
// An EnginePool owns N worker threads. Each worker runs the chain's compiled
// ChainProgram against its OWN ElementInstances, whose tables are the
// per-worker shards produced at Start(). A single producer thread routes
// every RPC through a fixed table of kRouteSlots key slots: the shard-key
// field hashes (HashSingleKey) into a slot, and the slot maps to a worker.
// Start() shards the tables with the SAME two-level function
// ((key hash % kRouteSlots) % workers, ElementInstance::SplitStateSlotted),
// so the worker that receives a message is exactly the worker whose shard
// holds that key's rows — and the slot indirection is what makes live
// migration possible: moving one slot's rows and flipping one route_ entry
// re-homes that key range without touching the rest (docs/RECONFIG.md).
// Messages are handed over on a true SPSC ring (ring.h); RPCs without the
// shard-key field fall back to a hash of the RPC/connection id.
//
// State stays per-worker and unsynchronized (shared-nothing); anything
// cross-worker is merge-on-read: processed()/dropped() sum worker counters,
// MergedInstance() materializes the union of the worker shards into a fresh
// instance, and MergedStateHash() XORs the shard hashes (ElementInstance::
// StateContentHash is XOR-decomposable, so the merged hash equals the
// unsharded hash exactly when the shards partition the rows — the PR 4
// migration invariant, now continuously checkable on a live pool).
//
// Parallel groups (paper §5.2): the compiler's effect analysis marks runs of
// elements that may execute concurrently on one message. GroupMode picks how
// a worker honors that:
//  - kSequential (default): group members run back-to-back on the worker.
//    Pool parallelism comes from sharding across workers — zero per-message
//    synchronization.
//  - kConcurrent: members of a size>1 group run as one fused concurrent
//    segment on per-worker helper threads (fork-join per message). Only
//    groups whose members are provably safe on a shared Message are fused
//    (no projection/routing, written fields pre-created so the field vector
//    never reallocates mid-flight); unsafe groups fall back to sequential.
// bench_scaling --threads measures both; see EXPERIMENTS.md for why
// sequential-within-worker wins for ns-scale elements.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "ir/exec.h"
#include "ir/program.h"
#include "ir/state_delta.h"
#include "mrpc/ring.h"
#include "obs/intern.h"
#include "obs/metrics.h"
#include "rpc/intern.h"
#include "rpc/message.h"

namespace adn::mrpc {

// Fork-join runner for one fused concurrent segment: `helpers` persistent
// threads wait for a task batch; Run() executes tasks[0] on the calling
// worker thread and tasks[1..] on helpers, returning when all finish.
class GroupRunner {
 public:
  explicit GroupRunner(int helpers);
  ~GroupRunner();

  GroupRunner(const GroupRunner&) = delete;
  GroupRunner& operator=(const GroupRunner&) = delete;

  // Blocks until every task has run. Tasks beyond the helper count run on
  // the calling thread.
  void Run(const std::vector<std::function<void()>>& tasks);

 private:
  void HelperLoop(int index);

  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  uint64_t epoch_ = 0;
  const std::vector<std::function<void()>>* tasks_ = nullptr;
  int remaining_ = 0;
  bool stop_ = false;
};

class EnginePool {
 public:
  enum class GroupMode { kSequential, kConcurrent };

  // Keys hash into this many fixed route slots; a slot maps to one worker
  // (route_). Live migration moves ownership of one slot at a time.
  static constexpr size_t kRouteSlots = 64;

  // Producer-driven live-migration state machine (docs/RECONFIG.md):
  //   kIdle -> kSnapshot (source captures slice + mutation baseline between
  //   bursts) -> kBulkMerge (destination absorbs the bulk copy while the
  //   source keeps serving the slot) -> kCutover (producer holds slot
  //   traffic; source diffs the baseline into a delta and drops the slice)
  //   -> kReplay (destination applies the delta; route flipped, held
  //   messages flushed behind it) -> kDone.
  enum class MigrationPhase : uint8_t {
    kIdle,
    kSnapshot,
    kBulkMerge,
    kCutover,
    kReplay,
    kDone,
  };

  struct LiveMigrationStats {
    int slot = -1;
    int from = -1;
    int to = -1;
    size_t bulk_bytes = 0;       // slice snapshot copied before the cutover
    uint64_t delta_upserts = 0;  // rows replayed at cutover
    uint64_t delta_deletes = 0;
    uint64_t held_messages = 0;  // producer-held during the cutover window
    int64_t blackout_ns = 0;     // cutover hold window (steady clock)
  };

  struct Config {
    int workers = 1;
    // Message field whose value routes the RPC (the shard key — normally
    // the primary key of the chain's hottest table). Empty or absent on a
    // message: route by hash of the RPC/connection id instead.
    std::string shard_key_field;
    size_t ring_capacity = 1024;
    GroupMode group_mode = GroupMode::kSequential;
    // Base seed for per-worker instance RNG/nonce streams.
    uint64_t seed = 1;
    // Observability identity: workers count into
    // adn_chain_rpcs_total/adn_chain_drops_total{processor="<processor>-w<i>"}
    // and open per-RPC trace scopes under that name.
    std::string processor = "engine-pool";
    // Worker clock exposed to now(); null = constant 0 (deterministic).
    std::function<int64_t()> clock;
    // Measure chain-execution time (CLOCK_THREAD_CPUTIME_ID around each
    // burst's executor call, excluding ring transport and dequeue):
    // worker_exec_ns(). Costs 2 clock reads per burst; off by default.
    bool measure_exec = false;
    // Messages drained and processed per burst (1 = per-message drain).
    // Each burst pays the ring's acquire/release pair once and, when the
    // chain is burst-vectorizable, one instruction-dispatch pass for the
    // whole burst (ChainExecutor::ProcessBurst). Clamped to
    // [1, ir::ChainExecutor::kMaxBurstLanes]. The default is the measured
    // knee on the fig5 chain — see bench_burst / BENCH_burst.json.
    size_t burst_size = 32;
    // Invoked on the WORKER thread after each message (any mode). Must be
    // thread-safe across workers; keep it cheap.
    std::function<void(int worker, const rpc::Message&,
                       const ir::ProcessResult&)>
        on_done;
  };

  // `parallel_groups[i]` is element i's compiler-assigned group id
  // (compiler::CompiledChain::parallel_groups); empty = every element its
  // own group. Elements must be SQL elements for the compiled tier; filter
  // elements make that element fall back to the interpreter.
  EnginePool(std::vector<std::shared_ptr<const ir::ElementIr>> elements,
             std::vector<int> parallel_groups, Config config);
  ~EnginePool();

  EnginePool(const EnginePool&) = delete;
  EnginePool& operator=(const EnginePool&) = delete;

  // --- Seeding (before Start) ------------------------------------------------
  // Controller-style state seeding happens on the template instances; Start
  // shards whatever the templates hold at that point.
  ir::ElementInstance* TemplateInstance(size_t element);
  ir::ElementInstance* FindTemplateInstance(std::string_view name);

  // Shard the template state across `workers` instance sets and spawn the
  // worker threads. Error to call twice.
  Status Start();
  bool started() const { return started_; }

  // --- Data plane (single producer) -----------------------------------------
  // Routes and enqueues; yields while the target worker's ring is full, and
  // wakes the worker if it is parked. Call from ONE thread. Returns the
  // worker index it routed to.
  int Submit(rpc::Message message);
  // Deterministic routing preview (usable before Start and from tests).
  int WorkerOfKey(const rpc::Value& key) const;
  int WorkerOfMessage(const rpc::Message& message) const;
  static int SlotOfKey(const rpc::Value& key);
  int SlotOfMessage(const rpc::Message& message) const;
  int WorkerOfSlot(int slot) const;

  // --- Live reconfiguration (producer thread; docs/RECONFIG.md) --------------
  // Start moving key slot `slot` from its current owner to `to_worker`.
  // Non-blocking: ingestion continues (including into the moving slot) while
  // the bulk copy proceeds; only the cutover holds slot traffic, for the
  // delta-sized blackout window. Drive with PumpMigration() until kDone.
  // One migration in flight at a time.
  Status BeginSlotMigration(int slot, int to_worker);
  // Advance the migration state machine (cheap; call from the submit loop).
  MigrationPhase PumpMigration();
  bool MigrationActive() const;
  // Stats of the last migration that reached kDone (producer thread).
  const LiveMigrationStats& migration_stats() const;

  // DSL hot-reload: recompile-and-swap the running chain without stopping
  // the workers. Requires the whole-chain compiled tier and state-compatible
  // elements (same table names/schemas per element — ir::CheckStateCompatible;
  // incompatible or non-compiling chains are rejected and the running
  // program is untouched). Each worker swaps at a burst boundary, keeping
  // its live tables; poll SwapComplete() for async completion.
  Status SwapProgram(
      std::vector<std::shared_ptr<const ir::ElementIr>> new_elements);
  bool SwapComplete() const;
  // Version of the chain program workers are (or will be, once SwapComplete)
  // running: ChainProgram::version, bumped by every compile.
  uint64_t program_version() const;

  // Blocks until every submitted message has been fully processed. Also the
  // lost wake-up watchdog: see lost_wakeups().
  void Drain();
  // Drain, then join every worker (and helper) thread. Idempotent; the
  // destructor calls it.
  void Stop();

  // --- Merge-on-read ---------------------------------------------------------
  int workers() const { return config_.workers; }
  size_t element_count() const { return elements_.size(); }
  uint64_t processed() const;  // summed over workers
  uint64_t dropped() const;
  uint64_t processed_by(int worker) const;
  // CPU nanoseconds worker `w` has consumed (CLOCK_THREAD_CPUTIME_ID),
  // final after Stop(). Idle workers park on a futex, so this approximates
  // busy time — the per-core cost the pool pays per message.
  int64_t worker_cpu_ns(int worker) const;
  // Nanoseconds worker `w` spent inside the chain executor, by thread-CPU
  // clock (only populated when Config::measure_exec; exact for all processed
  // messages once Drain() returns). The pool-side analogue of
  // bench_breakdown's compiled_ns_per_msg — excludes ring transport.
  int64_t worker_exec_ns(int worker) const;
  // Times Drain() found worker `w` blocked in its park with messages queued
  // for more than 10 ms, and woke it: lost wake-ups, which Submit's
  // StoreLoad fence rules out. Trade-off: a park has no timeout, so if that
  // fence protocol were broken, a missed wake would hold its message until
  // the next Submit to that worker or the next Drain() (Stop() drains
  // first), where a timed park would have held it for at most the timeout.
  uint64_t lost_wakeups(int worker) const;

  // Worker w's live instance of element e (tests; the worker thread owns it
  // while running — read after Drain/Stop).
  ir::ElementInstance& WorkerInstance(int worker, size_t element);

  // Union of the worker shards of element e, materialized into a fresh
  // instance (MergeState over every worker snapshot).
  Result<std::unique_ptr<ir::ElementInstance>> MergedInstance(
      size_t element) const;
  // XOR of the worker shards' StateContentHash — equals the hash of the
  // equivalent unsharded instance when the shards partition the rows.
  uint64_t MergedStateHash(size_t element) const;

  // True when worker threads execute the whole chain as one compiled
  // ChainProgram (SQL-only chain, sequential mode); false = per-element
  // dispatch (concurrent mode or interpreter fallback).
  bool whole_chain_compiled() const { return whole_chain_program_ != nullptr; }

 private:
  struct Segment {
    size_t begin = 0;  // element index range [begin, end)
    size_t end = 0;
    bool fused = false;  // safe to run concurrently in kConcurrent mode
    // Interned ids of fields kStoreField writes anywhere in the segment:
    // pre-created on the message before forking so no member's store
    // reallocates the field buffer.
    std::vector<rpc::FieldId> precreate_fields;
  };

  // A reconfiguration step to run on the worker thread, between bursts,
  // only after the worker has finished every message that was submitted
  // before the op was posted (after_submitted). The ring's FIFO plus this
  // barrier is the whole ordering story: a control op can never observe a
  // half-processed burst, and messages submitted after the post can never
  // overtake it.
  struct ControlOp {
    uint64_t after_submitted = 0;
    std::function<void()> fn;
  };

  struct Worker {
    explicit Worker(size_t ring_capacity) : ring(ring_capacity) {}

    SpscRing<rpc::Message> ring;
    std::vector<std::unique_ptr<ir::ElementInstance>> instances;
    // Sequential fast path: one executor over the whole chain.
    std::unique_ptr<ir::ChainExecutor> chain_exec;
    // Per-element executors (concurrent mode / fallback); null entry =
    // interpreter for that element.
    std::vector<std::unique_ptr<ir::ChainExecutor>> element_exec;
    std::unique_ptr<GroupRunner> group_runner;
    std::thread thread;

    std::atomic<uint64_t> submitted{0};  // producer-side
    std::atomic<uint64_t> done{0};       // worker-side
    std::atomic<uint64_t> dropped{0};
    std::atomic<int64_t> cpu_ns{0};
    std::atomic<int64_t> exec_ns{0};
    // Futex park word. The worker stores kParking before its re-check, then
    // CASes kParking -> kParked and FUTEX_WAITs on kParked; it stores kAwake
    // after. A waker (Submit, PostControl, Stop, the Drain watchdog) that
    // swaps a non-zero word to kAwake owns the FUTEX_WAKE. No lock on
    // either side. kParked means the re-check found nothing to do, so the
    // Drain watchdog never mistakes a worker preempted mid-park for a lost
    // wake-up.
    static constexpr uint32_t kAwake = 0, kParking = 1, kParked = 2;
    std::atomic<uint32_t> sleeping{kAwake};
    std::atomic<uint64_t> lost_wakeups{0};

    // Control mailbox (reconfiguration only; never on the message path).
    // ctrl_pending is the hot-path gate: one relaxed load per burst when no
    // reconfiguration is in flight.
    std::mutex ctrl_mu;
    std::deque<ControlOp> ctrl_ops;
    std::atomic<bool> ctrl_pending{false};

    obs::Counter* rpcs_counter = nullptr;
    obs::Counter* drops_counter = nullptr;
    std::string trace_processor;
    obs::NameId trace_processor_id = 0;  // interned once in Start
  };

  // In-flight live migration. Producer-owned; the flags publish the vectors
  // across the producer/source/destination handoffs (release/acquire, then
  // the ctrl mailbox mutex carries them to the next worker).
  struct LiveMigration {
    MigrationPhase phase = MigrationPhase::kIdle;
    int slot = -1;
    int from = -1;
    int to = -1;
    std::vector<ir::StateBaseline> baselines;  // source-worker-owned
    std::vector<Bytes> bulk;                   // slice snapshots, per element
    std::vector<ir::StateDelta> deltas;        // cutover deltas, per element
    std::atomic<bool> snapshot_ready{false};
    std::atomic<bool> bulk_merged{false};
    std::atomic<bool> delta_ready{false};
    std::atomic<bool> delta_applied{false};
    // Source-side slice cleanup runs in its own ctrl op AFTER delta_ready:
    // the erase is O(slot) index work but still has no business inside the
    // hold window. kDone waits for it so MergedStateHash never double-counts.
    std::atomic<bool> erase_done{false};
    bool holding = false;                 // producer: slot traffic held?
    std::vector<rpc::Message> held;       // producer-held slot messages
    std::chrono::steady_clock::time_point hold_start;
    LiveMigrationStats stats;
  };

  void WorkerLoop(int index);
  // Wake worker `w` if it is parked (or about to park).
  static void Wake(Worker& w);
  // Post `fn` to run on worker `worker`'s thread once it has drained every
  // message submitted before this call. Wakes the worker if parked.
  void PostControl(int worker, std::function<void()> fn);
  // Run the control ops whose barrier has been reached; returns how many
  // messages the next burst may pop without crossing the next op's barrier.
  size_t RunPendingControl(Worker& w, size_t burst_max);
  // Process msgs[0..n) on worker w, filling results[0..n). Takes the burst
  // executor when the whole chain is compiled (with obs on, only if it is
  // burst-vectorizable); otherwise the per-message path (which owns trace
  // scopes / counters).
  void ProcessBatch(Worker& w, rpc::Message* msgs, size_t n, int64_t now_ns,
                    ir::ProcessResult* results);
  ir::ProcessResult ProcessMessage(Worker& w, rpc::Message& m, int64_t now_ns);
  ir::ProcessResult RunElement(Worker& w, size_t element, rpc::Message& m,
                               int64_t now_ns);
  ir::ProcessResult RunFusedSegment(Worker& w, const Segment& seg,
                                    rpc::Message& m, int64_t now_ns);
  void BuildSegments();

  std::vector<std::shared_ptr<const ir::ElementIr>> elements_;
  std::vector<int> parallel_groups_;
  Config config_;
  // Interned once at construction so the Submit hot path routes by integer
  // field-id compare instead of a name scan. 0-and-false when no shard key.
  rpc::FieldId shard_key_fid_ = 0;
  bool has_shard_key_ = false;

  // Unsharded reference state (seeded pre-Start, sharded at Start).
  std::vector<std::unique_ptr<ir::ElementInstance>> template_instances_;

  std::shared_ptr<const ir::ChainProgram> whole_chain_program_;
  // Per-element programs, shared by every worker's executors; null entry =
  // no compiled form (filter element) -> interpreter.
  std::vector<std::shared_ptr<const ir::ChainProgram>> element_programs_;
  std::vector<Segment> segments_;
  size_t max_fused_width_ = 1;

  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<bool> stop_{false};
  bool started_ = false;
  bool stopped_ = false;

  // Slot -> worker routing table. Producer-thread-owned after Start (read by
  // Submit, written only at route flip in PumpMigration).
  std::array<int32_t, kRouteSlots> route_{};
  // Current (or last) live migration; kept alive until the next Begin so
  // worker-side ctrl lambdas holding the raw pointer stay valid.
  std::unique_ptr<LiveMigration> mig_;
  // Workers that have not yet switched to the swapped program; 0 = complete.
  std::atomic<int> swap_pending_{0};
  std::atomic<uint64_t> program_version_{0};
};

}  // namespace adn::mrpc
