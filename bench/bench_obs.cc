// Telemetry-on gate for the burst/zero-alloc hot path (E17).
//
// The burst-mode telemetry contract (docs/OBSERVABILITY.md "Burst-mode
// telemetry") promises observability is *always on*: enabling metrics plus
// sampled tracing must not push the data plane off the SoA burst executor,
// must cost <= 10% over obs-off, and must not allocate on the steady-state
// arena path. This bench measures all three on the fig5 chain with a
// 1-worker EnginePool (methodology of bench_burst / bench_alloc):
//
//  - obs-off / obs-on burst, interleaved: one pool at the default burst
//                     runs kPairs off/on rep pairs, toggling telemetry
//                     between reps while drained (metrics + tracing at
//                     1-in-kSampleEvery when on) and alternating which
//                     side of a pair runs first. obs_overhead_frac is the
//                     median of the per-pair on/off ratios minus one, so
//                     host drift hits both sides of a pair alike. The best
//                     obs-on rep is `compiled_ns_per_msg`, gated by CI
//                     against bench/baselines/obs_baseline.json.
//  - obs-on scalar:   burst_size=1 with the same telemetry. burst_speedup =
//                     scalar / burst proves telemetry did not collapse the
//                     burst win (tools/check_perf.py --min-speedup).
//  - obs-on arena:    bench_alloc's arena-backed submit path with telemetry
//                     on; the measured window must allocate NOTHING
//                     (tools/check_perf.py --max-allocs 0). Span records are
//                     fixed-size PODs pushed into per-worker SPSC event
//                     rings, metric deltas are batched counter/histogram
//                     adds — none of it touches the heap.
//
// Event rings are drained (Tracer::Clear) between reps while the pool is
// parked, so no rep's emit cost is silently discounted by a full ring
// dropping events; TotalDropped is checked to be 0 after the timed phases.
//
// Writes BENCH_obs.json (schema in EXPERIMENTS.md). Links adn_alloc_hooks
// so the alloc phase counts real heap traffic.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/alloc_stats.h"
#include "common/arena.h"
#include "compiler/lower.h"
#include "dsl/parser.h"
#include "elements/library.h"
#include "ir/analysis.h"
#include "mrpc/engine_pool.h"
#include "obs/event_ring.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rpc/intern.h"

#ifndef ADN_GIT_SHA
#define ADN_GIT_SHA "unknown"
#endif

namespace adn {
namespace {

constexpr int kUsers = 1024;
constexpr uint64_t kRepMessages = 100'000;
constexpr int kReps = 5;
constexpr int kPairs = 9;  // odd: the median ratio is one pair's ratio
constexpr uint64_t kSampleEvery = 100;
// Alloc window must stay under the table spare-row cap (65536) so every
// measured INSERT reuses a row recycled by the inter-rep Clear().
constexpr uint64_t kAllocRepMessages = 50'000;

std::string User(uint64_t i) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "u%04llu",
                static_cast<unsigned long long>(i % kUsers));
  return buf;
}

std::vector<rpc::Message> Stream(size_t n) {
  std::vector<rpc::Message> stream;
  stream.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    Bytes payload(64, static_cast<uint8_t>(i));
    std::vector<rpc::Field> fields = {
        {"username", rpc::Value(User(i * 2654435761ULL))},
        {"payload", rpc::Value(std::move(payload))}};
    stream.push_back(
        rpc::Message::MakeRequest(i + 1, "Obj.Put", std::move(fields)));
  }
  return stream;
}

void SetObs(bool on) {
  obs::SetEnabled(on);
  obs::Tracer::Default().SetTracingEnabled(on);
  if (on) obs::Tracer::Default().SetSampleEvery(kSampleEvery);
}

// A started 1-worker fig5 pool that measures executor time.
std::unique_ptr<mrpc::EnginePool> StartPool(
    const std::vector<std::shared_ptr<const ir::ElementIr>>& elements,
    const std::vector<int>& groups, size_t burst) {
  mrpc::EnginePool::Config config;
  config.workers = 1;
  config.shard_key_field = "username";
  config.processor = "bench-obs";
  config.measure_exec = true;
  config.burst_size = burst;
  auto pool = std::make_unique<mrpc::EnginePool>(elements, groups, config);
  rpc::Table* acl = pool->FindTemplateInstance("Acl")->FindTable("ac_tab");
  for (uint64_t i = 0; i < kUsers; ++i) {
    (void)acl->Insert({rpc::Value(User(i)), rpc::Value("W")});
  }
  if (!pool->Start().ok()) return nullptr;
  return pool;
}

// One rep's executor ns/msg (bench_burst methodology: log_tab cleared and
// event rings drained before the rep while the pool is parked).
double RepNsPerMsg(mrpc::EnginePool& pool,
                   const std::vector<rpc::Message>& stream) {
  pool.WorkerInstance(0, 0).FindTable("log_tab")->Clear();
  obs::Tracer::Default().Clear();  // drain rings: no mid-rep eviction
  const int64_t exec0 = pool.worker_exec_ns(0);
  const uint64_t done0 = pool.processed_by(0);
  for (uint64_t i = 0; i < kRepMessages; ++i) {
    pool.Submit(stream[i % stream.size()]);
  }
  pool.Drain();
  return static_cast<double>(pool.worker_exec_ns(0) - exec0) /
         static_cast<double>(pool.processed_by(0) - done0);
}

// Best-of-reps ns/msg with telemetry fixed on or off.
double Measure(const std::vector<std::shared_ptr<const ir::ElementIr>>& elements,
               const std::vector<int>& groups,
               const std::vector<rpc::Message>& stream, size_t burst,
               bool obs_on) {
  SetObs(obs_on);
  auto pool = StartPool(elements, groups, burst);
  if (pool == nullptr) return -1;
  double best = 1e18;
  for (int rep = 0; rep < kReps; ++rep) {
    best = std::min(best, RepNsPerMsg(*pool, stream));
  }
  pool->Stop();
  return best;
}

struct Interleaved {
  double off_ns = -1;     // best obs-off rep
  double on_ns = -1;      // best obs-on rep
  double overhead = 0;    // median over pairs of on/off, minus one
};

// kPairs obs-off/obs-on rep pairs in ONE pool, telemetry toggled between
// reps while the pool is drained.
Interleaved MeasureInterleaved(
    const std::vector<std::shared_ptr<const ir::ElementIr>>& elements,
    const std::vector<int>& groups, const std::vector<rpc::Message>& stream,
    size_t burst) {
  Interleaved out;
  SetObs(false);
  auto pool = StartPool(elements, groups, burst);
  if (pool == nullptr) return out;
  // Untimed warm-up of each side; the first obs-on rep also backs the
  // worker's event ring, a one-time cost no timed rep should carry.
  (void)RepNsPerMsg(*pool, stream);
  SetObs(true);
  (void)RepNsPerMsg(*pool, stream);
  std::vector<double> ratios;
  out.off_ns = out.on_ns = 1e18;
  for (int pair = 0; pair < kPairs; ++pair) {
    double ns[2] = {0, 0};  // [off, on]
    const bool on_first = pair % 2 == 1;
    for (const bool on : {on_first, !on_first}) {
      SetObs(on);
      ns[on ? 1 : 0] = RepNsPerMsg(*pool, stream);
    }
    out.off_ns = std::min(out.off_ns, ns[0]);
    out.on_ns = std::min(out.on_ns, ns[1]);
    ratios.push_back(ns[1] / ns[0]);
  }
  SetObs(false);
  pool->Stop();
  std::nth_element(ratios.begin(), ratios.begin() + kPairs / 2, ratios.end());
  out.overhead = ratios[kPairs / 2] - 1.0;
  return out;
}

// Allocations per message over one obs-on rep on the arena submit path
// (bench_alloc methodology; counter is process-global so the window covers
// producer, worker, and every telemetry emission in between).
double MeasureAllocs(
    const std::vector<std::shared_ptr<const ir::ElementIr>>& elements,
    const std::vector<int>& groups) {
  SetObs(true);
  mrpc::EnginePool::Config config;
  config.workers = 1;
  config.shard_key_field = "username";
  config.processor = "bench-obs";
  config.measure_exec = true;
  mrpc::EnginePool pool(elements, groups, config);
  rpc::Table* acl = pool.FindTemplateInstance("Acl")->FindTable("ac_tab");
  for (uint64_t i = 0; i < kUsers; ++i) {
    (void)acl->Insert({rpc::Value(User(i)), rpc::Value("W")});
  }
  if (!pool.Start().ok()) return -1;

  const rpc::FieldId username_fid = rpc::InternFieldName("username");
  const rpc::FieldId payload_fid = rpc::InternFieldName("payload");
  common::ArenaPool arena_pool(1024);  // small slabs: see bench_alloc
  uint8_t payload[64];
  auto submit = [&](uint64_t i) {
    rpc::Message m = rpc::Message::WithArena(arena_pool);
    m.set_id(i + 1);
    m.set_method("Obj.Put");
    std::memset(payload, static_cast<uint8_t>(i), sizeof payload);
    m.SetText(username_fid, User(i * 2654435761ULL));
    m.SetBytes(payload_fid, payload);
    pool.Submit(std::move(m));
  };

  // Warm rep: arena pool reaches steady size, spare rows stocked, counters
  // and the worker's event ring registered, interner populated.
  for (uint64_t i = 0; i < kAllocRepMessages; ++i) submit(i);
  pool.Drain();
  pool.WorkerInstance(0, 0).FindTable("log_tab")->Clear();
  obs::Tracer::Default().Clear();

  const uint64_t allocs0 = common::alloc_stats::TotalAllocs();
  for (uint64_t i = 0; i < kAllocRepMessages; ++i) submit(i);
  pool.Drain();
  const uint64_t allocs1 = common::alloc_stats::TotalAllocs();
  pool.Stop();
  return static_cast<double>(allocs1 - allocs0) /
         static_cast<double>(kAllocRepMessages);
}

int Run() {
  if (!common::alloc_stats::Counting()) {
    std::fprintf(stderr,
                 "bench_obs: alloc hooks not linked — counts would read 0 "
                 "vacuously\n");
    return 1;
  }

  auto parsed = dsl::ParseProgram(elements::Fig5ProgramSource());
  auto lowered = compiler::LowerProgram(*parsed);
  if (!lowered.ok()) {
    std::fprintf(stderr, "lowering failed\n");
    return 1;
  }
  std::vector<std::shared_ptr<const ir::ElementIr>> elements = {
      lowered->FindElement("Logging"), lowered->FindElement("Acl"),
      lowered->FindElement("Fault")};
  std::vector<const ir::ElementIr*> raw;
  for (const auto& e : elements) raw.push_back(e.get());
  const std::vector<int> groups = ir::PartitionIntoParallelGroups(raw);

  const std::vector<rpc::Message> stream = Stream(256);
  const size_t default_burst = mrpc::EnginePool::Config{}.burst_size;

  std::printf(
      "Telemetry-on burst gate: fig5 chain, 1-worker EnginePool, %lluk "
      "messages\nper rep, tracing 1-in-%llu. Burst: best of %d interleaved "
      "off/on pairs,\noverhead = median per-pair ratio. burst=1 is the "
      "scalar path, best of %d.\n\n",
      static_cast<unsigned long long>(kRepMessages / 1000),
      static_cast<unsigned long long>(kSampleEvery), kPairs, kReps);

  const Interleaved paired =
      MeasureInterleaved(elements, groups, stream, default_burst);
  const double off_ns = paired.off_ns;
  const double on_ns = paired.on_ns;
  const double scalar_on_ns = Measure(elements, groups, stream, 1, true);
  if (off_ns <= 0 || on_ns <= 0 || scalar_on_ns <= 0) return 1;

  const uint64_t ring_dropped = obs::EventRingRegistry::Default().TotalDropped();
  const double obs_overhead = paired.overhead;
  const double speedup = scalar_on_ns / on_ns;

  const double allocs_per_msg = MeasureAllocs(elements, groups);
  if (allocs_per_msg < 0) return 1;
  SetObs(false);

  std::printf("%-28s %12s %14s\n", "phase", "ns/msg", "1-core Mrps");
  std::printf("%.*s\n", 56,
              "--------------------------------------------------------");
  std::printf("%-28s %12.1f %14.2f\n", "obs-off burst", off_ns, 1e3 / off_ns);
  std::printf("%-28s %12.1f %14.2f\n", "obs-on burst", on_ns, 1e3 / on_ns);
  std::printf("%-28s %12.1f %14.2f\n", "obs-on scalar", scalar_on_ns,
              1e3 / scalar_on_ns);
  std::printf(
      "\nTelemetry overhead on the burst path: %+.1f%%  (median of %d "
      "pairs; gate: <= 10%%)\n"
      "Burst speedup with telemetry on:      %.2fx   (gate: >= 1.6x)\n"
      "Allocations/msg, arena path, obs on:  %.4f   (gate: 0)\n"
      "Events dropped by full rings:         %llu\n",
      obs_overhead * 100, kPairs, speedup, allocs_per_msg,
      static_cast<unsigned long long>(ring_dropped));
  if (ring_dropped != 0) {
    std::fprintf(stderr,
                 "bench_obs: WARNING — %llu events evicted during timed "
                 "phases; emit cost under-measured\n",
                 static_cast<unsigned long long>(ring_dropped));
  }

  std::FILE* f = std::fopen("BENCH_obs.json", "w");
  if (f == nullptr) return 1;
  std::fprintf(f,
               "{\n"
               "  \"schema_version\": 1,\n"
               "  \"git_sha\": \"%s\",\n"
               "  \"chain\": \"fig5 (Logging -> ACL -> Fault)\",\n"
               "  \"rep_messages\": %llu,\n"
               "  \"reps\": %d,\n"
               "  \"obs_pairs\": %d,\n"
               "  \"default_burst\": %zu,\n"
               "  \"sample_every\": %llu,\n"
               "  \"obs_off_ns_per_msg\": %.1f,\n"
               "  \"compiled_ns_per_msg\": %.1f,\n"
               "  \"scalar_ns_per_msg\": %.1f,\n"
               "  \"burst_speedup\": %.2f,\n"
               "  \"obs_overhead_frac\": %.4f,\n"
               "  \"allocs_per_msg\": %.4f,\n"
               "  \"events_dropped\": %llu\n"
               "}\n",
               ADN_GIT_SHA, static_cast<unsigned long long>(kRepMessages),
               kReps, kPairs, default_burst,
               static_cast<unsigned long long>(kSampleEvery), off_ns, on_ns,
               scalar_on_ns, speedup, obs_overhead, allocs_per_msg,
               static_cast<unsigned long long>(ring_dropped));
  std::fclose(f);
  std::printf("\nWrote BENCH_obs.json\n");
  return 0;
}

}  // namespace
}  // namespace adn

int main() { return adn::Run(); }
