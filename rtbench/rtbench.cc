// rtbench: real-thread, real-byte RPC round trip through the ADN data plane.
//
// One process, three threads: a generator thread (the client application and
// the pool's single producer) plus a 2-worker mrpc::EnginePool. Traffic never
// leaves the process and there is no loopback socket; every hop is an
// in-memory SPSC ring. Each RPC, driven open-loop from a seeded Poisson
// schedule:
//   1. generator, at the due time: rpc::EncodeFlat the pre-generated request,
//      rpc::DecodeFlat it into a leased arena, EnginePool::Submit;
//   2. worker: the request chain runs; in on_done a passing request reaches
//      the server app, which checks the request and builds the response; the
//      response (or a cache-hit reply, or an abort) is flat-encoded and
//      pushed on a per-worker mrpc::SpscRing back to the generator;
//   3. generator: pops and decodes the reply. A server response is submitted
//      again, so the response chain runs (Logging ON BOTH, RespCache fills);
//      the RPC completes when that response's on_done fires. Hits and aborts
//      complete at the pop.
// Latency is timed from each RPC's due time, so generator lateness counts.
//
// Workloads (inputs come only from --seed and are built before any timing):
//   fig5_small   Logging -> Acl AT TRUSTED -> Fault(5%), 64-byte payloads,
//                uniform users, 1/8 of them seeded without W;
//   store_large  programs/object_store.adn, log-normal payloads (median
//                4 KiB, clamped to 64 KiB) of compressible bytes;
//   cache_zipf   elements::CacheChainSource(), Zipf 1.1 over 10k objects,
//                the user derived from the object as in bench_cache.
// Every workload runs on the same pool: 2 workers, shard key `username`.
//
// Both modes first run the latency/rate phases:
//   rtt_p50_us.{light,heavy}, rtt_p99_us.{light,heavy}  round trip at two
//                     fixed offered rates (light ~1/10, heavy ~3/10-5/10 of
//                     max_rate_krps at the commit that added this benchmark:
//                     low enough that the pool does not saturate when the
//                     host slows down); median over five interleaved
//                     light/heavy repetitions, each on a fresh deployment, so
//                     a host hiccup moves one repetition; p99 is first the
//                     median over five sub-windows of each repetition;
//   max_rate_krps     highest rate of a stepped ladder (x1.25, then 4% steps
//                     until three fail in a row) whose p99 meets the
//                     workload's limit with no lost, unissued or corrupted
//                     RPC and no growing backlog (median of the step's last
//                     tenth within the limit). The 20 ms limit makes it the
//                     rate where the pool stops keeping up;
//   goodput_mb_s      payload bytes (request + response, no headers) of
//                     successful RPCs per second at max_rate_krps.
// These follow the host's CPU speed: on a shared 4-vCPU VM their seed-to-seed
// spread reached several times any bound a result may carry, so they are
// printed by --trace 0 and reported as per-layer metrics by --trace 1.
//
// --trace 0 (binary rtbench) reports the end-to-end metrics:
//   setup_s           median of 31 set-ups: DSL source -> CompileSource ->
//                     PlaceChain(kNativeOnly) -> pool + table seeding ->
//                     Start -> first RPC answered;
//   cpu_us_per_rpc    CPU per completed RPC at the heavy rate (median over
//                     the repetitions): both worker threads
//                     (CLOCK_THREAD_CPUTIME_ID, park/wake included) plus the
//                     generator's non-idle time;
//   rss_mb            peak resident memory after the fixed-rate phases (the
//                     log table grows unbounded and is never cleared);
//   ok_ratio          RPCs with their expected outcome / attempted.
// Latency percentiles are over RPCs that completed with their expected
// outcome. A failed RPC is counted by ok_ratio and fail_ratio instead: with
// the pool's sharding defect half of store_large fails, and an "+inf per
// failure" percentile would be infinite there.
//
// --trace 1 (binary rtbench_traced, counting operator-new hooks linked)
// reports the per-layer metrics: the latency/rate metrics above, then an
// untraced light phase, a traced light phase whose spans give the per-layer
// ledger, and a traced heavy phase for pool counters. Spans are kept in memory and written as CSV at exit. The
// ledger is the mean self time per layer of the RPCs ranked 45-55% by
// latency; bench.unattributed_ns is the traced p50 minus its sum, and it is
// expected within 10% of that p50.
//
// Outcome classes. Expected: pass; "permission denied" exactly for users
// seeded without W; "fault injected" on fig5 (aggregate rate checked against
// 5% with a binomial bound); a cache hit whose reply equals the server's
// reply for the object. Verdict failures (counted in ok_ratio/fail_ratio):
// any other abort, a pass for a user without W. Integrity failures (counted
// in ok_ratio/fail_ratio AND in the result's `failed`, and they make the run
// incorrect): an RPC lost, duplicated or never completed, a store payload
// that differs after Compress -> Decompress, a reply that differs from the
// server's, an undecodable frame.
#include <cpuid.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/alloc_stats.h"
#include "common/arena.h"
#include "common/rng.h"
#include "compiler/compiler.h"
#include "controller/placement.h"
#include "core/workload.h"
#include "dsl/parser.h"
#include "elements/library.h"
#include "ir/exec.h"
#include "mrpc/engine_pool.h"
#include "mrpc/ring.h"
#include "rpc/flat_wire.h"
#include "rpc/intern.h"
#include "rpc/message.h"
#include "rpc/wire.h"

#ifndef RTB_BUILD_TYPE
#define RTB_BUILD_TYPE "unknown"
#endif
#ifdef RTB_TRACED
constexpr bool kTracedBuild = true;
#else
constexpr bool kTracedBuild = false;
#endif

namespace rtb {
namespace {

using namespace adn;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- Workloads -----------------------------------------------------------------

enum class Chain { kFig5, kStore, kCache };

constexpr int kWorkers = 2;
constexpr const char* kShardKey = "username";

struct Workload {
  const char* name;
  Chain chain;
  // Fixed offered rates: light ~ 1/10 and heavy ~ 3/10-5/10 of the
  // max_rate_krps measured at the commit that introduced this benchmark.
  double light_krps;
  double heavy_krps;
  // Latency limit on p99 for the max-rate ladder.
  double p99_limit_us;
};

constexpr Workload kWorkloads[] = {
    {"fig5_small", Chain::kFig5, 30.0, 150.0, 20000.0},
    {"store_large", Chain::kStore, 3.0, 12.0, 20000.0},
    {"cache_zipf", Chain::kCache, 30.0, 150.0, 20000.0},
};

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

struct Fids {
  rpc::FieldId username = rpc::InternFieldName("username");
  rpc::FieldId payload = rpc::InternFieldName("payload");
  rpc::FieldId object_id = rpc::InternFieldName("object_id");
  rpc::FieldId result = rpc::InternFieldName("result");
};

// One pre-generated request. The template is a heap message; the generator
// stamps the RPC id into it and flat-encodes it at the due time.
struct Record {
  rpc::Message request;
  uint32_t user = 0;
  int64_t object = 0;
  bool expect_deny = false;
  uint32_t request_payload = 0;  // bytes
  uint32_t reply_payload = 0;    // bytes
};

struct Inputs {
  Chain chain = Chain::kFig5;
  std::string method;
  std::string source;  // DSL program
  std::vector<std::string> users;
  std::vector<uint8_t> user_has_w;
  std::vector<Record> records;
  // cache_zipf: the server's reply for each object.
  std::vector<std::string> object_result;
  std::vector<Bytes> object_payload;
  // Unit-mean exponential inter-arrival gaps, cycled.
  std::vector<double> gaps;
};

std::string UserName(uint64_t i) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "u%04llu", static_cast<unsigned long long>(i));
  return buf;
}

Bytes RandomBytes(Rng& rng, size_t n) {
  Bytes b(n);
  for (auto& x : b) x = static_cast<uint8_t>(rng.NextU64());
  return b;
}

// Text-like bytes drawn from a small seeded vocabulary: LZ-compressible, as
// object-store payloads usually are, so Compress/Decompress do real work.
Bytes CompressibleBytes(Rng& rng, const std::vector<std::string>& vocab,
                        size_t n) {
  Bytes b;
  b.reserve(n + 16);
  while (b.size() < n) {
    const std::string& w = vocab[rng.NextBelow(vocab.size())];
    b.insert(b.end(), w.begin(), w.end());
    b.push_back(' ');
  }
  b.resize(n);
  return b;
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Error(ErrorCode::kNotFound, "cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

Result<Inputs> MakeInputs(const Workload& wl, uint64_t seed,
                          const std::string& root, const Fids& f) {
  Inputs in;
  in.chain = wl.chain;
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(wl.chain) + 1);
  switch (wl.chain) {
    case Chain::kFig5: {
      ADN_ASSIGN_OR_RETURN(in.source, ReadFile(root + "/programs/fig5.adn"));
      in.method = "Obj.Put";
      constexpr size_t kUsers = 1024;
      constexpr size_t kDenied = kUsers / 8;  // users seeded without W
      constexpr size_t kRecords = 16384;
      std::vector<size_t> order(kUsers);
      for (size_t i = 0; i < kUsers; ++i) order[i] = i;
      for (size_t i = kUsers - 1; i > 0; --i) {
        std::swap(order[i], order[rng.NextBelow(i + 1)]);
      }
      in.user_has_w.assign(kUsers, 1);
      for (size_t i = 0; i < kDenied; ++i) in.user_has_w[order[i]] = 0;
      for (size_t u = 0; u < kUsers; ++u) in.users.push_back(UserName(u));
      for (size_t i = 0; i < kRecords; ++i) {
        Record r;
        r.user = static_cast<uint32_t>(rng.NextBelow(kUsers));
        r.expect_deny = in.user_has_w[r.user] == 0;
        Bytes payload = RandomBytes(rng, 64);
        r.request_payload = 64;
        r.reply_payload = 64;  // the server echoes the payload
        r.request = rpc::Message::MakeRequest(
            0, in.method,
            {{f.username, rpc::Value(in.users[r.user])},
             {f.payload, rpc::Value(std::move(payload))}});
        in.records.push_back(std::move(r));
      }
      break;
    }
    case Chain::kStore: {
      ADN_ASSIGN_OR_RETURN(in.source,
                           ReadFile(root + "/programs/object_store.adn"));
      in.method = "Store.Put";
      constexpr size_t kUsers = 256;
      constexpr size_t kRecords = 8192;
      constexpr int64_t kObjects = 100'000;
      for (size_t u = 0; u < kUsers; ++u) in.users.push_back(UserName(u));
      in.user_has_w.assign(kUsers, 1);
      std::vector<std::string> vocab;
      for (int i = 0; i < 64; ++i) {
        std::string w;
        const size_t len = 3 + rng.NextBelow(8);
        for (size_t k = 0; k < len; ++k) {
          w.push_back(static_cast<char>('a' + rng.NextBelow(26)));
        }
        vocab.push_back(std::move(w));
      }
      core::PayloadSizeSampler sizes(4096, 1.0, 64, 64 * 1024);
      for (size_t i = 0; i < kRecords; ++i) {
        Record r;
        r.user = static_cast<uint32_t>(rng.NextBelow(kUsers));
        r.object = static_cast<int64_t>(rng.NextBelow(kObjects));
        const size_t n = sizes.Sample(rng);
        r.request_payload = static_cast<uint32_t>(n);
        r.reply_payload = 0;  // the server acknowledges with ids only
        r.request = rpc::Message::MakeRequest(
            0, in.method,
            {{f.username, rpc::Value(in.users[r.user])},
             {f.object_id, rpc::Value(r.object)},
             {f.payload, rpc::Value(CompressibleBytes(rng, vocab, n))}});
        in.records.push_back(std::move(r));
      }
      break;
    }
    case Chain::kCache: {
      in.source = elements::CacheChainSource();
      in.method = "Obj.Get";
      constexpr size_t kUsers = 256;
      constexpr size_t kObjects = 10'000;
      constexpr size_t kRecords = 65536;
      for (size_t u = 0; u < kUsers; ++u) in.users.push_back(UserName(u));
      in.user_has_w.assign(kUsers, 1);
      for (size_t o = 0; o < kObjects; ++o) {
        in.object_result.push_back("v" + std::to_string(o));
        in.object_payload.push_back(RandomBytes(rng, 64));
      }
      core::ZipfSampler zipf(kObjects, 1.1);
      for (size_t i = 0; i < kRecords; ++i) {
        Record r;
        r.object = static_cast<int64_t>(zipf.Sample(rng));
        r.user = static_cast<uint32_t>(r.object % kUsers);  // as bench_cache
        r.request_payload = 64;
        r.reply_payload = 64;
        r.request = rpc::Message::MakeRequest(
            0, in.method,
            {{f.username, rpc::Value(in.users[r.user])},
             {f.object_id, rpc::Value(r.object)},
             {f.payload, rpc::Value(RandomBytes(rng, 64))}});
        in.records.push_back(std::move(r));
      }
      break;
    }
  }
  constexpr size_t kGaps = 65536;
  in.gaps.resize(kGaps);
  double sum = 0;
  for (double& g : in.gaps) {
    g = -std::log(1.0 - rng.NextDouble());
    sum += g;
  }
  for (double& g : in.gaps) g *= static_cast<double>(kGaps) / sum;
  return in;
}

// --- Deployment --------------------------------------------------------------

struct Compiled {
  compiler::CompiledProgram program;
  const compiler::CompiledChain* chain = nullptr;
  std::vector<std::shared_ptr<const ir::ElementIr>> elements;
};

struct SetupTimes {
  double compile_ms = 0;
  double place_ms = 0;
  double start_ms = 0;  // pool construction + Start
  double seed_ms = 0;
  double first_rpc_ms = 0;
  double total_s = 0;
};

// Controller-style seeding of every template instance that holds the tables
// (the compiler may fuse elements, e.g. HashLb+Compress, so go by table).
Status SeedTables(mrpc::EnginePool& pool, const Inputs& in) {
  for (size_t e = 0; e < pool.element_count(); ++e) {
    ir::ElementInstance* inst = pool.TemplateInstance(e);
    if (rpc::Table* t = inst->FindTable("ac_tab")) {
      for (size_t u = 0; u < in.users.size(); ++u) {
        ADN_RETURN_IF_ERROR(t->Insert({rpc::Value(in.users[u]),
                                       rpc::Value(in.user_has_w[u] ? "W" : "R")}));
      }
    }
    if (rpc::Table* t = inst->FindTable("endpoints")) {
      for (int64_t shard = 0; shard < elements::kLbShards; ++shard) {
        ADN_RETURN_IF_ERROR(
            t->Insert({rpc::Value(shard), rpc::Value(100 + shard)}));
      }
    }
  }
  return Status::Ok();
}

int64_t g_epoch_ns = 0;  // worker clock origin (cache TTLs)

mrpc::EnginePool::Config PoolConfig(uint64_t seed, bool measure_exec) {
  mrpc::EnginePool::Config c;
  c.workers = kWorkers;
  c.shard_key_field = kShardKey;
  c.seed = seed;
  c.processor = "rtbench";
  c.measure_exec = measure_exec;
  c.clock = [] { return NowNs() - g_epoch_ns; };
  return c;
}

std::unique_ptr<mrpc::EnginePool> MakePool(const Compiled& c,
                                           mrpc::EnginePool::Config config) {
  return std::make_unique<mrpc::EnginePool>(c.elements, c.chain->parallel_groups,
                                            std::move(config));
}

// --- Wire helpers -------------------------------------------------------------

// DecodeFlat into an arena leased from `pool`. DecodeFlat binds the decoded
// message to the arena without a lease; the fields are re-bound (slices, no
// copy) onto a leasing message so the arena returns to the pool from
// whichever thread destroys the message — the worker may keep it in its burst
// array long after on_done.
bool DecodeLeased(std::span<const uint8_t> wire,
                  const rpc::MethodRegistry* methods, common::ArenaPool& pool,
                  rpc::Message& out) {
  out = rpc::Message::WithArena(pool);
  auto decoded = rpc::DecodeFlat(wire, methods, out.arena());
  if (!decoded.ok()) return false;
  const rpc::Message& d = *decoded;
  out.set_id(d.id());
  out.set_kind(d.kind());
  out.set_method(d.method());
  out.set_source(d.source());
  out.set_destination(d.destination());
  if (!d.error_detail().empty()) out.set_error_detail(d.error_detail());
  for (const rpc::Field& fld : d.fields()) {
    const rpc::Value& v = fld.value;
    if (v.is_borrowed() && v.type() == rpc::ValueType::kText) {
      std::string_view s = v.AsText();
      out.AppendField(fld.id, rpc::Value::BorrowText(s.data(), s.size()));
    } else if (v.is_borrowed()) {
      BytesView b = v.AsBytes();
      out.AppendField(fld.id, rpc::Value::BorrowBytes(b.data(), b.size()));
    } else {
      out.AppendField(fld.id, v);
    }
  }
  return true;
}

bool SameBytes(const rpc::Value& v, BytesView want) {
  if (v.type() != rpc::ValueType::kBytes) return false;
  BytesView got = v.AsBytes();
  return got.size() == want.size() &&
         (want.size() == 0 || std::memcmp(got.data(), want.data(), want.size()) == 0);
}

bool SameText(const rpc::Value& v, std::string_view want) {
  return v.type() == rpc::ValueType::kText && v.AsText() == want;
}

// A reply on a worker's ring. Move-assignment swaps the byte buffer, so
// buffers circulate between the worker's staging frame and the ring slots
// and the transport allocates nothing in steady state.
struct Frame {
  enum Tag : uint8_t { kResponse, kHit, kAbort, kBadRequest };
  uint64_t seq = 0;
  uint8_t tag = kResponse;
  Bytes wire;

  Frame() = default;
  Frame(Frame&& o) noexcept { *this = std::move(o); }
  Frame& operator=(Frame&& o) noexcept {
    seq = o.seq;
    tag = o.tag;
    wire.swap(o.wire);
    return *this;
  }
};

// --- Outcomes ------------------------------------------------------------------

enum Outcome : uint8_t {
  kPending = 0,  // never completed: lost
  kOkPass,
  kOkDeny,
  kOkFault,
  kOkHit,
  // Verdict failures: the chain answered, with the wrong verdict.
  kFailAbort,
  kFailUnexpectedPass,
  // Integrity failures.
  kFailRequestCorrupt,  // server saw a request that differs from the input
  kFailReplyMismatch,   // response or hit reply differs from the server's
  kFailResponseDropped,
  kFailMalformed,
  kUnissued,  // ladder overload only: never sent before the step deadline
};

bool IsOk(uint8_t o) { return o >= kOkPass && o <= kOkHit; }
bool IsIntegrityFailure(uint8_t o) {
  return o == kPending || (o >= kFailRequestCorrupt && o != kUnissued);
}

// Per-RPC timestamps of the traced run, ns since the phase epoch.
struct Stamps {
  int64_t enc0 = 0, enc1 = 0, dec1 = 0, sub1 = 0;  // generator, request
  int64_t wdone = 0, app1 = 0, renc1 = 0;          // worker, request on_done
  int64_t pop = 0, rdec1 = 0, rsub1 = 0;           // generator, reply
  uint32_t req_wire = 0, reply_wire = 0;
};

struct WorkerSide {
  explicit WorkerSide(size_t ring_capacity) : replies(ring_capacity) {}
  mrpc::SpscRing<Frame> replies;
  common::Arena app_arena{16 * 1024};
  Frame staging;
  alignas(64) std::atomic<uint64_t> completed{0};
};

// Shared between the generator and the workers' on_done for one phase.
struct PhaseState {
  const Inputs* in = nullptr;
  const rpc::MethodRegistry* methods = nullptr;
  const Fids* f = nullptr;
  int64_t t0 = 0;
  size_t n = 0;
  bool traced = false;
  std::vector<std::unique_ptr<WorkerSide>> sides;
  std::unique_ptr<std::atomic<int64_t>[]> done_ns;  // -1 = not completed
  std::vector<uint8_t> outcome;
  std::vector<Stamps> stamps;
  std::atomic<uint64_t> duplicates{0};
  std::atomic<uint64_t> bad_ids{0};

  const Record& RecordOf(uint64_t seq) const {
    return in->records[seq % in->records.size()];
  }

  // First completion wins; a second one is a duplicated RPC.
  bool Complete(uint64_t seq, int64_t t, uint8_t code) {
    int64_t expected = -1;
    if (!done_ns[seq].compare_exchange_strong(expected, t,
                                              std::memory_order_relaxed)) {
      duplicates.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    outcome[seq] = code;
    return true;
  }
};

// The server application: check the request against the input it was built
// from, then build the response in a worker-local arena.
bool ServerApp(PhaseState& ps, WorkerSide& side, const rpc::Message& req,
               const Record& rec, Stamps* st) {
  const Fids& f = *ps.f;
  const rpc::Value& want_payload = rec.request.GetFieldOrNull(f.payload);
  bool request_ok = SameText(req.GetFieldOrNull(f.username),
                             ps.in->users[rec.user]);
  if (ps.in->chain == Chain::kStore) {
    // Compress -> Decompress must hand the server the exact bytes.
    request_ok = request_ok && SameBytes(req.GetFieldOrNull(f.payload),
                                         want_payload.AsBytes());
  }
  if (!request_ok) return false;
  side.app_arena.Reset();
  rpc::Message resp;
  resp.BindArena(&side.app_arena);
  resp.set_id(req.id());
  resp.set_kind(rpc::MessageKind::kResponse);
  resp.set_method(req.method());
  resp.set_source(req.destination());
  resp.set_destination(req.source());
  resp.SetText(f.username, ps.in->users[rec.user]);
  switch (ps.in->chain) {
    case Chain::kFig5:
      resp.SetBytes(f.payload, req.GetFieldOrNull(f.payload).AsBytes());
      break;
    case Chain::kStore:
      resp.SetField(f.object_id, rpc::Value(rec.object));
      break;
    case Chain::kCache: {
      const size_t o = static_cast<size_t>(rec.object);
      resp.SetField(f.object_id, rpc::Value(rec.object));
      resp.SetText(f.result, ps.in->object_result[o]);
      resp.SetBytes(f.payload, ps.in->object_payload[o]);
      break;
    }
  }
  if (st != nullptr) st->app1 = NowNs() - ps.t0;
  side.staging.wire.clear();
  return rpc::EncodeFlat(resp, ps.methods, side.staging.wire).ok();
}

// The reply the client expects for `rec` (response chain done, or a hit).
bool ReplyMatches(const PhaseState& ps, const rpc::Message& m,
                  const Record& rec) {
  const Fids& f = *ps.f;
  switch (ps.in->chain) {
    case Chain::kFig5:
      return SameBytes(m.GetFieldOrNull(f.payload),
                       rec.request.GetFieldOrNull(f.payload).AsBytes());
    case Chain::kStore: {
      const rpc::Value& id = m.GetFieldOrNull(f.object_id);
      return id.type() == rpc::ValueType::kInt && id.AsInt() == rec.object;
    }
    case Chain::kCache: {
      const size_t o = static_cast<size_t>(rec.object);
      return SameText(m.GetFieldOrNull(f.result), ps.in->object_result[o]) &&
             SameBytes(m.GetFieldOrNull(f.payload), ps.in->object_payload[o]);
    }
  }
  return false;
}

// EnginePool::Config::on_done, on the worker thread.
void OnDone(PhaseState& ps, int w, const rpc::Message& m,
            const ir::ProcessResult& r) {
  WorkerSide& side = *ps.sides[static_cast<size_t>(w)];
  const int64_t t = NowNs() - ps.t0;
  const uint64_t seq = m.id() - 1;
  if (m.id() == 0 || seq >= ps.n) {
    ps.bad_ids.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const Record& rec = ps.RecordOf(seq);
  if (m.kind() != rpc::MessageKind::kRequest &&
      r.outcome != ir::ProcessOutcome::kReply) {
    // The response chain finished: the RPC is complete.
    uint8_t code = kOkPass;
    if (r.outcome != ir::ProcessOutcome::kPass) {
      code = kFailResponseDropped;
    } else if (rec.expect_deny) {
      code = kFailUnexpectedPass;
    } else if (!ReplyMatches(ps, m, rec)) {
      code = kFailReplyMismatch;
    }
    ps.Complete(seq, t, code);
    side.completed.fetch_add(1, std::memory_order_release);
    return;
  }
  Stamps* st = ps.traced ? &ps.stamps[seq] : nullptr;
  if (st != nullptr) st->wdone = t;
  Frame& out = side.staging;
  out.seq = seq;
  bool encoded = true;
  if (r.outcome == ir::ProcessOutcome::kReply) {
    out.tag = Frame::kHit;
    if (st != nullptr) st->app1 = t;
    out.wire.clear();
    encoded = rpc::EncodeFlat(m, ps.methods, out.wire).ok();
  } else if (r.outcome == ir::ProcessOutcome::kPass) {
    out.tag = Frame::kResponse;
    if (st != nullptr) st->app1 = t;  // ServerApp stamps the real end
    if (!ServerApp(ps, side, m, rec, st)) {
      out.tag = Frame::kBadRequest;
      out.wire.clear();
    }
  } else {
    out.tag = Frame::kAbort;
    if (st != nullptr) st->app1 = t;
    out.wire.clear();
    const rpc::Message err = rpc::Message::MakeNetworkError(
        m, r.abort_message.empty() ? "dropped" : r.abort_message);
    encoded = rpc::EncodeFlat(err, ps.methods, out.wire).ok();
  }
  if (!encoded) {
    out.tag = Frame::kBadRequest;
    out.wire.clear();
  }
  if (st != nullptr) {
    st->renc1 = NowNs() - ps.t0;
    st->reply_wire = static_cast<uint32_t>(out.wire.size());
  }
  while (!side.replies.TryPush(std::move(out))) std::this_thread::yield();
}

// --- Phase runner ----------------------------------------------------------------

struct PhaseResult {
  size_t n = 0;          // RPCs scheduled in the phase (warm-up included)
  size_t measured = 0;   // RPCs in the measured window
  uint64_t ok = 0;
  uint64_t verdict_fail = 0;
  uint64_t integrity_fail = 0;
  uint64_t unissued = 0;
  uint64_t faults = 0, fault_eligible = 0;  // fig5 binomial check
  std::map<std::string, uint64_t> aborts;   // measured window, by reason
  std::vector<int64_t> lat_ns;              // ok RPCs, measured window
  // p99_us is the median of the p99s of `windows` equal sub-windows of the
  // measured window (by due time), so one stall moves one sub-window only;
  // p99_whole_us is the plain p99 over the whole window.
  double p50_us = 0, p99_us = 0, p99_whole_us = 0;
  double tail_p50_us = 0;  // median latency of the window's last tenth
  double late_p99_us = 0;  // generator lateness
  double goodput_mb_s = 0;
  double cpu_us_per_rpc = 0;
  int64_t wall_ns = 0;
  // Pool-side counters (after Stop).
  std::array<uint64_t, kWorkers> processed{};
  std::array<int64_t, kWorkers> worker_cpu_ns{};
  int64_t exec_ns = 0;
  uint64_t cache_hits = 0, cache_misses = 0, cache_fills = 0,
           cache_evicted = 0;
  uint64_t log_rows = 0;
  // Traced phases keep the stamps for the ledger.
  std::vector<Stamps> stamps;
  std::vector<int64_t> due;
  std::vector<int64_t> done;
  std::vector<uint8_t> outcome;
  size_t warm_n = 0;
  double wire_bytes_per_rpc = 0;
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

int64_t Quantile(std::vector<int64_t> v, double q) {
  if (v.empty()) return 0;
  const size_t k = std::min(v.size() - 1,
                            static_cast<size_t>(q * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<long>(k), v.end());
  return v[k];
}

struct PhaseSpec {
  double rate_rps = 0;
  double warm_s = 0;
  double measure_s = 0;
  bool traced = false;
  bool ladder = false;  // overload allowed: stop issuing at a deadline
  int windows = 5;      // sub-windows for p99_us
};

constexpr size_t kMaxInFlight = 2048;
constexpr size_t kReplyRing = 4096;  // > kMaxInFlight: a worker never blocks

Result<PhaseResult> RunPhase(const Compiled& c, const Inputs& in,
                             const rpc::MethodRegistry& methods, const Fids& f,
                             uint64_t seed, const PhaseSpec& spec) {
  PhaseState ps;
  ps.in = &in;
  ps.methods = &methods;
  ps.f = &f;
  ps.traced = spec.traced;

  // The schedule: Poisson arrivals at the offered rate.
  const double mean_gap_ns = 1e9 / spec.rate_rps;
  const double total_ns = (spec.warm_s + spec.measure_s) * 1e9;
  const double warm_ns = spec.warm_s * 1e9;
  std::vector<int64_t> due;
  due.reserve(static_cast<size_t>(total_ns / mean_gap_ns * 1.05) + 16);
  size_t warm_n = 0;
  {
    double t = 0;
    for (size_t i = 0;; ++i) {
      t += in.gaps[i % in.gaps.size()] * mean_gap_ns;
      if (t >= total_ns) break;
      if (t < warm_ns) warm_n = i + 1;
      due.push_back(static_cast<int64_t>(t));
    }
  }
  ps.n = due.size();
  ps.done_ns = std::make_unique<std::atomic<int64_t>[]>(ps.n);
  for (size_t i = 0; i < ps.n; ++i) ps.done_ns[i].store(-1, std::memory_order_relaxed);
  ps.outcome.assign(ps.n, kPending);
  if (spec.traced) ps.stamps.assign(ps.n, Stamps{});
  std::vector<int64_t> late(ps.n, 0);
  for (int w = 0; w < kWorkers; ++w) {
    ps.sides.push_back(std::make_unique<WorkerSide>(kReplyRing));
  }

  // Declared before the pool: messages parked in worker burst arrays hold
  // leases until the pool is destroyed.
  common::ArenaPool arenas(in.chain == Chain::kStore ? 16 * 1024 : 2048);
  mrpc::EnginePool::Config config = PoolConfig(seed, spec.traced);
  config.on_done = [&ps](int w, const rpc::Message& m,
                         const ir::ProcessResult& r) { OnDone(ps, w, m, r); };
  std::unique_ptr<mrpc::EnginePool> pool = MakePool(c, std::move(config));
  ADN_RETURN_IF_ERROR(SeedTables(*pool, in));
  ADN_RETURN_IF_ERROR(pool->Start());

  Bytes wire;
  wire.reserve(80 * 1024);
  Frame frame;
  std::map<std::string, uint64_t> aborts;
  uint64_t gen_completed = 0;
  uint64_t req_wire_total = 0, reply_wire_total = 0;
  size_t next = 0;
  const size_t n_total = ps.n;
  // Ladder steps stop issuing at a deadline; unissued RPCs fail the step.
  const int64_t issue_deadline =
      spec.ladder ? static_cast<int64_t>(total_ns + std::max(0.25e9, 0.25 * total_ns))
                  : INT64_MAX;
  const int64_t drain_deadline_extra = static_cast<int64_t>(5e9);

  auto outstanding = [&] {
    uint64_t done = gen_completed;
    for (auto& s : ps.sides) done += s->completed.load(std::memory_order_acquire);
    return static_cast<size_t>(next) - static_cast<size_t>(done);
  };

  auto handle = [&](int64_t t_pop) {
    const uint64_t seq = frame.seq;
    const Record& rec = ps.RecordOf(seq);
    Stamps* st = spec.traced ? &ps.stamps[seq] : nullptr;
    reply_wire_total += frame.wire.size();
    if (frame.tag == Frame::kResponse) {
      if (st != nullptr) st->pop = t_pop;
      rpc::Message resp;
      if (!DecodeLeased(frame.wire, &methods, arenas, resp)) {
        ps.Complete(seq, t_pop, kFailMalformed);
        ++gen_completed;
        return;
      }
      if (st != nullptr) st->rdec1 = NowNs() - ps.t0;
      pool->Submit(std::move(resp));
      if (st != nullptr) st->rsub1 = NowNs() - ps.t0;
      return;
    }
    ++gen_completed;
    if (st != nullptr) st->pop = t_pop;
    if (frame.tag == Frame::kBadRequest) {
      ps.Complete(seq, t_pop, kFailRequestCorrupt);
      return;
    }
    // Hits and aborts complete at the pop; the checks run after the stamp.
    if (!ps.Complete(seq, t_pop, kPending)) return;
    rpc::Message reply;
    uint8_t code = kFailMalformed;
    if (DecodeLeased(frame.wire, &methods, arenas, reply)) {
      if (frame.tag == Frame::kHit) {
        code = ReplyMatches(ps, reply, rec) ? kOkHit : kFailReplyMismatch;
      } else {
        const std::string& reason = reply.error_detail();
        if (seq >= warm_n) ++aborts[reason];
        if (reason == "permission denied") {
          code = rec.expect_deny ? kOkDeny : kFailAbort;
        } else if (reason == "fault injected" && in.chain == Chain::kFig5) {
          code = kOkFault;
        } else {
          code = kFailAbort;
        }
      }
    }
    ps.outcome[seq] = code;
  };

  auto issue = [&](size_t seq, int64_t now) {
    Record& rec = const_cast<Record&>(ps.RecordOf(seq));
    late[seq] = now - due[seq];
    Stamps* st = spec.traced ? &ps.stamps[seq] : nullptr;
    if (st != nullptr) st->enc0 = now;
    rec.request.set_id(seq + 1);
    wire.clear();
    if (!rpc::EncodeFlat(rec.request, &methods, wire).ok()) {
      ps.Complete(seq, now, kFailMalformed);
      ++gen_completed;
      return;
    }
    req_wire_total += wire.size();
    if (st != nullptr) {
      st->enc1 = NowNs() - ps.t0;
      st->req_wire = static_cast<uint32_t>(wire.size());
    }
    rpc::Message m;
    if (!DecodeLeased(wire, &methods, arenas, m)) {
      ps.Complete(seq, now, kFailMalformed);
      ++gen_completed;
      return;
    }
    if (st != nullptr) st->dec1 = NowNs() - ps.t0;
    pool->Submit(std::move(m));
    if (st != nullptr) st->sub1 = NowNs() - ps.t0;
  };

  int64_t idle_ns = 0;
  ps.t0 = NowNs();
  int64_t prev = 0;
  bool prev_idle = false;
  for (;;) {
    const int64_t now = NowNs() - ps.t0;
    if (prev_idle) idle_ns += now - prev;
    prev = now;
    bool worked = false;
    for (auto& side : ps.sides) {
      for (int k = 0; k < 16 && side->replies.TryPop(frame); ++k) {
        handle(NowNs() - ps.t0);
        worked = true;
      }
    }
    for (int k = 0; k < 8 && next < n_total && due[next] <= now &&
                    now < issue_deadline && outstanding() < kMaxInFlight;
         ++k) {
      issue(next, NowNs() - ps.t0);
      ++next;
      worked = true;
    }
    prev_idle = !worked;
    if (!worked) {
      const bool all_issued = next == n_total || now >= issue_deadline;
      if (all_issued && outstanding() == 0) break;
      if (now > static_cast<int64_t>(total_ns) + drain_deadline_extra) break;
    }
  }
  const int64_t wall_ns = NowNs() - ps.t0;
  pool->Stop();

  PhaseResult res;
  res.n = n_total;
  res.warm_n = warm_n;
  res.wall_ns = wall_ns;
  for (int w = 0; w < kWorkers; ++w) {
    res.processed[static_cast<size_t>(w)] = pool->processed_by(w);
    res.worker_cpu_ns[static_cast<size_t>(w)] = pool->worker_cpu_ns(w);
    res.exec_ns += pool->worker_exec_ns(w);
    for (size_t e = 0; e < pool->element_count(); ++e) {
      ir::ElementInstance& inst = pool->WorkerInstance(w, e);
      if (inst.code().IsCache()) {
        res.cache_hits += inst.cache_hits();
        res.cache_misses += inst.cache_misses();
        res.cache_fills += inst.cache_fills();
        res.cache_evicted += inst.cache_evicted();
      }
      if (const rpc::Table* log = inst.FindTable("log_tab")) {
        res.log_rows += log->RowCount();
      }
    }
  }
  pool.reset();

  // Mark what never went out; everything else still pending is lost.
  for (size_t i = next; i < n_total; ++i) ps.outcome[i] = kUnissued;
  res.unissued = n_total - next;
  res.aborts = std::move(aborts);
  uint64_t bytes = 0;
  std::vector<int64_t> lates;
  const int windows = std::max(1, spec.windows);
  std::vector<std::vector<int64_t>> window_lat(static_cast<size_t>(windows));
  for (size_t i = warm_n; i < n_total; ++i) {
    const uint8_t o = ps.outcome[i];
    ++res.measured;
    if (in.chain == Chain::kFig5 && !ps.RecordOf(i).expect_deny) {
      if (o == kOkPass || o == kOkFault) ++res.fault_eligible;
      if (o == kOkFault) ++res.faults;
    }
    if (i < next) lates.push_back(late[i]);
    if (IsOk(o)) {
      ++res.ok;
      const int64_t lat = ps.done_ns[i].load(std::memory_order_relaxed) - due[i];
      res.lat_ns.push_back(lat);
      const double frac = (static_cast<double>(due[i]) - warm_ns) / (total_ns - warm_ns);
      const int wi = std::clamp(static_cast<int>(frac * windows), 0, windows - 1);
      window_lat[static_cast<size_t>(wi)].push_back(lat);
      if (o == kOkPass || o == kOkHit) {
        const Record& rec = ps.RecordOf(i);
        bytes += rec.reply_payload + (o == kOkPass ? rec.request_payload : 0);
      }
    } else if (o == kUnissued) {
      continue;
    } else if (IsIntegrityFailure(o)) {
      ++res.integrity_fail;
    } else {
      ++res.verdict_fail;
    }
  }
  res.integrity_fail += ps.duplicates.load() + ps.bad_ids.load();
  if (!res.lat_ns.empty()) {
    res.p50_us = static_cast<double>(Quantile(res.lat_ns, 0.50)) / 1e3;
    res.p99_whole_us = static_cast<double>(Quantile(res.lat_ns, 0.99)) / 1e3;
    std::vector<double> p99s;
    for (const auto& wl_ns : window_lat) {
      if (!wl_ns.empty()) p99s.push_back(static_cast<double>(Quantile(wl_ns, 0.99)) / 1e3);
    }
    res.p99_us = Median(p99s);
    std::vector<int64_t> tail(res.lat_ns.end() - static_cast<long>(res.lat_ns.size() / 10),
                              res.lat_ns.end());
    res.tail_p50_us = static_cast<double>(Quantile(tail, 0.50)) / 1e3;
  }
  res.late_p99_us = static_cast<double>(Quantile(lates, 0.99)) / 1e3;
  res.goodput_mb_s = static_cast<double>(bytes) / spec.measure_s / 1e6;
  int64_t worker_cpu = 0;
  for (int64_t v : res.worker_cpu_ns) worker_cpu += v;
  const double gen_busy = static_cast<double>(wall_ns - idle_ns);
  res.cpu_us_per_rpc = next == 0 ? 0
                       : (static_cast<double>(worker_cpu) + gen_busy) /
                             static_cast<double>(next) / 1e3;
  res.wire_bytes_per_rpc =
      next == 0 ? 0
                : static_cast<double>(req_wire_total + reply_wire_total) /
                      static_cast<double>(next);
  if (spec.traced) {
    res.stamps = std::move(ps.stamps);
    res.due = std::move(due);
    res.done.resize(n_total);
    for (size_t i = 0; i < n_total; ++i) {
      res.done[i] = ps.done_ns[i].load(std::memory_order_relaxed);
    }
    res.outcome = ps.outcome;
  }
  return res;
}

// --- Set-up ----------------------------------------------------------------------

Result<Compiled> Compile(const std::string& source) {
  Compiled c;
  compiler::Compiler compiler;
  ADN_ASSIGN_OR_RETURN(c.program, compiler.CompileSource(source, {}));
  if (c.program.chains.empty()) return Error(ErrorCode::kNotFound, "program has no chain");
  c.chain = &c.program.chains[0];
  for (const auto& e : c.chain->elements) c.elements.push_back(e.ir);
  return c;
}

// DSL source -> first servable request, once. The probe RPC goes through
// the same encode/decode/Submit path as the timed traffic.
Result<SetupTimes> SetupOnce(const Inputs& in, const rpc::MethodRegistry& methods,
                             uint64_t seed) {
  SetupTimes t;
  const int64_t t0 = NowNs();
  ADN_ASSIGN_OR_RETURN(Compiled c, Compile(in.source));
  const int64_t t1 = NowNs();
  auto placed = controller::PlaceChain(*c.chain, controller::PathEnvironment{},
                                       controller::PlacementPolicy::kNativeOnly);
  if (!placed.ok()) return placed.error();
  const int64_t t2 = NowNs();
  std::atomic<bool> served{false};
  mrpc::EnginePool::Config config = PoolConfig(seed, false);
  config.on_done = [&served](int, const rpc::Message&, const ir::ProcessResult&) {
    served.store(true, std::memory_order_release);
  };
  std::unique_ptr<mrpc::EnginePool> pool = MakePool(c, std::move(config));
  const int64_t t3 = NowNs();
  ADN_RETURN_IF_ERROR(SeedTables(*pool, in));
  const int64_t t4 = NowNs();
  ADN_RETURN_IF_ERROR(pool->Start());
  const int64_t t5 = NowNs();
  common::ArenaPool arenas(4096);
  rpc::Message probe = in.records[0].request;
  probe.set_id(1);
  Bytes wire;
  ADN_RETURN_IF_ERROR(rpc::EncodeFlat(probe, &methods, wire));
  rpc::Message m;
  if (!DecodeLeased(wire, &methods, arenas, m)) {
    return Error(ErrorCode::kParseError, "probe decode failed");
  }
  pool->Submit(std::move(m));
  while (!served.load(std::memory_order_acquire)) std::this_thread::yield();
  const int64_t t6 = NowNs();
  pool->Stop();
  pool.reset();
  t.compile_ms = static_cast<double>(t1 - t0) / 1e6;
  t.place_ms = static_cast<double>(t2 - t1) / 1e6;
  t.start_ms = static_cast<double>((t3 - t2) + (t5 - t4)) / 1e6;
  t.seed_ms = static_cast<double>(t4 - t3) / 1e6;
  t.first_rpc_ms = static_cast<double>(t6 - t5) / 1e6;
  t.total_s = static_cast<double>(t6 - t0) / 1e9;
  return t;
}

// --- Ledger ------------------------------------------------------------------------

struct Span {
  uint64_t rpc = 0;
  const char* name = "";
  int parent = -1;  // index within the RPC's span list
  int64_t start = 0, end = 0;
};

// The traced RPC's span tree: a root span [due, done] and one child per layer
// call. The pool's exec time is not visible from outside, so the "ir.exec"
// span under each "mrpc.submit_to_done" is the measured mean exec time per
// message (worker_exec_ns / processed), placed at the end of the hop.
void BuildSpans(uint64_t rpc, int64_t due, int64_t done, uint8_t outcome,
                const Stamps& s, int64_t exec_mean_ns, std::vector<Span>& out) {
  out.clear();
  // A worker may finish before Submit returns; the overlap stays with submit.
  const int64_t sub1 = std::min(s.sub1, s.wdone);
  const int64_t rsub1 = std::min(s.rsub1, done);
  auto add = [&](const char* name, int parent, int64_t a, int64_t b) {
    out.push_back(Span{rpc, name, parent, a, std::max(a, b)});
    return static_cast<int>(out.size()) - 1;
  };
  const int root = add("rpc", -1, due, done);
  add("bench.gen_late", root, due, s.enc0);
  add("rpc.encode", root, s.enc0, s.enc1);
  add("rpc.decode", root, s.enc1, s.dec1);
  add("mrpc.submit", root, s.dec1, sub1);
  const int hop = add("mrpc.submit_to_done", root, sub1, s.wdone);
  add("ir.exec", hop, std::max(sub1, s.wdone - exec_mean_ns), s.wdone);
  add("bench.app", root, s.wdone, s.app1);  // server app: check + build
  add("rpc.encode", root, s.app1, s.renc1);
  add("mrpc.reply_hop", root, s.renc1, s.pop);
  if (outcome == kOkPass) {
    add("rpc.decode", root, s.pop, s.rdec1);
    add("mrpc.submit", root, s.rdec1, rsub1);
    const int rhop = add("mrpc.submit_to_done", root, rsub1, done);
    add("ir.exec", rhop, std::max(rsub1, done - exec_mean_ns), done);
  }
}

// Self time of every span (duration minus what its children cover; children
// never overlap each other here).
void SelfTimes(const std::vector<Span>& spans, std::vector<int64_t>& self) {
  self.assign(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] += spans[i].end - spans[i].start;
    if (spans[i].parent >= 0) {
      self[static_cast<size_t>(spans[i].parent)] -= spans[i].end - spans[i].start;
    }
  }
}

std::string ModuleOf(const char* span_name) {
  std::string_view s(span_name);
  const size_t dot = s.find('.');
  return std::string(dot == std::string_view::npos ? s : s.substr(0, dot));
}

struct Ledger {
  double p50_ns = 0;
  std::map<std::string, double> module_ns;  // mean self time, p50 band
  std::map<std::string, double> span_ns;
  double sum_ns = 0;
  double unattributed_ns = 0;
  size_t band = 0;
};

Ledger ComputeLedger(const PhaseResult& r, int64_t exec_mean_ns,
                     const std::string& spans_path, size_t max_written) {
  Ledger lg;
  // RPCs whose latency ranks in the middle tenth: their mean breakdown is the
  // ledger at p50.
  std::vector<std::pair<int64_t, size_t>> lat;
  for (size_t i = r.warm_n; i < r.n; ++i) {
    if (IsOk(r.outcome[i])) lat.push_back({r.done[i] - r.due[i], i});
  }
  if (lat.empty()) return lg;
  std::sort(lat.begin(), lat.end());
  lg.p50_ns = static_cast<double>(lat[lat.size() / 2].first);
  const size_t lo = lat.size() * 45 / 100;
  const size_t hi = std::max(lo + 1, lat.size() * 55 / 100);
  std::vector<Span> spans;
  std::vector<int64_t> self;
  for (size_t k = lo; k < hi; ++k) {
    const size_t i = lat[k].second;
    BuildSpans(i + 1, r.due[i], r.done[i], r.outcome[i], r.stamps[i],
               exec_mean_ns, spans);
    SelfTimes(spans, self);
    for (size_t s = 1; s < spans.size(); ++s) {  // root self = unattributed
      lg.module_ns[ModuleOf(spans[s].name)] += static_cast<double>(self[s]);
      lg.span_ns[spans[s].name] += static_cast<double>(self[s]);
    }
  }
  lg.band = hi - lo;
  for (auto& [k, v] : lg.module_ns) {
    v /= static_cast<double>(lg.band);
    lg.sum_ns += v;
  }
  for (auto& [k, v] : lg.span_ns) v /= static_cast<double>(lg.band);
  lg.unattributed_ns = lg.p50_ns - lg.sum_ns;

  // Spans out: rpc_id, span, parent, start_ns, end_ns (phase-relative).
  if (!spans_path.empty()) {
    if (FILE* fp = std::fopen(spans_path.c_str(), "w")) {
      std::fprintf(fp, "rpc_id,span,parent,start_ns,end_ns\n");
      size_t written = 0;
      for (size_t i = r.warm_n; i < r.n && written < max_written; ++i) {
        if (r.done[i] < 0) continue;
        BuildSpans(i + 1, r.due[i], r.done[i], r.outcome[i], r.stamps[i],
                   exec_mean_ns, spans);
        for (const Span& s : spans) {
          std::fprintf(fp, "%llu,%s,%s,%lld,%lld\n",
                       static_cast<unsigned long long>(s.rpc), s.name,
                       s.parent >= 0 ? spans[static_cast<size_t>(s.parent)].name : "",
                       static_cast<long long>(s.start),
                       static_cast<long long>(s.end));
        }
        ++written;
      }
      std::fclose(fp);
    }
  }
  return lg;
}

// --- Output --------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string JsonEscape(std::string_view s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(ch) < 0x20) continue;
    out.push_back(ch);
  }
  return out;
}

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string CpuModel() {
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) < 0x80000004) return "unknown";
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002 + i, &regs[i * 4], &regs[i * 4 + 1],
                &regs[i * 4 + 2], &regs[i * 4 + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const size_t b = s.find_first_not_of(' ');
  return b == std::string::npos ? "unknown" : s.substr(b);
}

std::string Provenance(const Workload& wl, uint64_t seed, int seconds,
                       const std::string& git_sha, const std::string& source_sha) {
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  cpu_set_t set;
  CPU_ZERO(&set);
  std::string mask;
  int allowed = 0;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int i = 0; i < CPU_SETSIZE; ++i) {
      if (CPU_ISSET(i, &set)) {
        if (!mask.empty()) mask += ",";
        mask += std::to_string(i);
        ++allowed;
      }
    }
  }
  std::ostringstream o;
  o << "{\"workload\":\"" << wl.name << "\",\"seed\":" << seed
    << ",\"seconds\":" << seconds << ",\"nproc\":" << nproc
    << ",\"cpu_model\":\"" << JsonEscape(CpuModel()) << "\""
    << ",\"affinity\":\"" << mask << "\",\"pinned\":"
    << (allowed < nproc ? "true" : "false")
    << ",\"compiler\":\"g++ " << JsonEscape(__VERSION__) << "\""
    << ",\"build_type\":\"" << RTB_BUILD_TYPE << "\""
    << ",\"git_sha\":\"" << JsonEscape(git_sha) << "\""
    << ",\"source_sha256\":\"" << JsonEscape(source_sha) << "\""
    << ",\"threads\":\"1 generator + " << kWorkers << " pool workers\""
    << ",\"shard_key\":\"" << kShardKey << "\""
    << ",\"transport\":\"in-process SPSC rings, no loopback socket\""
    << ",\"light_krps\":" << wl.light_krps << ",\"heavy_krps\":" << wl.heavy_krps
    << ",\"p99_limit_us\":" << wl.p99_limit_us << "}";
  return o.str();
}

void PrintAborts(const char* phase, const PhaseResult& r) {
  std::printf("  %-6s p50 %.1f us, p99 %.1f us (whole window %.1f us)\n", phase,
              r.p50_us, r.p99_us, r.p99_whole_us);
  std::printf("  %-6s attempted=%zu ok=%llu verdict_fail=%llu integrity_fail=%llu",
              phase, r.measured, static_cast<unsigned long long>(r.ok),
              static_cast<unsigned long long>(r.verdict_fail),
              static_cast<unsigned long long>(r.integrity_fail));
  for (const auto& [reason, count] : r.aborts) {
    std::printf("  abort[%s]=%llu", reason.c_str(),
                static_cast<unsigned long long>(count));
  }
  std::printf("\n");
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("\n");
  for (const Metric& m : metrics) {
    std::printf("metric %-34s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::ostringstream o;
  o << "{\"correct\": " << (correct ? "true" : "false")
    << ", \"attempted\": " << attempted << ", \"failed\": " << failed
    << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) o << ", ";
    o << "\"" << metrics[i].name << "\": {\"value\": " << Num(metrics[i].value)
      << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  o << "}}";
  std::printf("%s\n", o.str().c_str());
  std::fflush(stdout);
}

// Fig5's Fault aborts 5% of the requests that reach it.
bool FaultRateOk(uint64_t faults, uint64_t eligible, double* rate) {
  if (eligible == 0) {
    *rate = 0;
    return true;
  }
  const double n = static_cast<double>(eligible);
  *rate = static_cast<double>(faults) / n;
  const double sd = std::sqrt(n * 0.05 * 0.95);
  return std::fabs(static_cast<double>(faults) - 0.05 * n) <= 5.0 * sd + 1.0;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 20;
  int trace = 0;
  std::string root = ".";
  std::string git_sha = "unknown";
  std::string source_sha = "unknown";
  std::string spans_dir;
};

bool ParseArgs(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stoi(v);
    else if (k == "--trace") a.trace = std::stoi(v);
    else if (k == "--root") a.root = v;
    else if (k == "--git-sha") a.git_sha = v;
    else if (k == "--source-sha") a.source_sha = v;
    else if (k == "--spans-dir") a.spans_dir = v;
    else return false;
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds >= 1 &&
         (a.trace == 0 || a.trace == 1);
}

int Run(const Args& args) {
  const Workload* wl = FindWorkload(args.workload);
  if (wl == nullptr) {
    std::fprintf(stderr, "rtbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if ((args.trace == 1) != kTracedBuild) {
    std::fprintf(stderr, "rtbench: --trace %d needs the %s binary\n", args.trace,
                 args.trace == 1 ? "rtbench_traced" : "rtbench");
    return 2;
  }
  g_epoch_ns = NowNs();
  const Fids fids;
  const int64_t g0 = NowNs();
  auto inputs_or = MakeInputs(*wl, args.seed, args.root, fids);
  if (!inputs_or.ok()) {
    std::fprintf(stderr, "rtbench: %s\n", inputs_or.status().ToString().c_str());
    return 1;
  }
  Inputs& in = *inputs_or;
  const double inputs_ms = static_cast<double>(NowNs() - g0) / 1e6;
  rpc::MethodRegistry methods;
  methods.Intern(in.method);

  std::printf("rtbench %s seed=%llu seconds=%d trace=%d\n", wl->name,
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace);
  std::printf("provenance %s\n",
              Provenance(*wl, args.seed, args.seconds, args.git_sha,
                         args.source_sha).c_str());

  // Set-up, several times; the median is setup_s.
  constexpr int kSetups = 31;
  std::vector<double> setup_s, compile_ms, place_ms, start_ms, seed_ms, first_ms;
  for (int i = 0; i < kSetups; ++i) {
    auto t = SetupOnce(in, methods, args.seed);
    if (!t.ok()) {
      std::fprintf(stderr, "rtbench: setup failed: %s\n",
                   t.status().ToString().c_str());
      return 1;
    }
    setup_s.push_back(t->total_s);
    compile_ms.push_back(t->compile_ms);
    place_ms.push_back(t->place_ms);
    start_ms.push_back(t->start_ms);
    seed_ms.push_back(t->seed_ms);
    first_ms.push_back(t->first_rpc_ms);
  }
  auto compiled_or = Compile(in.source);
  if (!compiled_or.ok()) {
    std::fprintf(stderr, "rtbench: %s\n", compiled_or.status().ToString().c_str());
    return 1;
  }
  const Compiled& compiled = *compiled_or;

  const double budget = static_cast<double>(args.seconds);
  // Warm-up per phase (caches fill, arenas reach their steady count); its
  // RPCs are served but not measured.
  const double warm_s = 0.025 * std::min(budget, 10.0);  // 0.025 s..0.25 s
  auto run = [&](double krps, double measure_s, bool traced,
                 bool ladder) -> Result<PhaseResult> {
    PhaseSpec spec;
    spec.rate_rps = krps * 1e3;
    spec.warm_s = warm_s;
    spec.measure_s = measure_s;
    spec.traced = traced;
    spec.ladder = ladder;
    spec.windows = ladder ? 4 : 5;
    return RunPhase(compiled, in, methods, fids, args.seed, spec);
  };

  bool correct = true;
  uint64_t attempted = 0, failed = 0, verdict_failed = 0;
  std::vector<Metric> metrics;
  auto account = [&](const PhaseResult& r) {
    attempted += r.measured;
    failed += r.integrity_fail;
    verdict_failed += r.verdict_fail;
    if (r.integrity_fail > 0) correct = false;
    if (in.chain == Chain::kFig5) {
      double rate = 0;
      if (!FaultRateOk(r.faults, r.fault_eligible, &rate)) {
        std::printf("  fault rate %.4f over %llu requests is outside 5%% +- 5 sd\n",
                    rate, static_cast<unsigned long long>(r.fault_eligible));
        correct = false;
      }
    }
  };

  // Latency and rate at fixed offered rates, then the ladder. Both modes run
  // this; --trace 0 reports the metrics that stay steady on a shared host
  // and prints the rest, --trace 1 reports the rest as per-layer metrics.
  std::vector<Metric> latency_metrics;
  {
    // Fixed rates: kReps interleaved light/heavy pairs, each a fresh
    // deployment, so a host hiccup of a few seconds moves one repetition;
    // each metric is the median over the repetitions.
    constexpr int kReps = 5;
    const double phase_s = 0.4 * budget / (2 * kReps);
    std::vector<PhaseResult> lights, heavies;
    for (int i = 0; i < kReps; ++i) {
      auto light = run(wl->light_krps, phase_s, false, false);
      if (!light.ok()) return 1;
      lights.push_back(std::move(*light));
      auto heavy = run(wl->heavy_krps, phase_s, false, false);
      if (!heavy.ok()) return 1;
      heavies.push_back(std::move(*heavy));
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const double rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    std::printf("phases (fixed rates):\n");
    uint64_t fixed_ok = 0, fixed_measured = 0;
    for (int i = 0; i < kReps; ++i) {
      PrintAborts("light", lights[static_cast<size_t>(i)]);
      PrintAborts("heavy", heavies[static_cast<size_t>(i)]);
    }
    for (const auto* set : {&lights, &heavies}) {
      for (const PhaseResult& r : *set) {
        account(r);
        fixed_ok += r.ok;
        fixed_measured += r.measured;
      }
    }
    auto median_of = [](const std::vector<PhaseResult>& rs, double PhaseResult::*field) {
      std::vector<double> v;
      for (const PhaseResult& r : rs) v.push_back(r.*field);
      return Median(v);
    };

    // Ladder: x1.25 steps from 1.6x the heavy rate until one fails (or down
    // until one passes), then 4% steps up from the best pass until three
    // fail in a row, so one noisy step near the knee does not end the scan.
    // max_rate_krps is the highest rate that passed.
    const double step_s = std::max(0.3, 0.05 * budget);
    const double limit_us = wl->p99_limit_us;
    double best = 0, best_goodput = 0;
    int steps = 0;
    constexpr int kMaxSteps = 16;
    auto try_rate = [&](double krps, bool* pass) -> bool {
      auto r = run(krps, step_s, false, true);
      if (!r.ok()) return false;
      ++steps;
      attempted += r->measured - r->unissued;
      failed += r->integrity_fail;
      if (r->integrity_fail > 0) correct = false;
      *pass = r->unissued == 0 && r->integrity_fail == 0 && !r->lat_ns.empty() &&
              r->p99_us <= limit_us && r->tail_p50_us <= limit_us;
      std::printf("  ladder %8.2f krps: p50 %9.1f us  p99 %9.1f us  tail_p50 %9.1f us"
                  "  unissued %llu  %s\n",
                  krps, r->p50_us, r->p99_us, r->tail_p50_us,
                  static_cast<unsigned long long>(r->unissued), *pass ? "pass" : "FAIL");
      if (*pass && krps > best) {
        best = krps;
        best_goodput = r->goodput_mb_s;
      }
      return true;
    };
    std::printf("ladder (p99 limit %.0f us):\n", limit_us);
    double rate = 1.6 * wl->heavy_krps;
    bool pass = false;
    if (!try_rate(rate, &pass)) return 1;
    while (pass && steps < kMaxSteps) {
      rate *= 1.25;
      if (!try_rate(rate, &pass)) return 1;
    }
    while (best == 0 && steps < kMaxSteps) {
      rate /= 1.25;
      if (!try_rate(rate, &pass)) return 1;
    }
    int fails_in_row = 0;
    double fine = best;
    while (best > 0 && fails_in_row < 3 && steps < kMaxSteps) {
      fine *= 1.04;
      if (!try_rate(fine, &pass)) return 1;
      fails_in_row = pass ? 0 : fails_in_row + 1;
    }

    const double ok_ratio =
        fixed_measured == 0 ? 0
                            : static_cast<double>(fixed_ok) /
                                  static_cast<double>(fixed_measured);
    // Wall-clock latency and rate follow the host's CPU speed: on a shared
    // VM their seed-to-seed spread exceeds any bound a result may carry, so
    // they are per-layer metrics and printed here.
    latency_metrics = {
        {"rtt_p50_us.light", median_of(lights, &PhaseResult::p50_us), "us"},
        {"rtt_p50_us.heavy", median_of(heavies, &PhaseResult::p50_us), "us"},
        {"rtt_p99_us.light", median_of(lights, &PhaseResult::p99_us), "us"},
        {"rtt_p99_us.heavy", median_of(heavies, &PhaseResult::p99_us), "us"},
        {"max_rate_krps", best, "krps"},
        {"goodput_mb_s", best_goodput, "MB/s"},
    };
    for (const Metric& m : latency_metrics) {
      std::printf("%-20s %14.3f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    if (args.trace == 0) {
      std::printf("correctness: %s (integrity failures %llu, verdict failures %llu, "
                  "fail_ratio %.6f)\n",
                  correct ? "ok" : "FAILED", static_cast<unsigned long long>(failed),
                  static_cast<unsigned long long>(verdict_failed), 1.0 - ok_ratio);
      metrics = {
          {"setup_s", Median(setup_s), "s"},
          {"cpu_us_per_rpc", median_of(heavies, &PhaseResult::cpu_us_per_rpc), "us"},
          {"rss_mb", rss_mb, "MB"},
          {"ok_ratio", ok_ratio, "ratio"},
      };
      PrintResult(correct, std::max<uint64_t>(attempted, 1), failed, metrics);
      return 0;
    }
  }

  // --- Traced run: per-layer metrics ---------------------------------------------
  // Isolated rpc-layer allocation count: request encode+decode and a reply
  // encode+decode per RPC on this thread alone.
  double allocs_per_rpc = 0;
  {
    common::ArenaPool arenas(in.chain == Chain::kStore ? 16 * 1024 : 2048);
    Bytes wire;
    wire.reserve(80 * 1024);
    const size_t n = std::min<size_t>(in.records.size(), 2048);
    auto loop = [&] {
      for (size_t i = 0; i < n; ++i) {
        rpc::Message& req = in.records[i].request;
        req.set_id(i + 1);
        wire.clear();
        (void)rpc::EncodeFlat(req, &methods, wire);
        rpc::Message m;
        (void)DecodeLeased(wire, &methods, arenas, m);
      }
    };
    loop();  // warm: arena pool grows to its steady size
    const uint64_t a0 = common::alloc_stats::TotalAllocs();
    loop();
    allocs_per_rpc = static_cast<double>(common::alloc_stats::TotalAllocs() - a0) /
                     static_cast<double>(n);
  }
  // dsl layer on its own (CompileSource parses again inside compile_ms).
  std::vector<double> parse_ms;
  for (int i = 0; i < kSetups; ++i) {
    const int64_t p0 = NowNs();
    auto parsed = dsl::ParseProgram(in.source);
    parse_ms.push_back(static_cast<double>(NowNs() - p0) / 1e6);
    if (!parsed.ok()) return 1;
  }

  const double phase_s = 0.2 * budget;
  auto plain = run(wl->light_krps, phase_s, false, false);
  if (!plain.ok()) return 1;
  auto light = run(wl->light_krps, phase_s, true, false);
  if (!light.ok()) return 1;
  auto heavy = run(wl->heavy_krps, phase_s, true, false);
  if (!heavy.ok()) return 1;
  std::printf("phases:\n");
  PrintAborts("plain", *plain);
  PrintAborts("light", *light);
  PrintAborts("heavy", *heavy);
  account(*plain);
  account(*light);
  account(*heavy);

  auto exec_mean = [](const PhaseResult& r) {
    uint64_t processed = 0;
    for (uint64_t p : r.processed) processed += p;
    return processed == 0 ? 0.0
                          : static_cast<double>(r.exec_ns) / static_cast<double>(processed);
  };
  const double exec_light = exec_mean(*light);
  std::string spans_path;
  if (!args.spans_dir.empty()) {
    spans_path = args.spans_dir + "/" + wl->name + "-seed" +
                 std::to_string(args.seed) + ".csv";
  }
  const Ledger lg = ComputeLedger(*light, static_cast<int64_t>(exec_light),
                                  spans_path, 20000);

  // Layer timings at light (requests that passed the whole chain).
  std::vector<int64_t> enc, dec, s2d, reply_hop, app;
  for (size_t i = light->warm_n; i < light->n; ++i) {
    const Stamps& s = light->stamps[i];
    if (light->outcome[i] != kOkPass) continue;
    enc.push_back(s.enc1 - s.enc0);
    dec.push_back(s.dec1 - s.enc1);
    s2d.push_back(s.wdone - s.sub1);
    reply_hop.push_back(s.pop - s.renc1);
    app.push_back(s.app1 - s.wdone);
  }
  std::vector<int64_t> submit;
  for (size_t i = heavy->warm_n; i < heavy->n; ++i) {
    const Stamps& s = heavy->stamps[i];
    if (heavy->outcome[i] == kUnissued || s.sub1 == 0) continue;
    submit.push_back(s.sub1 - s.dec1);
    if (heavy->outcome[i] == kOkPass) submit.push_back(s.rsub1 - s.rdec1);
  }
  const double s2d_p50 = static_cast<double>(Quantile(s2d, 0.5));

  const PhaseResult& h = *heavy;
  uint64_t processed = 0, pmax = 0;
  int64_t wcpu = 0;
  for (int w = 0; w < kWorkers; ++w) {
    processed += h.processed[static_cast<size_t>(w)];
    pmax = std::max(pmax, h.processed[static_cast<size_t>(w)]);
    wcpu += h.worker_cpu_ns[static_cast<size_t>(w)];
  }
  auto reason_ratio = [&](const char* reason) {
    auto it = h.aborts.find(reason);
    return it == h.aborts.end() || h.measured == 0
               ? 0.0
               : static_cast<double>(it->second) / static_cast<double>(h.measured);
  };
  uint64_t aborts_total = 0;
  for (const auto& [reason, count] : h.aborts) aborts_total += count;
  const double abort_ratio =
      h.measured == 0 ? 0 : static_cast<double>(aborts_total) / static_cast<double>(h.measured);
  const double known = reason_ratio("permission denied") +
                       reason_ratio("fault injected") +
                       reason_ratio("no backend for shard");
  const double fail_ratio =
      static_cast<double>(h.verdict_fail + h.integrity_fail) /
      static_cast<double>(std::max<size_t>(h.measured, 1));

  std::printf("ledger at p50 (light %.1f krps, mean self time of the %zu RPCs ranked "
              "45-55%%):\n", wl->light_krps, lg.band);
  for (const auto& [name, ns] : lg.span_ns) {
    std::printf("  %-22s %10.0f ns\n", name.c_str(), ns);
  }
  std::printf("  %-22s %10.0f ns\n  %-22s %10.0f ns\n  %-22s %10.0f ns\n",
              "sum", lg.sum_ns, "traced p50", lg.p50_ns, "unattributed",
              lg.unattributed_ns);
  const bool reconciles = lg.p50_ns > 0 && std::fabs(lg.unattributed_ns) <= 0.1 * lg.p50_ns;
  std::printf("ledger reconciles with the traced p50 within 10%%: %s; untraced p50 "
              "%.0f ns\n", reconciles ? "yes" : "NO", plain->p50_us * 1e3);
  std::printf("correctness: %s (integrity failures %llu, verdict failures %llu)\n",
              correct ? "ok" : "FAILED", static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(verdict_failed));

  const double heavy_wall = static_cast<double>(h.wall_ns);
  metrics = {
      {"dsl.parse_ms", Median(parse_ms), "ms"},
      {"compiler.compile_ms", Median(compile_ms), "ms"},
      {"controller.place_ms", Median(place_ms), "ms"},
      {"mrpc.start_ms", Median(start_ms), "ms"},
      {"rpc.seed_ms", Median(seed_ms), "ms"},
      {"bench.first_rpc_ms", Median(first_ms), "ms"},
      {"core.inputs_ms", inputs_ms, "ms"},
      {"rpc.encode_ns", static_cast<double>(Quantile(enc, 0.5)), "ns"},
      {"rpc.decode_ns", static_cast<double>(Quantile(dec, 0.5)), "ns"},
      {"rpc.wire_bytes", light->wire_bytes_per_rpc, "bytes"},
      {"rpc.allocs_per_rpc", allocs_per_rpc, "count"},
      {"ir.exec_ns_per_msg", exec_mean(h), "ns"},
      {"ir.abort_ratio", abort_ratio, "ratio"},
      {"ir.abort_ratio.permission_denied", reason_ratio("permission denied"), "ratio"},
      {"ir.abort_ratio.fault_injected", reason_ratio("fault injected"), "ratio"},
      {"ir.abort_ratio.no_backend_for_shard", reason_ratio("no backend for shard"), "ratio"},
      {"ir.abort_ratio.other", std::max(0.0, abort_ratio - known), "ratio"},
      {"mrpc.submit_ns.p50", static_cast<double>(Quantile(submit, 0.5)), "ns"},
      {"mrpc.submit_ns.p99", static_cast<double>(Quantile(submit, 0.99)), "ns"},
      {"mrpc.submit_to_done_ns", s2d_p50, "ns"},
      {"mrpc.hop_ns", s2d_p50 - exec_light, "ns"},
      {"mrpc.reply_hop_ns", static_cast<double>(Quantile(reply_hop, 0.5)), "ns"},
      {"mrpc.worker_busy_ratio",
       heavy_wall <= 0 ? 0 : static_cast<double>(wcpu) / (heavy_wall * kWorkers), "ratio"},
      {"mrpc.worker_imbalance",
       processed == 0 ? 0
                      : static_cast<double>(pmax) /
                            (static_cast<double>(processed) / kWorkers),
       "ratio"},
      {"elements.cache_hit_ratio",
       h.cache_hits + h.cache_misses == 0
           ? 0
           : static_cast<double>(h.cache_hits) /
                 static_cast<double>(h.cache_hits + h.cache_misses),
       "ratio"},
      {"elements.cache_fill_ratio",
       h.cache_misses == 0 ? 0
                           : static_cast<double>(h.cache_fills) /
                                 static_cast<double>(h.cache_misses),
       "ratio"},
      {"elements.cache_evicted", static_cast<double>(h.cache_evicted), "count"},
      {"elements.log_rows_per_rpc",
       h.n == 0 ? 0 : static_cast<double>(h.log_rows) / static_cast<double>(h.n),
       "count"},
      {"bench.gen_late_p99_us", h.late_p99_us, "us"},
      {"bench.app_ns", static_cast<double>(Quantile(app, 0.5)), "ns"},
      {"bench.unattributed_ns", lg.unattributed_ns, "ns"},
      {"trace.overhead_ratio",
       plain->p50_us <= 0 ? 0 : light->p50_us / plain->p50_us, "ratio"},
      {"ledger.p50_ns", lg.p50_ns, "ns"},
      {"ledger.bench_ns", lg.module_ns.count("bench") ? lg.module_ns.at("bench") : 0, "ns"},
      {"ledger.rpc_ns", lg.module_ns.count("rpc") ? lg.module_ns.at("rpc") : 0, "ns"},
      {"ledger.mrpc_ns", lg.module_ns.count("mrpc") ? lg.module_ns.at("mrpc") : 0, "ns"},
      {"ledger.ir_ns", lg.module_ns.count("ir") ? lg.module_ns.at("ir") : 0, "ns"},
      {"fail_ratio", fail_ratio, "ratio"},
  };
  metrics.insert(metrics.end(), latency_metrics.begin(), latency_metrics.end());
  PrintResult(correct, std::max<uint64_t>(attempted, 1), failed, metrics);
  return 0;
}

}  // namespace
}  // namespace rtb

int main(int argc, char** argv) {
  rtb::Args args;
  if (!rtb::ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: rtbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--root DIR] [--git-sha SHA] [--source-sha SHA] [--spans-dir DIR]\n");
    return 2;
  }
  return rtb::Run(args);
}
