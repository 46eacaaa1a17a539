// adntop — observability console for the ADN data plane.
//
// Usage:
//   adntop [--json] [--watch N] [--rpcs N] [--sample N] [--ring N]
//
// Drives the Figure-5 chain (Logging, Acl, Fault) through an in-process
// mRPC engine with the obs plane enabled, then renders what the telemetry
// contract (docs/OBSERVABILITY.md) exposes: the metrics registry as a
// table, the most recent sampled RPC as a span tree, and the controller's
// scaling read of the same data. `--json` instead dumps the whole plane
// via adn::obs::ExportJson() — the machine-readable form consumed by
// scripts and by bench_breakdown.
//
// `--watch N` switches to the windowed view: N report ticks, each driving
// one batch of RPCs and then rendering that *window's* telemetry — rates
// and per-element quantiles derived by obs::WindowedSeries snapshot
// diffing (cumulative counters never appear), plus the controller's
// per-window scaling advice. It is the same series->hub pipeline the live
// autoscaler runs inside bench_autoscale, rendered as a console.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "compiler/lower.h"
#include "controller/telemetry.h"
#include "dsl/parser.h"
#include "elements/library.h"
#include "mrpc/engine.h"
#include "obs/event_ring.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/window.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: adntop [--json] [--watch N] [--rpcs N] [--sample N] "
               "[--ring N]\n"
               "  --json    dump metrics + traces as JSON (obs::ExportJson)\n"
               "  --watch   render N windowed report ticks (rates + window\n"
               "            quantiles from snapshot diffs) instead of the\n"
               "            cumulative table\n"
               "  --rpcs    RPCs to drive through the fig5 chain per tick "
               "(default 1000)\n"
               "  --sample  trace 1 in N RPCs (default 100)\n"
               "  --ring    span ring capacity (default 4096)\n");
  return 2;
}

// The obs plane watching itself: spans evicted / events dropped counters,
// per-ring depth, and the measured obs-on overhead (one line each).
void PrintObsHealth(double obs_overhead_frac) {
  // Drain the rings first so the event counters are synced (they fold in
  // at drain time, not per emit — see docs/OBSERVABILITY.md).
  adn::obs::Tracer::Default().Collect();
  adn::obs::MetricsRegistry& reg = adn::obs::MetricsRegistry::Default();
  std::printf("\nobs plane health:\n");
  std::printf(
      "  events=%llu dropped=%llu spans=%llu evicted=%llu  overhead=%.1f%%\n",
      static_cast<unsigned long long>(
          reg.GetCounter("adn_obs_events_total").Value()),
      static_cast<unsigned long long>(
          reg.GetCounter("adn_obs_events_dropped_total").Value()),
      static_cast<unsigned long long>(
          reg.GetCounter("adn_obs_spans_total").Value()),
      static_cast<unsigned long long>(
          reg.GetCounter("adn_obs_spans_evicted_total").Value()),
      obs_overhead_frac * 100.0);
  // backing = slot memory the ring holds; "unbacked" = never emitted.
  for (const auto& rs : adn::obs::EventRingRegistry::Default().Stats()) {
    char backing[32] = "unbacked";
    if (rs.backing_bytes > 0) {
      std::snprintf(backing, sizeof backing, "%zu KiB", rs.backing_bytes >> 10);
    }
    std::printf(
        "  ring %-16s depth %zu/%zu  backing %-9s emitted %llu  dropped %llu\n",
        std::string(rs.label.empty() ? "(main)" : rs.label).c_str(), rs.depth,
        rs.capacity, backing, static_cast<unsigned long long>(rs.emitted),
        static_cast<unsigned long long>(rs.dropped));
  }
}

// Window quantile via the shared bucket math (obs::SnapshotHistogram), the
// same implementation the telemetry hub and bench_breakdown use.
double SampleQuantile(const adn::obs::MetricSample& s, double q) {
  return adn::obs::SnapshotHistogram::FromSample(s).Quantile(q);
}

void PrintSpanTree(const std::vector<adn::obs::Span>& spans,
                   uint64_t parent_id, int depth) {
  for (const adn::obs::Span& s : spans) {
    if (s.parent_id != parent_id) continue;
    std::printf("  %*s%s  [%s/%s]  %lld ns\n", depth * 2, "",
                std::string(s.name()).c_str(),
                std::string(adn::obs::TierName(s.tier)).c_str(),
                std::string(s.processor()).c_str(),
                static_cast<long long>(s.end_ns - s.start_ns));
    PrintSpanTree(spans, s.span_id, depth + 1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace adn;

  bool json = false;
  uint64_t watch_ticks = 0;
  uint64_t rpcs = 1000;
  uint64_t sample_every = 100;
  size_t ring = 4096;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--watch" && i + 1 < argc) {
      watch_ticks = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--rpcs" && i + 1 < argc) {
      rpcs = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--sample" && i + 1 < argc) {
      sample_every = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--ring" && i + 1 < argc) {
      ring = std::strtoull(argv[++i], nullptr, 10);
    } else {
      return Usage();
    }
  }

  obs::SetEnabled(true);
  obs::Tracer::Default().SetTracingEnabled(true);
  obs::Tracer::Default().SetSampleEvery(sample_every);
  obs::Tracer::Default().SetRingCapacity(ring);

  // Build the fig5 engine chain the same way the controller would deploy it.
  auto parsed = dsl::ParseProgram(elements::Fig5ProgramSource());
  if (!parsed.ok()) {
    std::fprintf(stderr, "parse: %s\n", parsed.status().ToString().c_str());
    return 1;
  }
  auto lowered = compiler::LowerProgram(*parsed);
  if (!lowered.ok()) {
    std::fprintf(stderr, "lower: %s\n", lowered.status().ToString().c_str());
    return 1;
  }
  mrpc::EngineChain chain;
  chain.set_trace_identity(obs::Tier::kEngine, "adntop-engine");
  for (const char* name : {"Logging", "Acl", "Fault"}) {
    auto element = lowered->FindElement(name);
    if (element == nullptr) {
      std::fprintf(stderr, "fig5 element missing: %s\n", name);
      return 1;
    }
    auto stage = std::make_unique<mrpc::GeneratedStage>(element, /*seed=*/7);
    if (std::strcmp(name, "Acl") == 0) {
      for (const char* user : {"alice", "bob", "carol", "dave"}) {
        (void)stage->instance().FindTable("ac_tab")->Insert(
            {rpc::Value(std::string(user)), rpc::Value("W")});
      }
    }
    chain.AddStage(std::move(stage));
  }

  const char* users[] = {"alice", "bob", "carol", "dave"};
  auto drive = [&](uint64_t base_id, uint64_t count) {
    for (uint64_t i = 0; i < count; ++i) {
      const uint64_t id = base_id + i;
      rpc::Message m = rpc::Message::MakeRequest(
          id, "Echo",
          {{"username", rpc::Value(std::string(users[id % 4]))},
           {"object_id", rpc::Value(static_cast<int64_t>(id))},
           {"payload", rpc::Value(Bytes{1, 2, 3, 4})}});
      (void)chain.Process(m, static_cast<int64_t>(id));
    }
  };

  // Measure the obs-on overhead on this host: same chain, same message
  // count, obs off then on (tracing + sampling as configured above). The
  // rigorous version of this number is bench_obs / BENCH_obs.json; this is
  // the live console read of the same ratio.
  const uint64_t calib = std::min<uint64_t>(rpcs, 2000);
  obs::SetEnabled(false);
  drive(3'000'000'000ULL, calib);  // warmup: both timed runs see a hot chain
  int64_t calib_t0 = obs::NowNs();
  drive(1'000'000'000ULL, calib);
  const int64_t calib_off_ns = obs::NowNs() - calib_t0;
  obs::SetEnabled(true);
  calib_t0 = obs::NowNs();
  drive(2'000'000'000ULL, calib);
  const int64_t calib_on_ns = obs::NowNs() - calib_t0;
  const double obs_overhead =
      calib_off_ns > 0
          ? static_cast<double>(calib_on_ns) / static_cast<double>(calib_off_ns) -
                1.0
          : 0.0;

  // --- Watch mode: windowed report ticks -----------------------------------
  if (watch_ticks > 0) {
    obs::WindowedSeries series;
    controller::TelemetryHub hub;
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
    const std::string proc_labels = "processor=\"adntop-engine\"";
    std::printf(
        "%-6s %10s %10s %10s %8s %8s  %s\n", "TICK", "RPCS/S", "DROPS/S",
        "p99(ns)", "RINGMAX", "EVDROP",
        "per-element window p50/p99 (adn_element_latency_ns deltas)");
    int64_t window_start = obs::NowNs();
    for (uint64_t tick = 0; tick < watch_ticks; ++tick) {
      drive(tick * rpcs, rpcs);
      const int64_t window_end = obs::NowNs();
      obs::MetricsSnapshot snap = reg.Snapshot();
      series.Ingest(snap, window_start, window_end);
      if (Status s = hub.IngestSnapshot(snap, window_start, window_end);
          !s.ok()) {
        std::fprintf(stderr, "ingest: %s\n", s.ToString().c_str());
        return 1;
      }
      std::string elements_out;
      double p99 = 0;
      for (const obs::MetricSample& s : snap.samples) {
        if (s.name != "adn_element_latency_ns") continue;
        const obs::SnapshotHistogram* delta =
            series.HistogramDelta(s.name, s.labels);
        if (delta == nullptr || delta->empty()) continue;
        char buf[128];
        std::snprintf(buf, sizeof(buf), "  %s %.0f/%.0f", s.labels.c_str(),
                      delta->Quantile(0.50), delta->Quantile(0.99));
        elements_out += buf;
        p99 = std::max(p99, delta->Quantile(0.99));
      }
      // Obs self-health for this tick: deepest event ring (backlog before
      // the next drain) and cumulative producer-side drops.
      size_t ring_max = 0;
      for (const auto& rs : obs::EventRingRegistry::Default().Stats()) {
        ring_max = std::max(ring_max, rs.depth);
      }
      const uint64_t ev_dropped =
          obs::EventRingRegistry::Default().TotalDropped();
      std::printf("%-6llu %10.0f %10.0f %10.0f %8zu %8llu%s\n",
                  static_cast<unsigned long long>(tick),
                  series.CounterRatePerSec("adn_chain_rpcs_total",
                                           proc_labels),
                  series.CounterRatePerSec("adn_chain_drops_total",
                                           proc_labels),
                  p99, ring_max,
                  static_cast<unsigned long long>(ev_dropped),
                  elements_out.c_str());
      window_start = window_end;
    }
    std::printf("\ncontroller advice (windowed feed):\n");
    std::printf("  adntop-engine: util=%.2f advice=%s  drop-alerts:%zu\n",
                hub.SmoothedUtilization("adntop-engine"),
                std::string(controller::ScalingAdviceName(
                                hub.Advise("adntop-engine")))
                    .c_str(),
                hub.DropAlerts().size());
    PrintObsHealth(obs_overhead);
    return 0;
  }

  drive(0, rpcs);

  if (json) {
    std::printf("%s\n", obs::ExportJson().c_str());
    return 0;
  }

  // --- Metrics table -------------------------------------------------------
  obs::MetricsSnapshot snap = obs::MetricsRegistry::Default().Snapshot();
  std::printf("%-28s %-28s %-10s %14s\n", "METRIC", "LABELS", "KIND",
              "VALUE");
  for (const obs::MetricSample& s : snap.samples) {
    if (s.kind == obs::MetricKind::kHistogram) {
      std::printf("%-28s %-28s %-10s %14s  count=%llu p50=%.0fns p99=%.0fns\n",
                  s.name.c_str(), s.labels.c_str(), "histogram", "-",
                  static_cast<unsigned long long>(s.count),
                  SampleQuantile(s, 0.50), SampleQuantile(s, 0.99));
    } else {
      std::printf("%-28s %-28s %-10s %14.0f\n", s.name.c_str(),
                  s.labels.c_str(),
                  std::string(obs::MetricKindName(s.kind)).c_str(), s.value);
    }
  }

  // --- Latest sampled trace ------------------------------------------------
  obs::Tracer& tracer = obs::Tracer::Default();
  std::vector<uint64_t> ids = tracer.TraceIds();
  if (!ids.empty()) {
    const uint64_t last = ids.back();
    std::printf("\ntrace %llu (1 in %llu sampled):\n",
                static_cast<unsigned long long>(last),
                static_cast<unsigned long long>(sample_every));
    std::vector<obs::Span> spans = tracer.SpansForTrace(last);
    // Roots are spans whose parent is not resident in the trace (one per
    // processor scope).
    for (const obs::Span& s : spans) {
      bool has_parent = false;
      for (const obs::Span& other : spans) {
        if (other.span_id == s.parent_id) has_parent = true;
      }
      if (has_parent) continue;
      std::printf("  %s  [%s/%s]  %lld ns\n",
                  std::string(s.name()).c_str(),
                  std::string(obs::TierName(s.tier)).c_str(),
                  std::string(s.processor()).c_str(),
                  static_cast<long long>(s.end_ns - s.start_ns));
      PrintSpanTree(spans, s.span_id, 1);
    }
  }

  // --- Controller's read (Figure 3 feedback) -------------------------------
  controller::TelemetryHub hub;
  if (Status s = hub.IngestSnapshot(snap, 0, 1); !s.ok()) {
    std::fprintf(stderr, "ingest: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("\ncontroller advice:\n");
  std::printf("  adntop-engine: util=%.2f advice=%s\n",
              hub.SmoothedUtilization("adntop-engine"),
              std::string(controller::ScalingAdviceName(
                              hub.Advise("adntop-engine")))
                  .c_str());
  PrintObsHealth(obs_overhead);
  return 0;
}
