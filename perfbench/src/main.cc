// jury_perfbench: the repository benchmark. Starts an in-process
// `serve::JuryServer` over an `api::PoolPlanContext`, drives `POST /solve`
// with closed-loop keep-alive clients on one of four traffic mixes, checks
// every reply, and prints the end-to-end metrics (`--trace 0`) or the
// per-layer split (`--trace 1`). The last stdout line is one JSON object:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
//
//   jury_perfbench --workload optjs_cold --seed 1 --seconds 20 --trace 0
//
// See perfbench/README.md for the workloads and the metric table.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "harness.h"
#include "http_client.h"
#include "replay.h"
#include "serve/result_cache.h"
#include "spans.h"
#include "util/json.h"
#include "util/simd_dispatch.h"
#include "workloads.h"

namespace perfbench {
namespace {

using jury::Json;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool smoke = false;
  std::string out_dir = ".bench_build/out";
};

bool ParseArgs(int argc, char** argv, Options* options) {
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      options->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' &&
                     options->seconds > 0.0 && options->seconds <= 120.0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      options->trace = value == "1";
    } else if (flag == "--out-dir") {
      options->out_dir = value;
    } else {
      return false;
    }
  }
  return have_workload && have_seed && have_seconds;
}

/// Metric names and units, in output order: end-to-end, then per-layer.
/// BENCHMARK.json lists the same names with the same units.
const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"throughput_rps", "1/s"},     {"latency_p50_ms", "ms"},
    {"latency_tail_ms", "ms"},     {"ok_share", "share"},
    {"jq_shortfall_mean", "prob"}, {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};
const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"serve.overhead_ms", "ms"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.shed", "count"},
    {"api.parse_us", "us"},
    {"api.cache_lookup_us", "us"},
    {"api.serialize_us", "us"},
    {"api.solve_ms", "ms"},
    {"api.solve_self_ms", "ms"},
    {"api.apply_delta_ms", "ms"},
    {"api.plan_ms", "ms"},
    {"core.search_ms", "ms"},
    {"core.evals_full", "count"},
    {"core.evals_incremental", "count"},
    {"core.sa_accept_ratio", "ratio"},
    {"core.frontier_scanned_ratio", "ratio"},
    {"jq.reestimate_ms", "ms"},
    {"jq.reestimate_share", "ratio"},
    {"jq.keys_expanded", "count"},
    {"jq.keys_pruned_ratio", "ratio"},
    {"model.shard_rebuilds", "count"},
    {"util.cpu_util", "ratio"},
    {"util.cpu_ms_per_request", "ms"},
    {"util.tasks_spawned_per_request", "count"},
    {"util.tasks_stolen_per_request", "count"},
    {"trace.overhead_ms", "ms"},
    {"trace.split_stale", "count"},
};

/// Deltas applied to the twin after a traced replay of a workload without
/// churn, and workers per delta (pool_churn's delta size).
constexpr std::size_t kTwinDeltas = 4;
constexpr std::size_t kTwinDeltaWorkers = 32;

double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

double Median(std::vector<double> values) { return NearestRank(values, 0.5); }

std::string HostLine(const Options& options, const WorkloadSpec& spec,
                     std::size_t nproc, std::size_t connections) {
  const char* threads = std::getenv("JURYOPT_THREADS");
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
#ifdef JURYOPT_FAULT_INJECTION
  const bool fault_injection = true;
#else
  const bool fault_injection = false;
#endif
  return Json::Object()
      .Set("host",
           Json::Object()
               .Set("nproc", static_cast<std::uint64_t>(nproc))
               .Set("simd", jury::simd::LevelName(jury::simd::ActiveLevel()))
               .Set("JURYOPT_THREADS", threads != nullptr ? threads : "")
               .Set("compiler", JURY_PERFBENCH_COMPILER)
               .Set("build_type", JURY_PERFBENCH_BUILD_TYPE)
               .Set("ndebug", ndebug)
               .Set("fault_injection", fault_injection)
               .Set("workload", spec.name)
               .Set("seed", options.seed)
               .Set("seconds", options.seconds)
               .Set("trace", options.trace)
               .Set("smoke", options.smoke)
               .Set("connections", static_cast<std::uint64_t>(connections))
               .Set("tail_percentile", spec.tail_quantile))
      .Dump();
}

/// Metric values and, for timings, the sample count behind each.
struct Metrics {
  std::map<std::string, double> values;
  std::map<std::string, std::size_t> samples;
};

/// cache_hot: requests every catalogue entry once more (now a hit) and
/// checks it against its set-up reply; the hit bytes become the reply the
/// load loop expects, byte for byte.
std::unordered_map<std::string, HotReply> PrepareHotReplies(
    const Fixture& fixture, const RequestStream& stream,
    const std::vector<jury::Worker>& pool, CheckTally* checks) {
  std::unordered_map<std::string, HotReply> hot;
  HttpClient client;
  client.Connect("127.0.0.1", fixture.port);
  for (const RequestInfo& info : stream.catalogue()) {
    const HttpReply reply = client.Post("/solve", info.body);
    const std::string& warm_body = fixture.warm_replies.at(info.body);
    const BoundReport warm = BindReport(warm_body);
    BoundReport hit = BindReport(reply.body);
    const std::string problem = CheckReport(warm, info, pool);
    if (!reply.transport_ok || reply.status != 200 || !problem.empty() ||
        !hit.cache_hit || hit.normalized != warm.normalized) {
      checks->Fail("hot_equals_warmup", "catalogue reply " + reply.body +
                                            " vs set-up reply " + warm_body);
      continue;
    }
    hot[info.body] = HotReply{reply.body, std::move(hit)};
  }
  return hot;
}

Metrics EndToEnd(const WorkloadSpec& spec, const PhaseResult& phase,
                 const std::vector<double>& setup_seconds,
                 double peak_rss_mb) {
  Metrics m;
  const std::vector<double>& lat = phase.ok_latencies;
  const double ok = static_cast<double>(lat.size());
  m.values["throughput_rps"] = Ratio(ok, phase.wall_seconds);
  m.values["latency_p50_ms"] = 1e3 * NearestRank(lat, 0.5);
  m.values["latency_tail_ms"] = 1e3 * NearestRank(lat, spec.tail_quantile);
  m.values["ok_share"] = Ratio(ok, static_cast<double>(phase.attempted));
  m.values["jq_shortfall_mean"] = Ratio(phase.shortfall_sum, ok);
  m.values["setup_s"] = Median(setup_seconds);
  m.values["peak_rss_mb"] = peak_rss_mb;
  for (const char* name : {"throughput_rps", "latency_p50_ms",
                           "latency_tail_ms", "jq_shortfall_mean"}) {
    m.samples[name] = lat.size();
  }
  m.samples["ok_share"] = phase.attempted;
  m.samples["setup_s"] = setup_seconds.size();
  const std::size_t rank =
      static_cast<std::size_t>(std::ceil(spec.tail_quantile * ok));
  std::cout << "latency_tail_ms is p" << 100.0 * spec.tail_quantile
            << " (nearest rank) with " << lat.size() - std::min(lat.size(), rank)
            << " samples beyond it\n";
  std::cout << "latency p90 " << 1e3 * NearestRank(lat, 0.90) << " ms, p95 "
            << 1e3 * NearestRank(lat, 0.95) << " ms, p99 "
            << 1e3 * NearestRank(lat, 0.99) << " ms (n=" << lat.size() << ")\n";
  std::cout << "failed_share " << 1.0 - m.values["ok_share"] << " ("
            << phase.failed << " of " << phase.attempted << ")\n";
  return m;
}

/// The per-layer split of a traced run: counters and CPU from the traced
/// phase (`phases[1]`, compared with the untraced `phases[0]` for the
/// tracing overhead), span times from the replay.
Metrics PerLayer(const std::vector<PhaseResult>& phases,
                 const ReplayResult& replay, const SpanRecorder& spans,
                 const std::vector<double>& plan_seconds,
                 std::size_t pool_size, std::size_t nproc) {
  Metrics m;
  std::map<std::string, double>& v = m.values;
  const PhaseResult& traced = phases[1];
  const std::map<std::string, double> span_seconds = spans.SecondsByName();
  const std::map<std::string, std::size_t> span_counts = spans.CountByName();
  const double requests = static_cast<double>(replay.requests);
  const auto per_request = [&](const char* name) {
    const auto it = span_seconds.find(name);
    return it == span_seconds.end() ? 0.0 : Ratio(it->second, requests);
  };
  const double ok = static_cast<double>(traced.ok_latencies.size());
  const double hits = traced.StatDelta("serve.cache_hits");
  const double misses = traced.StatDelta("serve.cache_misses");
  v["serve.overhead_ms"] = 1e3 * Ratio(replay.serve_overhead_seconds, requests);
  m.samples["serve.overhead_ms"] = replay.requests;
  v["serve.cache_hit_ratio"] = Ratio(hits, hits + misses);
  v["serve.shed"] = traced.StatDelta("serve.shed");
  v["api.parse_us"] = 1e6 * per_request("api.parse");
  v["api.cache_lookup_us"] = 1e6 * per_request("api.cache_lookup");
  v["api.serialize_us"] = 1e6 * per_request("api.serialize");
  const double solve_ms = 1e3 * per_request("api.solve");
  const double search_ms = 1e3 * per_request("core.search");
  const double reestimate_ms = 1e3 * per_request("jq.reestimate");
  // A stale decomposition is not reported as a split.
  const double fresh = replay.stale == 0 ? 1.0 : 0.0;
  v["api.solve_ms"] = solve_ms;
  v["api.solve_self_ms"] =
      fresh * (solve_ms - 1e3 * Ratio(replay.blocking_seconds, requests));
  const auto apply = span_counts.find("api.apply_delta");
  v["api.apply_delta_ms"] =
      apply == span_counts.end()
          ? 0.0
          : 1e3 * Ratio(span_seconds.at("api.apply_delta"),
                        static_cast<double>(apply->second));
  v["api.plan_ms"] = 1e3 * Median(plan_seconds);
  v["core.search_ms"] = fresh * search_ms;
  v["core.evals_full"] = Ratio(traced.evals_full, traced.solved);
  v["core.evals_incremental"] =
      Ratio(traced.evals_incremental, traced.solved);
  v["core.sa_accept_ratio"] =
      Ratio(traced.moves_accepted, traced.moves_attempted);
  v["core.frontier_scanned_ratio"] =
      Ratio(traced.StatDelta("frontier.candidates_scanned"),
            static_cast<double>(pool_size) * traced.frontier_rounds);
  v["jq.reestimate_ms"] = fresh * reestimate_ms;
  // Share of the solve's own core+jq time; the beside-the-solve estimates
  // of other solvers' juries are not part of it.
  const double in_solve_ms =
      1e3 * Ratio(replay.solve_reestimate_seconds, requests);
  v["jq.reestimate_share"] =
      fresh * Ratio(in_solve_ms, search_ms + in_solve_ms);
  v["jq.keys_expanded"] = fresh * Ratio(replay.keys_expanded, requests);
  v["jq.keys_pruned_ratio"] =
      fresh * Ratio(replay.keys_pruned, replay.keys_expanded);
  v["model.shard_rebuilds"] =
      Ratio(traced.StatDelta("pool.shard_rebuilds"),
            static_cast<double>(traced.deltas_applied));
  v["util.cpu_util"] = Ratio(
      traced.cpu_seconds, traced.wall_seconds * static_cast<double>(nproc));
  v["util.cpu_ms_per_request"] = 1e3 * Ratio(traced.cpu_seconds, ok);
  v["util.tasks_spawned_per_request"] =
      Ratio(traced.StatDelta("scheduler.tasks_spawned"), ok);
  v["util.tasks_stolen_per_request"] =
      Ratio(traced.StatDelta("scheduler.tasks_stolen"), ok);
  v["trace.overhead_ms"] = 1e3 * (NearestRank(phases[1].ok_latencies, 0.5) -
                                  NearestRank(phases[0].ok_latencies, 0.5));
  v["trace.split_stale"] = static_cast<double>(replay.stale);

  for (const auto& [name, seconds] : spans.SelfSecondsByName()) {
    std::cout << "span " << name << ": " << span_counts.at(name)
              << " spans, self " << 1e3 * seconds << " ms total\n";
  }
  if (replay.stale != 0) {
    std::cout << "split stale: " << replay.stale
              << " decompositions did not reproduce their report\n";
  }
  return m;
}

/// Prints each metric by name and unit, then the result line.
void PrintResult(const Metrics& metrics,
                 const std::vector<std::pair<std::string, std::string>>& names,
                 bool correct, std::size_t attempted, std::size_t failed) {
  Json metric_json = Json::Object();
  for (const auto& [name, unit] : names) {
    const double value = metrics.values.at(name);
    std::cout << "metric " << name << " = " << value << " " << unit;
    const auto count = metrics.samples.find(name);
    if (count != metrics.samples.end()) {
      std::cout << " (n=" << count->second << ")";
    }
    std::cout << "\n";
    metric_json.Set(name, Json::Object()
                              .Set("value", std::isfinite(value) ? value : 0.0)
                              .Set("unit", unit));
  }
  std::cout << Json::Object()
                   .Set("correct", correct)
                   .Set("attempted", static_cast<std::uint64_t>(attempted))
                   .Set("failed", static_cast<std::uint64_t>(failed))
                   .Set("metrics", std::move(metric_json))
                   .Dump()
            << std::endl;
}

int Run(const Options& options) {
  const WorkloadSpec* spec = FindWorkload(options.workload);
  if (spec == nullptr) {
    std::cerr << "error: unknown workload '" << options.workload << "'\n";
    return 2;
  }
  const long online = ::sysconf(_SC_NPROCESSORS_ONLN);
  const std::size_t nproc = online > 0 ? static_cast<std::size_t>(online) : 1;
  const std::size_t connections = std::min(spec->connections, nproc);
  std::cout << HostLine(options, *spec, nproc, connections) << std::endl;
#ifndef NDEBUG
  if (!options.smoke) {
    std::cerr << "error: refusing to record a baseline from a build without "
                 "NDEBUG (use a Release build, or --smoke)\n";
    return 2;
  }
#endif
  std::error_code ignored;
  std::filesystem::create_directories(options.out_dir, ignored);

  // The benchmark's inputs: the workload's fixed pool and the seeded stream.
  const std::vector<jury::Worker> pool = MakePool(*spec, options.smoke);
  RequestStream stream(*spec, options.seed, pool, options.smoke);
  SpanRecorder spans(options.trace);

  // Set-up, several times (more where it is cheap, so the median is
  // steady); the last fixture is kept.
  int setups = 51;
  if (spec->kind == WorkloadKind::kCacheHot) setups = 5;
  if (spec->kind == WorkloadKind::kPoolChurn) setups = 9;
  if (options.smoke) setups = 2;
  std::vector<double> setup_seconds;
  std::vector<double> plan_seconds;
  std::unique_ptr<Fixture> fixture;
  const SetUpConfig setup{spec, &stream, connections, options.smoke,
                          options.out_dir};
  for (int k = 0; k < setups; ++k) {
    fixture.reset();
    const double start = NowSeconds();
    fixture = SetUp(setup, k, &spans);
    if (fixture == nullptr) return 1;
    setup_seconds.push_back(NowSeconds() - start);
    plan_seconds.push_back(fixture->plan_seconds);
  }

  CheckTally checks;
  for (const char* name : {"http_status", "report_binds"}) checks.Declare(name);
  std::unordered_map<std::string, HotReply> hot;
  if (spec->kind == WorkloadKind::kCacheHot) {
    checks.Declare("hot_equals_warmup");
    hot = PrepareHotReplies(*fixture, stream, pool, &checks);
  } else {
    checks.Declare("replay_identical");
  }

  ChurnLog churn;
  churn.seed = options.seed;
  churn.pool = &pool;
  PhaseConfig config;
  config.spec = spec;
  config.stream = &stream;
  config.pool = &pool;
  config.seed = options.seed;
  config.connections = connections;
  config.hot = spec->kind == WorkloadKind::kCacheHot ? &hot : nullptr;
  config.churn = spec->kind == WorkloadKind::kPoolChurn ? &churn : nullptr;
  config.checks = &checks;

  // Measured phases. Untraced: one phase. Traced: the same stream twice,
  // untraced then traced (cold workloads clear the cache between, so both
  // solve the same requests); the difference is the tracing overhead.
  std::vector<PhaseResult> phases;
  config.seconds = options.trace ? options.seconds / 2.0 : options.seconds;
  phases.push_back(RunPhase(*fixture, config));
  if (options.trace) {
    if (spec->kind == WorkloadKind::kOptjsCold ||
        spec->kind == WorkloadKind::kSearchCold) {
      fixture->context->result_cache()->Clear();
    }
    config.spans = &spans;
    phases.push_back(RunPhase(*fixture, config));
  }
  // Before the checks plan their reference contexts.
  const double peak_rss_mb = PeakRssMb();
  if (config.churn != nullptr) {
    checks.Declare("pool_delta");
    for (std::size_t k = 0; k < churn.applied.size(); ++k) {
      checks.Pass("pool_delta");
    }
    if (churn.failed) checks.Fail("pool_delta", "ApplyPoolDelta failed");
  }

  std::vector<const KeptReply*> kept;
  for (std::size_t k = 0; k < phases.size(); ++k) {
    const PhaseResult& phase = phases[k];
    for (const KeptReply& reply : phase.kept) kept.push_back(&reply);
    std::cout << "phase " << k + 1 << ": " << phase.ok_latencies.size()
              << " ok replies in " << phase.wall_seconds << " s, p50 "
              << 1e3 * NearestRank(phase.ok_latencies, 0.5) << " ms, cpu "
              << phase.cpu_seconds << " s\n";
  }
  if (spec->kind != WorkloadKind::kCacheHot) {
    CheckSampleAgainstTwin(*spec, options.seed, kept, &stream, pool,
                           config.churn, &checks);
  }

  Metrics metrics;
  if (!options.trace) {
    metrics = EndToEnd(*spec, phases[0], setup_seconds, peak_rss_mb);
  } else {
    const std::unique_ptr<jury::api::PoolPlanContext> twin =
        MakeTwin(pool, &churn, churn.applied.size());
    if (twin == nullptr) return 1;
    const std::size_t replay_count =
        options.smoke ? std::min<std::size_t>(spec->replay_requests, 8)
                      : spec->replay_requests;
    // Fresh stream positions, so cold replays miss the server's cache.
    const ReplayResult replay =
        Replay(*fixture, twin.get(), &stream, pool, std::size_t{1} << 30,
               replay_count, &spans, &checks);
    if (spec->kind != WorkloadKind::kPoolChurn) {
      // No churn in this traffic: time deltas of the churn shape on the
      // twin, so `api.apply_delta_ms` measures this pool too.
      for (std::size_t round = 0; round < kTwinDeltas; ++round) {
        ScopedSpan span(&spans, "api.apply_delta", 0, 0);
        const jury::Status applied = twin->ApplyPoolDelta(
            MakeDelta(options.seed, round, kTwinDeltaWorkers, pool));
        if (applied.ok()) {
          checks.Pass("pool_delta");
        } else {
          checks.Fail("pool_delta", applied.message());
        }
      }
    }
    metrics = PerLayer(phases, replay, spans, plan_seconds, pool.size(),
                       nproc);
    const std::string trace_path = options.out_dir + "/spans_" + spec->name +
                                   "_" + std::to_string(options.seed) +
                                   ".jsonl";
    if (spans.WriteJsonLines(trace_path)) {
      std::cout << "spans written to " << trace_path << "\n";
    }
  }

  checks.Print();
  const bool correct = checks.all_passed();
  std::size_t attempted = 0, failed = 0;
  for (const PhaseResult& phase : phases) {
    attempted += phase.attempted;
    failed += phase.failed;
  }
  PrintResult(metrics, options.trace ? kPerLayer : kEndToEnd, correct,
              attempted, failed);
  return correct && attempted > 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!perfbench::ParseArgs(argc, argv, &options)) {
    std::cerr << "usage: jury_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--smoke] [--out-dir DIR]\n";
    return 2;
  }
  return perfbench::Run(options);
}
