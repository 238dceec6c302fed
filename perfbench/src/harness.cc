#include "harness.h"

#include <sys/epoll.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <limits>
#include <set>

#include "http_client.h"
#include "model/pool_snapshot.h"
#include "model/worker_pool_view.h"
#include "util/json.h"

namespace perfbench {

using jury::Json;

void CheckTally::Fail(const std::string& check, const std::string& detail) {
  counts_[check].second += 1;
  if (details_printed_ < 5) {
    ++details_printed_;
    std::cerr << "check " << check << " failed: " << detail.substr(0, 400)
              << "\n";
  }
}

bool CheckTally::all_passed() const {
  for (const auto& [name, count] : counts_) {
    if (count.second != 0) return false;
  }
  return true;
}

void CheckTally::Print() const {
  for (const auto& [name, count] : counts_) {
    std::cout << "check " << name << ": " << count.first << " passed, "
              << count.second << " failed\n";
  }
}

namespace {

double NumberOr(const Json* value, double fallback) {
  if (value == nullptr) return fallback;
  const jury::Result<double> number = value->GetDouble();
  return number.ok() ? number.value() : fallback;
}

}  // namespace

BoundReport BindReport(const std::string& body) {
  BoundReport out;
  jury::Result<Json> parsed = Json::Parse(body);
  if (!parsed.ok()) {
    out.error = "not JSON: " + parsed.status().message();
    return out;
  }
  const Json& doc = parsed.value();
  const Json* solution = doc.Find("solution");
  const Json* solver = doc.Find("solver");
  const Json* stats = doc.Find("stats");
  const Json* evaluations = doc.Find("evaluations");
  if (doc.GetObject() == nullptr || solution == nullptr || solver == nullptr ||
      stats == nullptr || stats->GetObject() == nullptr ||
      evaluations == nullptr || doc.Find("wall_seconds") == nullptr) {
    out.error = "not a SolveReport document";
    return out;
  }
  const Json* selected = solution->Find("selected");
  const Json* jq = solution->Find("jq");
  const Json* cost = solution->Find("cost");
  if (selected == nullptr || selected->GetArray() == nullptr ||
      jq == nullptr || !jq->is_number() || cost == nullptr ||
      !cost->is_number() || !solver->is_string()) {
    out.error = "malformed solution";
    return out;
  }
  for (const Json& index : *selected->GetArray()) {
    const jury::Result<std::uint64_t> value = index.GetUint64();
    if (!value.ok()) {
      out.error = "non-integer jury index";
      return out;
    }
    out.selected.push_back(static_cast<std::size_t>(value.value()));
  }
  out.solver = solver->GetString().value();
  out.jq = jq->GetDouble().value();
  out.cost = cost->GetDouble().value();
  out.cache_hit = NumberOr(stats->Find("cache_hit"), 0.0) != 0.0;
  out.evals_full = NumberOr(evaluations->Find("full"), 0.0);
  out.evals_incremental = NumberOr(evaluations->Find("incremental"), 0.0);
  out.moves_accepted = NumberOr(stats->Find("moves_accepted"), 0.0);
  out.moves_attempted = NumberOr(stats->Find("moves_attempted"), 0.0);

  Json normalized = Json::Object();
  for (const auto& [key, value] : *doc.GetObject()) {
    if (key == "wall_seconds") {
      normalized.Set(key, Json(0.0));
    } else if (key == "stats") {
      Json kept = Json::Object();
      for (const auto& [stat, stat_value] : *value.GetObject()) {
        if (stat != "cache_hit") kept.Set(stat, stat_value);
      }
      normalized.Set(key, std::move(kept));
    } else {
      normalized.Set(key, value);
    }
  }
  out.normalized = normalized.Dump();
  return out;
}

std::string CheckReport(const BoundReport& report, const RequestInfo& request,
                        const std::vector<jury::Worker>& pool) {
  if (!report.error.empty()) return report.error;
  if (report.solver != request.solver) {
    return "solver " + report.solver + " answered a " + request.solver +
           " request";
  }
  std::set<std::size_t> seen;
  double cost = 0.0;
  for (const std::size_t index : report.selected) {
    if (index >= pool.size()) return "jury index out of range";
    if (!seen.insert(index).second) return "duplicate jury index";
    cost += pool[index].cost;
  }
  const double slack = 1e-9 * std::max(1.0, request.budget);
  if (cost > request.budget + slack) return "jury over budget";
  if (std::fabs(cost - report.cost) > slack) return "reported cost is wrong";
  if (!(report.jq >= 0.0 && report.jq <= 1.0)) return "JQ outside [0, 1]";
  return "";
}

Fixture::~Fixture() {
  if (server.has_value()) server->Shutdown();
  if (loop.joinable()) loop.join();
}

namespace {

/// Sends `bodies` over `connections` clients, replies in input order.
std::vector<HttpReply> PostAll(int port, const std::vector<std::string>& bodies,
                               std::size_t connections) {
  std::vector<HttpReply> replies(bodies.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < connections; ++c) {
    clients.emplace_back([&] {
      HttpClient client;
      if (!client.Connect("127.0.0.1", port)) return;
      for (std::size_t i = next.fetch_add(1); i < bodies.size();
           i = next.fetch_add(1)) {
        replies[i] = client.Post("/solve", bodies[i]);
      }
    });
  }
  for (std::thread& client : clients) client.join();
  return replies;
}

}  // namespace

std::unique_ptr<Fixture> SetUp(const SetUpConfig& config, int index,
                               SpanRecorder* spans) {
  const WorkloadSpec& spec = *config.spec;
  auto fixture = std::make_unique<Fixture>();
  ScopedSpan setup_span(spans, "setup", 0, 0);
  std::vector<jury::Worker> pool;
  {
    ScopedSpan span(spans, "setup.pool", setup_span.id(), 0);
    pool = MakePool(spec, config.smoke);
  }
  jury::Result<jury::api::PoolPlanContext> planned =
      jury::Status::Internal("unplanned");
  if (spec.kind == WorkloadKind::kPoolChurn) {
    const std::string snapshot_path = config.out_dir + "/pool_" +
                                      std::to_string(::getpid()) + "_" +
                                      std::to_string(index) + ".snap";
    {
      ScopedSpan span(spans, "setup.snapshot_write", setup_span.id(), 0);
      const jury::WorkerPoolView view(pool);
      const jury::Status written =
          jury::PoolSnapshot::Write(snapshot_path, pool, view);
      if (!written.ok()) {
        std::remove(snapshot_path.c_str());
        std::cerr << "error: snapshot write: " << written << "\n";
        return nullptr;
      }
    }
    ScopedSpan span(spans, "api.plan", setup_span.id(), 0);
    planned = jury::api::PoolPlanContext::PlanFromSnapshot(snapshot_path);
    fixture->plan_seconds = span.End();
    // The plan keeps its own mapping (or copy) of the file.
    std::remove(snapshot_path.c_str());
  } else {
    ScopedSpan span(spans, "api.plan", setup_span.id(), 0);
    planned = jury::api::PoolPlanContext::Plan(std::move(pool));
    fixture->plan_seconds = span.End();
  }
  if (!planned.ok()) {
    std::cerr << "error: plan: " << planned.status() << "\n";
    return nullptr;
  }
  fixture->context.emplace(std::move(planned).value());
  {
    ScopedSpan span(spans, "serve.start", setup_span.id(), 0);
    fixture->server.emplace(&*fixture->context, jury::serve::ServeOptions{});
    const jury::Status started = fixture->server->Start();
    if (!started.ok()) {
      std::cerr << "error: server start: " << started << "\n";
      fixture->server.reset();
      return nullptr;
    }
    fixture->port = fixture->server->port();
    jury::serve::JuryServer* server = &*fixture->server;
    fixture->loop = std::thread([server] {
      const jury::Status ran = server->Run();
      if (!ran.ok()) std::cerr << "server error: " << ran << "\n";
    });
  }
  ScopedSpan warm_span(spans, "setup.warmup", setup_span.id(), 0);
  if (spec.kind == WorkloadKind::kCacheHot) {
    std::vector<std::string> bodies;
    for (const RequestInfo& request : config.stream->catalogue()) {
      bodies.push_back(request.body);
    }
    const std::vector<HttpReply> replies =
        PostAll(fixture->port, bodies, config.connections);
    for (std::size_t i = 0; i < bodies.size(); ++i) {
      if (!replies[i].transport_ok || replies[i].status != 200) {
        std::cerr << "error: warm-up request failed with status "
                  << replies[i].status << "\n";
        return nullptr;
      }
      fixture->warm_replies[bodies[i]] = replies[i].body;
    }
  } else if (spec.kind == WorkloadKind::kPoolChurn) {
    // The frontier's shard index is built lazily by the first request
    // that asks for it; build it here so no measured request pays for it.
    fixture->context->sharded_pool();
  }
  return fixture;
}

double PhaseResult::StatDelta(const std::string& name) const {
  const auto before = stats_before.find(name);
  const auto after = stats_after.find(name);
  if (before == stats_before.end() || after == stats_after.end()) return 0.0;
  return after->second - before->second;
}

namespace {

/// How long in-flight requests may take to complete after the deadline.
constexpr double kDrainSeconds = 60.0;
/// Latencies reserved per phase: above any workload's request count.
constexpr std::size_t kLatencyReserve = std::size_t{1} << 20;
/// One in this many successful replies (by a seeded hash of the stream
/// position) is kept for the byte-identity check, plus the first few.
constexpr std::uint64_t kKeepOneIn = 16;

/// One client connection of the load loop and its request in flight.
struct LoadConnection {
  std::unique_ptr<HttpClient> client;
  bool busy = false;
  double sent = 0.0;
  std::size_t index = 0;
  std::size_t epoch = 0;
  RequestInfo request;
};

/// Checks one reply and folds it into `result`.
void AccountReply(const PhaseConfig& config, const LoadConnection& conn,
                  double latency, HttpReply reply, PhaseResult* result) {
  CheckTally& checks = *config.checks;
  result->attempted += 1;
  if (!reply.transport_ok || reply.status != 200) {
    result->failed += 1;
    checks.Fail("http_status", "status " + std::to_string(reply.status) +
                                   " for request " +
                                   std::to_string(conn.index) + ": " +
                                   reply.body);
    return;
  }
  checks.Pass("http_status");
  BoundReport bound_here;
  const BoundReport* bound = &bound_here;
  if (config.hot != nullptr) {
    const auto it = config.hot->find(conn.request.body);
    if (it == config.hot->end() || it->second.bytes != reply.body) {
      result->failed += 1;
      checks.Fail("hot_equals_warmup", "reply " + reply.body);
      return;
    }
    checks.Pass("hot_equals_warmup");
    checks.Pass("report_binds");  // byte-equal to a checked reply
    bound = &it->second.report;
  } else {
    bound_here = BindReport(reply.body);
    const std::string problem =
        CheckReport(bound_here, conn.request, *config.pool);
    if (!problem.empty()) {
      result->failed += 1;
      checks.Fail("report_binds", problem + ": " + reply.body);
      return;
    }
    checks.Pass("report_binds");
    if (result->kept.size() < config.spec->verify_samples ||
        Mix(config.seed, conn.index) % kKeepOneIn == 0) {
      result->kept.push_back({conn.index, conn.epoch, std::move(reply.body)});
    }
  }
  result->ok_latencies.push_back(latency);
  result->shortfall_sum += 1.0 - bound->jq;
  if (!bound->cache_hit) {
    result->solved += 1.0;
    result->evals_full += bound->evals_full;
    result->evals_incremental += bound->evals_incremental;
    result->moves_accepted += bound->moves_accepted;
    result->moves_attempted += bound->moves_attempted;
    if (conn.request.frontier_k > 0) {
      result->frontier_rounds += static_cast<double>(bound->selected.size() + 1);
    }
  }
}

}  // namespace

PhaseResult RunPhase(Fixture& fixture, const PhaseConfig& config) {
  const WorkloadSpec& spec = *config.spec;
  const std::size_t round_size =
      config.churn != nullptr ? spec.round_size : 0;
  PhaseResult result;
  // Reserved up front so the latency log never reallocates mid-phase (a
  // doubling copy would add the log's size to the peak resident set).
  result.ok_latencies.reserve(kLatencyReserve);
  result.stats_before = FetchStats(fixture.port);

  // One client thread multiplexes every connection (epoll), so the load
  // generator adds one runnable thread, not one per connection.
  const int epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
  std::vector<LoadConnection> connections(config.connections);
  const auto connect = [&](std::size_t c) {
    LoadConnection& conn = connections[c];
    if (conn.client != nullptr) {
      ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, conn.client->fd(), nullptr);
    }
    conn.client = std::make_unique<HttpClient>();
    if (!conn.client->Connect("127.0.0.1", fixture.port)) return false;
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.u64 = c;
    return ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, conn.client->fd(), &event) ==
           0;
  };
  std::vector<bool> connected(config.connections);
  for (std::size_t c = 0; c < config.connections; ++c) connected[c] = connect(c);

  const double cpu_start = ProcessCpuSeconds();
  const double start = NowSeconds();
  const double deadline = start + config.seconds;
  // Every phase replays the stream from its start.
  std::size_t next = 0;
  std::size_t round_limit = round_size != 0
                                ? round_size
                                : std::numeric_limits<std::size_t>::max();
  std::size_t in_flight = 0;
  const std::size_t deltas_at_start =
      config.churn != nullptr ? config.churn->applied.size() : 0;

  const auto finish = [&](LoadConnection& conn, HttpReply reply) {
    const double done = NowSeconds();
    if (config.spans != nullptr) {
      Span span;
      span.id = config.spans->NewId();
      span.request = conn.index + 1;
      span.name = "client.request";
      span.start = conn.sent;
      span.end = done;
      config.spans->Record(std::move(span));
    }
    AccountReply(config, conn, done - conn.sent, std::move(reply), &result);
    conn.busy = false;
    --in_flight;
  };
  const auto issue = [&](std::size_t c) {
    LoadConnection& conn = connections[c];
    if (!connected[c]) connected[c] = connect(c);
    conn.index = next++;
    conn.epoch = config.churn != nullptr ? config.churn->applied.size() : 0;
    conn.request = config.stream->Get(conn.index);
    conn.busy = true;
    ++in_flight;
    conn.sent = NowSeconds();
    if (!connected[c] || !conn.client->Send(HttpClient::PostRequest(
                             "/solve", conn.request.body))) {
      connected[c] = false;
      finish(conn, HttpReply{});
    }
  };

  epoll_event events[16];
  while (true) {
    const bool open = NowSeconds() < deadline && !config.churn_failed();
    if (open) {
      for (std::size_t c = 0; c < connections.size(); ++c) {
        if (!connections[c].busy && next < round_limit) issue(c);
      }
    }
    if (in_flight == 0) {
      if (!open) break;
      if (next >= round_limit) {
        // Round over and every reply in: apply the next pool delta.
        ChurnLog& churn = *config.churn;
        const std::vector<jury::api::PoolDeltaUpdate> delta =
            MakeDelta(churn.seed, churn.applied.size(), spec.delta_workers,
                      *churn.pool);
        ScopedSpan span(config.spans, "api.apply_delta", 0, 0);
        const jury::Status applied = fixture.context->ApplyPoolDelta(delta);
        span.End();
        if (!applied.ok()) {
          std::cerr << "error: ApplyPoolDelta: " << applied << "\n";
          churn.failed = true;
        } else {
          churn.applied.push_back(delta);
          round_limit += round_size;
        }
      }
      continue;
    }
    if (!open && NowSeconds() > deadline + kDrainSeconds) {
      for (LoadConnection& conn : connections) {
        if (conn.busy) finish(conn, HttpReply{});  // counts as failed
      }
      break;
    }
    const int ready = ::epoll_wait(epoll_fd, events, 16, 100);
    for (int e = 0; e < ready; ++e) {
      const std::size_t c = static_cast<std::size_t>(events[e].data.u64);
      LoadConnection& conn = connections[c];
      if (!conn.busy) continue;
      HttpReply reply;
      const HttpClient::ReadState state = conn.client->Receive(&reply);
      if (state == HttpClient::ReadState::kPending) continue;
      if (state == HttpClient::ReadState::kError) {
        // Stop polling the dead socket; the next request reconnects.
        ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, conn.client->fd(), nullptr);
        connected[c] = false;
        reply = HttpReply{};
      }
      finish(conn, std::move(reply));
    }
  }
  result.wall_seconds = NowSeconds() - start;
  result.cpu_seconds = ProcessCpuSeconds() - cpu_start;
  connections.clear();
  ::close(epoll_fd);
  result.stats_after = FetchStats(fixture.port);
  if (config.churn != nullptr) {
    result.deltas_applied = config.churn->applied.size() - deltas_at_start;
  }
  return result;
}

std::map<std::string, double> FetchStats(int port) {
  std::map<std::string, double> flat;
  HttpClient client;
  if (!client.Connect("127.0.0.1", port)) return flat;
  const HttpReply reply = client.Get("/stats");
  if (!reply.transport_ok || reply.status != 200) return flat;
  jury::Result<Json> parsed = Json::Parse(reply.body);
  if (!parsed.ok()) return flat;
  const Json& doc = parsed.value();
  if (const Json* registry = doc.Find("registry")) {
    for (const char* kind : {"counters", "gauges"}) {
      const Json* group = registry->Find(kind);
      if (group == nullptr || group->GetObject() == nullptr) continue;
      for (const auto& [name, value] : *group->GetObject()) {
        flat[name] = NumberOr(&value, 0.0);
      }
    }
  }
  if (const Json* cache = doc.Find("cache");
      cache != nullptr && cache->GetObject() != nullptr) {
    for (const auto& [name, value] : *cache->GetObject()) {
      flat["cache." + name] = NumberOr(&value, 0.0);
    }
  }
  return flat;
}

double ProcessCpuSeconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

double PeakRssMb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double NearestRank(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(values.size()))) - 1;
  return values[index];
}

}  // namespace perfbench
