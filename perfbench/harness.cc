#include "harness.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>

#include "baseline/bfs_cycle.h"
#include "csc/index_io.h"
#include "util/random.h"

namespace perfbench {
namespace {

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out + "\"";
}

std::string JsonObject(
    const std::vector<std::pair<std::string, std::string>>& fields) {
  std::string out = "{";
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(fields[i].first) + ": " + fields[i].second;
  }
  return out + "}";
}

// Keeps a query answer observable so the timed call cannot be elided.
std::atomic<uint64_t> g_sink{0};
void Sink(const csc::CycleCount& c) {
  g_sink.fetch_add(c.count + c.length, std::memory_order_relaxed);
}

}  // namespace

void Report::Check(bool ok, const char* what, uint64_t n) {
  attempted_ += n;
  if (ok || n == 0) return;
  failed_ += n;
  std::fprintf(stderr, "check failed: %s (%llu)\n", what,
               static_cast<unsigned long long>(n));
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, "{\"value\": " + JsonNumber(value) +
                                ", \"unit\": " + JsonString(unit) + "}"});
}

void Report::Stamp(const std::string& key, const std::string& value) {
  stamp_.push_back({key, JsonString(value)});
}

void Report::Stamp(const std::string& key, double value) {
  stamp_.push_back({key, JsonNumber(value)});
}

std::string Report::ToJson() const {
  return JsonObject({{"correct", failed_ == 0 ? "true" : "false"},
                     {"attempted", std::to_string(attempted_)},
                     {"failed", std::to_string(failed_)},
                     {"metrics", JsonObject(metrics_)},
                     {"stamp", JsonObject(stamp_)}});
}

std::vector<csc::Vertex> DegreeBiasedVertices(const csc::DiGraph& graph,
                                              size_t count, uint64_t seed) {
  std::vector<csc::Edge> edges = graph.Edges();
  csc::Rng rng(seed);
  std::vector<csc::Vertex> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const csc::Edge& e = edges[rng.NextBounded(edges.size())];
    out.push_back(rng.NextBool(0.5) ? e.from : e.to);
  }
  return out;
}

void TimedQuery(csc::Engine& engine, csc::Vertex v, uint64_t request,
                Recorder& latency, Tracer* tracer) {
  int64_t t0 = NowNs();
  csc::CycleCount answer = engine.Query(v);
  int64_t t1 = NowNs();
  latency.Add(t1 - t0);
  Sink(answer);
  if (tracer != nullptr && tracer->enabled()) {
    int64_t w0 = NowNs();
    Sink(engine.Query(v));
    int64_t w1 = NowNs();
    std::shared_ptr<csc::CycleIndex> snapshot = engine.snapshot();
    int64_t s1 = NowNs();
    Sink(snapshot->CountShortestCycles(v));
    int64_t s2 = NowNs();
    uint32_t cold = tracer->Add("serving.query", 0, request, t0, t1);
    uint32_t warm = tracer->Add("serving.engine", cold, request, w0, w1);
    tracer->Add("csc.query", warm, request, s1, s2);
    tracer->Add("serving.snapshot", 0, request, w1, s1);
  }
}

void TimedSweep(csc::Engine& engine, Recorder& times, Report& report) {
  int64_t t0 = NowNs();
  std::vector<csc::CycleCount> all = engine.QueryAll();
  times.Add(NowNs() - t0);
  bool ok = all.size() == engine.num_vertices();
  for (csc::Vertex v = 0; ok && v < all.size(); ++v) {
    ok = all[v] == engine.Query(v);
  }
  report.Check(ok, "sweep matches point queries");
}

Recorder SequentialSweeps(csc::Engine& engine, int reps) {
  Recorder times;
  std::shared_ptr<csc::CycleIndex> snapshot = engine.snapshot();
  for (int r = 0; r < reps; ++r) {
    int64_t t0 = NowNs();
    for (csc::Vertex v = 0; v < snapshot->num_vertices(); ++v) {
      Sink(snapshot->CountShortestCycles(v));
    }
    times.Add(NowNs() - t0);
  }
  return times;
}

ColdLoader::ColdLoader(csc::Engine& source, std::string backend,
                       std::string path)
    : backend_(std::move(backend)), path_(std::move(path)) {
  std::string bytes;
  saved_ = source.SaveTo(bytes) && csc::SavePayloadToFile(bytes, path_);
  answers_ = source.QueryAll();
}

ColdLoader::~ColdLoader() { std::remove(path_.c_str()); }

void ColdLoader::Load(csc::Vertex v) {
  ++attempted_;
  if (!saved_) {
    ++failed_;
    return;
  }
  csc::EngineOptions options;
  options.backend = backend_;
  options.num_threads = 1;
  csc::Engine loaded(options);
  int64_t t0 = NowNs();
  bool ok = loaded.LoadFromFile(path_);
  csc::CycleCount first = loaded.Query(v);
  times_.Add(NowNs() - t0);
  ok = ok && v < answers_.size() && first == answers_[v];
  if (ok && times_.count() == 1) {
    for (csc::Vertex u = 0; ok && u < answers_.size(); ++u) {
      ok = loaded.Query(u) == answers_[u];
    }
  }
  if (!ok) ++failed_;
}

void ColdLoader::Tally(Report& report) const {
  report.Check(saved_, "index saved for cold loads");
  report.Check(true, "", attempted_ - failed_);
  report.Check(false, "cold load answers as the saved index", failed_);
}

void CheckAgainstBfs(csc::Engine& engine, const csc::DiGraph& graph,
                     const std::vector<csc::Vertex>& vertices,
                     Report& report) {
  csc::BfsCycleCounter bfs(graph);
  for (csc::Vertex v : vertices) {
    report.Check(engine.Query(v) == bfs.CountCycles(v), "vertex matches BFS");
  }
}

double JoinProbe(const csc::FrozenIndex& probe,
                 const std::vector<csc::Vertex>& vertices, Tracer& tracer) {
  const csc::LabelArena& out = probe.out_arena();
  const csc::LabelArena& in = probe.in_arena();
  const size_t count = std::min<size_t>(vertices.size(), 1 << 15);
  uint64_t entries = 0;
  for (size_t i = 0; i < count; ++i) {
    const csc::Vertex v = vertices[i];
    int64_t t0 = NowNs();
    csc::JoinResult r = csc::LabelArena::Join(out, v, in, v);
    int64_t t1 = NowNs();
    Sink({r.dist, r.count});
    tracer.Add("core.join", 0, i + 1, t0, t1);
    entries += out.RunSize(v) + in.RunSize(v);
  }
  return count == 0 ? 0.0
                    : static_cast<double>(entries) / static_cast<double>(count);
}

double SpinSpeedup() {
  auto spin = [](std::atomic<bool>* stop) {
    uint64_t x = 0x9e3779b97f4a7c15ULL;
    uint64_t iters = 0;
    while (!stop->load(std::memory_order_relaxed)) {
      for (int i = 0; i < 4096; ++i) x = x * 6364136223846793005ULL + 1;
      ++iters;
    }
    g_sink.fetch_add(x & 1, std::memory_order_relaxed);
    return iters;
  };
  auto throughput = [&spin](unsigned threads) {
    std::atomic<bool> stop{false};
    std::vector<uint64_t> iters(threads, 0);
    std::vector<std::thread> workers;
    int64_t t0 = NowNs();
    for (unsigned t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] { iters[t] = spin(&stop); });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    stop.store(true);
    for (std::thread& w : workers) w.join();
    double seconds = static_cast<double>(NowNs() - t0) / 1e9;
    uint64_t total = 0;
    for (uint64_t i : iters) total += i;
    return static_cast<double>(total) / seconds;
  };
  unsigned n = std::max(1u, std::thread::hardware_concurrency());
  double one = throughput(1);
  return one > 0 ? throughput(n) / one : 0.0;
}

void ReportCommonLayers(const Tracer& reads, const Tracer& writes,
                        Report& report) {
  report.Metric("serving.engine_self_ns",
                reads.SelfTimes("serving.engine").Median(), "ns");
  report.Metric("serving.cold_fetch_ns",
                reads.SelfTimes("serving.query").Median(), "ns");
  report.Metric("serving.snapshot_ns",
                reads.Durations("serving.snapshot").Median(), "ns");
  report.Metric("csc.query_ns", reads.Durations("csc.query").Median(), "ns");
  report.Metric("core.join_ns", writes.Durations("core.join").Median(), "ns");
  report.Metric("serving.update_self_ms",
                Ms(writes.SelfTimes("serving.update").Median()), "ms");
  report.Metric("dynamic.insert_ms",
                Ms(writes.Durations("dynamic.insert").Median()), "ms");
  report.Metric("dynamic.remove_ms",
                Ms(writes.Durations("dynamic.remove").Median()), "ms");
  report.Metric("dynamic.patch_extract_ms",
                Ms(writes.Durations("dynamic.patch_extract").Median()), "ms");
  report.Metric("core.patch_apply_ms",
                Ms(writes.Durations("core.patch_apply").Median()), "ms");
}

}  // namespace perfbench
