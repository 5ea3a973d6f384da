// serve_mixed: a transaction log served with durable writes beside reads.
// The WKT stand-in's edges arrive in one fixed order and live for a sliding
// window of m/2 arrivals; the engine ("frozen" with incremental repair and a
// write-ahead log) is built on the live graph at 1.5 windows. A writer
// client sends each next event of the log as a single-edge batch and times
// it until ApplyUpdates returns: the WAL record fsync'd and the batch landed
// (queryable). A reader client issues degree-biased point queries
// throughout. Time goes to the serving write path: admission, WAL, §V on
// the shadow, patch extract, patch apply and snapshot swap.

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "harness.h"
#include "mirror.h"
#include "workload/datasets.h"
#include "workload/temporal_stream.h"

namespace perfbench {
namespace {

constexpr const char* kDataset = "WKT";
constexpr double kScale = 0.5;
constexpr unsigned kEngineThreads = 1;
constexpr int kSetupReps = 5;
// The reader sends kBurst point queries, then thinks for kThinkTime, which
// keeps it to under a tenth of a core. The writer's latencies then do not
// depend on how many cores the machine has free: with a spinning reader,
// runs on a shared machine whose free cores dropped from four to one saw
// remove_p90_ms double. Between bursts the reader also runs a QueryAll
// sweep every kSweepPeriodNs and a cold load of the index saved after
// set-up every kLoadPeriodNs, spreading both over the run; loads are topped
// up to kMinLoads after the stream.
constexpr int kBurst = 256;
constexpr std::chrono::milliseconds kThinkTime{1};
constexpr int64_t kSweepPeriodNs = 250'000'000;
constexpr int64_t kLoadPeriodNs = 500'000'000;
constexpr uint64_t kMinLoads = 5;
constexpr uint64_t kMinOpsPerType = 100;
constexpr size_t kOracleSample = 200;
// index_bytes is read after this many updates: a fixed point of the
// seeded op sequence, whatever the machine's speed.
constexpr uint64_t kBytesAfterOps = 200;
// The reader traces one query in this many, bounding the span log.
constexpr uint64_t kTraceEvery = 64;
// The writer replays a fixed stretch of one fixed transaction log: the first
// kEvents events after the build, of one arrival order of the dataset's
// edges, as a recorded log would be. The update tail is set by which events
// a run replays (a few inserts close many new shortest cycles): with an
// arrival order per seed, or a time-boxed stretch, insert_p90_ms moved by 2
// to 4x between runs, while the same stretch replayed twice agreed within
// 10%. The seed picks the reader's vertices.
constexpr uint64_t kLogSeed = 1;
constexpr uint64_t kEvents = 1000;

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  uint64_t size = std::filesystem::file_size(path, ec);
  return ec ? 0 : size;
}

}  // namespace

int RunServeMixed(const Config& config, Report& report) {
  const csc::DatasetSpec spec = *csc::FindDataset(kDataset);
  const std::string wal_path = config.work_dir + "/serve_mixed.wal";
  csc::EngineOptions options;
  options.backend = "frozen";
  options.num_threads = kEngineThreads;
  // Batches land synchronously. With async_updates the hand-offs to the
  // landing thread and back made the update latencies follow the machine's
  // thread wake-up latency: replaying the same events, insert_p50_ms spread
  // 0.28 across runs, against 0.03 landing inline.
  options.repair.enabled = true;
  options.wal_path = wal_path;

  // Set-up: generate the stream, build on the live graph with the WAL open,
  // answer a first query.
  Recorder setup, generate;
  csc::DiGraph live;
  std::vector<csc::StreamEvent> events;
  uint64_t build_time = 0;
  std::unique_ptr<csc::Engine> engine;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    engine.reset();
    std::filesystem::remove(wal_path);
    int64_t t0 = NowNs();
    const csc::DiGraph graph = csc::MaterializeDataset(spec, kScale);
    const uint64_t window = graph.num_edges() / 2;
    events = csc::SlidingWindowEvents(
        csc::ArrivalsFromGraph(graph, kLogSeed), window);
    build_time = window * 3 / 2;
    live = csc::GraphAtTime(graph.num_vertices(), events, build_time);
    int64_t t1 = NowNs();
    engine = std::make_unique<csc::Engine>(options);
    bool built = engine->Build(live);
    (void)engine->Query(0);
    setup.Add(NowNs() - t0);
    generate.Add(t1 - t0);
    report.Check(built && engine->wal_enabled() && engine->repair_active(),
                 "build with WAL and repair");
  }
  const csc::Vertex n = live.num_vertices();
  const uint64_t initial_edges = live.num_edges();

  Tracer reader_tracer(config.trace);
  Tracer writer_tracer(config.trace);
  std::optional<Mirror> mirror;
  if (config.trace) mirror.emplace(live, Mirror::Mode::kShadow);

  CheckAgainstBfs(*engine, live,
                  DegreeBiasedVertices(live, kOracleSample, config.seed), report);

  // Reader client: point queries, and now and then a sweep or a cold load,
  // until the writer is done. Its sweeps race the writer, so only their
  // size is checked here; the checked sweep runs after the stream.
  const std::vector<csc::Vertex> reads =
      DegreeBiasedVertices(live, 1 << 18, config.seed + 1);
  ColdLoader loader(*engine, "frozen", config.work_dir + "/serve_mixed.index");
  std::atomic<bool> stop{false};
  Recorder query_ns, sweeps;
  uint64_t bad_sweeps = 0;
  std::thread reader([&] {
    uint64_t i = 0;
    int64_t next_sweep = NowNs() + kSweepPeriodNs;
    int64_t next_load = NowNs() + kLoadPeriodNs;
    while (!stop.load(std::memory_order_relaxed)) {
      for (int k = 0; k < kBurst; ++k, ++i) {
        TimedQuery(*engine, reads[i % reads.size()], i + 1, query_ns,
                   i % kTraceEvery == 0 ? &reader_tracer : nullptr);
      }
      if (NowNs() >= next_sweep) {
        int64_t t0 = NowNs();
        std::vector<csc::CycleCount> all = engine->QueryAll();
        sweeps.Add(NowNs() - t0);
        if (all.size() != n) ++bad_sweeps;
        next_sweep += kSweepPeriodNs;
      }
      if (NowNs() >= next_load) {
        loader.Load(reads[i % reads.size()]);
        next_load += kLoadPeriodNs;
      }
      std::this_thread::sleep_for(kThinkTime);
    }
  });

  // Writer client: the events after the build time, one batch each.
  size_t next = 0;
  while (next < events.size() && events[next].time <= build_time) ++next;
  const uint64_t wal_before = FileBytes(wal_path);
  Recorder insert_ns, remove_ns;
  uint64_t index_bytes = 0;
  const int64_t start = NowNs();
  auto elapsed_s = [&] { return static_cast<double>(NowNs() - start) / 1e9; };
  for (uint64_t id = 1; id <= kEvents && next < events.size(); ++id, ++next) {
    const csc::EdgeUpdate& op = events[next].update;
    const bool insert = op.kind == csc::UpdateKind::kInsert;
    std::vector<csc::UpdateVerdict> verdicts;
    int64_t t0 = NowNs();
    (void)engine->ApplyUpdates({op}, &verdicts);
    int64_t t1 = NowNs();
    (insert ? insert_ns : remove_ns).Add(t1 - t0);
    report.Check(verdicts.size() == 1 &&
                     verdicts[0] == csc::UpdateVerdict::kApplied,
                 "update applied");
    if (writer_tracer.enabled()) {
      uint32_t span = writer_tracer.Add("serving.update", 0, id, t0, t1);
      mirror->Replay(op, span, id, writer_tracer);
    }
    if (insert) {
      live.AddEdge(op.edge.from, op.edge.to);
    } else {
      live.RemoveEdge(op.edge.from, op.edge.to);
    }
    if (id == kBytesAfterOps) index_bytes = engine->MemoryBytes();
  }
  // The reader goes on for the rest of the run.
  while (elapsed_s() < config.seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const double measured_s = elapsed_s();
  stop.store(true);
  reader.join();
  report.Attempted(query_ns.count());
  report.Check(true, "", sweeps.count() - bad_sweeps);
  report.Check(false, "reader sweep covers every vertex", bad_sweeps);
  TimedSweep(*engine, sweeps, report);
  const uint64_t ops = insert_ns.count() + remove_ns.count();
  const uint64_t wal_bytes = FileBytes(wal_path) - wal_before;
  report.Check(insert_ns.count() >= kMinOpsPerType &&
                   remove_ns.count() >= kMinOpsPerType,
               "stream has enough events of each kind");

  for (uint64_t k = loader.times().count(); k < kMinLoads; ++k) {
    loader.Load(reads[0]);
  }
  loader.Tally(report);
  Recorder& loads = loader.times();

  // Output check: every vertex against a fresh build on the final live
  // graph, and a sample against BFS.
  std::unique_ptr<csc::CycleIndex> fresh = csc::MakeBackend("frozen");
  fresh->Build(live);
  uint64_t mismatches = 0;
  for (csc::Vertex v = 0; v < n; ++v) {
    if (engine->Query(v) != fresh->CountShortestCycles(v)) ++mismatches;
  }
  report.Check(true, "", n - mismatches);
  report.Check(false, "vertex matches a fresh build", mismatches);
  CheckAgainstBfs(*engine, live,
                  DegreeBiasedVertices(live, kOracleSample, config.seed + 2),
                  report);

  const csc::BackendStats stats = engine->Stats();
  report.Metric("setup_s", setup.Median() / 1e9, "s");
  report.Metric("query_p50_us", Us(query_ns.Quantile(0.5)), "us");
  report.Metric("query_p99_us", Us(query_ns.Quantile(0.99)), "us");
  report.Metric("sweep_qps", static_cast<double>(n) / (sweeps.Median() / 1e9),
                "1/s");
  report.Metric("cold_load_ms", Ms(loads.Median()), "ms");
  report.Metric("insert_p50_ms", Ms(insert_ns.Quantile(0.5)), "ms");
  report.Metric("insert_p90_ms", Ms(insert_ns.Quantile(0.9)), "ms");
  report.Metric("remove_p50_ms", Ms(remove_ns.Quantile(0.5)), "ms");
  report.Metric("remove_p90_ms", Ms(remove_ns.Quantile(0.9)), "ms");
  report.Metric("index_bytes", static_cast<double>(index_bytes), "bytes");

  if (config.trace) {
    report.Metric("core.entries_per_query",
                  JoinProbe(mirror->probe(), reads, writer_tracer), "count");
    ReportCommonLayers(reader_tracer, writer_tracer, report);
    mirror->ReportLayers(report);
    Recorder sequential = SequentialSweeps(*engine, 3);
    report.Metric("graph.generate_s", generate.Median() / 1e9, "s");
    report.Metric("labeling.build_s", mirror->build_seconds(), "s");
    report.Metric("csc.sweep_seq_ms", Ms(sequential.Median()), "ms");
    report.Metric("util.sweep_speedup", sequential.Median() / sweeps.Median(),
                  "x");
    report.Metric("core.index_entries", static_cast<double>(stats.label_entries),
                  "count");
    report.Metric("core.bytes_per_entry",
                  static_cast<double>(stats.memory_bytes) /
                      static_cast<double>(stats.label_entries),
                  "bytes");
    report.Metric("serving.wal_bytes_per_op",
                  static_cast<double>(wal_bytes) / static_cast<double>(ops),
                  "bytes");
    report.Metric("serving.patch_ratio",
                  static_cast<double>(engine->repair_stats().patches) /
                      static_cast<double>(ops),
                  "ratio");
    const std::string path = config.work_dir + "/trace-serve_mixed-" +
                             std::to_string(config.seed) + ".tsv";
    reader_tracer.AppendTsv(path, "reader");
    writer_tracer.AppendTsv(path, "writer");
  }

  report.Stamp("dataset", std::string(kDataset));
  report.Stamp("scale", kScale);
  report.Stamp("n", static_cast<double>(n));
  report.Stamp("m", static_cast<double>(initial_edges));
  report.Stamp("window_events", static_cast<double>(events.size()));
  report.Stamp("inserts", static_cast<double>(insert_ns.count()));
  report.Stamp("removes", static_cast<double>(remove_ns.count()));
  report.Stamp("queries", static_cast<double>(query_ns.count()));
  report.Stamp("sweeps", static_cast<double>(sweeps.count()));
  report.Stamp("cold_loads", static_cast<double>(loads.count()));
  report.Stamp("setups", static_cast<double>(setup.count()));
  report.Stamp("measured_s", measured_s);
  report.Stamp("client_threads", 2.0);
  report.Stamp("engine_threads", static_cast<double>(kEngineThreads));
  report.Stamp("spans_dropped", static_cast<double>(reader_tracer.dropped() +
                                                    writer_tracer.dropped()));
  std::filesystem::remove(wal_path);
  return 0;
}

}  // namespace perfbench
