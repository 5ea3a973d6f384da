// update_inplace: the paper's §VI dynamic protocol (Figs 11-12) on the
// dynamic "csc" backend behind a synchronous K=1 Engine, G04 stand-in at
// scale 0.5 (at 1.0 a remove takes about 300 ms, too few per run for a
// steady p90). In rounds, sampled existing edges are removed one at a time
// from a fresh index and then inserted back one at a time, each as a
// single-edge ApplyUpdates that returns once the index is queryable;
// between updates the client reads degree-biased vertices. Time goes to
// dynamic/ (DECCNT / INCCNT), with no snapshot swap and no patching.

#include <cstdio>
#include <memory>
#include <optional>
#include <vector>

#include "baseline/bfs_cycle.h"
#include "harness.h"
#include "mirror.h"
#include "workload/datasets.h"
#include "workload/update_workload.h"

namespace perfbench {
namespace {

constexpr const char* kDataset = "G04";
constexpr double kScale = 0.5;
constexpr unsigned kEngineThreads = 1;
constexpr int kSetupReps = 5;
// A QueryAll sweep follows every this many updates.
constexpr uint64_t kSweepEvery = 5;
// A cold load of the index saved after set-up follows every this many
// updates.
constexpr uint64_t kLoadEvery = 20;
// Edges per remove-then-reinsert round; a run measures at least one round,
// so each op type's p90 has at least ten samples above it.
constexpr size_t kRoundEdges = 100;
constexpr int kReadsPerUpdate = 1000;
constexpr size_t kOracleSample = 200;
// index_bytes is read after this many updates: a fixed point of the
// seeded op sequence, whatever the machine's speed.
constexpr uint64_t kBytesAfterOps = 200;
// One read in this many is traced, bounding the span log.
constexpr uint64_t kTraceEvery = 8;

}  // namespace

int RunUpdateInplace(const Config& config, Report& report) {
  const csc::DatasetSpec spec = *csc::FindDataset(kDataset);
  csc::EngineOptions options;
  options.backend = "csc";
  options.num_threads = kEngineThreads;

  // Set-up: generate the graph, build, answer a first query.
  Recorder setup, generate;
  csc::DiGraph graph;
  std::unique_ptr<csc::Engine> engine;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    int64_t t0 = NowNs();
    graph = csc::MaterializeDataset(spec, kScale);
    int64_t t1 = NowNs();
    engine = std::make_unique<csc::Engine>(options);
    bool built = engine->Build(graph);
    (void)engine->Query(0);
    setup.Add(NowNs() - t0);
    generate.Add(t1 - t0);
    report.Check(built, "build");
  }

  Tracer tracer(config.trace);
  std::optional<Mirror> mirror;
  if (config.trace) mirror.emplace(graph, Mirror::Mode::kInPlace);

  CheckAgainstBfs(*engine, graph,
                  DegreeBiasedVertices(graph, kOracleSample, config.seed), report);
  Recorder sweeps;
  TimedSweep(*engine, sweeps, report);
  ColdLoader loader(*engine, "compact",
                    config.work_dir + "/update_inplace.index");

  const std::vector<csc::Vertex> reads =
      DegreeBiasedVertices(graph, 1 << 18, config.seed + 1);
  csc::DiGraph live = graph;
  csc::BfsCycleCounter bfs(live);
  Recorder query_ns, insert_ns, remove_ns;
  uint64_t request = 0;
  size_t next_read = 0;
  uint64_t index_bytes = 0;

  auto apply = [&](const csc::EdgeUpdate& op) {
    const bool insert = op.kind == csc::UpdateKind::kInsert;
    const uint64_t id = ++request;
    std::vector<csc::UpdateVerdict> verdicts;
    int64_t t0 = NowNs();
    (void)engine->ApplyUpdates({op}, &verdicts);
    int64_t t1 = NowNs();
    (insert ? insert_ns : remove_ns).Add(t1 - t0);
    report.Check(verdicts.size() == 1 &&
                     verdicts[0] == csc::UpdateVerdict::kApplied,
                 "update applied");
    if (tracer.enabled()) {
      uint32_t span = tracer.Add("serving.update", 0, id, t0, t1);
      mirror->Replay(op, span, id, tracer);
    }
    if (insert) {
      live.AddEdge(op.edge.from, op.edge.to);
    } else {
      live.RemoveEdge(op.edge.from, op.edge.to);
    }
    const uint64_t ops = insert_ns.count() + remove_ns.count();
    if (ops == kBytesAfterOps) index_bytes = engine->MemoryBytes();
    if (ops % kSweepEvery == 0) TimedSweep(*engine, sweeps, report);
    if (ops % kLoadEvery == 0) loader.Load(op.edge.from);
    for (int q = 0; q < kReadsPerUpdate; ++q, ++next_read) {
      TimedQuery(*engine, reads[next_read % reads.size()], ++request, query_ns,
                 next_read % kTraceEvery == 0 ? &tracer : nullptr);
    }
    report.Attempted(kReadsPerUpdate);
    // Output check, outside the timed calls: both endpoints against BFS.
    for (csc::Vertex v : {op.edge.from, op.edge.to}) {
      const csc::CycleCount got = engine->Query(v);
      const csc::CycleCount want = bfs.CountCycles(v);
      report.Check(got == want, "updated endpoint matches BFS");
      if (got != want) {
        std::fprintf(stderr,
                     "  after %s (%u,%u): vertex %u has length %u count %llu, "
                     "BFS length %u count %llu\n",
                     insert ? "insert" : "remove", op.edge.from, op.edge.to, v,
                     got.length, static_cast<unsigned long long>(got.count),
                     want.length, static_cast<unsigned long long>(want.count));
      }
    }
  };

  const int64_t start = NowNs();
  auto elapsed_s = [&] { return static_cast<double>(NowNs() - start) / 1e9; };
  for (uint64_t round = 0; round == 0 || elapsed_s() < config.seconds;
       ++round) {
    if (round > 0) {
      // Every round deletes from a fresh index, as in the paper's protocol:
      // RemoveEdge needs a minimal index, and the previous round's
      // redundancy-mode reinserts left this one non-minimal.
      report.Check(engine->Build(graph), "rebuild between rounds");
      if (mirror) mirror.emplace(graph, Mirror::Mode::kInPlace);
    }
    std::vector<csc::Edge> edges = csc::SampleExistingEdges(
        graph, kRoundEdges, config.seed * 1000003 + round);
    for (const csc::Edge& e : edges) {
      apply(csc::EdgeUpdate::Remove(e.from, e.to));
    }
    for (const csc::Edge& e : edges) {
      apply(csc::EdgeUpdate::Insert(e.from, e.to));
    }
  }
  const double measured_s = elapsed_s();

  CheckAgainstBfs(*engine, live,
                  DegreeBiasedVertices(live, kOracleSample, config.seed + 2),
                  report);
  loader.Tally(report);
  Recorder& loads = loader.times();
  const csc::BackendStats stats = engine->Stats();
  const double n = static_cast<double>(graph.num_vertices());

  report.Metric("setup_s", setup.Median() / 1e9, "s");
  report.Metric("query_p50_us", Us(query_ns.Quantile(0.5)), "us");
  report.Metric("query_p99_us", Us(query_ns.Quantile(0.99)), "us");
  report.Metric("sweep_qps", n / (sweeps.Median() / 1e9), "1/s");
  report.Metric("cold_load_ms", Ms(loads.Median()), "ms");
  report.Metric("insert_p50_ms", Ms(insert_ns.Quantile(0.5)), "ms");
  report.Metric("insert_p90_ms", Ms(insert_ns.Quantile(0.9)), "ms");
  report.Metric("remove_p50_ms", Ms(remove_ns.Quantile(0.5)), "ms");
  report.Metric("remove_p90_ms", Ms(remove_ns.Quantile(0.9)), "ms");
  report.Metric("index_bytes", static_cast<double>(index_bytes), "bytes");

  if (config.trace) {
    report.Metric("core.entries_per_query",
                  JoinProbe(mirror->probe(), reads, tracer), "count");
    ReportCommonLayers(tracer, tracer, report);
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
    report.Metric("serving.wal_bytes_per_op", 0.0, "bytes");
    report.Metric("serving.patch_ratio",
                  static_cast<double>(engine->repair_stats().patches) /
                      static_cast<double>(insert_ns.count() + remove_ns.count()),
                  "ratio");
    tracer.AppendTsv(config.work_dir + "/trace-update_inplace-" +
                         std::to_string(config.seed) + ".tsv",
                     "client");
  }

  report.Stamp("dataset", std::string(kDataset));
  report.Stamp("scale", kScale);
  report.Stamp("n", n);
  report.Stamp("m", static_cast<double>(graph.num_edges()));
  report.Stamp("inserts", static_cast<double>(insert_ns.count()));
  report.Stamp("removes", static_cast<double>(remove_ns.count()));
  report.Stamp("queries", static_cast<double>(query_ns.count()));
  report.Stamp("sweeps", static_cast<double>(sweeps.count()));
  report.Stamp("cold_loads", static_cast<double>(loads.count()));
  report.Stamp("setups", static_cast<double>(setup.count()));
  report.Stamp("measured_s", measured_s);
  report.Stamp("client_threads", 1.0);
  report.Stamp("engine_threads", static_cast<double>(kEngineThreads));
  report.Stamp("spans_dropped", static_cast<double>(tracer.dropped()));
  return 0;
}

}  // namespace perfbench
