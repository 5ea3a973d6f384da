#ifndef CSC_PERFBENCH_HARNESS_H_
#define CSC_PERFBENCH_HARNESS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "csc/frozen_index.h"
#include "graph/digraph.h"
#include "recorder.h"
#include "serving/engine.h"
#include "trace.h"

namespace perfbench {

/// Command-line settings of one benchmark run.
struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  /// Scratch directory for the WAL, saved indexes and the span log.
  std::string work_dir;
};

/// Everything a run reports: the output check's tally, the metrics and the
/// stamp that makes the numbers attributable. Rendered as one JSON object.
class Report {
 public:
  /// Counts `n` attempted operations or oracle comparisons, all failed when
  /// `ok` is false; a failure is logged to stderr under `what`.
  void Check(bool ok, const char* what, uint64_t n = 1);
  /// Counts `n` operations whose answers are checked elsewhere or not at
  /// all (timed reads beside concurrent writes).
  void Attempted(uint64_t n) { attempted_ += n; }

  void Metric(const std::string& name, double value, const std::string& unit);
  void Stamp(const std::string& key, const std::string& value);
  void Stamp(const std::string& key, double value);

  std::string ToJson() const;

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  // Pre-rendered JSON fragments.
  std::vector<std::pair<std::string, std::string>> metrics_;
  std::vector<std::pair<std::string, std::string>> stamp_;
};

/// Degree-biased query vertices: endpoints of uniformly sampled edges, the
/// way a transaction-triggered check picks the accounts it touches.
std::vector<csc::Vertex> DegreeBiasedVertices(const csc::DiGraph& graph,
                                              size_t count, uint64_t seed);

/// One timed Engine::Query. With a `tracer`, the call is a `serving.query`
/// span and the benchmark replays it right after, caches now warm: the
/// whole Engine::Query again (`serving.engine`, its child) and the backend
/// lookup on the held snapshot (`csc.query`, the child of that), plus the
/// snapshot acquire alone (`serving.snapshot`). The self time of
/// `serving.engine` is then the serving tier's own cost per query, and that
/// of `serving.query` the cost of the cold label fetch.
void TimedQuery(csc::Engine& engine, csc::Vertex v, uint64_t request,
                Recorder& latency, Tracer* tracer);

/// One timed Engine::QueryAll sweep, checked against point queries on
/// every vertex. Workloads spread their sweeps over the whole run, so the
/// median is not hostage to one burst of machine noise.
void TimedSweep(csc::Engine& engine, Recorder& times, Report& report);

/// Sequential single-thread sweep over the held snapshot (`csc.sweep_seq`).
Recorder SequentialSweeps(csc::Engine& engine, int reps);

/// The cold-start path of a replica. The index `source` serves is saved to
/// `path` once, with its answer on every vertex as the oracle; each Load
/// then starts a fresh engine serving `backend` from the file and answers
/// one query. Workloads spread their loads over the run. One thread at a
/// time may call Load.
class ColdLoader {
 public:
  ColdLoader(csc::Engine& source, std::string backend, std::string path);
  ~ColdLoader();
  ColdLoader(const ColdLoader&) = delete;
  ColdLoader& operator=(const ColdLoader&) = delete;

  /// One timed LoadFromFile plus a query of `v`, checked against the saved
  /// answers; the first load is checked on every vertex.
  void Load(csc::Vertex v);
  Recorder& times() { return times_; }
  /// Adds the save, the loads and their checks to `report`.
  void Tally(Report& report) const;

 private:
  std::string backend_;
  std::string path_;
  std::vector<csc::CycleCount> answers_;
  bool saved_ = false;
  Recorder times_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Compares engine answers on `vertices` against the BFS baseline
/// (Algorithm 1) on `graph`.
void CheckAgainstBfs(csc::Engine& engine, const csc::DiGraph& graph,
                     const std::vector<csc::Vertex>& vertices, Report& report);

/// Times LabelArena::Join on `probe`'s runs for the first 2^15 of
/// `vertices` (`core.join`) and returns the mean number of label entries
/// each join reads.
double JoinProbe(const csc::FrozenIndex& probe,
                 const std::vector<csc::Vertex>& vertices, Tracer& tracer);

/// Spin-loop throughput on every hardware thread divided by one thread's:
/// the parallelism the machine actually delivered during this run.
double SpinSpeedup();

/// Per-layer metrics every workload derives the same way from its spans:
/// the read path from `reads`, the write path and the join probe from
/// `writes` (one tracer when a single client does both).
void ReportCommonLayers(const Tracer& reads, const Tracer& writes,
                        Report& report);

/// Milliseconds, microseconds from nanoseconds.
inline double Ms(double ns) { return ns / 1e6; }
inline double Us(double ns) { return ns / 1e3; }

int RunUpdateInplace(const Config& config, Report& report);
int RunServeMixed(const Config& config, Report& report);

}  // namespace perfbench

#endif  // CSC_PERFBENCH_HARNESS_H_
