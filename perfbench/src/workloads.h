#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench.h"

namespace perfbench {

// What one timed run of a workload observed. Every operation attempted is
// counted; `failed` covers errors, rejections and wrong answers alike.
struct Outcome {
  std::vector<double> latencies_ms;  // one per completed operation
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double busy_seconds = 0.0;  // wall time the operations were running
  double work_items = 0.0;    // queries, events or pairs completed
  double cpu_seconds = 0.0;   // process CPU over the timed interval
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Builds everything the operations need from the seed, replacing any
  // earlier set-up, and warms it. Timed as set-up.
  virtual void Setup(uint64_t seed) = 0;
  // Checks the program's answers against the engines and the scalar
  // oracle before anything is timed; returns the number of mismatches.
  virtual int Verify() = 0;
  // The timed run, tracing off.
  virtual Outcome Run(double seconds) = 0;
  // The traced run: per-layer metrics into `out`; returns the operations
  // it made (failures included).
  virtual Outcome RunTraced(double seconds, MetricSink* out) = 0;
  // Stored bytes of the workload's durable or served state per byte of
  // raw generated input.
  virtual double StoredBytesPerInputByte() const = 0;
};

// Names: scorecard_wide, ingest_checkpoint, recover, precompute_daily. `work_dir` is where run-private directories go.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const std::string& work_dir);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
