// Streaming ingestion: WAL append / replay / end-to-end ingest throughput
// (DESIGN.md §8).
//
// The paper's platform ingests expose/metric/dimension events continuously;
// this bench measures the reproduction's write path at a pinned scale:
//
//   wal_append   append-only WalWriter throughput, fsync per record (the
//                product default -- the durability-honest number);
//   wal_replay   ReplayWal over the segments just written (CRC validation
//                + record decode, no BSI work);
//   wal_ingest   IngestStore::Ingest end to end: log first, then delta-BSI
//                build + MergeAppend into the live warehouse;
//   wal_recover  IngestStore::Open cold recovery: full replay + delta merge
//                (the crash-restart cost when no snapshot shortens the log).
//
// All four scale with the event volume, so ns_per_op is the whole pass with
// bytes_per_op the WAL byte size, plus an events/s line for intuition.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/file_io.h"
#include "common/timer.h"
#include "expdata/generator.h"
#include "wal/event_stream.h"
#include "wal/ingest_store.h"
#include "wal/wal.h"

using namespace expbsi;

namespace {

bool CleanDir(const std::string& dir) {
  if (!fileio::CreateDirIfMissing(dir).ok()) return false;
  const Result<std::vector<std::string>> entries = fileio::ListDir(dir);
  if (!entries.ok()) return false;
  for (const std::string& entry : entries.value()) {
    if (!fileio::RemoveFileIfExists(dir + "/" + entry).ok()) return false;
  }
  return true;
}

}  // namespace

int main() {
  const uint64_t users = bench_util::ScaledUsers(100000);
  const int kDays = 7;
  const size_t kBatchEvents = 512;
  const int kRounds = 3;  // best round is reported

  bench_util::PrintBanner(
      "WAL ingestion: append, replay and incremental-merge throughput",
      "the streaming write path: CRC-framed fsync'd appends, replay "
      "validates every record CRC, ingest adds the delta-BSI merge into "
      "the live warehouse");

  DatasetConfig config;
  config.num_users = users;
  config.num_segments = 4;
  config.num_days = kDays;
  config.start_date = 0;
  config.seed = 20240301;
  ExperimentConfig experiment;
  experiment.strategy_ids = {801, 802};
  experiment.arm_effects = {1.0, 1.05};
  experiment.traffic_fraction = 0.9;
  MetricConfig m1;
  m1.metric_id = 1001;
  m1.value_range = 200;
  MetricConfig m2;
  m2.metric_id = 1002;
  m2.value_range = 30;
  m2.daily_participation = 0.6;
  MetricConfig m3;
  m3.metric_id = 1003;
  m3.value_range = 1;
  m3.daily_participation = 0.8;
  DimensionConfig dim;
  dim.dimension_id = 11;
  dim.cardinality = 8;

  const Dataset dataset =
      GenerateDataset(config, {experiment}, {m1, m2, m3}, {dim});
  const std::vector<WalEvent> stream = MakeWalEventStream(dataset);
  const std::vector<std::vector<WalEvent>> batches =
      BatchWalEvents(stream, kBatchEvents);
  uint64_t wal_bytes = kWalSegmentHeaderBytes;
  for (const std::vector<WalEvent>& batch : batches) {
    wal_bytes += kWalRecordHeaderBytes + batch.size() * kWalEventBytes + 4;
  }
  std::printf("scale: %llu users, %d days, 4 segments -> %zu events in "
              "%zu records (%s framed)\n\n",
              static_cast<unsigned long long>(users), kDays, stream.size(),
              batches.size(),
              bench_util::HumanBytes(static_cast<double>(wal_bytes)).c_str());

  const bench_util::ScopedTempDir run_dir("expbsi_bench_wal_");
  if (run_dir.path().empty()) {
    std::fprintf(stderr, "error: cannot create a bench directory\n");
    return 1;
  }
  const std::string wal_dir = run_dir.path() + "/wal";
  const std::string snap_dir = run_dir.path() + "/snap";
  WalOptions wal_options;  // defaults: 4 MB segments, fsync per append
  IngestOptions ingest_options;
  ingest_options.wal = wal_options;
  ingest_options.num_segments = config.num_segments;
  ingest_options.bucket_equals_segment = true;

  double best_append_ns = 0, best_replay_ns = 0;
  double best_ingest_ns = 0, best_recover_ns = 0;
  for (int round = 0; round < kRounds; ++round) {
    // Append-only: the raw log throughput.
    if (!CleanDir(wal_dir)) {
      std::fprintf(stderr, "error: cannot prepare %s\n", wal_dir.c_str());
      return 1;
    }
    {
      Result<std::unique_ptr<WalWriter>> writer =
          WalWriter::Open(wal_dir, wal_options);
      if (!writer.ok()) {
        std::fprintf(stderr, "error: wal open failed: %s\n",
                     writer.status().ToString().c_str());
        return 1;
      }
      Stopwatch append_timer;
      for (const std::vector<WalEvent>& batch : batches) {
        const Result<uint64_t> seq = writer.value()->Append(batch);
        if (!seq.ok()) {
          std::fprintf(stderr, "error: append failed: %s\n",
                       seq.status().ToString().c_str());
          return 1;
        }
      }
      const double append_ns = append_timer.ElapsedSeconds() * 1e9;
      if (round == 0 || append_ns < best_append_ns) {
        best_append_ns = append_ns;
      }
    }

    // Replay: CRC validation + record decode over what was just written.
    {
      WalRecoveryReport report;
      Stopwatch replay_timer;
      const Result<std::vector<WalRecord>> replayed =
          ReplayWal(wal_dir, &report);
      const double replay_ns = replay_timer.ElapsedSeconds() * 1e9;
      if (!replayed.ok() || replayed.value().size() != batches.size() ||
          report.tail_torn) {
        std::fprintf(stderr, "error: replay diverged from what was written\n");
        return 1;
      }
      if (round == 0 || replay_ns < best_replay_ns) {
        best_replay_ns = replay_ns;
      }
    }

    // End-to-end ingest: log + delta build + MergeAppend into live BSIs.
    if (!CleanDir(wal_dir) || !CleanDir(snap_dir)) {
      std::fprintf(stderr, "error: cannot prepare ingest dirs\n");
      return 1;
    }
    {
      Result<std::unique_ptr<IngestStore>> store =
          IngestStore::Open(wal_dir, snap_dir, ingest_options);
      if (!store.ok()) {
        std::fprintf(stderr, "error: ingest open failed: %s\n",
                     store.status().ToString().c_str());
        return 1;
      }
      Stopwatch ingest_timer;
      for (const std::vector<WalEvent>& batch : batches) {
        const Result<uint64_t> seq = store.value()->Ingest(batch);
        if (!seq.ok()) {
          std::fprintf(stderr, "error: ingest failed: %s\n",
                       seq.status().ToString().c_str());
          return 1;
        }
      }
      const double ingest_ns = ingest_timer.ElapsedSeconds() * 1e9;
      if (round == 0 || ingest_ns < best_ingest_ns) {
        best_ingest_ns = ingest_ns;
      }
    }

    // Cold recovery: replay the full log and rebuild the live warehouse.
    {
      IngestRecoveryReport report;
      Stopwatch recover_timer;
      Result<std::unique_ptr<IngestStore>> store =
          IngestStore::Open(wal_dir, snap_dir, ingest_options, &report);
      const double recover_ns = recover_timer.ElapsedSeconds() * 1e9;
      if (!store.ok() ||
          store.value()->last_sequence() != batches.size() ||
          report.records_applied != batches.size()) {
        std::fprintf(stderr, "error: recovery diverged from the ingest\n");
        return 1;
      }
      if (round == 0 || recover_ns < best_recover_ns) {
        best_recover_ns = recover_ns;
      }
    }
    std::printf("  round %d: append %.1f ms, replay %.1f ms, ingest %.1f "
                "ms, recover %.1f ms\n",
                round + 1, best_append_ns / 1e6, best_replay_ns / 1e6,
                best_ingest_ns / 1e6, best_recover_ns / 1e6);
  }

  const double events = static_cast<double>(stream.size());
  std::printf("\nwal append:  %8.1f ms  (%7.0f MB/s, %9.0f events/s)\n",
              best_append_ns / 1e6,
              static_cast<double>(wal_bytes) / best_append_ns * 1e3,
              events / best_append_ns * 1e9);
  std::printf("wal replay:  %8.1f ms  (%7.0f MB/s, %9.0f events/s)\n",
              best_replay_ns / 1e6,
              static_cast<double>(wal_bytes) / best_replay_ns * 1e3,
              events / best_replay_ns * 1e9);
  std::printf("wal ingest:  %8.1f ms  (%9.0f events/s)\n",
              best_ingest_ns / 1e6, events / best_ingest_ns * 1e9);
  std::printf("wal recover: %8.1f ms  (%9.0f events/s)\n",
              best_recover_ns / 1e6, events / best_recover_ns * 1e9);

  std::printf("BENCHJSON {\"op\": \"wal_append\", \"ns_per_op\": %.0f, "
              "\"bytes_per_op\": %llu}\n",
              best_append_ns, static_cast<unsigned long long>(wal_bytes));
  std::printf("BENCHJSON {\"op\": \"wal_replay\", \"ns_per_op\": %.0f, "
              "\"bytes_per_op\": %llu}\n",
              best_replay_ns, static_cast<unsigned long long>(wal_bytes));
  std::printf("BENCHJSON {\"op\": \"wal_ingest\", \"ns_per_op\": %.0f, "
              "\"bytes_per_op\": %llu}\n",
              best_ingest_ns, static_cast<unsigned long long>(wal_bytes));
  std::printf("BENCHJSON {\"op\": \"wal_recover\", \"ns_per_op\": %.0f, "
              "\"bytes_per_op\": %llu}\n",
              best_recover_ns, static_cast<unsigned long long>(wal_bytes));
  bench_util::EmitRegistrySnapshot("wal_ingest");
  return 0;
}
