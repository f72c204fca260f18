// Snapshot persistence: write + recover latency for a Table-4-sized BSI
// warehouse (the 105 core metrics over a 29-day month, one dense segment).
//
// The paper's daily build hands the warehouse to serving clusters through
// the storage system; this bench measures the crash-safe variant of that
// handoff: SnapshotWriter::Write (checksummed segment files + atomically
// renamed manifest, fsync'd) and BsiStore::Recover (manifest selection +
// CRC verification + fingerprint-preserving reload). Both scale with the
// warehouse byte size, so ns_per_op is reported per written/recovered byte
// batch alongside bytes_per_op for throughput math.

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "expdata/bsi_builder.h"
#include "expdata/generator.h"
#include "expdata/position_encoder.h"
#include "storage/bsi_store.h"
#include "storage/snapshot.h"

using namespace expbsi;

int main() {
  const uint64_t users = bench_util::ScaledUsers(100000);
  const int kDays = 29;
  const int kMetrics = 105;
  const int kBatch = 15;  // metrics generated per pass (bounds memory)
  const int kRounds = 3;  // write/recover cycles; best round is reported

  bench_util::PrintBanner(
      "Snapshot persistence: write + recover of a Table-4-sized warehouse",
      "durability adds one sequential checksummed pass over the BSI bytes "
      "in each direction; recover verifies every block CRC and blob "
      "fingerprint it loads");
  std::printf("scale: %llu users, %d days, %d metrics, one segment\n\n",
              static_cast<unsigned long long>(users), kDays, kMetrics);

  DatasetConfig config;
  config.num_users = users;
  config.num_segments = 1;
  config.num_days = kDays;
  config.start_date = 0;
  config.seed = 20231121;

  const std::vector<MetricConfig> all_metrics =
      MakeCoreMetricPopulation(kMetrics, 1001, 9);

  // Same generation loop as table4_storage, keeping only the serialized
  // BSI blobs -- the warehouse content a daily build would publish.
  BsiStore store;
  Stopwatch build_wall;
  for (int batch_start = 0; batch_start < kMetrics; batch_start += kBatch) {
    std::vector<MetricConfig> batch(
        all_metrics.begin() + batch_start,
        all_metrics.begin() +
            std::min<size_t>(kMetrics, batch_start + kBatch));
    Dataset ds = GenerateDataset(config, {}, batch, {});
    const SegmentData& seg = ds.segments[0];
    PositionEncoder encoder;
    encoder.PreassignRanked(ds.users_by_engagement[0]);
    std::map<std::pair<uint64_t, Date>, std::vector<MetricRow>> groups;
    for (const MetricRow& row : seg.metrics) {
      groups[{row.metric_id, row.date}].push_back(row);
    }
    for (auto& [key, rows] : groups) {
      MetricBsi bsi = BuildMetricBsi(rows, encoder);
      bsi.value.RunOptimize();
      std::string bytes;
      bsi.Serialize(&bytes);
      BsiStoreKey store_key;
      store_key.segment = 0;
      store_key.kind = BsiKind::kMetric;
      store_key.id = key.first;
      store_key.date = key.second;
      store.Put(store_key, std::move(bytes));
    }
  }
  std::printf("warehouse built: %zu blobs, %s (%.1fs)\n\n", store.NumBlobs(),
              bench_util::HumanBytes(
                  static_cast<double>(store.TotalBytes())).c_str(),
              build_wall.ElapsedSeconds());

  const bench_util::ScopedTempDir run_dir("expbsi_bench_snapshot_");
  if (run_dir.path().empty()) {
    std::fprintf(stderr, "error: cannot create a bench directory\n");
    return 1;
  }
  const std::string& dir = run_dir.path();

  double best_write_ns = 0, best_recover_ns = 0;
  uint64_t bytes_written = 0, bytes_recovered = 0;
  for (int round = 0; round < kRounds; ++round) {
    Stopwatch write_timer;
    const Result<SnapshotWriteStats> written =
        SnapshotWriter::Write(store, dir);
    const double write_ns = write_timer.ElapsedSeconds() * 1e9;
    if (!written.ok()) {
      std::fprintf(stderr, "error: snapshot write failed: %s\n",
                   written.status().ToString().c_str());
      return 1;
    }
    bytes_written = written.value().bytes_written;

    RecoveryReport report;
    Stopwatch recover_timer;
    const Result<BsiStore> recovered = BsiStore::Recover(dir, &report);
    const double recover_ns = recover_timer.ElapsedSeconds() * 1e9;
    if (!recovered.ok() || !report.fully_recovered() ||
        recovered.value().NumBlobs() != store.NumBlobs()) {
      std::fprintf(stderr, "error: recovery diverged from written store\n");
      return 1;
    }
    bytes_recovered = report.bytes_recovered;

    if (round == 0 || write_ns < best_write_ns) best_write_ns = write_ns;
    if (round == 0 || recover_ns < best_recover_ns) {
      best_recover_ns = recover_ns;
    }
    std::printf("  round %d: write v%llu %.1f ms (%s), recover %.1f ms\n",
                round + 1,
                static_cast<unsigned long long>(written.value().version),
                write_ns / 1e6,
                bench_util::HumanBytes(
                    static_cast<double>(bytes_written)).c_str(),
                recover_ns / 1e6);
  }

  std::printf("\nsnapshot write:   %8.1f ms  (%6.0f MB/s)\n",
              best_write_ns / 1e6,
              static_cast<double>(bytes_written) / best_write_ns * 1e3);
  std::printf("snapshot recover: %8.1f ms  (%6.0f MB/s)\n",
              best_recover_ns / 1e6,
              static_cast<double>(bytes_recovered) / best_recover_ns * 1e3);

  std::printf("BENCHJSON {\"op\": \"snapshot_write\", \"ns_per_op\": %.0f, "
              "\"bytes_per_op\": %llu}\n",
              best_write_ns,
              static_cast<unsigned long long>(bytes_written));
  std::printf("BENCHJSON {\"op\": \"snapshot_recover\", \"ns_per_op\": %.0f, "
              "\"bytes_per_op\": %llu}\n",
              best_recover_ns,
              static_cast<unsigned long long>(bytes_recovered));
  bench_util::EmitRegistrySnapshot("snapshot_persistence");
  return 0;
}
