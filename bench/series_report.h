// Shared helper: publish an experiment's per-inference series through
// obs::Report (replaces the bespoke csv_dump.h plumbing). The CSV form is
// still gated on LP_CSV_DIR — set it to get one <name>_series.csv per
// experiment for external plotting of the time-series figures.
#pragma once

#include <string>

#include "obs/report.h"
#include "serve/experiment.h"

namespace lp::benchutil {

/// Fills `report`'s "series" section with one row per inference record.
inline void fill_series(obs::Report& report,
                        const serve::ExperimentResult& result) {
  auto& section = report.section(
      "series", {"t_s", "p", "total_ms", "device_ms", "upload_ms",
                 "server_ms", "download_ms", "k", "bandwidth_mbps"});
  for (const auto& rec : result.records)
    section.add_row({to_seconds(rec.start), rec.p, rec.total_sec * 1e3,
                     rec.device_sec * 1e3, rec.upload_sec * 1e3,
                     rec.server_sec * 1e3, rec.download_sec * 1e3, rec.k_used,
                     rec.bandwidth_est_bps / 1e6});
}

/// Drop-in for the old maybe_dump_series(): writes <name>_series.csv under
/// LP_CSV_DIR when that env var is set, otherwise does nothing.
inline void maybe_dump_series(const std::string& name,
                              const serve::ExperimentResult& result) {
  obs::Report report(name);
  fill_series(report, result);
  report.maybe_write_csv_env();
}

}  // namespace lp::benchutil
