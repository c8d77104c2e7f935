// Report: one writer for everything a bench or example publishes.
//
// Each bench used to carry its own CSV dumper and hand-rolled fprintf JSON;
// Report replaces both. A report has a name, a flat set of named scalars
// (headline numbers, config echoes, pass/fail claims) and any number of
// tabular sections (fixed columns, typed rows — a latency series, a
// per-mode comparison). One object serializes to:
//   * JSON  — write_json(path): scalars plus sections as arrays of
//     row-objects, for machine consumption (CI checks, notebooks);
//   * CSV   — write_csv_dir(dir): one <report>_<section>.csv per section
//     (plus <report>_scalars.csv), for gnuplot-style plotting;
//   * maybe_write_csv_env(): the CSV form, gated on LP_CSV_DIR like the
//     old bench/csv_dump.h plumbing it replaces.
//
// All formatting happens at insertion time with fixed printf formats, so
// output is byte-deterministic for identical inputs.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

namespace lp::obs {

/// One typed cell. Converts implicitly from the numeric/string types the
/// benches use; renders itself as a JSON fragment and a CSV field.
class Value {
 public:
  Value(double v);                 // NOLINT(google-explicit-constructor)
  Value(std::int64_t v);           // NOLINT(google-explicit-constructor)
  Value(int v) : Value(static_cast<std::int64_t>(v)) {}  // NOLINT
  Value(std::size_t v) : Value(static_cast<std::int64_t>(v)) {}  // NOLINT
  Value(bool v);                   // NOLINT(google-explicit-constructor)
  Value(const char* v);            // NOLINT(google-explicit-constructor)
  Value(const std::string& v);     // NOLINT(google-explicit-constructor)

  const std::string& json() const { return json_; }
  const std::string& csv() const { return csv_; }

 private:
  std::string json_;
  std::string csv_;
};

class Report {
 public:
  explicit Report(std::string name) : name_(std::move(name)) {}
  Report(const Report&) = delete;
  Report& operator=(const Report&) = delete;

  const std::string& name() const { return name_; }

  /// Sets a top-level scalar (last write wins; first-set order is kept).
  void set(const std::string& key, Value v);

  /// A named table with a fixed column set.
  class Section {
   public:
    /// Appends a row; width must match the column count.
    void add_row(std::vector<Value> cells);

    const std::string& name() const { return name_; }
    std::size_t num_rows() const { return rows_.size(); }

   private:
    friend class Report;
    Section(std::string name, std::vector<std::string> columns)
        : name_(std::move(name)), columns_(std::move(columns)) {}
    std::string name_;
    std::vector<std::string> columns_;
    std::vector<std::vector<Value>> rows_;
  };

  /// Create-or-get a section. Re-requesting an existing name returns the
  /// existing section (the column list is ignored then).
  Section& section(const std::string& name, std::vector<std::string> columns);

  std::string to_json() const;
  /// Writes to_json() to `path`; false when it cannot be written in full.
  bool write_json(const std::string& path) const;

  /// Writes <dir>/<name>_scalars.csv (when scalars exist) and one
  /// <dir>/<name>_<section>.csv per section. Returns the paths written,
  /// empty on any I/O failure.
  std::vector<std::string> write_csv_dir(const std::string& dir) const;

  /// write_csv_dir(LP_CSV_DIR) when that env var is set; prints each path
  /// written. Returns false when the env var is unset.
  bool maybe_write_csv_env() const;

 private:
  std::string name_;
  std::vector<std::pair<std::string, Value>> scalars_;
  // deque: section() hands out references that must survive later growth.
  std::deque<Section> sections_;
};

}  // namespace lp::obs
