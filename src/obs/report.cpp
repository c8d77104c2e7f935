#include "obs/report.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/check.h"
#include "obs/text.h"

namespace lp::obs {

using detail::fmt_double;
using detail::json_escape;
using detail::write_file;

namespace {

std::string csv_escape(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

Value::Value(double v) {
  LP_CHECK_MSG(!std::isnan(v), "report value is NaN");
  json_ = csv_ = fmt_double(v);
}

Value::Value(std::int64_t v) { json_ = csv_ = std::to_string(v); }

Value::Value(bool v) { json_ = csv_ = v ? "true" : "false"; }

Value::Value(const char* v) : Value(std::string(v)) {}

Value::Value(const std::string& v) : csv_(csv_escape(v)) {
  json_ = '"';
  json_ += json_escape(v);
  json_ += '"';
}

void Report::set(const std::string& key, Value v) {
  for (auto& [k, existing] : scalars_) {
    if (k == key) {
      existing = std::move(v);
      return;
    }
  }
  scalars_.emplace_back(key, std::move(v));
}

void Report::Section::add_row(std::vector<Value> cells) {
  LP_CHECK_MSG(cells.size() == columns_.size(),
               "row width does not match columns in section " + name_);
  rows_.push_back(std::move(cells));
}

Report::Section& Report::section(const std::string& name,
                                 std::vector<std::string> columns) {
  for (Section& s : sections_)
    if (s.name_ == name) return s;
  sections_.push_back(Section(name, std::move(columns)));
  return sections_.back();
}

std::string Report::to_json() const {
  std::string out = "{\n  \"name\": \"" + json_escape(name_) + "\"";
  if (!scalars_.empty()) {
    out += ",\n  \"scalars\": {";
    bool first = true;
    for (const auto& [k, v] : scalars_) {
      out += first ? "\n" : ",\n";
      first = false;
      out += "    \"";
      out += json_escape(k);
      out += "\": ";
      out += v.json();
    }
    out += "\n  }";
  }
  if (!sections_.empty()) {
    out += ",\n  \"sections\": {";
    bool first_section = true;
    for (const Section& s : sections_) {
      out += first_section ? "\n" : ",\n";
      first_section = false;
      out += "    \"";
      out += json_escape(s.name_);
      out += "\": [";
      bool first_row = true;
      for (const auto& row : s.rows_) {
        out += first_row ? "\n" : ",\n";
        first_row = false;
        out += "      {";
        for (std::size_t i = 0; i < row.size(); ++i) {
          if (i > 0) out += ", ";
          out += '"';
          out += json_escape(s.columns_[i]);
          out += "\": ";
          out += row[i].json();
        }
        out += "}";
      }
      out += s.rows_.empty() ? "]" : "\n    ]";
    }
    out += "\n  }";
  }
  out += "\n}\n";
  return out;
}

bool Report::write_json(const std::string& path) const {
  return write_file(path, to_json());
}

std::vector<std::string> Report::write_csv_dir(const std::string& dir) const {
  std::vector<std::string> written;
  if (!scalars_.empty()) {
    std::string body = "key,value\n";
    for (const auto& [k, v] : scalars_)
      body += csv_escape(k) + "," + v.csv() + "\n";
    const std::string path = dir + "/" + name_ + "_scalars.csv";
    if (!write_file(path, body)) return {};
    written.push_back(path);
  }
  for (const Section& s : sections_) {
    std::string body;
    for (std::size_t i = 0; i < s.columns_.size(); ++i) {
      if (i > 0) body += ",";
      body += csv_escape(s.columns_[i]);
    }
    body += "\n";
    for (const auto& row : s.rows_) {
      for (std::size_t i = 0; i < row.size(); ++i) {
        if (i > 0) body += ",";
        body += row[i].csv();
      }
      body += "\n";
    }
    const std::string path = dir + "/" + name_ + "_" + s.name_ + ".csv";
    if (!write_file(path, body)) return {};
    written.push_back(path);
  }
  return written;
}

bool Report::maybe_write_csv_env() const {
  const char* dir = std::getenv("LP_CSV_DIR");
  if (dir == nullptr || dir[0] == '\0') return false;
  for (const std::string& path : write_csv_dir(dir))
    std::printf("[report written to %s]\n", path.c_str());
  return true;
}

}  // namespace lp::obs
