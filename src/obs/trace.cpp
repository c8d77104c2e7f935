#include "obs/trace.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "common/check.h"
#include "obs/text.h"

namespace lp::obs {

using detail::fmt_double;
using detail::json_escape;

namespace {

// Chrome traces use microsecond timestamps; we keep full nanosecond
// precision by formatting ns as a fixed-point µs decimal with integer
// arithmetic only — no floats, so serialization is trivially
// byte-deterministic.
std::string fmt_us(std::int64_t ns) {
  LP_CHECK_MSG(ns >= 0, "negative trace timestamp");
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%" PRId64 ".%03" PRId64, ns / kNsPerUs,
                ns % kNsPerUs);
  return buf;
}

}  // namespace

TraceArgs& TraceArgs::arg(const std::string& key, const std::string& value) {
  std::string quoted = "\"";
  quoted += json_escape(value);
  quoted += '"';
  kv_.emplace_back(key, std::move(quoted));
  return *this;
}

TraceArgs& TraceArgs::arg(const std::string& key, const char* value) {
  return arg(key, std::string(value));
}

TraceArgs& TraceArgs::arg(const std::string& key, std::int64_t value) {
  kv_.emplace_back(key, std::to_string(value));
  return *this;
}

TraceArgs& TraceArgs::arg(const std::string& key, double value) {
  LP_CHECK_MSG(!std::isnan(value), "trace arg is NaN: " + key);
  kv_.emplace_back(key, fmt_double(value));
  return *this;
}

TraceArgs& TraceArgs::arg(const std::string& key, bool value) {
  kv_.emplace_back(key, value ? "true" : "false");
  return *this;
}

TrackId TraceRecorder::track(const std::string& name) {
  for (std::size_t i = 0; i < track_names_.size(); ++i)
    if (track_names_[i] == name) return static_cast<TrackId>(i);
  track_names_.push_back(name);
  return static_cast<TrackId>(track_names_.size() - 1);
}

namespace {

std::string kv_to_json(
    const std::vector<std::pair<std::string, std::string>>& kv) {
  std::string json;
  for (const auto& [k, v] : kv) {
    if (!json.empty()) json += ", ";
    json += '"';
    json += json_escape(k);
    json += "\": ";
    json += v;
  }
  return json;
}

}  // namespace

void TraceRecorder::span(TrackId track, const std::string& name, TimeNs begin,
                         TimeNs end, TraceArgs args) {
  LP_CHECK(track < track_names_.size());
  LP_CHECK_MSG(end >= begin, "span ends before it begins: " + name);
  events_.push_back(
      Event{'X', track, name, begin, end - begin, 0, kv_to_json(args.kv_)});
}

void TraceRecorder::instant(TrackId track, const std::string& name, TimeNs at,
                            TraceArgs args) {
  LP_CHECK(track < track_names_.size());
  events_.push_back(Event{'i', track, name, at, 0, 0, kv_to_json(args.kv_)});
}

void TraceRecorder::counter(TrackId track, const std::string& name, TimeNs at,
                            double value) {
  LP_CHECK(track < track_names_.size());
  LP_CHECK_MSG(!std::isnan(value), "counter sample is NaN: " + name);
  Event e{'C', track, name, at, 0, 0, {}};
  e.args_json = '"';
  e.args_json += json_escape(name);
  e.args_json += "\": ";
  e.args_json += fmt_double(value);
  events_.push_back(std::move(e));
}

void TraceRecorder::async_begin(TrackId track, const std::string& name,
                                std::uint64_t id, TimeNs at, TraceArgs args) {
  LP_CHECK(track < track_names_.size());
  events_.push_back(Event{'b', track, name, at, 0, id, kv_to_json(args.kv_)});
}

void TraceRecorder::async_end(TrackId track, const std::string& name,
                              std::uint64_t id, TimeNs at) {
  LP_CHECK(track < track_names_.size());
  events_.push_back(Event{'e', track, name, at, 0, id, {}});
}

std::string TraceRecorder::to_chrome_json() const {
  // All events share pid 1; each track is a "thread" named via a metadata
  // event so chrome://tracing labels the lanes.
  std::string out = "{\"traceEvents\": [\n";
  bool first = true;
  auto emit = [&](const std::string& line) {
    if (!first) out += ",\n";
    first = false;
    out += line;
  };
  for (std::size_t i = 0; i < track_names_.size(); ++i) {
    emit("{\"ph\": \"M\", \"pid\": 1, \"tid\": " + std::to_string(i + 1) +
         ", \"name\": \"thread_name\", \"args\": {\"name\": \"" +
         json_escape(track_names_[i]) + "\"}}");
  }
  for (const Event& e : events_) {
    std::string line = "{\"ph\": \"";
    line += e.phase;
    line += "\", \"pid\": 1, \"tid\": " + std::to_string(e.track + 1) +
            ", \"ts\": " + fmt_us(e.ts) + ", \"name\": \"" +
            json_escape(e.name) + "\"";
    if (e.phase == 'X') line += ", \"dur\": " + fmt_us(e.dur);
    if (e.phase == 'i') line += ", \"s\": \"t\"";
    if (e.phase == 'b' || e.phase == 'e')
      line += ", \"cat\": \"async\", \"id\": " + std::to_string(e.id);
    if (!e.args_json.empty()) line += ", \"args\": {" + e.args_json + "}";
    line += "}";
    emit(line);
  }
  out += "\n], \"displayTimeUnit\": \"ms\"}\n";
  return out;
}

bool TraceRecorder::write_chrome_json(const std::string& path) const {
  return detail::write_file(path, to_chrome_json());
}

}  // namespace lp::obs
