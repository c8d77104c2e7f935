// Trace recorder: hierarchical spans on the simulated clock, exported in
// Chrome trace-event JSON (load the file at chrome://tracing or
// https://ui.perfetto.dev).
//
// A TraceRecorder owns a set of named *tracks* (one per actor: a client, a
// link, the frontend) and a flat event log. Layers record complete spans
// ("X" events: request, prefix-exec, transfer, batch, suffix-exec), instant
// markers ("i": retries, crashes, admission verdicts), counter series ("C":
// queue depth, arena bytes) and async begin/end pairs ("b"/"e": queue wait,
// which starts in submit() and ends in a different process). Nesting is by
// time containment on a track, exactly as chrome://tracing renders it.
//
// Timestamps are simulated nanoseconds (lp::TimeNs) — never wall-clock —
// and the exporter formats them as exact integer arithmetic, so two runs of
// the same seed serialize byte-identical files. Recording appends to a
// vector and does not read clocks or draw randomness, so enabling tracing
// cannot perturb a simulation.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/units.h"

namespace lp::obs {

/// Key/value annotations attached to a span or instant ("args" in the
/// Chrome trace format). Values are stored pre-encoded as JSON fragments.
class TraceArgs {
 public:
  TraceArgs& arg(const std::string& key, const std::string& value);
  TraceArgs& arg(const std::string& key, const char* value);
  TraceArgs& arg(const std::string& key, std::int64_t value);
  TraceArgs& arg(const std::string& key, int value) {
    return arg(key, static_cast<std::int64_t>(value));
  }
  TraceArgs& arg(const std::string& key, std::size_t value) {
    return arg(key, static_cast<std::int64_t>(value));
  }
  TraceArgs& arg(const std::string& key, double value);
  TraceArgs& arg(const std::string& key, bool value);

  bool empty() const { return kv_.empty(); }

 private:
  friend class TraceRecorder;
  std::vector<std::pair<std::string, std::string>> kv_;
};

/// Handle for one horizontal lane in the trace viewer.
using TrackId = std::uint32_t;

class TraceRecorder {
 public:
  TraceRecorder() = default;
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Create-or-get a track by display name.
  TrackId track(const std::string& name);

  /// Complete span [begin, end] on a track; end >= begin.
  void span(TrackId track, const std::string& name, TimeNs begin, TimeNs end,
            TraceArgs args = {});
  /// Instant marker at one timestamp.
  void instant(TrackId track, const std::string& name, TimeNs at,
               TraceArgs args = {});
  /// One sample of a counter series (rendered as a filled graph).
  void counter(TrackId track, const std::string& name, TimeNs at,
               double value);
  /// Async pair: an interval that starts and ends in different scopes
  /// (e.g. queue wait, keyed by the job's sequence number). Every begin
  /// must be matched by an end with the same (name, id).
  void async_begin(TrackId track, const std::string& name, std::uint64_t id,
                   TimeNs at, TraceArgs args = {});
  void async_end(TrackId track, const std::string& name, std::uint64_t id,
                 TimeNs at);

  std::size_t num_events() const { return events_.size(); }
  std::size_t num_tracks() const { return track_names_.size(); }

  /// Serializes the whole trace as Chrome trace-event JSON. Output is a
  /// pure function of the recorded events: byte-identical across runs
  /// that recorded the same events.
  std::string to_chrome_json() const;
  /// Writes to_chrome_json() to `path`; false when it cannot be written in
  /// full.
  bool write_chrome_json(const std::string& path) const;

 private:
  struct Event {
    char phase;  // 'X', 'i', 'C', 'b', 'e'
    TrackId track;
    std::string name;
    TimeNs ts;
    DurationNs dur;    // 'X' only
    std::uint64_t id;  // 'b'/'e' only
    std::string args_json;
  };

  std::vector<std::string> track_names_;
  std::vector<Event> events_;
};

}  // namespace lp::obs
