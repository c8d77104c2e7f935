#include "cluster/failure_detector.h"

#include "common/check.h"

namespace lp::cluster {

std::string detector_mode_name(DetectorParams::Mode mode) {
  switch (mode) {
    case DetectorParams::Mode::kOracle:
      return "oracle";
    case DetectorParams::Mode::kDeadline:
      return "deadline";
  }
  return "unknown";
}

FailureDetector::FailureDetector(std::size_t servers, DetectorParams params,
                                 DurationNs heartbeat_period)
    : params_(params), period_(heartbeat_period), views_(servers) {
  LP_CHECK(servers > 0);
  LP_CHECK(period_ > 0);
  LP_CHECK(params_.suspect_misses >= 1);
  LP_CHECK(params_.dead_misses >= params_.suspect_misses);
}

void FailureDetector::arm(TimeNs now) {
  for (ServerView& view : views_) view.last_seen = now;
}

void FailureDetector::heartbeat(std::size_t server, TimeNs now,
                                bool reported_alive) {
  LP_CHECK(server < views_.size());
  ServerView& view = views_[server];
  if (!reported_alive) {
    // The server itself says it is down: authoritative in every mode.
    view.reported_dead = true;
    view.last_seen = now;
    if (view.health != Health::kDead) transition(server, Health::kDead, now);
    return;
  }
  view.reported_dead = false;
  view.last_seen = now;
  if (view.health != Health::kAlive) transition(server, Health::kAlive, now);
}

void FailureDetector::tick(TimeNs now) {
  if (params_.mode == DetectorParams::Mode::kOracle) return;
  for (std::size_t i = 0; i < views_.size(); ++i) {
    ServerView& view = views_[i];
    if (view.reported_dead) continue;  // pinned dead until it reports back
    Health verdict = Health::kAlive;
    const std::int64_t misses = (now - view.last_seen) / period_;
    if (misses >= params_.dead_misses) {
      verdict = Health::kDead;
    } else if (misses >= params_.suspect_misses) {
      verdict = Health::kSuspect;
    }
    if (verdict != view.health) transition(i, verdict, now);
  }
}

Health FailureDetector::health(std::size_t server) const {
  LP_CHECK(server < views_.size());
  return views_[server].health;
}

void FailureDetector::transition(std::size_t server, Health to, TimeNs now) {
  views_[server].health = to;
  if (to == Health::kDead) death_events_.emplace_back(server, now);
}

}  // namespace lp::cluster
