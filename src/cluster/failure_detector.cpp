#include "cluster/failure_detector.h"

#include "common/check.h"

namespace lp::cluster {

std::string detector_mode_name(DetectorParams::Mode mode) {
  switch (mode) {
    case DetectorParams::Mode::kOracle:
      return "oracle";
    case DetectorParams::Mode::kDeadline:
      return "deadline";
    case DetectorParams::Mode::kPhi:
      return "phi";
  }
  return "unknown";
}

namespace {
/// kPhi: sliding window of observed heartbeat inter-arrivals.
constexpr std::size_t kInterarrivalWindow = 8;
}  // namespace

FailureDetector::FailureDetector(std::size_t servers, DetectorParams params,
                                 DurationNs heartbeat_period)
    : params_(params), period_(heartbeat_period), views_(servers) {
  LP_CHECK(servers > 0);
  LP_CHECK(period_ > 0);
  LP_CHECK(params_.suspect_misses >= 1);
  LP_CHECK(params_.dead_misses >= params_.suspect_misses);
  LP_CHECK(params_.suspect_phi > 0.0);
  LP_CHECK(params_.dead_phi >= params_.suspect_phi);
  for (ServerView& view : views_) {
    // Seed the phi window with the nominal period so the very first gap is
    // judged against a sane baseline rather than dividing by zero.
    view.intervals_sec.assign(1, to_seconds(period_));
  }
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
  if (params_.mode == DetectorParams::Mode::kPhi && now > view.last_seen) {
    const double interval = to_seconds(now - view.last_seen);
    if (view.intervals_sec.size() < kInterarrivalWindow) {
      view.intervals_sec.push_back(interval);
    } else {
      view.intervals_sec[view.next_interval] = interval;
      view.next_interval = (view.next_interval + 1) % kInterarrivalWindow;
    }
  }
  view.last_seen = now;
  if (view.health != Health::kAlive) transition(server, Health::kAlive, now);
}

void FailureDetector::tick(TimeNs now) {
  if (params_.mode == DetectorParams::Mode::kOracle) return;
  for (std::size_t i = 0; i < views_.size(); ++i) {
    ServerView& view = views_[i];
    if (view.reported_dead) continue;  // pinned dead until it reports back
    Health verdict = Health::kAlive;
    if (params_.mode == DetectorParams::Mode::kDeadline) {
      const std::int64_t misses = (now - view.last_seen) / period_;
      if (misses >= params_.dead_misses) {
        verdict = Health::kDead;
      } else if (misses >= params_.suspect_misses) {
        verdict = Health::kSuspect;
      }
    } else {
      const double level = phi(i, now);
      if (level >= params_.dead_phi) {
        verdict = Health::kDead;
      } else if (level >= params_.suspect_phi) {
        verdict = Health::kSuspect;
      }
    }
    if (verdict != view.health) transition(i, verdict, now);
  }
}

Health FailureDetector::health(std::size_t server) const {
  LP_CHECK(server < views_.size());
  return views_[server].health;
}

double FailureDetector::phi(std::size_t server, TimeNs now) const {
  LP_CHECK(server < views_.size());
  const ServerView& view = views_[server];
  if (now <= view.last_seen) return 0.0;
  const double gap = to_seconds(now - view.last_seen);
  const double mean = mean_interval_sec(view);
  // phi-accrual under an exponential arrival model: phi(t) =
  // -log10(P(gap > t)) = t / (mean * ln 10).
  return 0.4342944819032518 * gap / mean;
}

void FailureDetector::transition(std::size_t server, Health to, TimeNs now) {
  views_[server].health = to;
  if (to == Health::kDead) death_events_.emplace_back(server, now);
}

double FailureDetector::mean_interval_sec(const ServerView& view) const {
  double sum = 0.0;
  for (double interval : view.intervals_sec) sum += interval;
  return sum / static_cast<double>(view.intervals_sec.size());
}

}  // namespace lp::cluster
