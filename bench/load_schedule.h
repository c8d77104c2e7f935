// The Figure 9 server-load schedule (Section V): computation load ramping
// 0% -> 30 -> 50 -> 70 -> 90 -> 100%(l) -> 100%(h) and back to idle over
// 280 s. Shared by fig9_load_timeseries and predictor_ablation so the
// paper figure and the forecasting ablation stress the identical trace.
#pragma once

#include <vector>

#include "serve/experiment.h"

namespace lp::benchutil {

/// A labelled [begin, end) slice of the schedule for per-phase statistics.
struct LoadPhaseSpan {
  const char* label;
  TimeNs begin;
  TimeNs end;
};

inline const std::vector<serve::LoadPhase>& fig9_schedule() {
  static const std::vector<serve::LoadPhase> s = {
      {0, hw::LoadLevel::k0},
      {seconds(30), hw::LoadLevel::k30},
      {seconds(60), hw::LoadLevel::k50},
      {seconds(90), hw::LoadLevel::k70},
      {seconds(120), hw::LoadLevel::k90},
      {seconds(150), hw::LoadLevel::k100l},
      {seconds(190), hw::LoadLevel::k100h},
      {seconds(220), hw::LoadLevel::k0},  // recovery
  };
  return s;
}

inline const std::vector<LoadPhaseSpan>& fig9_phases() {
  static const std::vector<LoadPhaseSpan> p = {
      {"0%", 0, seconds(30)},
      {"30%", seconds(30), seconds(60)},
      {"50%", seconds(60), seconds(90)},
      {"70%", seconds(90), seconds(120)},
      {"90%", seconds(120), seconds(150)},
      {"100%(l)", seconds(150), seconds(190)},
      {"100%(h)", seconds(190), seconds(220)},
      {"recovery", seconds(220), seconds(280)},
  };
  return p;
}

inline constexpr DurationNs kFig9Duration = seconds(280);

}  // namespace lp::benchutil
