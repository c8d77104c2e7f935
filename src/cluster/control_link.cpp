#include "cluster/control_link.h"

#include <utility>

namespace lp::cluster {

bool ControlLink::send(const serve::LoadSnapshot& snapshot, Deliver deliver) {
  if (faults_ != nullptr) {
    const TimeNs now = sim_->now();
    if (faults_->link_down(now)) {
      ++dropped_;
      return false;
    }
    const double loss = faults_->loss_prob(now);
    if (loss > 0.0 && rng_.uniform() < loss) {
      ++dropped_;
      return false;
    }
  }
  ++delivered_;
  if (delay_ == 0) {
    deliver(snapshot);
    return true;
  }
  sim_->call_after(delay_, [deliver = std::move(deliver), snapshot] {
    deliver(snapshot);
  });
  return true;
}

}  // namespace lp::cluster
