#include "cluster/control_link.h"

namespace lp::cluster {

bool ControlLink::send(const serve::LoadSnapshot& snapshot,
                       const Deliver& deliver) {
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
  deliver(snapshot);
  return true;
}

}  // namespace lp::cluster
