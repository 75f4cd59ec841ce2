#include "core/dispatch.h"

#include <limits>

namespace jsched::core {

void HeadOnlyDispatch::select(Time, int free_nodes,
                              const std::vector<JobId>& order,
                              const std::vector<RunningJob>&,
                              std::vector<JobId>& starts) {
  starts.clear();
  for (JobId id : order) {
    const int need = store_->get(id).nodes;
    if (need > free_nodes) break;  // head blocks the rest of the list
    free_nodes -= need;
    starts.push_back(id);
  }
}

void FirstFitDispatch::select(Time, int free_nodes,
                              const std::vector<JobId>& order,
                              const std::vector<RunningJob>&,
                              std::vector<JobId>& starts) {
  starts.clear();
  index_.begin_select(order.size(), "FirstFitDispatch");
  // Every job that fits may start: EASY's pass with no horizon to respect.
  index_.pick_fits(0, free_nodes, std::numeric_limits<Duration>::max(),
                   free_nodes, starts);
}

}  // namespace jsched::core
