#include "mcsort/workloads/workload.h"

#include "mcsort/common/logging.h"

namespace mcsort {

const WorkloadQuery& Workload::query(const std::string& id) const {
  for (const WorkloadQuery& q : queries) {
    if (q.id == id) return q;
  }
  MCSORT_CHECK(false && "unknown query id");
  __builtin_unreachable();
}

}  // namespace mcsort
