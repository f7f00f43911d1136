// Tasks: the microkernel's protection domains (address space + threads).

#ifndef UKVM_SRC_UKERNEL_TASK_H_
#define UKVM_SRC_UKERNEL_TASK_H_

#include <vector>

#include "src/core/ids.h"
#include "src/hw/paging.h"
#include "src/hw/segmentation.h"

namespace ukern {

struct Task {
  Task(ukvm::DomainId id_in, hwsim::Machine& machine, ukvm::ThreadId pager_in)
      : id(id_in), pager(pager_in), space(machine) {}

  ukvm::DomainId id;
  ukvm::ThreadId pager;  // user-level pager that resolves this task's faults
  hwsim::PageTable space;
  hwsim::SegmentState segments;
  bool alive = true;
  // Liedtke small space [Lie95]: reached by segment remap, not a page-table
  // base reload; IPC to/from it skips the TLB flush.
  bool small_space = false;
  std::vector<ukvm::ThreadId> threads;
};

}  // namespace ukern

#endif  // UKVM_SRC_UKERNEL_TASK_H_
