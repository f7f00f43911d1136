// The mapping database: who mapped which page to whom.
//
// L4's map/grant/unmap model is recursive: a pager maps pages to its
// clients, who may map them onward; Unmap revokes an entire derivation
// subtree. The database tracks one node per (task, virtual page) mapping,
// organised as forests rooted at the initial sigma0-style mappings. This is
// the "resource delegation ... between multiple (potentially distrusting)
// parties" role of IPC (paper §2.2, role 3).

#ifndef UKVM_SRC_UKERNEL_MAPDB_H_
#define UKVM_SRC_UKERNEL_MAPDB_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/core/ids.h"
#include "src/hw/memory.h"

namespace hwsim {
class Machine;
}

namespace ukern {

struct MapNode {
  ukvm::DomainId task;
  hwsim::Vaddr vpn = 0;  // virtual page number in `task`'s space
  hwsim::Frame frame = 0;
  MapNode* parent = nullptr;
  std::vector<std::unique_ptr<MapNode>> children;
};

class MapDb {
 public:
  // A mapping removal notification: (task, vpn) whose PTE must be cleared.
  using RemovalFn = std::function<void(ukvm::DomainId task, hwsim::Vaddr vpn)>;

  // A standalone database: nothing observes its mutations.
  MapDb() = default;
  // The kernel's database: every structural mutation (add, move, remove)
  // reports DelegationChanged to `machine`'s observer.
  explicit MapDb(hwsim::Machine& machine) : machine_(&machine) {}

  // Adds a root mapping (initial physical memory grant to the root task).
  MapNode* AddRoot(ukvm::DomainId task, hwsim::Vaddr vpn, hwsim::Frame frame);

  // Adds a mapping derived from `parent` (an IPC map item).
  MapNode* AddChild(MapNode* parent, ukvm::DomainId task, hwsim::Vaddr vpn, hwsim::Frame frame);

  // Re-keys a node to a new (task, vpn): the grant operation, which moves
  // the mapping instead of deriving a new one. Children stay attached.
  ukvm::Err MoveNode(MapNode* node, ukvm::DomainId new_task, hwsim::Vaddr new_vpn);

  MapNode* Find(ukvm::DomainId task, hwsim::Vaddr vpn);

  // Removes the derivation subtree under `node`; with `include_self` the
  // node's own mapping goes too. `on_remove` fires for every removed node.
  void RemoveSubtree(MapNode* node, bool include_self, const RemovalFn& on_remove);

  // Removes every mapping residing in `task` (and their derivation
  // subtrees, which may live in other tasks) — task destruction.
  void RemoveAllOf(ukvm::DomainId task, const RemovalFn& on_remove);

  // Visits every node in the database; for the invariant auditor.
  void ForEachNode(const std::function<void(const MapNode&)>& fn) const;

  size_t node_count() const { return index_.size(); }

 private:
  struct Key {
    uint32_t task;
    uint64_t vpn;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return std::hash<uint64_t>{}((uint64_t{k.task} << 52) ^ k.vpn);
    }
  };

  void IndexNode(MapNode* node);
  void UnindexNode(const MapNode* node);
  // Detaches `node` from its parent (or the root list) and destroys it and
  // its already-unindexed subtree.
  void DestroyNode(MapNode* node);
  void ReportChanged() const;

  std::vector<std::unique_ptr<MapNode>> roots_;
  std::unordered_map<Key, MapNode*, KeyHash> index_;
  hwsim::Machine* machine_ = nullptr;
};

}  // namespace ukern

#endif  // UKVM_SRC_UKERNEL_MAPDB_H_
