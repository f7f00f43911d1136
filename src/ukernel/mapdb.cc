#include "src/ukernel/mapdb.h"

#include <algorithm>
#include <cassert>

#include "src/hw/machine.h"

namespace ukern {
namespace {

// Applies `fn` to every node in the subtree rooted at `node` (post-order).
void VisitSubtree(MapNode* node, const std::function<void(MapNode*)>& fn) {
  for (auto& child : node->children) {
    VisitSubtree(child.get(), fn);
  }
  fn(node);
}

}  // namespace

void MapDb::IndexNode(MapNode* node) {
  index_[Key{node->task.value(), node->vpn}] = node;
}

void MapDb::ReportChanged() const {
  if (machine_ == nullptr) {
    return;
  }
  if (hwsim::Observer* observer = machine_->observer()) {
    observer->DelegationChanged();
  }
}

void MapDb::UnindexNode(const MapNode* node) {
  index_.erase(Key{node->task.value(), node->vpn});
}

MapNode* MapDb::AddRoot(ukvm::DomainId task, hwsim::Vaddr vpn, hwsim::Frame frame) {
  auto node = std::make_unique<MapNode>();
  node->task = task;
  node->vpn = vpn;
  node->frame = frame;
  MapNode* raw = node.get();
  roots_.push_back(std::move(node));
  IndexNode(raw);
  ReportChanged();
  return raw;
}

MapNode* MapDb::AddChild(MapNode* parent, ukvm::DomainId task, hwsim::Vaddr vpn,
                         hwsim::Frame frame) {
  assert(parent != nullptr);
  auto node = std::make_unique<MapNode>();
  node->task = task;
  node->vpn = vpn;
  node->frame = frame;
  node->parent = parent;
  MapNode* raw = node.get();
  parent->children.push_back(std::move(node));
  IndexNode(raw);
  ReportChanged();
  return raw;
}

ukvm::Err MapDb::MoveNode(MapNode* node, ukvm::DomainId new_task, hwsim::Vaddr new_vpn) {
  if (node == nullptr) {
    return ukvm::Err::kInvalidArgument;
  }
  if (index_.contains(Key{new_task.value(), new_vpn})) {
    return ukvm::Err::kAlreadyExists;
  }
  UnindexNode(node);
  node->task = new_task;
  node->vpn = new_vpn;
  IndexNode(node);
  ReportChanged();
  return ukvm::Err::kNone;
}

MapNode* MapDb::Find(ukvm::DomainId task, hwsim::Vaddr vpn) {
  auto it = index_.find(Key{task.value(), vpn});
  return it == index_.end() ? nullptr : it->second;
}

void MapDb::DestroyNode(MapNode* node) {
  auto erase_from = [node](std::vector<std::unique_ptr<MapNode>>& vec) {
    auto it = std::find_if(vec.begin(), vec.end(),
                           [node](const std::unique_ptr<MapNode>& p) { return p.get() == node; });
    assert(it != vec.end());
    vec.erase(it);
  };
  if (node->parent != nullptr) {
    erase_from(node->parent->children);
  } else {
    erase_from(roots_);
  }
}

void MapDb::RemoveSubtree(MapNode* node, bool include_self, const RemovalFn& on_remove) {
  assert(node != nullptr);
  for (auto& child : node->children) {
    VisitSubtree(child.get(), [&](MapNode* n) {
      UnindexNode(n);
      on_remove(n->task, n->vpn);
    });
  }
  node->children.clear();
  if (include_self) {
    UnindexNode(node);
    on_remove(node->task, node->vpn);
    DestroyNode(node);
  }
  ReportChanged();
}

void MapDb::RemoveAllOf(ukvm::DomainId task, const RemovalFn& on_remove) {
  // Collect first: removals mutate the index. A node of `task` may be inside
  // the subtree of another node of `task`, so re-check liveness via Find.
  std::vector<Key> keys;
  keys.reserve(index_.size());
  for (const auto& [key, node] : index_) {
    if (node->task == task) {
      keys.push_back(key);
    }
  }
  for (const Key& key : keys) {
    MapNode* node = Find(task, key.vpn);
    if (node != nullptr) {
      RemoveSubtree(node, /*include_self=*/true, on_remove);
    }
  }
}

void MapDb::ForEachNode(const std::function<void(const MapNode&)>& fn) const {
  for (const auto& [key, node] : index_) {
    fn(*node);
  }
}

}  // namespace ukern
