#ifndef MLQ_QUADTREE_NODE_POOL_H_
#define MLQ_QUADTREE_NODE_POOL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.h"
#include "quadtree/shared_node_arena.h"

namespace mlq {

// One tree's view onto a node arena, allocated in child blocks.
//
// The pool is constructed for a fixed fanout (2^d). By default it owns a
// PRIVATE SharedNodeArena; a catalog serving hundreds of per-UDF models
// instead passes one arena to many pools so physical slabs (and the block
// free-list) are shared while each tree keeps its own logical budget.
// Slots come in fanout-sized, fanout-aligned blocks; within an allocated
// block a slot is either a live node or vacant (quadrant not materialized —
// the common case in sparse data). Fully vacated blocks go onto a LIFO
// free-list and are recycled by the next allocation, so compression
// (Fig. 6) recycles arena slots instead of freeing heap memory, and a tree
// oscillating around its budget churns the same cache-resident slots.
//
// Trade-off: the arena holds fanout slots per partitioned node even when
// few quadrants are materialized, buying O(1) child lookup with physical
// (not logical/budgeted) bytes. At the paper's d <= 4 this is at most
// 768 B per internal node; PhysicalCapacityBytes() reports the honest
// total — arena-wide when the arena is shared.
//
// Node addresses are slab-stable: indices AND references stay valid across
// arena growth (only SharedNodeArena::CompactStep() moves nodes).
class NodePool {
 public:
  // `fanout` is 2^d: the number of slots per child block. When `arena` is
  // null the pool creates a private arena; otherwise it allocates from the
  // shared one (whose fanout must match).
  explicit NodePool(int fanout,
                    std::shared_ptr<SharedNodeArena> arena = nullptr);

  // Pre-sizes the arena to `slots` total slots (callers typically pass a
  // multiple of the fanout).
  void Reserve(size_t slots) { arena_->Reserve(slots); }

  int fanout() const { return fanout_; }

  // True when this pool draws from an arena owned by someone else.
  bool shares_arena() const { return shared_; }
  SharedNodeArena& arena() { return *arena_; }
  const SharedNodeArena& arena() const { return *arena_; }
  const std::shared_ptr<SharedNodeArena>& arena_handle() const {
    return arena_;
  }

  // Allocates a block and makes its slot 0 a live root node (depth 0, no
  // parent). Called once per tree.
  NodeIndex AllocateRoot();

  PooledNode& node(NodeIndex index) { return arena_->node(index); }
  const PooledNode& node(NodeIndex index) const { return arena_->node(index); }

  // One slab resolution for a whole child block (see SharedNodeArena::block).
  PooledNode* block(NodeIndex base) { return arena_->block(base); }
  const PooledNode* block(NodeIndex base) const { return arena_->block(base); }

  // Live nodes belonging to THIS tree (the budgeted quantity).
  int64_t live_count() const { return live_count_; }
  // Slots currently parked on the block free-list (arena-wide when shared).
  int64_t free_count() const { return arena_->free_count(); }
  // Total slots ever materialized (arena-wide when shared).
  size_t slot_count() const { return arena_->slot_count(); }
  // Exact bytes of backing storage the arena holds right now (arena-wide
  // when shared — physical slabs have no per-tree owner).
  int64_t PhysicalCapacityBytes() const {
    return arena_->PhysicalCapacityBytes();
  }

  // Child with the given quadrant index, or kInvalidNodeIndex when that
  // block is empty. O(1).
  NodeIndex Child(NodeIndex parent, int quadrant) const {
    const NodeIndex base = arena_->node(parent).first_child;
    if (base == kInvalidNodeIndex) return kInvalidNodeIndex;
    const NodeIndex slot = base + static_cast<NodeIndex>(quadrant);
    return arena_->node(slot).index_in_parent == quadrant ? slot
                                                          : kInvalidNodeIndex;
  }

  // Materializes the child for `quadrant` (must not already exist),
  // allocating the parent's child block first if this is its first child.
  // May grow the arena; indices and references remain stable. Memory
  // accounting is the tree's job, not the pool's.
  NodeIndex CreateChild(NodeIndex parent, int quadrant);

  // Vacates the child with the given quadrant (must exist and be a leaf).
  // Returns the whole child block to the free-list when this was the
  // parent's last child.
  void RemoveLeafChild(NodeIndex parent, int quadrant);

  // Moves the existing subtree root `child` (currently detached from any
  // parent slot — i.e. the tree root) into `parent`'s child block at
  // `quadrant`, re-parenting its children and recycling its old block if
  // emptied. Returns the subtree root's NEW index. Depths are NOT
  // adjusted; callers that re-root a subtree (model-space expansion) shift
  // depths themselves.
  NodeIndex AdoptChild(NodeIndex parent, int quadrant, NodeIndex child);

  // Returns every block of the subtree rooted at `root` to the free-list
  // and debits this pool's live count. Used by tree teardown on shared
  // arenas (a private arena just dies with the pool).
  void ReleaseTree(NodeIndex root);

  // Structural self-check: delegates the arena-wide scan (block alignment,
  // vacant/live markers, free-list, global live total) to the arena, then
  // checks this pool's own live count against it. Returns false with a
  // description in `error` on corruption.
  bool CheckConsistency(std::string* error) const;

 private:
  std::shared_ptr<SharedNodeArena> arena_;
  int fanout_;
  bool shared_;
  int64_t live_count_ = 0;
};

// Lightweight read-only handle onto one pool node: (pool, index), cheap to
// copy, invalid when the block is absent. This is the traversal currency of
// ForEachNode, tree stats, serialization and the tests — it keeps the
// index-based arena an implementation detail of the hot path.
class NodeView {
 public:
  NodeView() = default;
  NodeView(const NodePool* pool, NodeIndex index) : pool_(pool), index_(index) {}

  bool valid() const { return pool_ != nullptr && index_ != kInvalidNodeIndex; }
  explicit operator bool() const { return valid(); }

  NodeIndex index() const { return index_; }
  const SummaryTriple& summary() const { return n().summary; }
  int depth() const { return n().depth; }
  int num_children() const { return n().num_children; }
  bool IsLeaf() const { return n().IsLeaf(); }
  int index_in_parent() const { return n().index_in_parent; }
  int64_t last_touch() const { return n().last_touch; }

  bool has_parent() const { return valid() && n().parent != kInvalidNodeIndex; }
  NodeView parent() const { return NodeView(pool_, n().parent); }

  // Child with the given quadrant index; invalid view when absent.
  NodeView Child(int quadrant) const {
    return NodeView(pool_, pool_->Child(index_, quadrant));
  }

  // SSEG(b) = C(b) * (AVG(parent) - AVG(b))^2 (Eq. 9): the increase in the
  // tree's total expected prediction error if this node is discarded.
  // Requires a parent.
  double Sseg() const;

  // Iteration over present children in ascending quadrant order:
  //   for (NodeView child : node.children()) ...
  // The iterator walks the parent's child block, skipping vacant slots.
  // (It stores raw pool/slot state: NodeView is incomplete inside its own
  // nested classes.)
  class ChildIterator {
   public:
    ChildIterator(const NodePool* pool, NodeIndex base, int quadrant)
        : pool_(pool),
          base_(base),
          // Resolve the block's slab pointer once for the whole scan.
          block_(base == kInvalidNodeIndex ? nullptr : pool->block(base)),
          fanout_(pool->fanout()),
          quadrant_(quadrant) {
      SkipVacant();
    }
    NodeView operator*() const {
      return NodeView(pool_, base_ + static_cast<NodeIndex>(quadrant_));
    }
    ChildIterator& operator++() {
      ++quadrant_;
      SkipVacant();
      return *this;
    }
    bool operator!=(const ChildIterator& other) const {
      return quadrant_ != other.quadrant_;
    }

   private:
    void SkipVacant() {
      if (block_ == nullptr) return;
      while (quadrant_ < fanout_ &&
             block_[quadrant_].index_in_parent != quadrant_) {
        ++quadrant_;
      }
    }

    const NodePool* pool_;
    NodeIndex base_;
    const PooledNode* block_;
    int fanout_;
    int quadrant_;
  };
  class ChildRange {
   public:
    ChildRange(const NodePool* pool, NodeIndex base) : pool_(pool), base_(base) {}
    ChildIterator begin() const {
      return ChildIterator(pool_, base_,
                           base_ == kInvalidNodeIndex ? pool_->fanout() : 0);
    }
    ChildIterator end() const {
      return ChildIterator(pool_, kInvalidNodeIndex, pool_->fanout());
    }

   private:
    const NodePool* pool_;
    NodeIndex base_;
  };
  ChildRange children() const { return ChildRange(pool_, n().first_child); }

  friend bool operator==(const NodeView& a, const NodeView& b) {
    return a.pool_ == b.pool_ && a.index_ == b.index_;
  }

 private:
  const PooledNode& n() const { return pool_->node(index_); }

  const NodePool* pool_ = nullptr;
  NodeIndex index_ = kInvalidNodeIndex;
};

}  // namespace mlq

#endif  // MLQ_QUADTREE_NODE_POOL_H_
