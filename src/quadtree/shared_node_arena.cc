#include "quadtree/shared_node_arena.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <unordered_set>

#include "obs/obs.h"

namespace mlq {

namespace {

bool IsVacant(const PooledNode& n) { return n.index_in_parent == kVacantSlot; }

}  // namespace

SharedNodeArena::SharedNodeArena(int fanout)
    : fanout_(fanout),
      slabs_(new std::atomic<PooledNode*>[kMaxSlabs]) {
  // 2 <= fanout <= 128 keeps every quadrant strictly below kVacantSlot and
  // guarantees blocks never straddle a slab (fanout divides kSlabSlots).
  assert(fanout_ >= 2 && fanout_ <= 128);
  for (size_t s = 0; s < kMaxSlabs; ++s) {
    slabs_[s].store(nullptr, std::memory_order_relaxed);
  }
}

SharedNodeArena::~SharedNodeArena() {
  for (size_t s = 0; s < num_slabs_; ++s) {
    delete[] slabs_[s].load(std::memory_order_relaxed);
  }
}

void SharedNodeArena::AppendSlabLocked() {
  // Checked in every build type: the slab table is fixed-size, and a write
  // past it would corrupt the heap.
  if (num_slabs_ >= kMaxSlabs) {
    throw std::length_error("SharedNodeArena: slab table exhausted (" +
                            std::to_string(kMaxSlabs) + " slabs)");
  }
  PooledNode* slab = new PooledNode[kSlabSlots];
  // Release pairs with the relaxed loads in node(): any thread that learns
  // a NodeIndex into this slab does so via the arena mutex or the owning
  // tree's lock, both of which order after this store.
  slabs_[num_slabs_].store(slab, std::memory_order_release);
  ++num_slabs_;
  const int64_t bytes =
      static_cast<int64_t>(num_slabs_ * kSlabSlots * sizeof(PooledNode));
  physical_bytes_.store(bytes, std::memory_order_relaxed);
  int64_t peak = peak_physical_bytes_.load(std::memory_order_relaxed);
  while (bytes > peak && !peak_physical_bytes_.compare_exchange_weak(
                             peak, bytes, std::memory_order_relaxed)) {
  }
}

NodeIndex SharedNodeArena::AllocateBlockLocked() {
  ++mutation_epoch_;
  if (free_head_ != kInvalidNodeIndex) {
    const NodeIndex base = free_head_;
    PooledNode& head = node(base);
    free_head_ = head.first_child;
    head.first_child = kInvalidNodeIndex;
    free_count_.fetch_sub(fanout_, std::memory_order_relaxed);
    return base;
  }
  const size_t bump = bump_.load(std::memory_order_relaxed);
  assert(bump + static_cast<size_t>(fanout_) < kInvalidNodeIndex);
  if (bump == num_slabs_ * kSlabSlots) AppendSlabLocked();
  const NodeIndex base = static_cast<NodeIndex>(bump);
  bump_.store(bump + static_cast<size_t>(fanout_), std::memory_order_relaxed);
  for (int q = 0; q < fanout_; ++q) MarkVacantSlot(node(base + q));
  return base;
}

NodeIndex SharedNodeArena::AllocateBlock() {
  std::lock_guard<std::mutex> lock(mutex_);
  return AllocateBlockLocked();
}

void SharedNodeArena::ReleaseBlock(NodeIndex base) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++mutation_epoch_;
  node(base).first_child = free_head_;
  free_head_ = base;
  free_count_.fetch_add(fanout_, std::memory_order_relaxed);
}

void SharedNodeArena::Reserve(size_t slots) {
  if (slots > kMaxSlabs * kSlabSlots) {
    throw std::length_error("SharedNodeArena: Reserve(" +
                            std::to_string(slots) + ") exceeds " +
                            std::to_string(kMaxSlabs * kSlabSlots) +
                            " slots");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  while (num_slabs_ * kSlabSlots < slots) AppendSlabLocked();
}

void SharedNodeArena::RegisterRoot(NodeIndex* root) {
  std::lock_guard<std::mutex> lock(mutex_);
  roots_.push_back(root);
}

void SharedNodeArena::UnregisterRoot(NodeIndex* root) {
  std::lock_guard<std::mutex> lock(mutex_);
  roots_.erase(std::remove(roots_.begin(), roots_.end(), root), roots_.end());
}

int64_t SharedNodeArena::ReleaseTree(NodeIndex root) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++mutation_epoch_;
  assert(node(root).index_in_parent == 0 && node(root).depth == 0);
  int64_t released = 0;
  std::vector<NodeIndex> block_stack;
  block_stack.push_back(root);  // A root occupies slot 0 of its block.
  while (!block_stack.empty()) {
    const NodeIndex base = block_stack.back();
    block_stack.pop_back();
    for (int q = 0; q < fanout_; ++q) {
      PooledNode& n = node(base + static_cast<NodeIndex>(q));
      if (n.index_in_parent != q) continue;
      if (n.first_child != kInvalidNodeIndex) {
        block_stack.push_back(n.first_child);
      }
      MarkVacantSlot(n);
      ++released;
    }
    node(base).first_child = free_head_;
    free_head_ = base;
    free_count_.fetch_add(fanout_, std::memory_order_relaxed);
  }
  live_.fetch_sub(released, std::memory_order_relaxed);
  return released;
}

void SharedNodeArena::MoveBlockLocked(NodeIndex src, NodeIndex dest) {
  PooledNode* from = block(src);
  PooledNode* to = block(dest);
  // Wholesale block copy: vacant slots in a live block carry no links, so
  // copying them over the free block's stale state leaves dest clean.
  for (int q = 0; q < fanout_; ++q) to[q] = from[q];
  for (int q = 0; q < fanout_; ++q) {
    const PooledNode& n = to[q];
    if (n.index_in_parent != q) continue;
    // Re-point the moved node's children at the block's new home.
    if (n.first_child != kInvalidNodeIndex) {
      PooledNode* child_block = block(n.first_child);
      for (int cq = 0; cq < fanout_; ++cq) {
        if (child_block[cq].index_in_parent == cq) {
          child_block[cq].parent = dest + static_cast<NodeIndex>(q);
        }
      }
    }
    if (n.parent != kInvalidNodeIndex) {
      // Every live slot of a child block shares one parent; re-pointing it
      // per slot just rewrites the same value.
      node(n.parent).first_child = dest;
    } else {
      // A root block: patch the tree's registered root handle.
      for (NodeIndex* root : roots_) {
        if (*root == src + static_cast<NodeIndex>(q)) {
          *root = dest + static_cast<NodeIndex>(q);
        }
      }
    }
  }
  for (int q = 0; q < fanout_; ++q) MarkVacantSlot(from[q]);
}

SharedNodeArena::CompactStepStats SharedNodeArena::CompactStep(
    int64_t budget_slots) {
  std::lock_guard<std::mutex> lock(mutex_);
  CompactStepStats stats;
  const int64_t bytes_before = physical_bytes_.load(std::memory_order_relaxed);

  // The reserve describes the layout it was popped from: if any block was
  // allocated or released since the previous step, hand the reserved blocks
  // back to the free-list and rebuild from scratch. (free_count_ covers
  // both structures, so the hand-back moves nothing in the accounting.)
  if (reserve_epoch_ != mutation_epoch_ && reserved_count_ > 0) {
    for (const NodeIndex base : reserve_heap_) {
      if (!reserved_[base / fanout_]) continue;  // Absorbed by a trim.
      reserved_[base / fanout_] = false;
      node(base).first_child = free_head_;
      free_head_ = base;
    }
    reserve_heap_.clear();
    reserved_count_ = 0;
  }
  const size_t bump = bump_.load(std::memory_order_relaxed);
  if (reserved_.size() < bump / fanout_) reserved_.resize(bump / fanout_);

  // A block is reclaimable iff every slot carries the vacancy marker; a
  // freshly filled destination reads as live automatically.
  auto block_vacant = [this](int64_t base) {
    const PooledNode* b = block(static_cast<NodeIndex>(base));
    for (int q = 0; q < fanout_; ++q) {
      if (b[q].index_in_parent != kVacantSlot) return false;
    }
    return true;
  };

  const int64_t max_moves =
      std::max<int64_t>(1, budget_slots / static_cast<int64_t>(fanout_));
  // Free-list pops and bump-trim absorptions are budgeted alongside moves,
  // so a step's pause is proportional to budget_slots no matter how long
  // the free-list or how wide the vacant tail. Saturates: an unbounded
  // budget must not overflow into a negative one.
  constexpr int64_t kMaxBudget = std::numeric_limits<int64_t>::max();
  const int64_t pop_budget =
      max_moves > kMaxBudget / 4 ? kMaxBudget : 4 * max_moves;
  int64_t pops = 0;
  int64_t absorbed = 0;
  bool absorb_budget_hit = false;

  int64_t top = static_cast<int64_t>(bump) - static_cast<int64_t>(fanout_);

  // Advances `top` past reserved free blocks. A vacant block whose
  // free-list entry has not been popped yet stops the trim — the bump may
  // not pass a block that is still reachable from the free-list.
  auto trim = [&]() {
    while (top >= 0 && reserved_[static_cast<size_t>(top / fanout_)]) {
      if (absorbed == pop_budget) {
        absorb_budget_hit = true;
        break;
      }
      reserved_[static_cast<size_t>(top / fanout_)] = false;
      --reserved_count_;
      free_count_.fetch_sub(fanout_, std::memory_order_relaxed);
      ++absorbed;
      top -= fanout_;
    }
  };

  while (true) {
    trim();
    if (absorb_budget_hit || top < 0) break;
    if (stats.blocks_moved == max_moves || pops == pop_budget) break;
    const auto top_base = static_cast<NodeIndex>(top);
    // The lowest reserved block. Heap entries of blocks the trim absorbed
    // are stale but sort above every reserved block (the trim only absorbs
    // the top, and every free block lies below it), so the heap's front is
    // reserved whenever any block is.
    const NodeIndex dest =
        reserved_count_ == 0 ? kInvalidNodeIndex : reserve_heap_.front();
    if (!block_vacant(top) && dest < top_base) {
      // Live top block, and a strictly lower hole to put it in.
      std::pop_heap(reserve_heap_.begin(), reserve_heap_.end(),
                    std::greater<>());
      reserve_heap_.pop_back();
      reserved_[dest / fanout_] = false;
      --reserved_count_;
      free_count_.fetch_sub(fanout_, std::memory_order_relaxed);
      MoveBlockLocked(top_base, dest);
      top -= fanout_;  // The bump may pass the block just moved out.
      ++stats.blocks_moved;
      continue;
    }
    // Either the top block is free but its list entry has not surfaced
    // yet, or no usable destination is reserved. Pop one more free-list
    // entry into the reserve; every pop shrinks the list, so the blocking
    // entry surfaces within a bounded number of steps.
    if (free_head_ == kInvalidNodeIndex) break;
    const NodeIndex base = free_head_;
    free_head_ = node(base).first_child;
    node(base).first_child = kInvalidNodeIndex;
    if (reserved_count_ == 0) reserve_heap_.clear();  // Drop stale entries.
    reserved_[base / fanout_] = true;
    ++reserved_count_;
    reserve_heap_.push_back(base);
    std::push_heap(reserve_heap_.begin(), reserve_heap_.end(),
                   std::greater<>());
    ++pops;
  }

  // Install the shrunk extent and drop every slab past the new bump.
  const auto new_bump = static_cast<size_t>(top + fanout_);
  bump_.store(new_bump, std::memory_order_relaxed);
  const size_t needed_slabs = (new_bump + kSlabSlots - 1) >> kSlabShift;
  for (size_t s = needed_slabs; s < num_slabs_; ++s) {
    delete[] slabs_[s].load(std::memory_order_relaxed);
    slabs_[s].store(nullptr, std::memory_order_relaxed);
  }
  num_slabs_ = needed_slabs;
  const int64_t bytes =
      static_cast<int64_t>(num_slabs_ * kSlabSlots * sizeof(PooledNode));
  physical_bytes_.store(bytes, std::memory_order_relaxed);
  stats.bytes_reclaimed = std::max<int64_t>(0, bytes_before - bytes);
  stats.done = free_head_ == kInvalidNodeIndex && reserved_count_ == 0;
  reserve_epoch_ = mutation_epoch_;
  if (stats.done &&
      (stats.blocks_moved > 0 || absorbed > 0 || stats.bytes_reclaimed > 0)) {
    // A completed pass that actually did work counts as one compaction and
    // resets the high-water mark.
    peak_physical_bytes_.store(bytes, std::memory_order_relaxed);
    compactions_.fetch_add(1, std::memory_order_relaxed);
    if (obs::Enabled()) obs::Core().arena_compactions.Inc();
  }
  if (obs::Enabled() && stats.bytes_reclaimed > 0) {
    obs::Core().arena_compact_bytes_reclaimed.Inc(stats.bytes_reclaimed);
    obs::GlobalEventLog().Append(obs::EventKind::kArenaCompaction, "step",
                                 static_cast<double>(stats.blocks_moved),
                                 static_cast<double>(stats.bytes_reclaimed));
  }
  return stats;
}

bool SharedNodeArena::CheckConsistency(std::string* error) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto fail = [error](const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
  };
  const size_t slots = bump_.load(std::memory_order_relaxed);
  if (slots % static_cast<size_t>(fanout_) != 0) {
    return fail("arena size is not a multiple of the fanout");
  }
  // Collect free-listed block bases, guarding against cycles.
  std::unordered_set<NodeIndex> free_blocks;
  const size_t max_blocks = slots / static_cast<size_t>(fanout_);
  for (NodeIndex base = free_head_; base != kInvalidNodeIndex;
       base = node(base).first_child) {
    if (base >= slots || base % fanout_ != 0) {
      return fail("free-list entry is not a valid block base");
    }
    if (!free_blocks.insert(base).second || free_blocks.size() > max_blocks) {
      return fail("free-list cycle detected");
    }
  }
  // Blocks parked in the incremental-compaction reserve are free too: they
  // still count toward free_count_ and must stay fully vacant.
  for (size_t b = 0; b < reserved_.size(); ++b) {
    if (!reserved_[b]) continue;
    const auto base = static_cast<NodeIndex>(b * static_cast<size_t>(fanout_));
    if (base >= slots) return fail("reserved block lies past the bump");
    if (!free_blocks.insert(base).second) {
      return fail("reserved block is also on the free-list");
    }
  }
  if (free_count_.load(std::memory_order_relaxed) !=
      static_cast<int64_t>(free_blocks.size()) * fanout_) {
    return fail("free_count does not match the free-list");
  }
  int64_t live_seen = 0;
  for (size_t block = 0; block < slots; block += static_cast<size_t>(fanout_)) {
    const NodeIndex base = static_cast<NodeIndex>(block);
    const bool in_free_list = free_blocks.count(base) > 0;
    for (int q = 0; q < fanout_; ++q) {
      const NodeIndex slot = base + static_cast<NodeIndex>(q);
      const PooledNode& n = node(slot);
      if (IsVacant(n)) {
        if (n.summary.count != 0 || n.num_children != 0) {
          return fail("vacant slot holds node state");
        }
        if (!(q == 0 && in_free_list) && n.first_child != kInvalidNodeIndex) {
          return fail("vacant slot has a dangling child link");
        }
        continue;
      }
      if (in_free_list) return fail("free-listed block holds a live node");
      if (n.index_in_parent != q) {
        return fail("slot quadrant does not match its block offset");
      }
      ++live_seen;
      if (n.parent != kInvalidNodeIndex) {
        const PooledNode& p = node(n.parent);
        if (p.first_child != base) {
          return fail("child slot not reachable from its parent");
        }
        if (n.depth != p.depth + 1) {
          return fail("child depth is not parent depth + 1");
        }
      }
      if (n.first_child != kInvalidNodeIndex) {
        if (n.first_child % fanout_ != 0 ||
            static_cast<size_t>(n.first_child) >= slots) {
          return fail("child-block base is not block-aligned");
        }
        int present = 0;
        for (int cq = 0; cq < fanout_; ++cq) {
          const PooledNode& c = node(n.first_child + cq);
          if (c.index_in_parent == cq) {
            if (c.parent != slot) return fail("child has a stale parent link");
            ++present;
          }
        }
        if (present != n.num_children) {
          return fail("num_children does not match the child block");
        }
        if (present == 0) return fail("empty child block was not recycled");
      } else if (n.num_children != 0) {
        return fail("leaf node reports children");
      }
    }
  }
  if (live_seen != live_.load(std::memory_order_relaxed)) {
    return fail("live_count does not match the arena contents");
  }
  return true;
}

}  // namespace mlq
