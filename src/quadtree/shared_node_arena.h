#ifndef MLQ_QUADTREE_SHARED_NODE_ARENA_H_
#define MLQ_QUADTREE_SHARED_NODE_ARENA_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/stats.h"

namespace mlq {

// Index of a node inside a node arena. 32 bits address four billion nodes —
// far beyond any budget the paper (1.8 KB!) or the serving layer uses —
// at half the footprint of a pointer, and indices stay valid when the
// arena grows or a tree is serialized.
using NodeIndex = uint32_t;
inline constexpr NodeIndex kInvalidNodeIndex = 0xFFFFFFFFu;

// One block of the memory-limited quadtree, laid out for arena storage.
//
// A node stores the summary triple of the data points that map into its
// block (Section 4.1) plus tree-structure bookkeeping. All 2^d potential
// children of a node live in ONE contiguous, 2^d-aligned group of arena
// slots ("child block"): the child for quadrant q, when present, is slot
// `first_child + q`. Child lookup on the predict/insert descent is a
// single indexed load — no pointer chase, no sibling scan.
struct PooledNode {
  SummaryTriple summary;                      // 24 bytes
  int64_t last_touch = 0;                     // Insertion tick, recency ext.
  NodeIndex parent = kInvalidNodeIndex;
  NodeIndex first_child = kInvalidNodeIndex;  // Child-block base; free link.
  uint8_t index_in_parent = 0;                // Quadrant in the parent.
  uint8_t num_children = 0;
  uint16_t depth = 0;                         // 0 = root.
  // Decay epoch this node's summary was last aged to (windowed-summary
  // extension; see MlqConfig::decay_half_life). Occupies what used to be
  // padding, so the node stays 48 bytes; 0 — the value every node carries
  // when decay is off — keeps the layout bit-identical to the seed.
  uint32_t decay_epoch = 0;

  bool IsLeaf() const { return num_children == 0; }
};
static_assert(sizeof(PooledNode) == 48, "keep the hot-path node packed");

// index_in_parent value marking a slot that belongs to an allocated block
// but holds no node: the quadrant is not materialized, or the whole block
// sits on the free-list. The marker exceeds any real quadrant (fanout is
// capped at 128, quadrants 0..127), which makes the O(1) quadrant
// comparison in NodePool::Child reject vacant slots for free.
inline constexpr uint8_t kVacantSlot = 0xFF;

inline void MarkVacantSlot(PooledNode& n) {
  n.summary = SummaryTriple{};
  n.last_touch = 0;
  n.parent = kInvalidNodeIndex;
  n.first_child = kInvalidNodeIndex;
  n.index_in_parent = kVacantSlot;
  n.num_children = 0;
  n.depth = 0;
  n.decay_epoch = 0;
}

// Slab-backed arena of quadtree nodes, shareable between many trees.
//
// Storage is a sequence of fixed-size slabs (kSlabSlots nodes each) indexed
// through a fixed table of atomic slab pointers, so node addresses are
// stable for the arena's whole lifetime: a reader descending one tree is
// never invalidated by another tree growing the arena. Synchronization
// contract: allocation/release/compaction take the arena mutex; plain
// node reads and writes are the OWNING TREE's to serialize (each tree only
// ever touches blocks it allocated, and publication of a freshly appended
// slab pointer happens-before any index into it escapes AllocateBlock).
//
// Blocks are fanout-sized and fanout-aligned and never straddle a slab
// boundary (every supported fanout divides kSlabSlots). Fully vacated
// blocks go onto a LIFO free-list shared by every tree on the arena, so
// compression churn in one model recycles slots for its neighbours.
//
// The arena tracks PHYSICAL bytes (slabs held) separately from each tree's
// LOGICAL budget (Section 4.3 accounting, owned by MemoryLimitedQuadtree).
// Physical high-water never shrinks on its own; CompactStep() below is the
// explicit reclamation pass.
class SharedNodeArena {
 public:
  static constexpr size_t kSlabShift = 11;
  static constexpr size_t kSlabSlots = size_t{1} << kSlabShift;  // 2048 nodes
  static constexpr size_t kSlabMask = kSlabSlots - 1;
  // 4096 slabs * 2048 slots * 48 B ≈ 400 MB of nodes per arena; the table
  // itself is a fixed 32 KB so growth never moves it.
  static constexpr size_t kMaxSlabs = 4096;

  // `fanout` is 2^d: the number of slots per child block.
  explicit SharedNodeArena(int fanout);
  ~SharedNodeArena();

  SharedNodeArena(const SharedNodeArena&) = delete;
  SharedNodeArena& operator=(const SharedNodeArena&) = delete;

  int fanout() const { return fanout_; }

  PooledNode& node(NodeIndex index) {
    return slabs_[index >> kSlabShift].load(std::memory_order_relaxed)
        [index & kSlabMask];
  }
  const PooledNode& node(NodeIndex index) const {
    return slabs_[index >> kSlabShift].load(std::memory_order_relaxed)
        [index & kSlabMask];
  }

  // Base pointer of the child block starting at `base` (must be
  // block-aligned). Blocks never straddle a slab boundary, so one slab
  // resolution covers all `fanout` slots: loops that scan a whole block
  // should index off this pointer instead of calling node() per slot —
  // the compiler cannot hoist the atomic slab load out of a loop.
  PooledNode* block(NodeIndex base) { return &node(base); }
  const PooledNode* block(NodeIndex base) const { return &node(base); }

  // Allocates one fanout-sized block (free-list first, then bump) with every
  // slot marked vacant. Thread-safe.
  NodeIndex AllocateBlock();

  // Returns a fully vacated block to the shared free-list. Thread-safe.
  void ReleaseBlock(NodeIndex base);

  // Bookkeeping hook for trees: net change in live nodes. Thread-safe.
  void NoteLiveDelta(int64_t delta) {
    live_.fetch_add(delta, std::memory_order_relaxed);
  }

  // Pre-sizes the arena to at least `slots` slots of backing storage.
  // Throws std::length_error, before allocating anything, when `slots`
  // exceeds the slab table's capacity (kMaxSlabs * kSlabSlots). Growth past
  // that capacity through AllocateBlock throws the same error.
  void Reserve(size_t slots);

  // Live nodes across every tree on this arena.
  int64_t live_count() const { return live_.load(std::memory_order_relaxed); }
  // Slots currently parked on the shared block free-list.
  int64_t free_count() const {
    return free_count_.load(std::memory_order_relaxed);
  }
  // Total slots ever materialized (live + vacant + free-listed).
  size_t slot_count() const { return bump_.load(std::memory_order_relaxed); }
  // Exact bytes of backing storage the arena holds right now.
  int64_t PhysicalCapacityBytes() const {
    return physical_bytes_.load(std::memory_order_relaxed);
  }
  // High-water mark of PhysicalCapacityBytes() since construction (reset
  // only by a CompactStep that finishes a compaction).
  int64_t PeakPhysicalBytes() const {
    return peak_physical_bytes_.load(std::memory_order_relaxed);
  }
  int64_t compactions() const {
    return compactions_.load(std::memory_order_relaxed);
  }

  // Maintenance signal: a tree on this arena ran a compression pass (the
  // budget-pressure event the scheduler keys epochs off). Thread-safe; the
  // owning tree calls it from CompressInternal.
  void NoteCompression() {
    tree_compressions_.fetch_add(1, std::memory_order_relaxed);
  }
  // Total tree compressions across every tree on this arena since
  // construction (monotonic — schedulers diff it across ticks).
  int64_t tree_compressions() const {
    return tree_compressions_.load(std::memory_order_relaxed);
  }

  // Reclaimable fraction of the arena: free-listed slots / materialized
  // slots. 0 means dense (every slot below the bump is in a live block);
  // equivalently 1 - live-block-slots/capacity, the scheduler's
  // fragmentation-ratio signal.
  double FragmentationRatio() const {
    const auto slots = static_cast<int64_t>(slot_count());
    if (slots == 0) return 0.0;
    return static_cast<double>(free_count()) / static_cast<double>(slots);
  }

  // Bytes an unbounded CompactStep would return right now: the whole slabs
  // held past the dense extent (every live block packed from slot 0).
  // Fragmentation inside the slabs the live blocks still need returns
  // nothing, so 0 means a compaction epoch would only shuffle blocks.
  // Lock-free; a snapshot of three relaxed counters, exact once the
  // arena's trees are quiescent.
  int64_t ReclaimableBytes() const {
    const auto slab_bytes =
        static_cast<int64_t>(kSlabSlots * sizeof(PooledNode));
    const int64_t dense_slots =
        static_cast<int64_t>(slot_count()) - free_count();
    const int64_t dense_slabs =
        (std::max<int64_t>(dense_slots, 0) +
         static_cast<int64_t>(kSlabSlots) - 1) >>
        kSlabShift;
    return std::max<int64_t>(PhysicalCapacityBytes() - dense_slabs * slab_bytes,
                             0);
  }

  // Registers the location of a tree's root index so CompactStep() can
  // patch it after moving the root's block. The pointee must stay at a
  // stable address until UnregisterRoot.
  void RegisterRoot(NodeIndex* root);
  void UnregisterRoot(NodeIndex* root);

  // Walks the subtree rooted at `root` (which must occupy slot 0 of its
  // block), vacates every slot and returns all its blocks to the free-list.
  // Returns the number of live nodes released; live_count() is debited.
  // Used by tree teardown on shared arenas.
  int64_t ReleaseTree(NodeIndex root);

  struct CompactStepStats {
    int64_t blocks_moved = 0;
    int64_t bytes_reclaimed = 0;
    // True when the arena is dense after this step: no free block remains
    // below the bump, so further steps would be no-ops until new
    // fragmentation accrues.
    bool done = false;
  };

  // The arena's compaction: performs at most O(budget_slots) bounded work
  // — relocating live blocks from the top of the arena into the lowest
  // reserved free blocks, in place — then trims the bump pointer and any
  // now-empty tail slabs. Repeated calls converge to the dense layout: no
  // free slot below the bump, so the arena holds exactly the slabs its
  // live blocks need. Slot indices change; serialized bytes and
  // predictions do not. A budget of std::numeric_limits<int64_t>::max()
  // runs a whole pass in one call (the budget arithmetic saturates).
  //
  // Every cost inside a step is budget-proportional, never O(free-list):
  // the step pops a bounded number of free-list entries into a persistent
  // reserve (reserved_ / reserve_heap_), consumes reserve entries as
  // relocation destinations lowest-first, and absorbs a bounded number of
  // reserved blocks when lowering the bump. The reserve carries
  // over between steps; if the arena mutated in between (any allocation or
  // release), the reserve is handed back to the free-list and rebuilt.
  //
  // Relocation fix-up protocol, per moved block: the moved nodes' common
  // parent has its first_child re-pointed; every moved node's children get
  // their parent link re-pointed; a moved root is patched through its
  // registered root handle (RegisterRoot). All under the arena mutex.
  //
  // Callers MUST quiesce every tree on the arena first (e.g. via
  // CostModel::LockForMaintenance): no reader or writer may hold a
  // NodeIndex across a step. The quiesce lasts only for this step's
  // bounded work, so a scheduler can interleave steps with serving
  // traffic. compactions() is credited when a step both did work and
  // finished the layout.
  CompactStepStats CompactStep(int64_t budget_slots);

  // Structural self-check of the whole arena: block alignment, vacant/live
  // slot markers, the free-list reaching exactly the freed blocks, and the
  // live/free counters adding up. Returns false with a description in
  // `error` on corruption. Callers must quiesce writers first.
  bool CheckConsistency(std::string* error) const;

 private:
  // All require mutex_.
  void AppendSlabLocked();
  NodeIndex AllocateBlockLocked();
  void MoveBlockLocked(NodeIndex src, NodeIndex dest);

  const int fanout_;
  mutable std::mutex mutex_;
  // Fixed table of slab pointers; only CompactStep drops entries (tail
  // slabs past the trimmed bump).
  std::unique_ptr<std::atomic<PooledNode*>[]> slabs_;
  size_t num_slabs_ = 0;                     // Guarded by mutex_.
  NodeIndex free_head_ = kInvalidNodeIndex;  // Block bases, LIFO; mutex_.
  std::vector<NodeIndex*> roots_;            // Guarded by mutex_.
  // Compaction reserve (guarded by mutex_): free blocks popped off the
  // free-list by CompactStep, held as pending relocation destinations
  // across steps. reserved_ marks them by block number (base / fanout), so
  // the bump trim tests the top block in O(1); reserve_heap_ is a min-heap
  // of their bases for lowest-first consumption. Entries of blocks the trim
  // absorbed stay in the heap, stale, until the reserve is next refilled
  // from empty. Reserved blocks still count toward free_count_.
  std::vector<bool> reserved_;
  std::vector<NodeIndex> reserve_heap_;
  int64_t reserved_count_ = 0;
  // Bumped by every block allocation/release (under mutex_); CompactStep
  // compares against reserve_epoch_ to detect mutations between steps.
  uint64_t mutation_epoch_ = 0;
  uint64_t reserve_epoch_ = 0;
  std::atomic<size_t> bump_{0};              // First never-materialized slot.
  std::atomic<int64_t> live_{0};
  std::atomic<int64_t> free_count_{0};
  std::atomic<int64_t> physical_bytes_{0};
  std::atomic<int64_t> peak_physical_bytes_{0};
  std::atomic<int64_t> compactions_{0};
  std::atomic<int64_t> tree_compressions_{0};
};

}  // namespace mlq

#endif  // MLQ_QUADTREE_SHARED_NODE_ARENA_H_
