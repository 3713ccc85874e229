/**
 * @file
 * Set-associative cache model — one packed word per line.
 *
 * This is a functional array with LRU replacement, write-back /
 * write-allocate semantics and per-"line class" accounting. Timing is
 * composed by the hierarchy/scheme layers (latencies are additive per
 * the paper's Table I), so the array itself is timing-free.
 *
 * Line classes distinguish normal data from secure-memory metadata
 * (counter blocks, integrity-tree nodes). EMCC caps the footprint of
 * counter blocks in L2 at 32 KB (paper §V); the cap is implemented here
 * as a per-class global LRU list so that inserting a counter block past
 * the cap evicts the least-recently-used *counter* block rather than
 * data.
 *
 * Layout: each line is one 64-bit word (block number, class, flag,
 * dirty, valid) in a set-major column, so a set probe is one masked
 * compare per way over a few contiguous words. A parallel last_use[]
 * column holds the LRU stamp, 0 for an invalid line; victim choice is
 * then a plain argmin over the set. The per-class LRU that backs the
 * footprint cap is an intrusive index-linked list (lru_prev[]/
 * lru_next[] columns + per-class head/tail) — no per-line heap nodes,
 * no iterators. The previous node-based implementation is preserved
 * verbatim in legacy_cache.hh and pinned against this one by the
 * differential harness in tests/test_properties.cc.
 */

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hh"
#include "sim/checkpoint.hh"

namespace emcc {

namespace obs { class MetricsRegistry; }

/** What kind of content a cache line holds. */
enum class LineClass : std::uint8_t
{
    Data = 0,     ///< normal program data
    Counter,      ///< secure-memory counter block
    TreeNode,     ///< integrity-tree node
    NumClasses,
};

/** Printable name of a line class. */
const char *lineClassName(LineClass cls);

/** Result of an insert: the victim line, if a valid line was evicted. */
struct Victim
{
    Addr addr;          ///< block-aligned address of the evicted line
    LineClass cls;
    bool dirty;
};

/** Configuration of one cache array. */
struct CacheArrayConfig
{
    std::uint64_t size_bytes = 1_MiB;
    unsigned assoc = 8;
    /** Optional per-class footprint caps in bytes (0 = uncapped). */
    std::uint64_t class_cap_bytes[static_cast<int>(LineClass::NumClasses)] =
        {0, 0, 0};
};

/** Hit/miss/traffic statistics for one cache array, split by class. */
struct CacheArrayStats
{
    Count hits[static_cast<int>(LineClass::NumClasses)] = {};
    Count misses[static_cast<int>(LineClass::NumClasses)] = {};
    Count inserts[static_cast<int>(LineClass::NumClasses)] = {};
    Count evictions[static_cast<int>(LineClass::NumClasses)] = {};
    Count dirty_evictions[static_cast<int>(LineClass::NumClasses)] = {};
    Count invalidations[static_cast<int>(LineClass::NumClasses)] = {};

    Count hitsAll() const;
    Count missesAll() const;
};

/**
 * The cache array. Addresses passed in may be unaligned; they are
 * block-aligned internally. Block numbers must fit the packed word's
 * 56 tag bits (addresses below 2^62); insert() panics otherwise.
 */
class CacheArray
{
  public:
    CacheArray(std::string name, const CacheArrayConfig &cfg);

    const std::string &name() const { return name_; }
    unsigned numSets() const { return num_sets_; }
    unsigned assoc() const { return cfg_.assoc; }
    std::uint64_t sizeBytes() const { return cfg_.size_bytes; }

    /**
     * Look up a block. On hit, updates recency and optionally marks the
     * line dirty.
     * @return true on hit.
     */
    bool access(Addr addr, LineClass cls, bool is_write);

    /** Probe without updating recency or stats. */
    bool contains(Addr addr) const;

    /** Line class of a resident block (only valid if contains()). */
    std::optional<LineClass> residentClass(Addr addr) const;

    /**
     * Insert a block (allocating on miss). If the block is already
     * resident, refreshes recency/dirty and returns nullopt.
     * @return the evicted victim, if any valid line was displaced.
     */
    std::optional<Victim> insert(Addr addr, LineClass cls, bool dirty);

    /**
     * Invalidate a block if present.
     * @return the line's dirty flag if it was present.
     */
    std::optional<bool> invalidate(Addr addr);

    /** Mark a resident block clean (after writeback). */
    void markClean(Addr addr);

    /**
     * Per-line auxiliary flag. The paper's inclusive-hierarchy
     * extension (§IV-F) adds one bit per LLC line ("encrypted &
     * unverified") and one per L2 line ("decrypted copy, writeback on
     * clean evict"); this generic flag carries both.
     * Setting/getting on a non-resident block is a no-op / false.
     */
    void setFlag(Addr addr, bool value);
    bool getFlag(Addr addr) const;

    /** Number of resident lines of a class. */
    Count classCount(LineClass cls) const
    {
        return class_count_[static_cast<int>(cls)];
    }

    const CacheArrayStats &stats() const { return stats_; }
    CacheArrayStats &stats() { return stats_; }

    /** Zero the statistics (contents untouched). */
    void resetStats() { stats_ = CacheArrayStats{}; }

    /**
     * Register this array's statistics under "<prefix>." dotted names:
     * per-class counters ("<prefix>.ctr_hits", "<prefix>.data_misses",
     * ...), residency gauges and a miss-rate formula. The array must
     * outlive the registry's last snapshot.
     */
    void registerMetrics(obs::MetricsRegistry &reg,
                         const std::string &prefix) const;

    /** Drop all contents (keeps statistics). */
    void flushAll();

    /**
     * Visit every valid line in line-index order (deterministic):
     * fn(block_addr, cls, dirty, flag). Columns are plain vectors, so
     * the order is the storage order, identical across runs.
     */
    template <typename Fn>
    void
    forEachValidLine(Fn fn) const
    {
        for (const std::uint64_t line : line_) {
            if (line & kValid)
                fn(blockBase(BlockNum{line >> kBlkShift}), lineClass(line),
                   (line & kDirty) != 0, (line & kFlag) != 0);
        }
    }

    /** Serialize every column verbatim (sampled-simulation checkpoints).
     *  The columns are plain vectors of trivially-copyable values, so
     *  the image is deterministic and restore is an exact rebuild. */
    void
    saveState(CheckpointWriter &w) const
    {
        w.tag(kCheckpointTag);
        w.vec(line_);
        w.vec(last_use_);
        w.vec(lru_prev_);
        w.vec(lru_next_);
        for (const ClassList &l : class_lru_) {
            w.u32(l.head);
            w.u32(l.tail);
        }
        w.u64(use_clock_);
        for (const Count c : class_count_)
            w.u64(c);
        w.pod(stats_);
    }

    void
    restoreState(CheckpointReader &r)
    {
        r.expectTag(kCheckpointTag);
        r.vec(line_);
        r.vec(last_use_);
        r.vec(lru_prev_);
        r.vec(lru_next_);
        for (ClassList &l : class_lru_) {
            l.head = r.u32();
            l.tail = r.u32();
        }
        use_clock_ = r.u64();
        for (Count &c : class_count_)
            c = r.u64();
        stats_ = r.pod<CacheArrayStats>();
    }

  private:
    /// checkpoint layout version (bumped with the packed-word columns)
    static constexpr std::uint32_t kCheckpointTag = 0xcac4e002u;

    /// null link / "no line" sentinel for the intrusive lists
    static constexpr std::uint32_t kNil = 0xffffffffu;

    // Line word: bit 0 valid, bit 1 dirty, bit 2 flag, bits 3-4 class,
    // bits 8-63 block number. An invalid line is 0 apart from a stale
    // flag bit (see dropLine()).
    static constexpr std::uint64_t kValid = 1;
    static constexpr std::uint64_t kDirty = 2;
    static constexpr std::uint64_t kFlag = 4;
    static constexpr unsigned kClsShift = 3;
    static constexpr std::uint64_t kClsMask = std::uint64_t{3} << kClsShift;
    static constexpr unsigned kBlkShift = 8;
    /// the bits a lookup compares: block number and valid
    static constexpr std::uint64_t kMatchMask = ~std::uint64_t{0xfe};

    static std::uint64_t
    matchKey(BlockNum blk)
    {
        return blk.value() << kBlkShift | kValid;
    }

    static std::uint64_t
    clsBits(LineClass cls)
    {
        return std::uint64_t{static_cast<std::uint8_t>(cls)} << kClsShift;
    }

    static LineClass
    lineClass(std::uint64_t line)
    {
        return static_cast<LineClass>((line & kClsMask) >> kClsShift);
    }

    unsigned setIndex(Addr addr) const;
    /** Index of a resident block's line, or kNil. */
    std::uint32_t findIndex(Addr addr) const;
    /** Pick the victim way in a set: first invalid, else LRU. */
    std::uint32_t victimWay(unsigned set) const;
    void touch(std::uint32_t idx);
    void listAppend(LineClass cls, std::uint32_t idx);
    void listRemove(LineClass cls, std::uint32_t idx);
    /** Invalidate a valid line: class count, class list, word, stamp. */
    void dropLine(std::uint32_t idx);
    void evictLine(std::uint32_t idx, std::optional<Victim> &victim_out);

    std::string name_;
    CacheArrayConfig cfg_;
    unsigned num_sets_;
    bool sets_pow2_ = true;

    // Parallel columns, indexed set * assoc + way (set-major). A set's
    // ways are contiguous in every column.
    std::vector<std::uint64_t> line_;           ///< packed line words
    std::vector<std::uint64_t> last_use_;       ///< LRU stamp, 0 = invalid
    // Intrusive per-class LRU links (meaningful for valid lines only).
    std::vector<std::uint32_t> lru_prev_;
    std::vector<std::uint32_t> lru_next_;
    /// per-class LRU list: head = LRU, tail = MRU
    struct ClassList
    {
        std::uint32_t head = kNil;
        std::uint32_t tail = kNil;
    };
    ClassList class_lru_[static_cast<int>(LineClass::NumClasses)];
    /** True for classes with a footprint cap — the only consumers of
     *  the class-LRU lists. Uncapped classes skip list maintenance. */
    bool lru_tracked_[static_cast<int>(LineClass::NumClasses)] = {};

    std::uint64_t use_clock_ = 0;
    Count class_count_[static_cast<int>(LineClass::NumClasses)] = {};
    CacheArrayStats stats_;
};

} // namespace emcc
