/**
 * @file
 * Open-addressing hash map keyed by Addr, for hot bookkeeping tables.
 *
 * The secure-memory hierarchy keeps several per-core side tables on
 * the access fast path (pending store fills, in-flight counter
 * fetches, counter-usefulness state). As std::unordered_map they cost
 * one node allocation per insert and a pointer chase per probe —
 * measurable in the e2e profile. This map stores {key, value} pairs
 * inline in one power-of-two slot array with linear probing: inserts
 * allocate only on growth, probes touch one cache line in the common
 * case.
 *
 * Erase uses backward-shift deletion: the entries after the hole on
 * its probe run are pulled back over it, so every run stays gap-free
 * and no tombstones exist. Occupancy therefore equals size(), and a
 * table that churns at constant size (insert + erase on the miss path)
 * never rehashes and never allocates.
 *
 * Deliberately minimal: no iterators (tables on the hot path must not
 * depend on hash order — see the unordered-iter lint rule), no
 * iterator-based erase; forEach() exists solely so checkpoints can
 * drain a table, and its visitors must sort before emitting. Pointers
 * returned by find()/operator[] are invalidated by the next insert or
 * erase.
 */

#pragma once

#include <cstdint>
#include <memory>

#include "common/types.hh"

namespace emcc {

template <typename V>
class FlatAddrMap
{
  public:
    FlatAddrMap() = default;

    FlatAddrMap(const FlatAddrMap &) = delete;
    FlatAddrMap &operator=(const FlatAddrMap &) = delete;
    FlatAddrMap(FlatAddrMap &&) = default;
    FlatAddrMap &operator=(FlatAddrMap &&) = default;

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    /** Slots in the array (0 before the first insert). */
    std::size_t capacity() const { return capacity_; }

    /** Pointer to the mapped value, or nullptr. Invalidated by the
     *  next insert or erase. */
    V *
    find(Addr key)
    {
        if (capacity_ == 0)
            return nullptr;
        Slot &s = slots_[probe(key)];
        return s.full ? &s.value : nullptr;
    }

    const V *
    find(Addr key) const
    {
        return const_cast<FlatAddrMap *>(this)->find(key);
    }

    bool contains(Addr key) const { return find(key) != nullptr; }

    /** Insert default-constructed on miss; reference to the value. */
    V &
    operator[](Addr key)
    {
        reserveOne();
        Slot &s = slots_[probe(key)];
        if (!s.full)
            fill(s, key, V{});
        return s.value;
    }

    /** Insert only if absent (std::map semantics: no overwrite).
     *  @return true when the insertion happened. */
    bool
    emplace(Addr key, V value)
    {
        reserveOne();
        Slot &s = slots_[probe(key)];
        if (s.full)
            return false;
        fill(s, key, value);
        return true;
    }

    /** Drop every entry, keeping the slot array. */
    void
    clear()
    {
        for (std::size_t i = 0; i < capacity_; ++i)
            slots_[i].full = false;
        size_ = 0;
    }

    /**
     * Visit every live entry in unspecified (hash) order. Serialization
     * only: callers must sort whatever they collect before emitting it
     * (same discipline as the unordered-iter lint rule).
     */
    template <typename Fn>
    void
    forEach(Fn fn) const
    {
        for (std::size_t i = 0; i < capacity_; ++i) {
            if (slots_[i].full)
                fn(slots_[i].key, slots_[i].value);
        }
    }

    /** Remove a key if present. @return true when it was present. */
    bool
    erase(Addr key)
    {
        if (capacity_ == 0)
            return false;
        std::size_t hole = probe(key);
        if (!slots_[hole].full)
            return false;
        // Backward shift: walk the run after the hole and move back
        // every entry whose home slot lies at or before the hole
        // (cyclically), so a probe from that home still reaches it.
        const std::size_t mask = capacity_ - 1;
        for (std::size_t i = (hole + 1) & mask; slots_[i].full;
             i = (i + 1) & mask) {
            const std::size_t home = hash(slots_[i].key) & mask;
            if (((i - home) & mask) >= ((i - hole) & mask)) {
                slots_[hole] = slots_[i];
                hole = i;
            }
        }
        slots_[hole].full = false;
        --size_;
        return true;
    }

  private:
    struct Slot
    {
        Addr key{};
        V value{};
        bool full = false;
    };

    static constexpr std::size_t kMinCapacity = 16;

    static std::size_t
    hash(Addr key)
    {
        // Fibonacci multiplicative hash; addresses are block-aligned,
        // so fold the low zero bits out first.
        const std::uint64_t x = key.value() >> 6;
        return static_cast<std::size_t>(
            (x ^ (x >> 29)) * 0x9e3779b97f4a7c15ull >> 17);
    }

    /** Slot holding @p key, else the empty slot ending its probe run.
     *  Needs capacity_ > 0; the load cap guarantees an empty slot. */
    std::size_t
    probe(Addr key) const
    {
        const std::size_t mask = capacity_ - 1;
        std::size_t idx = hash(key) & mask;
        while (slots_[idx].full && slots_[idx].key != key)
            idx = (idx + 1) & mask;
        return idx;
    }

    void
    fill(Slot &s, Addr key, V value)
    {
        s.key = key;
        s.value = value;
        s.full = true;
        ++size_;
    }

    void
    reserveOne()
    {
        // Keep occupancy under 3/4 so probe runs stay short.
        if (capacity_ == 0)
            rehash(kMinCapacity);
        else if ((size_ + 1) * 4 > capacity_ * 3)
            rehash(capacity_ * 2);
    }

    void
    rehash(std::size_t new_capacity)
    {
        auto old = std::move(slots_);
        const std::size_t old_capacity = capacity_;
        slots_ = std::make_unique<Slot[]>(new_capacity);
        capacity_ = new_capacity;
        size_ = 0;
        // Insert directly (not via emplace): the capacity was chosen
        // above, and a recursive rehash mid-copy must be impossible.
        for (std::size_t i = 0; i < old_capacity; ++i) {
            if (old[i].full)
                fill(slots_[probe(old[i].key)], old[i].key, old[i].value);
        }
    }

    std::unique_ptr<Slot[]> slots_;
    std::size_t capacity_ = 0;
    std::size_t size_ = 0;
};

} // namespace emcc
