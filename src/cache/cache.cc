#include "cache/cache.hh"

#include "common/log.hh"
#include "common/stats.hh"
#include "obs/metrics.hh"

namespace emcc {

const char *
lineClassName(LineClass cls)
{
    switch (cls) {
      case LineClass::Data: return "data";
      case LineClass::Counter: return "counter";
      case LineClass::TreeNode: return "tree";
      default: return "?";
    }
}

Count
CacheArrayStats::hitsAll() const
{
    Count n = 0;
    for (auto h : hits)
        n += h;
    return n;
}

Count
CacheArrayStats::missesAll() const
{
    Count n = 0;
    for (auto m : misses)
        n += m;
    return n;
}

CacheArray::CacheArray(std::string name, const CacheArrayConfig &cfg)
    : name_(std::move(name)), cfg_(cfg)
{
    fatal_if(cfg_.assoc == 0, "%s: zero associativity", name_.c_str());
    fatal_if(cfg_.size_bytes % (static_cast<std::uint64_t>(cfg_.assoc) *
                                kBlockBytes) != 0,
             "%s: size not divisible by assoc * block size", name_.c_str());
    num_sets_ = static_cast<unsigned>(
        cfg_.size_bytes / (static_cast<std::uint64_t>(cfg_.assoc) *
                           kBlockBytes));
    fatal_if(num_sets_ == 0, "%s: zero sets", name_.c_str());
    sets_pow2_ = isPowerOf2(num_sets_);
    const size_t n = static_cast<size_t>(num_sets_) * cfg_.assoc;
    line_.assign(n, 0);
    last_use_.assign(n, 0);
    lru_prev_.assign(n, kNil);
    lru_next_.assign(n, kNil);
    // The class-global LRU lists exist solely to pick cap-eviction
    // victims; a class with no footprint cap never consults its list,
    // so skipping the splice work on every touch/insert/evict keeps
    // the per-access fast path free of the extra pointer chasing.
    for (int c = 0; c < static_cast<int>(LineClass::NumClasses); ++c)
        lru_tracked_[c] = cfg_.class_cap_bytes[c] != 0;
}

unsigned
CacheArray::setIndex(Addr addr) const
{
    // Power-of-two set counts (the common case) index with a mask;
    // odd sizes (e.g. the paper's 12 MB/core LLC sweep) use modulo.
    if (sets_pow2_)
        return static_cast<unsigned>(blockNumber(addr) & (num_sets_ - 1));
    return static_cast<unsigned>(blockNumber(addr) % num_sets_);
}

std::uint32_t
CacheArray::findIndex(Addr addr) const
{
    // One masked compare per way: block number and valid bit must
    // both match, so an invalid way never hits.
    const std::uint64_t key = matchKey(blockNumber(addr));
    const std::uint32_t base =
        static_cast<std::uint32_t>(setIndex(addr)) * cfg_.assoc;
    for (unsigned w = 0; w < cfg_.assoc; ++w) {
        if ((line_[base + w] & kMatchMask) == key)
            return base + w;
    }
    return kNil;
}

void
CacheArray::listAppend(LineClass cls, std::uint32_t idx)
{
    if (!lru_tracked_[static_cast<int>(cls)])
        return;
    ClassList &l = class_lru_[static_cast<int>(cls)];
    lru_prev_[idx] = l.tail;
    lru_next_[idx] = kNil;
    if (l.tail == kNil)
        l.head = idx;
    else
        lru_next_[l.tail] = idx;
    l.tail = idx;
}

void
CacheArray::listRemove(LineClass cls, std::uint32_t idx)
{
    if (!lru_tracked_[static_cast<int>(cls)])
        return;
    ClassList &l = class_lru_[static_cast<int>(cls)];
    const std::uint32_t prev = lru_prev_[idx];
    const std::uint32_t next = lru_next_[idx];
    if (prev == kNil)
        l.head = next;
    else
        lru_next_[prev] = next;
    if (next == kNil)
        l.tail = prev;
    else
        lru_prev_[next] = prev;
    lru_prev_[idx] = kNil;
    lru_next_[idx] = kNil;
}

void
CacheArray::touch(std::uint32_t idx)
{
    last_use_[idx] = ++use_clock_;
    // Splice to the MRU (tail) end of the line's class list.
    const LineClass cls = lineClass(line_[idx]);
    if (lru_tracked_[static_cast<int>(cls)] &&
        class_lru_[static_cast<int>(cls)].tail != idx) {
        listRemove(cls, idx);
        listAppend(cls, idx);
    }
}

bool
CacheArray::access(Addr addr, LineClass cls, bool is_write)
{
    const std::uint32_t idx = findIndex(addr);
    if (idx != kNil) {
        // Stats are charged to the *requested* class, not the resident
        // line's class (matters when a request type changes).
        ++stats_.hits[static_cast<int>(cls)];
        touch(idx);
        if (is_write)
            line_[idx] |= kDirty;
        return true;
    }
    ++stats_.misses[static_cast<int>(cls)];
    return false;
}

bool
CacheArray::contains(Addr addr) const
{
    return findIndex(addr) != kNil;
}

std::optional<LineClass>
CacheArray::residentClass(Addr addr) const
{
    const std::uint32_t idx = findIndex(addr);
    if (idx == kNil)
        return std::nullopt;
    return lineClass(line_[idx]);
}

std::uint32_t
CacheArray::victimWay(unsigned set) const
{
    // Invalid lines hold stamp 0 and valid stamps are unique and >= 1,
    // so the argmin (ties to the lowest way) is the first invalid way
    // if there is one, else the LRU way.
    const std::uint32_t base = static_cast<std::uint32_t>(set) * cfg_.assoc;
    std::uint32_t victim = base;
    for (unsigned w = 1; w < cfg_.assoc; ++w) {
        if (last_use_[base + w] < last_use_[victim])
            victim = base + w;
    }
    return victim;
}

void
CacheArray::dropLine(std::uint32_t idx)
{
    const LineClass cls = lineClass(line_[idx]);
    --class_count_[static_cast<int>(cls)];
    listRemove(cls, idx);
    // NB: the flag bit deliberately survives invalidation; the
    // hierarchy layer sets it on every insert it cares about. Pinned
    // by the differential harness against legacy_cache.hh.
    line_[idx] &= kFlag;
    last_use_[idx] = 0;
}

void
CacheArray::evictLine(std::uint32_t idx, std::optional<Victim> &victim_out)
{
    const std::uint64_t line = line_[idx];
    const LineClass cls = lineClass(line);
    const bool dirty = (line & kDirty) != 0;
    victim_out = Victim{blockBase(BlockNum{line >> kBlkShift}), cls, dirty};
    ++stats_.evictions[static_cast<int>(cls)];
    if (dirty)
        ++stats_.dirty_evictions[static_cast<int>(cls)];
    dropLine(idx);
}

std::optional<Victim>
CacheArray::insert(Addr addr, LineClass cls, bool dirty)
{
    const BlockNum blk = blockNumber(addr);
    panic_if(blk.value() >> (64 - kBlkShift) != 0,
             "%s: address 0x%llx beyond the packed-tag range",
             name_.c_str(), static_cast<unsigned long long>(addr.value()));
    std::optional<Victim> victim;

    if (const std::uint32_t idx = findIndex(addr); idx != kNil) {
        // Already resident: refresh. A class change (shouldn't normally
        // happen) re-files the line under the new class — and must
        // still honor the new class's footprint cap.
        const LineClass old = lineClass(line_[idx]);
        if (old != cls) {
            --class_count_[static_cast<int>(old)];
            listRemove(old, idx);
            line_[idx] = (line_[idx] & ~kClsMask) | clsBits(cls);
            ++class_count_[static_cast<int>(cls)];
            listAppend(cls, idx);
            const auto cap = cfg_.class_cap_bytes[static_cast<int>(cls)];
            // Evict the class LRU (never the just-refiled line, which
            // sits at the MRU end).
            if (cap != 0 &&
                class_count_[static_cast<int>(cls)] > cap / kBlockBytes)
                evictLine(class_lru_[static_cast<int>(cls)].head, victim);
        }
        touch(idx);
        if (dirty)
            line_[idx] |= kDirty;
        return victim;
    }

    ++stats_.inserts[static_cast<int>(cls)];

    // Enforce the per-class footprint cap by evicting the class-global
    // LRU line before allocating.
    const Count cap_blocks =
        cfg_.class_cap_bytes[static_cast<int>(cls)] / kBlockBytes;
    if (cap_blocks > 0 && class_count_[static_cast<int>(cls)] >= cap_blocks) {
        const std::uint32_t lru = class_lru_[static_cast<int>(cls)].head;
        if (lru != kNil)
            evictLine(lru, victim);
    }

    // Picked after the cap eviction, so a way it freed in this set
    // is preferred like any other invalid way.
    const std::uint32_t way = victimWay(setIndex(addr));
    if (line_[way] & kValid) {
        // If both a cap eviction and a set eviction happened, the cap
        // eviction was already folded into stats; the caller gets one
        // victim, and to avoid losing a dirty writeback it prefers a
        // dirty one.
        std::optional<Victim> set_victim;
        evictLine(way, set_victim);
        if (!victim || (!victim->dirty && set_victim->dirty))
            victim = set_victim;
    }

    line_[way] = matchKey(blk) | clsBits(cls) | (dirty ? kDirty : 0) |
                 (line_[way] & kFlag);
    last_use_[way] = ++use_clock_;
    listAppend(cls, way);
    ++class_count_[static_cast<int>(cls)];
    return victim;
}

std::optional<bool>
CacheArray::invalidate(Addr addr)
{
    const std::uint32_t idx = findIndex(addr);
    if (idx == kNil)
        return std::nullopt;
    const bool was_dirty = (line_[idx] & kDirty) != 0;
    ++stats_.invalidations[static_cast<int>(lineClass(line_[idx]))];
    dropLine(idx);
    return was_dirty;
}

void
CacheArray::markClean(Addr addr)
{
    const std::uint32_t idx = findIndex(addr);
    if (idx != kNil)
        line_[idx] &= ~kDirty;
}

void
CacheArray::setFlag(Addr addr, bool value)
{
    const std::uint32_t idx = findIndex(addr);
    if (idx != kNil)
        line_[idx] = value ? line_[idx] | kFlag : line_[idx] & ~kFlag;
}

bool
CacheArray::getFlag(Addr addr) const
{
    const std::uint32_t idx = findIndex(addr);
    return idx != kNil && (line_[idx] & kFlag) != 0;
}

void
CacheArray::registerMetrics(obs::MetricsRegistry &reg,
                            const std::string &prefix) const
{
    // Short per-class metric stems: "data", "ctr", "tree" — matching
    // the paper's counter-cache vocabulary (and the ISSUE's
    // "l2.0.ctr_hits" naming example).
    static const char *const stems[] = {"data", "ctr", "tree"};
    static_assert(static_cast<int>(LineClass::NumClasses) == 3);
    for (int c = 0; c < static_cast<int>(LineClass::NumClasses); ++c) {
        const std::string base = prefix + '.' + stems[c] + '_';
        reg.addCounter(base + "hits", &stats_.hits[c]);
        reg.addCounter(base + "misses", &stats_.misses[c]);
        reg.addCounter(base + "inserts", &stats_.inserts[c]);
        reg.addCounter(base + "evictions", &stats_.evictions[c]);
        reg.addCounter(base + "dirty_evictions", &stats_.dirty_evictions[c]);
        reg.addCounter(base + "invalidations", &stats_.invalidations[c]);
        reg.addGauge(base + "resident", [this, c] {
            return static_cast<double>(class_count_[c]);
        });
    }
    reg.addFormula(prefix + ".miss_rate", [this] {
        return safeRatio(static_cast<double>(stats_.missesAll()),
                         static_cast<double>(stats_.hitsAll() +
                                             stats_.missesAll()));
    });
}

void
CacheArray::flushAll()
{
    const std::uint32_t n = static_cast<std::uint32_t>(line_.size());
    for (std::uint32_t idx = 0; idx < n; ++idx) {
        if (line_[idx] & kValid)
            dropLine(idx);
    }
}

} // namespace emcc
