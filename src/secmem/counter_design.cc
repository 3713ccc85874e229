#include "secmem/counter_design.hh"

#include <algorithm>
#include <vector>

#include "common/log.hh"

namespace emcc {

const char *
counterDesignName(CounterDesignKind kind)
{
    switch (kind) {
      case CounterDesignKind::Monolithic: return "monolithic";
      case CounterDesignKind::Sc64: return "SC-64";
      case CounterDesignKind::Morphable: return "Morphable";
      default: return "?";
    }
}

std::unique_ptr<CounterDesign>
CounterDesign::create(CounterDesignKind kind)
{
    switch (kind) {
      case CounterDesignKind::Monolithic:
        return std::make_unique<MonolithicCounters>();
      case CounterDesignKind::Sc64:
        return std::make_unique<Sc64Counters>();
      case CounterDesignKind::Morphable:
        return std::make_unique<MorphableCounters>();
    }
    panic("unknown counter design");
}

void
CounterDesign::saveBase(CheckpointWriter &w) const
{
    w.u64(writes_);
    w.u64(overflows_);
}

void
CounterDesign::restoreBase(CheckpointReader &r)
{
    writes_ = r.u64();
    overflows_ = r.u64();
}

// ---------------------------------------------------------------- Monolithic

CounterWriteResult
MonolithicCounters::bumpCounter(Addr data_addr)
{
    ++writes_;
    ++counters_[blockAlign(data_addr)];
    // 56-bit counters never overflow in any practical simulation.
    return {};
}

std::uint64_t
MonolithicCounters::counterValue(Addr data_addr) const
{
    auto it = counters_.find(blockAlign(data_addr));
    return it == counters_.end() ? 0 : it->second;
}

void
MonolithicCounters::saveState(CheckpointWriter &w) const
{
    w.tag(0xc0de0001u);
    saveBase(w);
    std::vector<Addr> keys;
    keys.reserve(counters_.size());
    // emcc-lint: allow(unordered-iter) — keys are sorted below
    for (const auto &[addr, value] : counters_)
        keys.push_back(addr);
    std::sort(keys.begin(), keys.end());
    w.u64(keys.size());
    for (const Addr a : keys) {
        w.pod(a);
        w.u64(counters_.at(a));
    }
}

void
MonolithicCounters::restoreState(CheckpointReader &r)
{
    r.expectTag(0xc0de0001u);
    restoreBase(r);
    counters_.clear();
    const std::uint64_t n = r.u64();
    for (std::uint64_t i = 0; i < n; ++i) {
        const Addr a = r.pod<Addr>();
        counters_.emplace(a, r.u64());
    }
}

// ---------------------------------------------------------------- SC-64

const Sc64Counters::BlockState *
Sc64Counters::stateIfPresent(std::uint64_t ctr_block) const
{
    auto it = blocks_.find(ctr_block);
    return it == blocks_.end() ? nullptr : &it->second;
}

CounterWriteResult
Sc64Counters::bumpCounter(Addr data_addr)
{
    ++writes_;
    BlockState &st = blocks_[counterBlockIndex(data_addr)];
    const unsigned slot = static_cast<unsigned>(
        (data_addr / kBlockBytes) % blocksPerCounterBlock());

    if (st.minors[slot] >= kMinorMax) {
        // Minor exhausted: bump the major, reset all minors, and
        // re-encrypt every covered block under the new major.
        ++overflows_;
        ++st.major;
        st.minors.fill(0);
        st.minors[slot] = 1;
        return {true, blocksPerCounterBlock()};
    }
    ++st.minors[slot];
    return {};
}

std::uint64_t
Sc64Counters::counterValue(Addr data_addr) const
{
    const auto *st = stateIfPresent(counterBlockIndex(data_addr));
    if (!st)
        return 0;
    const unsigned slot = static_cast<unsigned>(
        (data_addr / kBlockBytes) % 64);
    return (st->major << 32) | st->minors[slot];
}

void
Sc64Counters::saveState(CheckpointWriter &w) const
{
    w.tag(kCheckpointTag);
    saveBase(w);
    std::vector<std::uint64_t> keys;
    keys.reserve(blocks_.size());
    // emcc-lint: allow(unordered-iter) — keys are sorted below
    for (const auto &[cb, st] : blocks_)
        keys.push_back(cb);
    std::sort(keys.begin(), keys.end());
    w.u64(keys.size());
    for (const std::uint64_t cb : keys) {
        const BlockState &st = blocks_.at(cb);
        w.u64(cb);
        w.u64(st.major);
        w.pod(st.minors);
    }
}

void
Sc64Counters::restoreState(CheckpointReader &r)
{
    r.expectTag(kCheckpointTag);
    restoreBase(r);
    blocks_.clear();
    const std::uint64_t n = r.u64();
    for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint64_t cb = r.u64();
        BlockState &st = blocks_[cb];
        st.major = r.u64();
        st.minors = r.pod<decltype(st.minors)>();
    }
}

// ---------------------------------------------------------------- Morphable

bool
MorphableCounters::encodable(unsigned nonzero, std::uint32_t max_minor)
{
    // Morphable's format menu, following the formats this paper cites
    // (§V: counter blocks hold "a variable and non-power-of-2 (e.g.,
    // 36, 42, 51) number of non-zero minor counters"):
    //   - uniform: all 128 minors at 3 bits;
    //   - zero-compressed: 51 x 7-bit, 42 x 8-bit, or 36 x 10-bit
    //     non-zero minors;
    //   - very sparse: up to 20 x 16-bit minors for write-hot blocks.
    if (max_minor <= 7)
        return true;
    if (nonzero <= 51 && max_minor <= 127)
        return true;
    if (nonzero <= 42 && max_minor <= 255)
        return true;
    if (nonzero <= 36 && max_minor <= 1023)
        return true;
    if (nonzero <= 20 && max_minor <= 65535)
        return true;
    return false;
}

const MorphableCounters::BlockState *
MorphableCounters::stateIfPresent(std::uint64_t ctr_block) const
{
    auto it = blocks_.find(ctr_block);
    return it == blocks_.end() ? nullptr : &it->second;
}

CounterWriteResult
MorphableCounters::bumpCounter(Addr data_addr)
{
    ++writes_;
    BlockState &st = blocks_[counterBlockIndex(data_addr)];
    const unsigned slot = static_cast<unsigned>(
        (data_addr / kBlockBytes) % blocksPerCounterBlock());

    const std::uint32_t new_val = st.minors[slot] + 1u;
    unsigned new_nonzero = st.nonzero + (st.minors[slot] == 0 ? 1 : 0);
    const std::uint32_t new_max = std::max(st.max_minor, new_val);

    if (!encodable(new_nonzero, new_max)) {
        ++overflows_;
        ++st.major;
        st.minors.fill(0);
        st.nonzero = 1;
        st.max_minor = 1;
        st.minors[slot] = 1;
        return {true, blocksPerCounterBlock()};
    }
    // encodable() caps every stored minor at 16 bits.
    st.minors[slot] = static_cast<std::uint16_t>(new_val);
    st.nonzero = new_nonzero;
    st.max_minor = new_max;
    return {};
}

std::uint64_t
MorphableCounters::counterValue(Addr data_addr) const
{
    const auto *st = stateIfPresent(counterBlockIndex(data_addr));
    if (!st)
        return 0;
    const unsigned slot = static_cast<unsigned>(
        (data_addr / kBlockBytes) % 128);
    return (st->major << 32) | st->minors[slot];
}

void
MorphableCounters::saveState(CheckpointWriter &w) const
{
    w.tag(kCheckpointTag);
    saveBase(w);
    std::vector<std::uint64_t> keys;
    keys.reserve(blocks_.size());
    // emcc-lint: allow(unordered-iter) — keys are sorted below
    for (const auto &[cb, st] : blocks_)
        keys.push_back(cb);
    std::sort(keys.begin(), keys.end());
    w.u64(keys.size());
    for (const std::uint64_t cb : keys) {
        const BlockState &st = blocks_.at(cb);
        w.u64(cb);
        w.u64(st.major);
        w.pod(st.minors);
        w.u32(st.nonzero);
        w.u32(st.max_minor);
    }
}

void
MorphableCounters::restoreState(CheckpointReader &r)
{
    r.expectTag(kCheckpointTag);
    restoreBase(r);
    blocks_.clear();
    const std::uint64_t n = r.u64();
    for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint64_t cb = r.u64();
        BlockState &st = blocks_[cb];
        st.major = r.u64();
        st.minors = r.pod<decltype(st.minors)>();
        st.nonzero = r.u32();
        st.max_minor = r.u32();
    }
}

} // namespace emcc
