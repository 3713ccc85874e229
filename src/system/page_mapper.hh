/**
 * @file
 * Virtual-to-physical page mapping.
 *
 * The paper runs everything under 2 MB huge pages (and discusses how
 * 4 KB pages hurt Morphable Counters because two adjacent virtual pages
 * land in far-apart physical pages). The mapper allocates a random free
 * frame in the data region on first touch, so 2 MB pages keep 8 KB
 * counter-block coverage intact while 4 KB pages scatter it — exactly
 * the effect the ablation bench measures.
 */

#pragma once

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/log.hh"
#include "common/rng.hh"
#include "common/types.hh"
#include "sim/checkpoint.hh"

namespace emcc {

/** One address space's page table. */
class PageMapper
{
  public:
    /**
     * @param page_bytes   4 KiB or 2 MiB (any power of two works)
     * @param region_bytes physical data region the frames come from
     */
    PageMapper(std::uint64_t page_bytes, std::uint64_t region_bytes,
               std::uint64_t seed)
        : page_bytes_(page_bytes), rng_(seed)
    {
        fatal_if(!isPowerOf2(page_bytes), "page size must be a power of 2");
        while ((1ull << page_shift_) < page_bytes_)
            ++page_shift_;
        num_frames_ = region_bytes / page_bytes;
        fatal_if(num_frames_ == 0, "data region smaller than one page");
        for (auto &t : tlb_tag_)
            t = kNoPage;
    }

    /** Translate; allocates a random frame on first touch. */
    Addr
    translate(Addr vaddr)
    {
        // Mappings are created once and never change, so the
        // direct-mapped TLB in front of the page table can never go
        // stale. It exists purely to keep the hash lookup off the
        // per-access fast path (sequential scans hit the same 2 MB
        // page for thousands of accesses in a row).
        //
        // The per-core address spaces sit 2^40 bytes apart, so page k
        // of every core has the same low bits; folding higher bits into
        // the slot keeps round-robin cores from evicting each other.
        const std::uint64_t vpage = vaddr.value() >> page_shift_;
        const std::size_t slot =
            (vpage ^ vpage >> 12 ^ vpage >> 24) & (kTlbEntries - 1);
        if (tlb_tag_[slot] != vpage) {
            ++tlb_misses_;
            auto it = table_.find(vpage);
            if (it == table_.end()) {
                const std::uint64_t frame = allocFrame();
                it = table_.emplace(vpage, frame).first;
            }
            tlb_tag_[slot] = vpage;
            tlb_frame_[slot] = it->second;
        }
        return Addr{(tlb_frame_[slot] << page_shift_) +
                    (vaddr.value() & (page_bytes_ - 1))};
    }

    std::size_t mappedPages() const { return table_.size(); }
    std::uint64_t pageBytes() const { return page_bytes_; }
    /** Translations that missed the TLB and went to the page table.
     *  A host-side diagnostic, deliberately not a registered metric. */
    Count tlbMisses() const { return tlb_misses_; }

    /** Serialize mappings (sorted by virtual page) + the RNG stream.
     *  The used-frame set is derivable and rebuilt on restore; the TLB
     *  is pure cache and is re-primed from the table afterwards. */
    void
    saveState(CheckpointWriter &w) const
    {
        w.tag(0x9a9e0001u);
        for (const std::uint64_t s : rng_.state())
            w.u64(s);
        std::vector<std::uint64_t> vpages;
        vpages.reserve(table_.size());
        // emcc-lint: allow(unordered-iter) — keys are sorted below
        for (const auto &[vpage, frame] : table_)
            vpages.push_back(vpage);
        std::sort(vpages.begin(), vpages.end());
        w.u64(vpages.size());
        for (const std::uint64_t vp : vpages) {
            w.u64(vp);
            w.u64(table_.at(vp));
        }
    }

    void
    restoreState(CheckpointReader &r)
    {
        r.expectTag(0x9a9e0001u);
        std::array<std::uint64_t, 4> s{};
        for (auto &word : s)
            word = r.u64();
        rng_.setState(s);
        table_.clear();
        used_.clear();
        const std::uint64_t n = r.u64();
        for (std::uint64_t i = 0; i < n; ++i) {
            const std::uint64_t vp = r.u64();
            const std::uint64_t frame = r.u64();
            table_.emplace(vp, frame);
            used_.insert(frame);
        }
        for (auto &t : tlb_tag_)
            t = kNoPage;
    }

  private:
    std::uint64_t
    allocFrame()
    {
        // Random probing against the used set; with data regions far
        // larger than any footprint, this terminates almost instantly.
        for (int probes = 0; probes < 4096; ++probes) {
            const std::uint64_t f = rng_.below(num_frames_);
            if (used_.insert(f).second)
                return f;
        }
        fatal("physical data region exhausted (%zu pages mapped)",
              table_.size());
    }

    // Sized so 10x-footprint runs (sampled mode's target) still fit:
    // 4096 slots cover 8 GB of 2 MB pages before conflict misses send
    // the fast path back to the hash table.
    static constexpr std::size_t kTlbEntries = 4096;
    static constexpr std::uint64_t kNoPage = ~std::uint64_t{0};

    std::uint64_t page_bytes_;
    unsigned page_shift_ = 0;
    std::uint64_t num_frames_;
    Rng rng_;
    std::unordered_map<std::uint64_t, std::uint64_t> table_;
    std::unordered_set<std::uint64_t> used_;
    std::uint64_t tlb_tag_[kTlbEntries];
    std::uint64_t tlb_frame_[kTlbEntries];
    Count tlb_misses_ = 0;
};

} // namespace emcc
