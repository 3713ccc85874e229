/**
 * @file
 * Counter organizations for secure memory.
 *
 * A counter design decides (1) how many 64-byte data blocks one 64-byte
 * counter block covers, (2) how per-block write counters are encoded and
 * when a write overflows the encoding (forcing re-encryption of every
 * block the counter block covers), and (3) the decode latency to extract
 * a counter from a fetched counter block.
 *
 * Three designs from the paper:
 *  - Monolithic: eight 56-bit counters per block (coverage 512 B) [1].
 *  - SC-64: split counters, one 64-bit major + 64 7-bit minors
 *    (coverage 4 KiB); a minor overflow re-encrypts the 4 KiB page [3].
 *  - Morphable: 128 blocks per counter block (coverage 8 KiB) with
 *    format-adaptive minor widths and zero-run compression; decode takes
 *    3 ns [2]. Our encodability model: a counter block can be stored if
 *    its non-zero minors fit the 448-bit payload budget at the width of
 *    the largest minor, or all 128 minors fit uniformly; otherwise the
 *    write overflows and the whole 8 KiB region is re-encrypted.
 */

#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/types.hh"
#include "sim/checkpoint.hh"

namespace emcc {

/** Which counter organization to instantiate. */
enum class CounterDesignKind
{
    Monolithic,
    Sc64,
    Morphable,
};

const char *counterDesignName(CounterDesignKind kind);

/** Result of bumping a counter on a data writeback. */
struct CounterWriteResult
{
    bool overflow = false;
    /** Number of 64-byte data blocks to re-encrypt (read+write each). */
    Count reencrypt_blocks = 0;
};

/**
 * Abstract counter design. Counter state is kept functionally (values
 * per block) so the crypto layer always has real, unique counters.
 *
 * Address mapping: data block at physical address A has its counter in
 * the counter block with index A / coverageBytes(); counter blocks are
 * laid out contiguously from a base physical address chosen by the
 * system's address map.
 */
class CounterDesign
{
  public:
    virtual ~CounterDesign() = default;

    virtual CounterDesignKind kind() const = 0;
    const char *name() const { return counterDesignName(kind()); }

    /** Data blocks covered by one 64-byte counter block. */
    virtual unsigned blocksPerCounterBlock() const = 0;

    /** Bytes of data covered by one counter block. */
    std::uint64_t
    coverageBytes() const
    {
        return static_cast<std::uint64_t>(blocksPerCounterBlock()) *
               kBlockBytes;
    }

    /** Latency to decode a counter out of a fetched counter block. */
    virtual Tick decodeLatency() const = 0;

    /** Index of the counter block covering data address @p data_addr. */
    std::uint64_t
    counterBlockIndex(Addr data_addr) const
    {
        return data_addr / coverageBytes();
    }

    /**
     * Bump the write counter for the data block at @p data_addr.
     * Detects and applies overflow (resetting minors / bumping major).
     */
    virtual CounterWriteResult bumpCounter(Addr data_addr) = 0;

    /**
     * Current counter *value* for a data block, unique per write, as the
     * cryptography input. Never reuses a value across overflows.
     */
    virtual std::uint64_t counterValue(Addr data_addr) const = 0;

    /** Total counter writes processed. */
    Count writes() const { return writes_; }

    /** Total overflows triggered. */
    Count overflows() const { return overflows_; }

    /**
     * Serialize the full functional counter state (sampled-simulation
     * checkpoints). Entries are written in sorted key order so the
     * image is deterministic; restoreState drops any existing state
     * first and rebuilds exactly what was saved.
     */
    virtual void saveState(CheckpointWriter &w) const = 0;
    virtual void restoreState(CheckpointReader &r) = 0;

    /** Factory. */
    static std::unique_ptr<CounterDesign> create(CounterDesignKind kind);

  protected:
    void saveBase(CheckpointWriter &w) const;
    void restoreBase(CheckpointReader &r);

    Count writes_ = 0;
    Count overflows_ = 0;
};

/** Monolithic 56-bit counters: eight per counter block. */
class MonolithicCounters : public CounterDesign
{
  public:
    CounterDesignKind kind() const override
    {
        return CounterDesignKind::Monolithic;
    }

    unsigned blocksPerCounterBlock() const override { return 8; }
    Tick decodeLatency() const override { return Tick{}; }

    CounterWriteResult bumpCounter(Addr data_addr) override;
    std::uint64_t counterValue(Addr data_addr) const override;

    void saveState(CheckpointWriter &w) const override;
    void restoreState(CheckpointReader &r) override;

  private:
    std::unordered_map<Addr, std::uint64_t> counters_;
};

/** SC-64 split counters: 64-bit major + 64 x 7-bit minors per block. */
class Sc64Counters : public CounterDesign
{
  public:
    CounterDesignKind kind() const override
    {
        return CounterDesignKind::Sc64;
    }

    unsigned blocksPerCounterBlock() const override { return 64; }
    Tick decodeLatency() const override { return Tick{}; }

    CounterWriteResult bumpCounter(Addr data_addr) override;
    std::uint64_t counterValue(Addr data_addr) const override;

    void saveState(CheckpointWriter &w) const override;
    void restoreState(CheckpointReader &r) override;

  private:
    /// checkpoint layout version (bumped with the inline minors)
    static constexpr std::uint32_t kCheckpointTag = 0xc0de0012u;

    /** One counter block, minors stored inline in the map node. */
    struct BlockState
    {
        std::uint64_t major = 0;
        std::array<std::uint8_t, 64> minors{};
    };

    const BlockState *stateIfPresent(std::uint64_t ctr_block) const;

    static constexpr unsigned kMinorMax = 127;   ///< 7-bit minors

    std::unordered_map<std::uint64_t, BlockState> blocks_;
};

/** Morphable Counters: 128 blocks per counter block, adaptive format. */
class MorphableCounters : public CounterDesign
{
  public:
    CounterDesignKind kind() const override
    {
        return CounterDesignKind::Morphable;
    }

    unsigned blocksPerCounterBlock() const override { return 128; }
    Tick decodeLatency() const override { return nsToTicks(3.0); }

    CounterWriteResult bumpCounter(Addr data_addr) override;
    std::uint64_t counterValue(Addr data_addr) const override;

    /** Encodability check, exposed for unit tests: can 128 minors with
     *  @p nonzero non-zero entries and maximum value @p max_minor be
     *  stored in the 448-bit payload? */
    static bool encodable(unsigned nonzero, std::uint32_t max_minor);

    void saveState(CheckpointWriter &w) const override;
    void restoreState(CheckpointReader &r) override;

  private:
    /// checkpoint layout version (bumped with the inline minors)
    static constexpr std::uint32_t kCheckpointTag = 0xc0de0013u;

    /** One counter block, minors stored inline in the map node. The
     *  widest encodable minor is 16 bits (see encodable()). */
    struct BlockState
    {
        std::uint64_t major = 0;
        std::array<std::uint16_t, 128> minors{};
        unsigned nonzero = 0;
        std::uint32_t max_minor = 0;
    };

    const BlockState *stateIfPresent(std::uint64_t ctr_block) const;

    std::unordered_map<std::uint64_t, BlockState> blocks_;
};

} // namespace emcc
