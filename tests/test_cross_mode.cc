/**
 * @file
 * Cross-mode tests: the detailed and the fast-forward modes share one
 * set of cache and counter transitions (SecureSystem::runAt is where
 * their timing splits), so the same references must leave the same
 * architectural state in both.
 *
 * Each case builds twin systems over one workload. The detailed twin is
 * driven by read()/write() with a full drain after every reference, the
 * fast-forward twin by fastForward(1). The twins are compared after
 * every round-robin step (one reference per core):
 *
 *   CrossModeExact  every cache's resident lines as (block, class,
 *       dirty), the EMCC L2 counter used flags, and the counter-design
 *       and page-mapper checkpoint sections are equal. Lines are
 *       compared as one set per cache, which is the same as per cache
 *       set: the tree-walk blocks of one miss arrive in DRAM order, so
 *       ways and LRU stamps may differ.
 *   CrossModeEmcc  every SystemStats counter agrees within 3. One EMCC
 *       miss's counter and data fills land in latency order, so exact
 *       state is out of reach there.
 *   CrossModeStaleCounter  LlcBaseline on mcf. A writeback whose
 *       counter missed both the MC cache and the LLC bumps it and
 *       invalidates its LLC copy before the walk's pre-bump LLC fill
 *       lands (ROADMAP item 4, the stale-counter window). The first
 *       divergence must be exactly that Counter line, resident only in
 *       the detailed LLC. When the window closes, this case belongs in
 *       CrossModeExact.
 *
 * FastForwardSeam pins the contract around the phase flag: fast-forward
 * leaves every timing structure alone, and neither mode can start
 * inside the other.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <iterator>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/error.hh"
#include "system/secure_system.hh"

namespace emcc {
namespace {

constexpr unsigned kCores = 2;
constexpr Count kSteps = 3000;

const WorkloadSet &
kernel(const std::string &name)
{
    static std::map<std::string, WorkloadSet> built;
    auto it = built.find(name);
    if (it == built.end()) {
        WorkloadParams p;
        p.cores = kCores;
        p.trace_len = kSteps;
        p.graph_vertices = 1 << 15;
        p.graph_degree = 8;
        p.footprint_scale = 1.0 / 32.0;
        it = built.emplace(name, buildWorkload(name, p)).first;
    }
    return it->second;
}

struct Variant
{
    const char *kernel;
    Scheme scheme;
    bool inclusive = false;
    bool dynamic_off = false;
};

std::string
variantName(const ::testing::TestParamInfo<Variant> &info)
{
    const Variant &v = info.param;
    std::string name = std::string(schemeName(v.scheme)) + "_" + v.kernel;
    if (v.inclusive)
        name += "_inclusive";
    if (v.dynamic_off)
        name += "_dynamic_off";
    std::replace(name.begin(), name.end(), '-', '_');
    return name;
}

SystemConfig
twinConfig(const Variant &v)
{
    SystemConfig cfg;
    cfg.cores = kCores;
    cfg.l1_bytes = 4_KiB;
    cfg.l2_bytes = 16_KiB;
    cfg.llc_bytes = 64_KiB;
    cfg.mc_ctr_cache_bytes = 32_KiB;
    cfg.l2_ctr_cap_bytes = 2_KiB;
    cfg.data_region_bytes = 1_GiB;
    cfg.scheme = v.scheme;
    cfg.inclusive_llc = v.inclusive;
    if (v.dynamic_off) {
        // A short window and a high bar, so EMCC really toggles off.
        cfg.dynamic_emcc_off = true;
        cfg.intensity_window = 64;
        cfg.memory_intensity_threshold = 900.0;
    }
    return cfg;
}

/** A detailed and a fast-forwarded system fed the same references. */
class Twins
{
  public:
    explicit Twins(const Variant &v)
        : ws_(kernel(v.kernel)), cfg_(twinConfig(v)),
          det_(det_sim_, cfg_, &ws_), ffw_(ffw_sim_, cfg_, &ws_)
    {}

    /** One reference per core in each twin, round-robin. */
    void
    step()
    {
        for (unsigned c = 0; c < kCores; ++c) {
            const auto &trace = ws_.per_core[c];
            const MemRef &ref = trace[pos_ % trace.size()];
            FinishCb done = det_.finishPool().make([](Tick) {});
            if (ref.is_write)
                det_.write(c, ref.vaddr, done);
            else
                det_.read(c, ref.vaddr, done);
            det_.runPhaseQuiesced(0);
        }
        ++pos_;
        ffw_.fastForward(1);
    }

    const SecureSystem &detailed() const { return det_; }
    const SecureSystem &ffwd() const { return ffw_; }

  private:
    const WorkloadSet &ws_;
    SystemConfig cfg_;
    Simulator det_sim_;
    Simulator ffw_sim_;
    SecureSystem det_;
    SecureSystem ffw_;
    std::size_t pos_ = 0;
};

using Line = std::tuple<Addr, LineClass, bool>;   // block, class, dirty

/** The resident lines of one cache's checkpoint section. */
std::vector<Line>
lines(const Checkpoint &ck, const std::string &section)
{
    // restoreState() rebuilds every column, so the smallest geometry
    // will do.
    CacheArrayConfig one_line;
    one_line.size_bytes = kBlockBytes;
    one_line.assoc = 1;
    CacheArray array(section, one_line);
    CheckpointReader r = ck.reader(section);
    array.restoreState(r);
    std::vector<Line> out;
    array.forEachValidLine(
        [&out](Addr blk, LineClass cls, bool dirty, bool) {
            out.emplace_back(blk, cls, dirty);
        });
    std::sort(out.begin(), out.end());
    return out;
}

/** The architectural state the two modes must agree on. */
struct State
{
    std::map<std::string, std::vector<Line>> caches;
    std::vector<std::vector<std::pair<Addr, bool>>> ctr_used;
    std::vector<std::uint8_t> design;
    std::vector<std::uint8_t> mapper;
};

State
capture(const SecureSystem &sys)
{
    State s;
    const Checkpoint ck = sys.saveCheckpoint();
    for (unsigned c = 0; c < kCores; ++c) {
        const std::string n = std::to_string(c);
        s.caches["l1." + n] = lines(ck, "l1." + n);
        s.caches["l2." + n] = lines(ck, "l2." + n);
        std::vector<std::pair<Addr, bool>> used;
        sys.l2CounterState(c).forEach(
            [&used](Addr a, bool u) { used.emplace_back(a, u); });
        std::sort(used.begin(), used.end());
        s.ctr_used.push_back(std::move(used));
    }
    s.caches["llc"] = lines(ck, "llc");
    s.caches["mc_ctr"] = lines(ck, "mc_ctr");
    s.design = ck.sections.at("design");
    s.mapper = ck.sections.at("mapper");
    return s;
}

/** Names of the state components that differ, comma-separated. */
std::string
differing(const State &a, const State &b)
{
    std::string out;
    auto note = [&out](const std::string &name) {
        out += (out.empty() ? "" : ",") + name;
    };
    for (const auto &[name, l] : a.caches) {
        if (l != b.caches.at(name))
            note(name);
    }
    if (a.ctr_used != b.ctr_used)
        note("l2_ctr_state");
    if (a.design != b.design)
        note("design");
    if (a.mapper != b.mapper)
        note("mapper");
    return out;
}

/** Every sys.* counter: the SystemStats counters both modes keep (the
 *  L2-miss latency, detailed-mode timing, is only a formula there). */
std::map<std::string, Count>
sysCounters(const SecureSystem &sys)
{
    std::map<std::string, Count> out;
    for (const auto &[name, value] : sys.metrics().snapshot().counters) {
        if (name.rfind("sys.", 0) == 0)
            out.emplace(name, value);
    }
    return out;
}

// ------------------------------------------------------------ exact

class CrossModeExact : public ::testing::TestWithParam<Variant>
{};

TEST_P(CrossModeExact, SameArchitecturalState)
{
    Twins t(GetParam());
    for (Count i = 0; i < kSteps; ++i) {
        t.step();
        const std::string diff =
            differing(capture(t.detailed()), capture(t.ffwd()));
        ASSERT_EQ(diff, "") << "first divergence at step " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, CrossModeExact,
    ::testing::Values(
        Variant{"BFS", Scheme::NonSecure},
        Variant{"x264", Scheme::NonSecure},
        Variant{"omnetpp", Scheme::NonSecure},
        Variant{"mcf", Scheme::NonSecure},
        Variant{"BFS", Scheme::McOnly},
        Variant{"x264", Scheme::McOnly},
        Variant{"omnetpp", Scheme::McOnly},
        Variant{"mcf", Scheme::McOnly},
        Variant{"BFS", Scheme::LlcBaseline},
        Variant{"x264", Scheme::LlcBaseline},
        Variant{"omnetpp", Scheme::LlcBaseline},
        Variant{"BFS", Scheme::LlcBaseline, /*inclusive=*/true},
        Variant{"x264", Scheme::LlcBaseline, /*inclusive=*/true},
        Variant{"omnetpp", Scheme::LlcBaseline, /*inclusive=*/true}),
    variantName);

// ------------------------------------------------------------- EMCC

class CrossModeEmcc : public ::testing::TestWithParam<Variant>
{};

TEST_P(CrossModeEmcc, StatsAgreeWithinThree)
{
    Twins t(GetParam());
    for (Count i = 0; i < kSteps; ++i) {
        t.step();
        const auto ffwd = sysCounters(t.ffwd());
        for (const auto &[name, d] : sysCounters(t.detailed())) {
            const Count w = ffwd.at(name);
            ASSERT_LE(d > w ? d - w : w - d, 3u)
                << "step " << i << ": " << name << " detailed " << d
                << ", fast-forward " << w;
        }
    }
    if (GetParam().dynamic_off) {
        EXPECT_GT(t.detailed().stats().dynamic_off_windows, 0u);
        EXPECT_GT(t.ffwd().stats().dynamic_off_windows, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Variants, CrossModeEmcc,
    ::testing::Values(
        Variant{"BFS", Scheme::Emcc},
        Variant{"x264", Scheme::Emcc},
        Variant{"omnetpp", Scheme::Emcc},
        Variant{"BFS", Scheme::Emcc, /*inclusive=*/true},
        Variant{"x264", Scheme::Emcc, /*inclusive=*/true},
        Variant{"omnetpp", Scheme::Emcc, /*inclusive=*/true},
        Variant{"BFS", Scheme::Emcc, false, /*dynamic_off=*/true},
        Variant{"x264", Scheme::Emcc, false, /*dynamic_off=*/true},
        Variant{"omnetpp", Scheme::Emcc, false, /*dynamic_off=*/true}),
    variantName);

// ------------------------------------------------- stale-counter window

TEST(CrossModeStaleCounter, FirstDivergenceIsStaleLlcCounter)
{
    Twins t(Variant{"mcf", Scheme::LlcBaseline});
    for (Count i = 0; i < kSteps; ++i) {
        t.step();
        const State d = capture(t.detailed());
        const State f = capture(t.ffwd());
        const std::string diff = differing(d, f);
        if (diff.empty())
            continue;
        ASSERT_EQ(diff, "llc") << "first divergence at step " << i;
        const auto &dl = d.caches.at("llc");
        const auto &fl = f.caches.at("llc");
        std::vector<Line> only_detailed;
        std::set_difference(dl.begin(), dl.end(), fl.begin(), fl.end(),
                            std::back_inserter(only_detailed));
        ASSERT_EQ(only_detailed.size(), 1u) << "step " << i;
        EXPECT_EQ(std::get<1>(only_detailed[0]), LineClass::Counter)
            << "step " << i;
        return;
    }
    FAIL() << "no divergence in " << kSteps << " steps: if the stale-"
              "counter window is closed, move this case into "
              "CrossModeExact";
}

// ------------------------------------------------------------- seam

/** The system RNG words: the first field of the "sys" checkpoint
 *  section, after its tag. */
std::array<std::uint64_t, 4>
rngWords(const Checkpoint &ck)
{
    CheckpointReader r = ck.reader("sys");
    r.u32();
    std::array<std::uint64_t, 4> words{};
    for (auto &w : words)
        w = r.u64();
    return words;
}

class FastForwardSeam : public ::testing::TestWithParam<Variant>
{};

// The AES pools, the NoC RNG and the event queue (DRAM requests and
// overflow jobs are events) hold timing state only the detailed mode
// may move: the phase flag gates AES submits, overflow jobs and DRAM
// writes on the shared writeback path.
TEST_P(FastForwardSeam, LeavesTimingStateAlone)
{
    Simulator sim;
    SecureSystem sys(sim, twinConfig(GetParam()), &kernel(GetParam().kernel));
    sys.runPhaseQuiesced(20'000);
    const Checkpoint before = sys.saveCheckpoint();
    const Count overflows = sys.stats().overflows;
    // Ten passes over the trace: enough writebacks to overflow counters.
    sys.fastForward(10 * kSteps);
    EXPECT_GT(sys.stats().overflows, overflows);
    EXPECT_EQ(sim.events().pending(), 0u);
    const Checkpoint after = sys.saveCheckpoint();
    EXPECT_EQ(before.sections.at("aes.mc"), after.sections.at("aes.mc"));
    for (unsigned c = 0; c < kCores; ++c) {
        const std::string name = "aes.l2." + std::to_string(c);
        EXPECT_EQ(before.sections.at(name), after.sections.at(name))
            << name;
    }
    EXPECT_EQ(rngWords(before), rngWords(after));
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, FastForwardSeam,
    ::testing::Values(Variant{"x264", Scheme::LlcBaseline},
                      Variant{"x264", Scheme::Emcc}),
    variantName);

TEST(FastForwardSeamDeathTest, RefusesPendingEvents)
{
    Simulator sim;
    const WorkloadSet &ws = kernel("x264");
    SecureSystem sys(sim, twinConfig(Variant{"x264", Scheme::Emcc}), &ws);
    // A queued fill would land after the inline ones.
    sys.read(0, ws.per_core[0][0].vaddr,
             sys.finishPool().make([](Tick) {}));
    EXPECT_DEATH(sys.fastForward(1), "events pending");
}

TEST(FastForwardSeamDeathTest, RefusesDetailedPhaseAfterAbortedFastForward)
{
    // Sixteen 4 KiB frames: fast-forward runs out of physical pages
    // and the mapper's FatalError leaves it unfinished.
    SystemConfig cfg = twinConfig(Variant{"x264", Scheme::LlcBaseline});
    cfg.page_bytes = 4_KiB;
    cfg.data_region_bytes = 64_KiB;
    Simulator sim;
    SecureSystem sys(sim, cfg, &kernel("x264"));
    EXPECT_THROW(sys.fastForward(kSteps), FatalError);
    EXPECT_DEATH(sys.runPhaseQuiesced(1'000),
                 "fast-forward still active");
}

} // namespace
} // namespace emcc
