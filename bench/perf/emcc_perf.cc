/**
 * @file
 * emcc_perf — the measuring program of the repo benchmark
 * (bench/perf/run.py).
 *
 * Runs one named benchmark workload in this process and prints its raw
 * host-side measurements as one JSON object on the last line of
 * stdout. Every size is pinned here (EMCC_BENCH_FAST / EMCC_BENCH_FULL
 * are ignored), so a workload name always means the same work, and the
 * same observers emcc_sim attaches by default (ledger, resource
 * monitor, critical-path analyzer) are attached to every timed run.
 *
 * Only calls into public functions are timed: buildWorkload, the
 * SecureSystem constructor, run / runSampled and fastForward, plus the
 * isolated layer replays of the traced pass. Nothing inside src/ is
 * instrumented; the traced pass records its spans here, around those
 * calls. A fixed reference loop is timed beside every set-up and run
 * so run.py can take the shared host's speed drift out of the times.
 *
 * Usage:
 *   emcc_perf --workload NAME --seed N --out DIR [--seconds T]
 *             [--setup-reps K] [--setup-seconds S] [--size-div D]
 *             [--traced]
 *
 *   --seconds T        keep starting timed runs until T host seconds of
 *                      run()/runSampled() have elapsed (at least one;
 *                      ignored by --traced)
 *   --setup-reps K     time at least K set-ups (buildWorkload + the
 *                      SecureSystem constructor) ...
 *   --setup-seconds S  ... and keep going until S seconds were spent
 *   --size-div D       divide every size by D (smoke runs)
 *   --traced           the traced pass: three rounds of a pair of runs
 *                      with the observers detached and attached
 *                      (alternating which goes first) and one
 *                      repetition of each isolated layer replay, then
 *                      one run with spans; spans go to
 *                      DIR/spans-NAME.json
 *
 * The stats JSON of the first default-observer run is written to
 * DIR/stats-NAME.json. Exit codes: 0 measured (the caller judges
 * correctness from the output), 1 simulation error, 2 bad arguments.
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "cache/mshr.hh"
#include "campaign/spec.hh"
#include "common/error.hh"
#include "common/rng.hh"
#include "core/core_model.hh"
#include "crypto/aes_pool.hh"
#include "dram/dram.hh"
#include "noc/latency_model.hh"
#include "noc/mesh.hh"
#include "obs/profile.hh"
#include "secmem/counter_design.hh"
#include "secmem/metadata_map.hh"
#include "sim/simulator.hh"
#include "system/experiment.hh"

namespace {

using namespace emcc;

/** Raised by SIGINT/SIGTERM. Attached to every run exactly as emcc_sim
 *  attaches its stop flag, so the per-event poll costs the same; an
 *  interrupted run comes back partial and counts as failed. */
std::atomic<bool> g_stop{false};

extern "C" void
onStopSignal(int)
{
    g_stop.store(true);
}

/** One benchmark workload. All use 4 cores, 2M trace references per
 *  core, Morphable counters and the Table-I configuration; why each
 *  exists is recorded in bench/perf/README.md. */
struct BenchWorkload
{
    const char *name;
    const char *kernel;          ///< buildWorkload() name
    Scheme scheme;
    double footprint_scale;
    Count warmup;                ///< detailed runs: per-core warm-up
    Count measure;               ///< detailed runs: per-core measured
    SampleSpec sample;           ///< windows > 0: a runSampled() run
};

const BenchWorkload kWorkloads[] = {
    {"bfs_emcc", "BFS", Scheme::Emcc, 1.0, 500'000, 1'200'000, {}},
    {"x264_baseline", "x264", Scheme::LlcBaseline, 1.0, 1'000'000,
     2'400'000, {}},
    {"mcf_nonsecure", "mcf", Scheme::NonSecure, 1.0, 500'000, 1'200'000,
     {}},
    {"omnetpp_sampled_10x", "omnetpp", Scheme::Emcc, 10.0, 0, 0,
     {.ffwd_refs = 100'000, .ffwd_first = 1'500'000, .windows = 4,
      .warm = 20'000, .measure = 60'000}},
};

constexpr unsigned kCores = 4;
constexpr std::size_t kTraceLen = 2'000'000;
constexpr std::uint64_t kGraphVertices = 1ull << 21;
constexpr unsigned kGraphDegree = 8;
/** Upper bound on set-up repetitions, whatever --setup-seconds says. */
constexpr unsigned kMaxSetupReps = 15;
/** Fixed fill latency of the core replay's memory stub. */
constexpr double kStubLatencyNs = 40.0;

/** A workload with every size divided by @p div (smoke runs). Graph
 *  vertex counts stay powers of two. */
BenchWorkload
scaledDown(BenchWorkload w, unsigned div)
{
    w.warmup /= div;
    w.measure /= div;
    w.sample.ffwd_first /= div;
    w.sample.ffwd_refs /= div;
    w.sample.warm /= div;
    w.sample.measure /= div;
    return w;
}

WorkloadParams
workloadParams(const BenchWorkload &w, std::uint64_t seed, unsigned div)
{
    unsigned pow2_div = 1;
    while (pow2_div * 2 <= div)
        pow2_div *= 2;
    WorkloadParams p;
    p.cores = kCores;
    p.trace_len = kTraceLen / div;
    p.graph_vertices = kGraphVertices / pow2_div;
    p.graph_degree = kGraphDegree;
    p.seed = seed;
    p.footprint_scale = w.footprint_scale;
    return p;
}

/** Detailed-mode instructions a run retires, all cores, warm-up
 *  included (the cores stop within one ROB group of each budget). */
Count
detailedInstructions(const BenchWorkload &w)
{
    if (w.sample.enabled())
        return Count{w.sample.windows} * (w.sample.warm + w.sample.measure) *
               kCores;
    return (w.warmup + w.measure) * kCores;
}

/** Functional fast-forward references per core in one run. */
Count
ffwdRefsPerCore(const BenchWorkload &w)
{
    if (!w.sample.enabled())
        return 0;
    return w.sample.ffwd_first +
           Count{w.sample.windows - 1} * w.sample.ffwd_refs;
}

/** Round-trip rendering of a double: every digit as measured. */
std::string
num(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + '"';
}

std::string
numList(const std::vector<double> &v)
{
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
        out += i ? "," : "";
        out += num(v[i]);
    }
    return out + "]";
}

bool
writeFile(const std::string &path, const std::string &text)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    const bool ok = std::fwrite(text.data(), 1, text.size(), f) ==
                    text.size();
    return std::fclose(f) == 0 && ok;
}

/** Keep a computed value alive so timed work is not elided. */
void
sink(std::uint64_t v)
{
    static volatile std::uint64_t g_sink = 0;
    g_sink = g_sink + v;
}

// ------------------------------------------------------------ spans

/**
 * Spans recorded around the outside calls of the traced pass, kept in
 * memory and written once as a Chrome trace_event file. Each span has
 * a name, start, end, parent span and run id; ids start at 1 and 0
 * means "no parent". A disabled log records nothing.
 */
class SpanLog
{
  public:
    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Open a span; returns its id (0 when disabled). */
    unsigned
    begin(const std::string &name, unsigned parent, unsigned run)
    {
        if (!enabled_)
            return 0;
        spans_.push_back({name, origin_.seconds(), -1.0, parent, run});
        return static_cast<unsigned>(spans_.size());
    }

    void
    end(unsigned id)
    {
        if (id != 0)
            spans_[id - 1].end_s = origin_.seconds();
    }

    std::string
    toJson() const
    {
        std::string out = "{\"traceEvents\":[";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            out += i ? "," : "";
            out += "{\"name\":" + quoted(s.name) +
                   ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" +
                   num(s.start_s * 1e6) +
                   ",\"dur\":" + num((s.end_s - s.start_s) * 1e6) +
                   ",\"args\":{\"id\":" + std::to_string(i + 1) +
                   ",\"parent\":" + std::to_string(s.parent) +
                   ",\"run\":" + std::to_string(s.run) +
                   ",\"end_us\":" + num(s.end_s * 1e6) + "}}";
        }
        return out + "],\"displayTimeUnit\":\"ms\"}\n";
    }

  private:
    struct Span
    {
        std::string name;
        double start_s;
        double end_s;
        unsigned parent;
        unsigned run;
    };

    bool enabled_;
    obs::HostTimer origin_;
    std::vector<Span> spans_;
};

/** RAII span: open on construction, close on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, const std::string &name, unsigned parent,
               unsigned run)
        : log_(log), id_(log.begin(name, parent, run))
    {}
    ~ScopedSpan() { log_.end(id_); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    unsigned id() const { return id_; }

  private:
    SpanLog &log_;
    unsigned id_;
};

// ------------------------------------------------------------ timed runs

std::uint64_t
xorshift(std::uint64_t &s)
{
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
}

/**
 * A fixed reference loop, timed beside the set-ups and runs. The
 * measuring host is shared and its speed drifts by tens of percent over
 * minutes; run.py divides the reported times by this loop's time, which
 * removes much of that drift. It calls nothing in src/, so no change to
 * the simulator moves it. Its halves load the two host resources whose
 * slowdowns were found to track the simulator's: core throughput (four
 * independent xorshift streams and a data-dependent branch) and L2/L3
 * (random read-modify-writes over a 4 MiB table).
 */
double
referenceLoop(std::uint64_t seed)
{
    constexpr std::size_t kWords = std::size_t{1} << 19;
    static std::vector<std::uint64_t> table(kWords, 1);
    auto body = [seed] {
        std::uint64_t a = seed | 1, b = a + 2, c = a + 4, d = a + 6;
        std::uint64_t acc = 0;
        for (int i = 0; i < 10'000'000; ++i) {
            xorshift(a);
            xorshift(b);
            xorshift(c);
            xorshift(d);
            if ((a ^ b) & 1)
                acc += c;
            else
                acc ^= d;
        }
        for (int i = 0; i < 6'000'000; ++i)
            table[xorshift(a) & (kWords - 1)] += a;
        return acc + table[b & (kWords - 1)];
    };
    // One untimed pass first: the first timed pass would otherwise also
    // pay for the cold table and predictor.
    static const std::uint64_t warm = body();
    obs::HostTimer t;
    const std::uint64_t acc = body();
    const double secs = t.seconds();
    sink(acc + warm);
    return secs;
}

/** The observers emcc_sim attaches by default, fresh for each run. */
struct Observers
{
    obs::LatencyLedger ledger;
    obs::ResourceMonitor resmon;
    obs::CritPathAnalyzer critpath;

    void
    attach(Simulator &sim)
    {
        sim.setLedger(&ledger);
        sim.setResMon(&resmon);
        sim.setCritPath(&critpath);
    }
};

struct RunOutcome
{
    double run_s = 0.0;
    std::uint64_t digest = 0;     ///< FNV-1a of the stats JSON
    bool partial = false;
    bool leaks_clean = true;
    Count max_pending = 0;        ///< sim.events.max_pending
    std::string stats_json;
};

/** One fresh Simulator + SecureSystem over @p ws, run to completion. */
RunOutcome
timedRun(const BenchWorkload &w, const SystemConfig &cfg,
         const WorkloadSet &ws, bool observers, SpanLog &spans,
         unsigned parent, unsigned run_id)
{
    RunOutcome out;
    Observers o;
    Simulator sim;
    if (observers)
        o.attach(sim);
    sim.setStopFlag(&g_stop);

    std::unique_ptr<SecureSystem> sys;
    {
        ScopedSpan span(spans, "construct", parent, run_id);
        sys = std::make_unique<SecureSystem>(sim, cfg, &ws);
    }
    {
        ScopedSpan span(spans, w.sample.enabled() ? "runSampled" : "run",
                        parent, run_id);
        obs::HostTimer t;
        if (w.sample.enabled())
            sys->runSampled(w.sample);
        else
            sys->run(w.warmup, w.measure);
        out.run_s = t.seconds();
    }
    const RunResults &r = sys->results();
    out.partial = r.partial;
    out.leaks_clean = r.leaks.clean();
    out.stats_json = r.metrics.toJson(r.partial);
    out.digest = campaign::fnv1a(out.stats_json);
    const auto it = r.metrics.counters.find("sim.events.max_pending");
    out.max_pending = it == r.metrics.counters.end() ? 0 : it->second;
    return out;
}

// ------------------------------------------------------------ replays
//
// Each replay drives one layer's public functions in isolation on an
// op stream taken from the workload's own trace (core 0), and returns
// host ns per operation. Replays that go through an event queue
// subtract the kernel's share (events executed x sim ns/event), so the
// layer shares in run.py do not count kernel dispatch twice.

/** Deltas within the kernel's timing-wheel horizon (65.5 ns), the
 *  regime in which real runs schedule nearly all their events. */
Tick
eventDelta(const MemRef &r, Tick cycle)
{
    return cycle * (r.gap + 1u) + Tick{(r.vaddr >> 6) % 64 * 1000};
}

/** A physical data address for a trace reference. */
Addr
physAddr(const MemRef &r, const SystemConfig &cfg)
{
    return blockAlign(Addr{r.vaddr % cfg.data_region_bytes});
}

double
replaySim(const std::vector<MemRef> &trace, const SystemConfig &cfg,
          std::size_t population, Count ops)
{
    EventQueue q;
    std::uint64_t fired = 0;
    std::size_t pos = 0;
    const Tick cycle = cfg.core.cyclePs();
    for (std::size_t i = 0; i < population; ++i)
        q.postIn(eventDelta(trace[pos++ % trace.size()], cycle),
                 [f = &fired] { ++*f; });
    obs::HostTimer t;
    for (Count i = 0; i < ops; ++i) {
        q.step();
        q.postIn(eventDelta(trace[pos++ % trace.size()], cycle),
                 [f = &fired] { ++*f; });
    }
    const double secs = t.seconds();
    sink(fired);
    return secs * 1e9 / static_cast<double>(ops);
}

/** Memory stub for the core replay: every access fills after a fixed
 *  latency. */
class FixedLatencyPort : public MemorySystemPort
{
  public:
    FixedLatencyPort(Simulator &sim, Tick latency)
        : sim_(sim), latency_(latency)
    {}

    FinishPool &finishPool() override { return pool_; }

    void
    read(unsigned, Addr, FinishCb done) override
    {
        const Tick fill = sim_.now() + latency_;
        sim_.post(fill, [done, fill] { done(fill); });
    }

    void
    write(unsigned, Addr, FinishCb done) override
    {
        const Tick fill = sim_.now() + latency_;
        sim_.post(fill, [done, fill] {
            if (done)
                done(fill);
        });
    }

  private:
    Simulator &sim_;
    Tick latency_;
    FinishPool pool_;
};

double
replayCore(const std::vector<MemRef> &trace, const SystemConfig &cfg,
           Count instructions, double sim_ns_per_event)
{
    Simulator sim;
    FixedLatencyPort port(sim, nsToTicks(kStubLatencyNs));
    CoreModel core(sim, "core.0", cfg.core, 0, &trace, &port);
    bool done = false;
    obs::HostTimer t;
    core.start(instructions, [&done] { done = true; });
    while (!done && sim.events().step()) {
    }
    const double secs = t.seconds();
    const double events =
        static_cast<double>(sim.events().stats().executed);
    while (sim.events().step()) {
    }
    const double self_ns =
        std::max(0.0, secs * 1e9 - events * sim_ns_per_event);
    return self_ns /
           static_cast<double>(core.stats().committed_instructions);
}

double
replayCache(const std::vector<MemRef> &trace, const SystemConfig &cfg,
            Count refs)
{
    CacheArrayConfig l2c;
    l2c.size_bytes = cfg.l2_bytes;
    l2c.assoc = cfg.l2_assoc;
    l2c.class_cap_bytes[static_cast<int>(LineClass::Counter)] =
        cfg.l2_ctr_cap_bytes;
    CacheArray c("l2", l2c);
    // Counter blocks live above the data region, one per 8 KiB
    // (Morphable coverage), as in secmem/metadata_map.hh.
    const std::uint64_t coverage = 128 * kBlockBytes;
    std::uint64_t calls = 0, hits = 0;
    obs::HostTimer t;
    for (Count i = 0; i < refs; ++i) {
        const MemRef &r = trace[i % trace.size()];
        const Addr pa = physAddr(r, cfg);
        const Addr ctr{cfg.data_region_bytes + pa / coverage * kBlockBytes};
        ++calls;
        if (c.access(pa, LineClass::Data, r.is_write)) {
            ++hits;
        } else {
            ++calls;
            hits += c.insert(pa, LineClass::Data, r.is_write).has_value();
        }
        ++calls;
        if (r.is_write) {
            hits += c.invalidate(ctr).has_value();
        } else if (!c.access(ctr, LineClass::Counter, false)) {
            ++calls;
            hits += c.insert(ctr, LineClass::Counter, false).has_value();
        }
    }
    const double secs = t.seconds();
    sink(hits);
    return secs * 1e9 / static_cast<double>(calls);
}

double
replayMshr(const std::vector<MemRef> &trace, Count refs)
{
    constexpr std::size_t kInFlight = 16;
    MshrFile m(4096);
    FinishPool pool;
    std::uint64_t fills = 0, calls = 0;
    std::vector<Addr> window(kInFlight);
    obs::HostTimer t;
    for (Count i = 0; i < refs; ++i) {
        Addr &slot = window[i % kInFlight];
        if (i >= kInFlight) {
            m.complete(slot, Tick{i});
            ++calls;
        }
        slot = trace[i % trace.size()].vaddr;
        static_cast<void>(m.allocate(
            slot, pool.make([f = &fills](Tick at) { *f += at.value() & 1; })));
        ++calls;
    }
    const double secs = t.seconds();
    for (const Addr a : window)
        m.complete(a, Tick{refs});
    sink(fills);
    return secs * 1e9 / static_cast<double>(calls);
}

double
replayNoc(const SystemConfig &cfg, std::uint64_t seed, Count samples)
{
    MeshTopology mesh;
    NocLatencyModel noc(mesh, cfg.noc);
    noc.calibrateMeanOneWay(7.5);
    Rng rng(seed);
    double sum = 0.0;
    obs::HostTimer t;
    for (Count i = 0; i < samples; ++i)
        sum += noc.sampleDeltaNs(rng);
    const double secs = t.seconds();
    sink(static_cast<std::uint64_t>(sum));
    return secs * 1e9 / static_cast<double>(samples);
}

double
replayDram(const std::vector<MemRef> &trace, const SystemConfig &cfg,
           Count requests, double sim_ns_per_event)
{
    // Short batches: the MC queue of a real run is nearly always empty
    // (res.mc_queue.queue_avg < 0.1), and a long queue would make the
    // FR-FCFS scan, not the request, dominate the replay.
    constexpr Count kBatch = 4;
    Simulator sim;
    DramMemory mem(sim, "dram", cfg.dram);
    obs::HostTimer t;
    for (Count i = 0; i < requests; ++i) {
        const MemRef &r = trace[i % trace.size()];
        DramRequest req;
        req.addr = physAddr(r, cfg);
        req.is_write = r.is_write;
        // DramMemory::enqueue, not a ResourceMonitor transition:
        // emcc-lint: allow(res-transition)
        panic_if(!mem.enqueue(req), "dram replay queue full");
        if ((i + 1) % kBatch == 0)
            sim.run();
    }
    sim.run();
    const double secs = t.seconds();
    const double events =
        static_cast<double>(sim.events().stats().executed);
    return std::max(0.0, secs * 1e9 - events * sim_ns_per_event) /
           static_cast<double>(requests);
}

double
replayCrypto(const std::vector<MemRef> &trace, const SystemConfig &cfg,
             Count refs)
{
    AesPool pool(AesPoolConfig{cfg.mcAesRate(), cfg.aes_latency});
    const Tick cycle = cfg.core.cyclePs();
    Tick now{};
    std::uint64_t acc = 0;
    obs::HostTimer t;
    for (Count i = 0; i < refs; ++i) {
        const MemRef &r = trace[i % trace.size()];
        now += cycle * (r.gap + 1u);
        // 5 AES ops decrypt + verify a read, 8 re-encrypt + MAC a write.
        acc += pool.submit(now, r.is_write ? 8 : 5).value();
    }
    const double secs = t.seconds();
    sink(acc);
    return secs * 1e9 / static_cast<double>(pool.ops());
}

double
replaySecmem(const std::vector<MemRef> &trace, const SystemConfig &cfg,
             Count refs)
{
    auto design = CounterDesign::create(cfg.design);
    MetadataMap meta(*design, cfg.data_region_bytes);
    std::uint64_t acc = 0;
    obs::HostTimer t;
    for (Count i = 0; i < refs; ++i) {
        const MemRef &r = trace[i % trace.size()];
        const Addr pa = physAddr(r, cfg);
        acc += meta.counterBlockAddr(pa).value();
        for (unsigned l = 1; l < meta.numLevels(); ++l)
            acc += meta.treeNodeAddr(l, pa).value();
        if (r.is_write)
            acc += design->bumpCounter(pa).reencrypt_blocks;
        else
            acc += design->counterValue(pa);
    }
    const double secs = t.seconds();
    sink(acc);
    return secs * 1e9 / static_cast<double>(refs);
}

/** Host ns per fast-forwarded reference on a fresh system: the same
 *  fastForward() calls a sampled run makes, or @p probe_refs per core
 *  for a detailed workload. */
double
replayFfwd(const BenchWorkload &w, const SystemConfig &cfg,
           const WorkloadSet &ws, Count probe_refs)
{
    Observers o;
    Simulator sim;
    o.attach(sim);
    SecureSystem sys(sim, cfg, &ws);
    std::vector<Count> calls;
    if (w.sample.enabled()) {
        calls.push_back(w.sample.ffwd_first);
        for (unsigned i = 1; i < w.sample.windows; ++i)
            calls.push_back(w.sample.ffwd_refs);
    } else {
        calls.push_back(probe_refs);
    }
    Count refs = 0;
    obs::HostTimer t;
    for (const Count n : calls) {
        sys.fastForward(n);
        refs += n;
    }
    const double secs = t.seconds();
    return secs * 1e9 / static_cast<double>(refs * cfg.cores);
}

// ------------------------------------------------------------ main

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    bool seed_given = false;
    std::string out_dir;
    double seconds = 0.0;
    unsigned setup_reps = 1;
    double setup_seconds = 0.0;
    unsigned size_div = 1;
    bool traced = false;
};

long long
parseInt(const std::string &opt, const char *text)
{
    char *end = nullptr;
    const long long v = std::strtoll(text, &end, 0);
    if (end == text || *end != '\0' || v < 0)
        throw ConfigError("bad value '" + std::string(text) + "' for " +
                          opt);
    return v;
}

double
parseSeconds(const std::string &opt, const char *text)
{
    char *end = nullptr;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || !(v >= 0.0))
        throw ConfigError("bad value '" + std::string(text) + "' for " +
                          opt);
    return v;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                throw ConfigError("missing value for " + arg);
            return argv[++i];
        };
        if (arg == "--workload") {
            a.workload = next();
        } else if (arg == "--seed") {
            a.seed = static_cast<std::uint64_t>(parseInt(arg, next()));
            a.seed_given = true;
        } else if (arg == "--out") {
            a.out_dir = next();
        } else if (arg == "--seconds") {
            a.seconds = parseSeconds(arg, next());
        } else if (arg == "--setup-reps") {
            a.setup_reps = static_cast<unsigned>(
                std::clamp<long long>(parseInt(arg, next()), 1,
                                      kMaxSetupReps));
        } else if (arg == "--setup-seconds") {
            a.setup_seconds = parseSeconds(arg, next());
        } else if (arg == "--size-div") {
            a.size_div = static_cast<unsigned>(
                std::clamp<long long>(parseInt(arg, next()), 1, 1000));
        } else if (arg == "--traced") {
            a.traced = true;
        } else {
            throw ConfigError("unknown argument '" + arg + "'");
        }
    }
    if (a.workload.empty() || !a.seed_given || a.out_dir.empty())
        throw ConfigError("--workload, --seed and --out are required");
    return a;
}

int
runMain(const Args &args)
{
    const BenchWorkload *found = nullptr;
    for (const BenchWorkload &w : kWorkloads) {
        if (args.workload == w.name)
            found = &w;
    }
    if (found == nullptr)
        throw ConfigError("unknown workload '" + args.workload + "'");
    const unsigned div = args.size_div;
    const BenchWorkload w = scaledDown(*found, div);
    const WorkloadParams params = workloadParams(w, args.seed, div);
    SystemConfig cfg = experiments::paperConfig(w.scheme);
    cfg.seed = args.seed;

    SpanLog spans(args.traced);
    unsigned run_id = 0;

    // The reference loop runs before every set-up and run and once at
    // the end; run.py scales the end-to-end times by its median.
    std::vector<double> build_s, construct_s, ref_s;

    // ---- one set-up: buildWorkload + the SecureSystem constructor
    auto setUp = [&]() {
        ref_s.push_back(referenceLoop(args.seed));
        ++run_id;
        ScopedSpan setup(spans, "setup", 0, run_id);
        std::unique_ptr<WorkloadSet> built;
        {
            ScopedSpan span(spans, "buildWorkload", setup.id(), run_id);
            obs::HostTimer t;
            built = std::make_unique<WorkloadSet>(
                buildWorkload(w.kernel, params));
            build_s.push_back(t.seconds());
        }
        Observers o;
        Simulator sim;
        o.attach(sim);
        {
            ScopedSpan span(spans, "construct", setup.id(), run_id);
            obs::HostTimer t;
            SecureSystem sys(sim, cfg, built.get());
            construct_s.push_back(t.seconds());
        }
        return built;
    };
    const std::unique_ptr<WorkloadSet> ws = setUp();

    // ---- timed runs with the default observers. Peak RSS is read
    // after the first run, so it is that of one set-up and one run,
    // like an emcc_sim run: repeated set-ups, and even repeated runs
    // (x264_baseline gains 7 MiB at its seventh), would make it depend
    // on how many fit in --seconds.
    SpanLog no_spans(false);
    std::vector<RunOutcome> runs;
    std::vector<RunOutcome> detached;
    std::map<std::string, std::vector<double>> replay_ns;
    rusage ru{};
    if (args.traced) {
        // Three rounds, each a pair of runs with the observers detached
        // and attached (alternating which goes first: the untraced
        // baseline and the observers' cost) followed by one repetition
        // of every layer replay, so runs and replays sample the same
        // stretch of host time.
        const std::vector<MemRef> &trace = ws->per_core.front();
        auto layer = [&](const char *name, auto fn) {
            ++run_id;
            ScopedSpan span(spans, std::string("replay.") + name, 0, run_id);
            replay_ns[name].push_back(fn());
            return replay_ns[name].back();
        };
        for (unsigned round = 0; round < 3; ++round) {
            for (unsigned side = 0; side < 2; ++side) {
                const bool attached = (side == 0) == (round % 2 == 1);
                ref_s.push_back(referenceLoop(args.seed));
                RunOutcome r = timedRun(w, cfg, *ws, attached, no_spans,
                                        0, 0);
                (attached ? runs : detached).push_back(std::move(r));
                if (runs.size() + detached.size() == 1)
                    getrusage(RUSAGE_SELF, &ru);
            }
            const std::size_t population =
                std::max<std::size_t>(runs.front().max_pending, 1);
            const double sim_ns = layer("sim", [&] {
                return replaySim(trace, cfg, population, 4'000'000 / div);
            });
            layer("core", [&] {
                return replayCore(trace, cfg, 4'000'000 / div, sim_ns);
            });
            layer("cache", [&] {
                return replayCache(trace, cfg, 2'000'000 / div);
            });
            layer("mshr", [&] { return replayMshr(trace, 2'000'000 / div); });
            layer("noc", [&] {
                return replayNoc(cfg, args.seed, 4'000'000 / div);
            });
            layer("dram", [&] {
                return replayDram(trace, cfg, 400'000 / div, sim_ns);
            });
            layer("crypto", [&] {
                return replayCrypto(trace, cfg, 2'000'000 / div);
            });
            layer("secmem", [&] {
                return replaySecmem(trace, cfg, 2'000'000 / div);
            });
            layer("ffwd", [&] {
                return replayFfwd(w, cfg, *ws, 200'000 / div);
            });
        }
    } else {
        double measured = 0.0;
        do {
            ref_s.push_back(referenceLoop(args.seed));
            runs.push_back(timedRun(w, cfg, *ws, true, no_spans, 0, 0));
            if (runs.size() == 1)
                getrusage(RUSAGE_SELF, &ru);
            measured += runs.back().run_s;
        } while (measured < args.seconds && !g_stop.load());
    }

    // ---- the remaining set-ups, each freed before the next
    double setup_total = build_s.front() + construct_s.front();
    while (build_s.size() < args.setup_reps ||
           (setup_total < args.setup_seconds &&
            build_s.size() < kMaxSetupReps)) {
        setUp();
        setup_total += build_s.back() + construct_s.back();
    }
    ref_s.push_back(referenceLoop(args.seed));

    const std::string prefix = args.out_dir + "/";
    const std::string stats_path = prefix + "stats-" + w.name + ".json";
    if (!writeFile(stats_path, runs.front().stats_json))
        throw SimError("cannot write " + stats_path);

    auto runList = [](const std::vector<RunOutcome> &v) {
        std::string out = "[";
        for (std::size_t i = 0; i < v.size(); ++i) {
            char digest[24];
            std::snprintf(digest, sizeof(digest), "%016llx",
                          static_cast<unsigned long long>(v[i].digest));
            out += (i ? "," : "");
            out += "{\"run_s\":" + num(v[i].run_s) +
                   ",\"digest\":\"" + digest + "\"" +
                   ",\"partial\":" + (v[i].partial ? "true" : "false") +
                   ",\"leaks_clean\":" +
                   (v[i].leaks_clean ? "true" : "false") + "}";
        }
        return out + "]";
    };

    std::string json = "{\"workload\":" + quoted(w.name) +
                       ",\"seed\":" + std::to_string(args.seed) +
                       ",\"size_div\":" + std::to_string(div) +
                       ",\"cores\":" + std::to_string(kCores) +
                       ",\"secure\":" +
                       (w.scheme != Scheme::NonSecure ? "true" : "false") +
                       ",\"sampled\":" +
                       (w.sample.enabled() ? "true" : "false") +
                       ",\"detailed_instructions\":" +
                       std::to_string(detailedInstructions(w)) +
                       ",\"ffwd_refs\":" +
                       std::to_string(ffwdRefsPerCore(w) * kCores) +
                       ",\"refs\":" + std::to_string(ws->totalRefs()) +
                       ",\"footprint_bytes\":" +
                       std::to_string(ws->footprint.value()) +
                       ",\"build_s\":" + numList(build_s) +
                       ",\"construct_s\":" + numList(construct_s) +
                       ",\"ref_s\":" + numList(ref_s) +
                       ",\"runs\":" + runList(runs) +
                       ",\"stats_json\":" + quoted(stats_path);

    if (args.traced) {
        // ---- one run with spans
        ++run_id;
        RunOutcome traced_run;
        {
            ScopedSpan top(spans, "traced_run", 0, run_id);
            traced_run = timedRun(w, cfg, *ws, true, spans, top.id(),
                                  run_id);
        }
        const std::string spans_path = prefix + "spans-" + w.name + ".json";
        if (!writeFile(spans_path, spans.toJson()))
            throw SimError("cannot write " + spans_path);

        json += ",\"detached_runs\":" + runList(detached) +
                ",\"traced_run\":" + runList({traced_run}) +
                ",\"replay_ns\":{";
        const char *sep = "";
        for (const auto &[name, ns] : replay_ns) {
            json += sep;
            json += quoted(name) + ":" + numList(ns);
            sep = ",";
        }
        json += "},\"spans\":" + quoted(spans_path);
    }

    json += ",\"peak_rss_kb\":" + std::to_string(ru.ru_maxrss) + "}";
    std::puts(json.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::signal(SIGINT, onStopSignal);
    std::signal(SIGTERM, onStopSignal);
    try {
        return runMain(parseArgs(argc, argv));
    } catch (const ConfigError &e) {
        std::fprintf(stderr, "emcc_perf: %s\n", e.what());
        return 2;
    } catch (const SimError &e) {
        std::fprintf(stderr, "emcc_perf: %s\n", e.what());
        return 1;
    }
}
