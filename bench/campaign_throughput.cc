/**
 * @file
 * Campaign engine throughput: shard one grid of short SecureSystem runs
 * across 1 worker thread, then across every hardware thread, and report
 * runs/sec plus the parallel speedup. The run list is identical in both
 * configurations and each run is an independent simulation over a shared
 * read-only workload, so the speedup isolates the engine's sharding +
 * journaling overhead from simulation cost.
 *
 * The speedup column is a same-machine ratio, so the gate on it
 * (tests/check_campaign_bench.py) is host-independent: on an 8-thread
 * host it enforces the >= 6x acceptance floor; on smaller hosts it
 * scales down to 0.7x per thread, and a 1-thread host only checks that
 * the engine does not slow a serial campaign down.
 *
 * Scale: EMCC_BENCH_FAST=1 shrinks the grid for smoke/ctest runs;
 * EMCC_BENCH_FULL=1 grows it for stable numbers. Results also land in
 * $EMCC_BENCH_JSON/BENCH_campaign.json (default ".").
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "campaign/engine.hh"
#include "campaign/spec.hh"
#include "common/table.hh"

using namespace emcc;
using namespace emcc::campaign;

namespace {

std::string
gridSpecJson(unsigned seeds)
{
    std::string doc =
        "{\"schema\":\"emcc-campaign-spec-v1\",\"name\":\"throughput\","
        "\"deadline_s\":300,\"retries\":0,\"grid\":{"
        "\"workload\":[\"BFS\"],\"scheme\":[\"emcc\"],\"seed\":[";
    for (unsigned s = 1; s <= seeds; ++s) {
        if (s > 1)
            doc += ',';
        doc += std::to_string(s);
    }
    // Each run (~0.1 s) must dwarf the engine's monitor scan period
    // (kMonitorScanPeriodS, 20 ms): at a few ms per run, both rows
    // finish within one scan and the speedup measures the monitor's
    // sleep instead of the sharding. The trace is shorter than the
    // run and wraps, which keeps the cached workloads small.
    doc += "],\"cores\":2,\"warmup\":100000,\"measure\":300000,"
           "\"trace_len\":200000,\"graph_vertices\":1024}}";
    return doc;
}

double
runOnce(const CampaignSpec &spec, unsigned jobs, const std::string &dir)
{
    EngineOptions o;
    o.jobs = jobs;
    o.journal_path = dir + "/campaign_tput_j" + std::to_string(jobs) +
                     ".jsonl";
    o.resume = false;
    o.fsync_journal = false;
    o.quiet = true;
    CampaignEngine engine(spec, o);
    const CampaignSummary sum = engine.run();
    if (!sum.complete() || sum.ok != sum.total) {
        std::fprintf(stderr,
                     "campaign_throughput: jobs=%u campaign not clean "
                     "(ok %llu / total %llu)\n",
                     jobs, static_cast<unsigned long long>(sum.ok),
                     static_cast<unsigned long long>(sum.total));
        std::exit(1);
    }
    std::remove(o.journal_path.c_str());
    return sum.host_seconds;
}

} // namespace

int
main()
{
    if (std::getenv("EMCC_BENCH_JSON") == nullptr)
        setenv("EMCC_BENCH_JSON", ".", /*overwrite=*/0);
    const std::string dir = std::getenv("EMCC_BENCH_JSON");

    unsigned seeds = 24;
    if (std::getenv("EMCC_BENCH_FAST"))
        seeds = 8;
    else if (std::getenv("EMCC_BENCH_FULL"))
        seeds = 64;

    const unsigned hw = std::thread::hardware_concurrency();
    std::vector<unsigned> job_counts{1};
    if (hw > 1)
        job_counts.push_back(hw);

    const CampaignSpec spec = CampaignSpec::parse(gridSpecJson(seeds));

    Table t({"jobs", "runs", "host_s", "runs_per_s", "speedup"});
    double serial_s = 0.0;
    for (const unsigned jobs : job_counts) {
        // One throwaway pass warms the workload cache so the serial
        // row does not pay the one-time graph build the parallel row
        // then gets for free.
        if (jobs == job_counts.front())
            runOnce(spec, jobs, dir);
        const double host_s = runOnce(spec, jobs, dir);
        if (jobs == 1)
            serial_s = host_s;
        const double speedup = host_s > 0.0 ? serial_s / host_s : 0.0;
        t.addRow({std::to_string(jobs), std::to_string(seeds),
                  Table::num(host_s, 3),
                  Table::num(host_s > 0.0 ? seeds / host_s : 0.0, 2),
                  Table::num(speedup, 2)});
    }

    benchutil::report("BENCH_campaign", t);
    return 0;
}
