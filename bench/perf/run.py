#!/usr/bin/env python3
"""The repo benchmark: build bench/perf/emcc_perf, run the benchmark
workloads, check their outputs and print every metric by name with its
unit.

Workload and metric names, units and bounds come from BENCHMARK.json at
the repo root; bench/perf/README.md defines every metric and says why
each workload exists. emcc_perf is built into build/perf, and its
outputs (stats dumps, span files, result JSON) go to build/perf/out.

Usage, from the repo root:

  python3 bench/perf/run.py [--reps N] [--seed N] [--json PATH]
      Full run: N rounds (default 5), each starting one fresh emcc_perf
      process per workload, round-robin, one simulation at a time; then
      the traced pass, one process per workload. Prints
      `workload metric value unit` rows (end-to-end rows add quartiles
      and the sample count) and writes the result JSON (default
      build/perf/out/result.json). Exits 1 if any run failed.

  python3 bench/perf/run.py --workload W --seed N --seconds T --trace 0|1
      One workload in one process, timed runs for T seconds. The last
      stdout line is {"correct", "attempted", "failed", "metrics"} with
      the end-to-end metrics (--trace 0) or the per-layer ones
      (--trace 1).

  python3 bench/perf/run.py --smoke
      Every workload at 1/20 size, one round plus the traced pass, then
      self-checks: the result carries exactly the names in
      BENCHMARK.json, and --compare calls a copy with run_s x 1.25
      `worse` and an identical copy `unchanged`.

  python3 bench/perf/run.py --compare BASE.json HEAD.json
      One row per workload x end-to-end metric: both medians and
      quartiles, a verdict (improved / unchanged / worse / unresolved)
      and whether the simulated-stats digests are identical. Exits 1 if
      any row is `worse`.

  python3 bench/perf/run.py --append-trajectory
      Full run, then one row appended to bench/perf/trajectory.jsonl.
"""

import argparse
import copy
import datetime
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build", "perf")
OUT = os.path.join(BUILD, "out")
EMCC_PERF = os.path.join(BUILD, "emcc_perf")
TRAJECTORY = os.path.join(HERE, "trajectory.jsonl")

SMOKE_DIV = 20
SMOKE_LIMIT_S = 60
# One --workload invocation must end within 180 s of its start once
# emcc_perf is built; leave a margin for start-up and the output checks.
DEADLINE_S = 165
# Set-up is repeated within one --workload invocation and its median
# reported: at least this many times, and until this much time passed.
SETUP_REPS = 3
SETUP_SECONDS = 2.0
# Median time of emcc_perf's reference loop on the development host
# (Intel Xeon, 4 vCPUs, GCC 12) at its quiet times. Scaling by it keeps
# the end-to-end times in seconds of that host.
REFERENCE_LOOP_S = 0.050


class BenchError(Exception):
    """A failure that leaves no result to report."""


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


# ---------------------------------------------------------------- build

def build():
    """Configure once and build emcc_perf into build/perf."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("simulator sources src/ not found beside "
                         "bench/perf; run from a full checkout")
    os.makedirs(OUT, exist_ok=True)
    cmds = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmds.append(["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"] + gen)
    cmds.append(["cmake", "--build", BUILD, "--target", "emcc_perf",
                 "-j", str(min(4, os.cpu_count() or 1))])
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "a") as log:
        for cmd in cmds:
            if subprocess.run(cmd, stdout=log,
                              stderr=subprocess.STDOUT).returncode != 0:
                raise BenchError(f"build failed ({' '.join(cmd)}); "
                                 f"see {log_path}")


def drive(workload, seed, deadline=None, seconds=0.0, setup_reps=1,
          setup_seconds=0.0, size_div=1, traced=False):
    """Run emcc_perf once and return its JSON output."""
    cmd = [EMCC_PERF, "--workload", workload, "--seed", str(seed),
           "--out", OUT, "--seconds", repr(float(seconds)),
           "--setup-reps", str(setup_reps),
           "--setup-seconds", repr(float(setup_seconds)),
           "--size-div", str(size_div)]
    if traced:
        cmd.append("--traced")
    timeout = None
    if deadline is not None:
        timeout = deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError(f"{workload}: no time left")
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True,
                           timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: emcc_perf timed out") from None
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise BenchError(f"{workload}: emcc_perf exited {p.returncode}: "
                         f"{p.stderr.strip()[-800:]}")
    return json.loads(lines[-1])


# ---------------------------------------------------------------- checks

def counter_sum(counters, pattern):
    rx = re.compile(pattern)
    return sum(v for k, v in counters.items() if rx.fullmatch(k))


def check(raw, ref_digest=None):
    """Count the failed runs in one emcc_perf output.

    A run fails if it is partial, its leak check is unclean, or the
    digest of its stats JSON differs from the reference: the first
    default-observer run (or @p ref_digest, to compare across
    processes). Observer-free runs must agree among themselves. The
    dumped stats JSON must pass tests/check_stats.py and the scheme
    invariants; if not, the run it came from fails.

    Returns (attempted, failed, problems).
    """
    ref = ref_digest or raw["runs"][0]["digest"]
    detached = raw.get("detached_runs", [])
    groups = [(raw["runs"] + raw.get("traced_run", []), ref)]
    if detached:
        groups.append((detached, detached[0]["digest"]))
    attempted, problems, failed_runs = 0, [], []
    for runs, want in groups:
        for r in runs:
            attempted += 1
            bad = [why for why, hit in (
                ("partial", r["partial"]),
                ("leak check not clean", not r["leaks_clean"]),
                (f"stats digest {r['digest']} != {want}",
                 r["digest"] != want)) if hit]
            if bad:
                failed_runs.append(r)
                problems.append(f"{raw['workload']}: " + ", ".join(bad))

    stats_problems = []
    chk = subprocess.run([sys.executable,
                          os.path.join(ROOT, "tests", "check_stats.py"),
                          raw["stats_json"]],
                         stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                         text=True)
    if chk.returncode != 0:
        stats_problems.append(chk.stdout.strip())
    else:
        with open(raw["stats_json"]) as f:
            counters = json.load(f)["counters"]
        crypto_ops = counter_sum(counters, r"crypto\..*\.ops")
        if raw["secure"] != (crypto_ops > 0):
            scheme = "secure" if raw["secure"] else "non-secure"
            stats_problems.append(f"{crypto_ops} AES ops under a {scheme} "
                                  "scheme")
        if counter_sum(counters, r"cores\.\d+\.committed") == 0:
            stats_problems.append("no instructions committed")
    if stats_problems:
        if not any(r is raw["runs"][0] for r in failed_runs):
            failed_runs.append(raw["runs"][0])
        problems += [f"{raw['workload']}: {p}" for p in stats_problems]
    return attempted, len(failed_runs), problems


# ---------------------------------------------------------------- metrics

def median(v):
    return statistics.median(v)


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], q[2]


def host_speed(raw):
    """How fast the host ran during one emcc_perf process, relative to
    the quiet development host: REFERENCE_LOOP_S over the median time
    of the reference loop timed beside each set-up and run."""
    return REFERENCE_LOOP_S / median(raw["ref_s"])


def e2e_samples(raw):
    """Samples of each end-to-end metric in one emcc_perf output. Times
    are host seconds scaled by host_speed(), i.e. seconds on the quiet
    development host; see README "Host drift"."""
    speed = host_speed(raw)
    run_s = [r["run_s"] * speed for r in raw["runs"]]
    return {
        "run_s": run_s,
        "setup_s": [(b + c) * speed for b, c in zip(raw["build_s"],
                                                    raw["construct_s"])],
        "kips": [raw["detailed_instructions"] / s / 1e3 for s in run_s],
        "peak_rss_mb": [raw["peak_rss_kb"] / 1024.0],
    }


def ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(raw):
    """Per-layer metrics of one traced emcc_perf output.

    Counts come from the stats JSON of the run. The registry counts the
    measured phase only (in sampled mode, the final window's), except
    sim.events.*, which cover the whole run; shares therefore scale the
    other counts by detailed instructions / measured instructions.
    """
    with open(raw["stats_json"]) as f:
        stats = json.load(f)
    c, g, fm = stats["counters"], stats["gauges"], stats["formulas"]
    rounds = raw["replay_ns"]
    ns = {k: median(v) for k, v in rounds.items()}
    attached = [r["run_s"] for r in raw["runs"]]
    run_s = median(attached)
    measured = counter_sum(c, r"cores\.\d+\.committed")
    scale = ratio(raw["detailed_instructions"], measured)

    def share(*terms, scaled=True):
        """Median over the rounds of sum(ops x ns/op) / run_s, each
        round's replays against the same round's attached run, so host
        drift between rounds cancels. terms: (ops, replay name)."""
        k = (scale if scaled else 1.0) * 1e-9
        return median([k * sum(ops * rounds[name][i] for ops, name in terms)
                       / run for i, run in enumerate(attached)])

    def miss_rate(cache):
        misses = counter_sum(c, cache + r"\.(data|ctr|tree)_misses")
        hits = counter_sum(c, cache + r"\.(data|ctr|tree)_hits")
        return ratio(misses, hits + misses)

    m = {}
    events = c["sim.events.executed"]
    m["sim.events"] = events
    m["sim.events_per_kinstr"] = ratio(events,
                                       raw["detailed_instructions"] / 1e3)
    m["sim.cancel_frac"] = ratio(c["sim.events.cancelled"],
                                 c["sim.events.scheduled"])
    m["sim.mev_per_s"] = events / run_s / 1e6
    m["sim.ns_per_event"] = ns["sim"]
    m["sim.share"] = share((events, "sim"), scaled=False)

    m["core.instructions"] = measured
    m["core.ipc"] = (fm["sample.ipc.mean"] if raw["sampled"] else
                     sum(v for k, v in fm.items()
                         if re.fullmatch(r"cores\.\d+\.ipc", k)))
    m["core.ns_per_instr"] = ns["core"]
    m["core.share"] = share((raw["detailed_instructions"], "core"),
                            scaled=False)

    caches = r"(l1\.\d+|l2\.\d+|llc|mc_ctr)"
    cache_ops = counter_sum(
        c, caches + r"\.(data|ctr|tree)_(hits|misses|inserts|invalidations)")
    mshr_ops = 2 * counter_sum(c, r"(l1|l2)\.\d+\.(data|ctr|tree)_misses")
    m["cache.ops"] = cache_ops
    m["cache.l2_miss_rate"] = miss_rate(r"l2\.\d+")
    m["cache.llc_miss_rate"] = miss_rate("llc")
    m["cache.mc_ctr_miss_rate"] = miss_rate("mc_ctr")
    m["cache.ns_per_op"] = ns["cache"]
    m["cache.mshr_ns_per_op"] = ns["mshr"]
    m["cache.share"] = share((cache_ops, "cache"), (mshr_ops, "mshr"))

    m["noc.samples"] = c["noc.samples"]
    m["noc.mean_hops"] = fm["noc.mean_hops"]
    m["noc.ns_per_op"] = ns["noc"]
    m["noc.share"] = share((c["noc.samples"], "noc"))

    dram_reqs = counter_sum(c, r"dram\.ch\d+\.(rd|wr)_\w+")
    rows = [counter_sum(c, rf"dram\.ch\d+\.row_{k}")
            for k in ("hits", "misses", "conflicts")]
    bus = [v for k, v in fm.items()
           if re.fullmatch(r"res\.dram\.ch\d+\.bus\.util", k)]
    m["dram.requests"] = dram_reqs
    m["dram.row_hit_rate"] = ratio(rows[0], sum(rows))
    m["dram.bus_util"] = ratio(sum(bus), len(bus))
    m["dram.retries"] = counter_sum(c, r"dram\.ch\d+\.retries")
    m["dram.ns_per_req"] = ns["dram"]
    m["dram.share"] = share((dram_reqs, "dram"))

    aes_ops = counter_sum(c, r"crypto\..*\.ops")
    qdelay = sum(v for k, v in g.items()
                 if re.fullmatch(r"crypto\..*\.total_queue_delay_ns", k))
    m["crypto.ops"] = aes_ops
    m["crypto.l2_frac"] = ratio(counter_sum(c, r"crypto\.l2\.\d+\.ops"),
                                aes_ops)
    m["crypto.queue_delay_ns"] = ratio(qdelay, aes_ops)
    m["crypto.ns_per_op"] = ns["crypto"]
    m["crypto.share"] = share((aes_ops, "crypto"))

    # Under a secure scheme every data writeback reaching the MC bumps
    # one counter (mcHandleWriteback), and every LLC data miss looks
    # one up; a non-secure MC does neither.
    bumps = counter_sum(c, r"dram\.ch\d+\.wr_data") if raw["secure"] else 0
    lookups = c["sys.llc_data_misses"] if raw["secure"] else 0
    ctr_hits = (c["sys.mc_ctr_hits"] + c["sys.llc_ctr_hits"] +
                c["sys.emcc_l2_ctr_hits"])
    emcc_fetches = c["sys.emcc_ctr_accesses_to_llc"]
    m["secmem.ctr_bumps"] = bumps
    m["secmem.overflows"] = c["sys.overflows"]
    m["secmem.ctr_hit_rate"] = ratio(ctr_hits,
                                     ctr_hits + c["sys.llc_ctr_misses"])
    m["secmem.useful_ctr_frac"] = (
        1.0 - c["sys.useless_ctr_accesses"] / emcc_fetches
        if emcc_fetches else 0.0)
    m["secmem.ns_per_op"] = ns["secmem"]
    m["secmem.share"] = share((bumps + lookups, "secmem"))

    detached = median([r["run_s"] for r in raw["detached_runs"]])
    m["obs.miss_records"] = c.get("lat.l2miss.records", 0)
    m["obs.res_ops"] = counter_sum(c, r"res\..*\.ops")
    m["obs.overhead_frac"] = 1.0 - detached / run_s

    m["system.l2_miss_ns"] = (fm["sample.l2_miss_ns.mean"] if raw["sampled"]
                              else fm["sys.l2_miss_latency_avg_ns"])
    m["system.ffwd_refs"] = raw["ffwd_refs"]
    m["system.ffwd_ns_per_ref"] = ns["ffwd"]
    m["system.ffwd_share"] = share((raw["ffwd_refs"], "ffwd"),
                                   scaled=False)
    m["system.residual_share"] = 1.0 - sum(
        v for k, v in m.items() if k.endswith("share"))

    m["workloads.build_s"] = median(raw["build_s"])
    m["workloads.refs"] = raw["refs"]
    m["workloads.footprint_mb"] = raw["footprint_bytes"] / 2**20

    m["bench.trace_overhead_frac"] = (
        raw["traced_run"][0]["run_s"] / run_s - 1.0)
    return m


def named(values, defs):
    """{name: {"value", "unit"}} in BENCHMARK.json order; the computed
    names must be exactly the defined ones."""
    want = [d["name"] for d in defs]
    if sorted(values) != sorted(want):
        raise BenchError(f"metric names {sorted(values)} != "
                         f"BENCHMARK.json {sorted(want)}")
    return {d["name"]: {"value": values[d["name"]], "unit": d["unit"]}
            for d in defs}


def print_row(workload, name, value, unit, extra=""):
    print(f"{workload:<20} {name:<26} {value:>16.6g} {unit:<14}{extra}")


# ---------------------------------------------------------------- modes

def run_one(args, spec):
    """One workload for --seconds, ending in the one-line JSON result."""
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise BenchError(f"unknown workload '{args.workload}'")
    build()
    deadline = time.monotonic() + DEADLINE_S
    raw = drive(args.workload, args.seed, deadline, seconds=args.seconds,
                setup_reps=SETUP_REPS, setup_seconds=SETUP_SECONDS,
                traced=bool(args.trace))
    attempted, failed, problems = check(raw)
    if args.trace:
        metrics = named(layer_metrics(raw), spec["per_layer"])
    else:
        metrics = named({k: median(v) for k, v in e2e_samples(raw).items()},
                        spec["end_to_end"])
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    print_row(args.workload, "host_speed", host_speed(raw), "ratio")
    for name, m in metrics.items():
        print_row(args.workload, name, m["value"], m["unit"])
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_full(spec, seed, reps, size_div, json_path):
    """Round-robin reps of every workload, then the traced pass."""
    build()
    names = [w["name"] for w in spec["workloads"]]
    raws = {w: [] for w in names}
    for _ in range(reps):
        for w in names:
            raws[w].append(drive(w, seed, size_div=size_div))
    traced = {w: drive(w, seed, size_div=size_div, traced=True)
              for w in names}

    result = {"schema": "emcc-perf-result-v1", "seed": seed, "reps": reps,
              "size_div": size_div, "commit": commit(),
              "date": datetime.datetime.now(datetime.timezone.utc)
                      .strftime("%Y-%m-%dT%H:%M:%SZ"),
              "host": host_info(), "workloads": {}}
    e2e_defs = {d["name"]: d for d in spec["end_to_end"]}
    all_ok = True
    for w in names:
        ref = raws[w][0]["runs"][0]["digest"]
        attempted = failed = 0
        for raw in raws[w] + [traced[w]]:
            a, f, problems = check(raw, ref)
            attempted, failed = attempted + a, failed + f
            for p in problems:
                print(f"FAIL {p}", file=sys.stderr)
        samples = {k: [] for k in e2e_defs}
        for raw in raws[w]:
            for k, v in e2e_samples(raw).items():
                samples[k] += v
        named(samples, spec["end_to_end"])
        per_layer = {k: m["value"] for k, m in
                     named(layer_metrics(traced[w]), spec["per_layer"])
                     .items()}
        speeds = [host_speed(raw) for raw in raws[w]]
        result["workloads"][w] = {
            "e2e": samples, "per_layer": per_layer, "digest": ref,
            "host_speed": speeds, "attempted": attempted, "failed": failed,
            "fail_frac": failed / attempted}
        all_ok = all_ok and failed == 0

        print_row(w, "host_speed", median(speeds), "ratio",
                  f" min={min(speeds):.6g} max={max(speeds):.6g}")
        for k, d in e2e_defs.items():
            q1, q3 = quartiles(samples[k])
            print_row(w, k, median(samples[k]), d["unit"],
                      f" q1={q1:.6g} q3={q3:.6g} n={len(samples[k])}")
        print_row(w, "fail_frac", failed / attempted, "ratio",
                  f" ({failed}/{attempted} runs)")
        for d in spec["per_layer"]:
            print_row(w, d["name"], per_layer[d["name"]], d["unit"])

    os.makedirs(os.path.dirname(os.path.abspath(json_path)), exist_ok=True)
    with open(json_path, "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
    print(f"wrote {json_path}")
    return result, all_ok


def verdict(base, head, better, bound):
    """`unresolved` when either side's spread (IQR over median) exceeds
    the bound, unless every head run beats every base run by more than
    the base spread; else `worse` / `improved` beyond the bound."""
    sign = 1.0 if better == "lower" else -1.0
    mb, mh = median(base), median(head)
    spread = max((quartiles(v)[1] - quartiles(v)[0]) / median(v)
                 for v in (base, head))
    change = sign * (mh - mb) / mb          # > 0: head is worse
    q1, q3 = quartiles(base)
    if all(sign * h < sign * b for h in head for b in base) and \
            abs(mh - mb) > q3 - q1 and change < 0:
        return "improved"
    if spread > bound:
        return "unresolved"
    if change > bound:
        return "worse"
    if change < -bound:
        return "improved"
    return "unchanged"


def compare(base, head, spec):
    rows = []
    for w in [x["name"] for x in spec["workloads"]]:
        bw, hw = base["workloads"][w], head["workloads"][w]
        for d in spec["end_to_end"]:
            b, h = bw["e2e"][d["name"]], hw["e2e"][d["name"]]
            rows.append({
                "workload": w, "metric": d["name"], "unit": d["unit"],
                "base": (median(b),) + quartiles(b),
                "head": (median(h),) + quartiles(h),
                "verdict": verdict(b, h, d["better"], d["bound"]),
                "digest": ("identical" if bw["digest"] == hw["digest"]
                           else "different")})
    return rows


def print_compare(rows):
    def cell(t):
        return f"{t[0]:.5g} [{t[1]:.5g},{t[2]:.5g}]"

    print(f"{'workload':<20} {'metric':<24} {'base median [q1,q3]':<32} "
          f"{'head median [q1,q3]':<32} {'verdict':<11} stats")
    for r in rows:
        metric = f"{r['metric']} ({r['unit']})"
        print(f"{r['workload']:<20} {metric:<24} {cell(r['base']):<32} "
              f"{cell(r['head']):<32} {r['verdict']:<11} {r['digest']}")


def run_smoke(spec):
    build()
    start = time.monotonic()
    result, ok = run_full(spec, seed=1, reps=1, size_div=SMOKE_DIV,
                          json_path=os.path.join(OUT, "smoke-result.json"))
    problems = []
    if sorted(result["workloads"]) != sorted(w["name"]
                                             for w in spec["workloads"]):
        problems.append("workload names differ from BENCHMARK.json")
    for w, res in result["workloads"].items():
        for key, section in (("e2e", "end_to_end"), ("per_layer",
                                                     "per_layer")):
            if sorted(res[key]) != sorted(d["name"] for d in spec[section]):
                problems.append(f"{w}: {key} names differ from "
                                "BENCHMARK.json")
    slower = copy.deepcopy(result)
    for res in slower["workloads"].values():
        res["e2e"]["run_s"] = [v * 1.25 for v in res["e2e"]["run_s"]]
    for r in compare(result, slower, spec):
        want = "worse" if r["metric"] == "run_s" else "unchanged"
        if r["verdict"] != want:
            problems.append(f"--compare x1.25 copy: {r['workload']} "
                            f"{r['metric']} {r['verdict']} != {want}")
    for r in compare(result, result, spec):
        if r["verdict"] != "unchanged" or r["digest"] != "identical":
            problems.append(f"--compare identical copy: {r['workload']} "
                            f"{r['metric']} {r['verdict']} {r['digest']}")
    elapsed = time.monotonic() - start
    if elapsed > SMOKE_LIMIT_S:
        problems.append(f"smoke took {elapsed:.1f} s > {SMOKE_LIMIT_S} s")
    for p in problems:
        print(f"SMOKE FAIL {p}", file=sys.stderr)
    print(f"smoke: {'ok' if ok and not problems else 'FAILED'} "
          f"({elapsed:.1f} s)")
    return 0 if ok and not problems else 1


# ---------------------------------------------------------------- trajectory

def commit():
    try:
        p = subprocess.run(["git", "-C", ROOT, "describe", "--always",
                            "--dirty"], stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True)
        return p.stdout.strip() if p.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def host_info():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = "unknown"
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            m = re.search(r"^CMAKE_CXX_COMPILER:\w+=(.+)$", f.read(), re.M)
        if m:
            p = subprocess.run([m.group(1), "--version"],
                               stdout=subprocess.PIPE, text=True)
            compiler = p.stdout.splitlines()[0].strip()
    except (OSError, IndexError):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "compiler": compiler}


def append_trajectory(result):
    row = {k: result[k] for k in ("commit", "date", "host", "seed", "reps")}
    row["workloads"] = {}
    for w, res in result["workloads"].items():
        row["workloads"][w] = {}
        for k, v in res["e2e"].items():
            q1, q3 = quartiles(v)
            row["workloads"][w][k] = {"median": median(v), "iqr": q3 - q1,
                                      "n": len(v)}
    with open(TRAJECTORY, "a") as f:
        f.write(json.dumps(row, sort_keys=True) + "\n")
    print(f"appended a row to {TRAJECTORY}")


# ---------------------------------------------------------------- main

def main():
    spec = load_spec()
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--json", default=os.path.join(OUT, "result.json"))
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "HEAD"))
    ap.add_argument("--append-trajectory", action="store_true")
    args = ap.parse_args()
    if args.seed < 0 or args.reps < 1:
        ap.error("--seed must be >= 0 and --reps >= 1")

    try:
        if args.compare:
            with open(args.compare[0]) as f:
                base = json.load(f)
            with open(args.compare[1]) as f:
                head = json.load(f)
            rows = compare(base, head, spec)
            print_compare(rows)
            return 1 if any(r["verdict"] == "worse" for r in rows) else 0
        if args.workload:
            return run_one(args, spec)
        if args.smoke:
            return run_smoke(spec)
        result, ok = run_full(spec, args.seed, args.reps, 1, args.json)
        if args.append_trajectory and ok:
            append_trajectory(result)
        return 0 if ok else 1
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
