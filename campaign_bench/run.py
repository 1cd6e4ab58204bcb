#!/usr/bin/env python3
"""Campaign benchmark for Mumak: one fault-injection plus trace-analysis
campaign per process, timed end to end and checked against a reference.

Benchmark run (run from the repository root):

    python3 campaign_bench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

builds campaign_bench/ (and the Mumak sources it includes) into
.bench_build/campaign_bench, then runs campaigns of the workload one after
the other, each in a fresh process, for about --seconds seconds. --seed n
selects the workload seeds 10n..10n+9; campaigns cycle through them, and
each metric takes the median over each seed's campaigns, drops the lowest
and the highest fifth of those per-seed medians and averages the others.
The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; it runs every workload seed at
least once, so a run of long campaigns can pass --seconds by up to one
campaign. --trace 1 alternates untraced and traced campaigns while they
fit in --seconds (at least one pair), reports the per-layer metrics of
BENCHMARK.json, writes the spans to .bench_build/campaign_bench/out/ and
prints a self-time table per layer.

Every campaign's report, with pc:0x... frames stripped, must equal the
reference report of the serial re-execution loop for the same spec and
workload seed, and the failure point, check, event and finding counts must
match. References live in references.json (keyed by workload and workload
seed); a seed not recorded there gets its reference generated the same way
and cached in the build directory. `--record-references <first>-<last>`
adds the missing references of --seed first..last to references.json.

Steadiness check:

    python3 campaign_bench/run.py --steadiness --repeats 10 --seconds 20

runs every workload (or --workloads a,b) --repeats times, interleaved run
by run with a new seed each round, and prints median, quartiles, IQR/median
and (max-min)/median for every end-to-end metric, flagging spreads wider
than a third of the metric's bound ("warn") or than the bound ("WIDE").
"""

import argparse
import concurrent.futures
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "campaign_bench")
OUT_DIR = os.path.join(BUILD_DIR, "out")
TMP_DIR = os.path.join(BUILD_DIR, "tmp")
REF_CACHE_DIR = os.path.join(BUILD_DIR, "references")
PROBE = os.path.join(BUILD_DIR, "campaign_probe")
REFERENCES = os.path.join(BENCH_DIR, "references.json")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

# Workload seeds per run, derived from --seed. Failure point counts, campaign
# times and peak memory differ between workload seeds by up to 50% (btree
# re-execution has a heavy tail of slow seeds, fleet peak memory is
# multimodal), so a run summarises several inputs instead of reporting one.
SUB_SEEDS = 10
# Reference runs generated in parallel.
RECORD_JOBS = 3
# A single campaign that takes longer than this is killed and counted
# failed (every workload finishes in a few seconds).
CAMPAIGN_TIMEOUT_S = 120
END_TO_END = ("campaign_s", "setup_s", "cpu_s", "peak_rss_mb")
COUNTS = ("failure_points", "checks", "events", "findings")


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_benchmark():
    with open(BENCHMARK_JSON) as f:
        return json.load(f)


# ---- build ------------------------------------------------------------------

def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("Mumak sources (src/) not found next to "
                         "campaign_bench/; run from a full checkout")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    os.makedirs(BUILD_DIR, exist_ok=True)
    build_log = os.path.join(BUILD_DIR, "build.log")
    with open(build_log, "a") as out:
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.call(configure, stdout=out, stderr=out) != 0:
                raise BenchError(f"cmake configure failed, see {build_log}")
        jobs = str(min(4, os.cpu_count() or 1))
        if subprocess.call(["cmake", "--build", BUILD_DIR, "--target",
                            "campaign_probe", "-j", jobs],
                           stdout=out, stderr=out) != 0:
            raise BenchError(f"build failed, see {build_log}")


def describe():
    return json.loads(subprocess.check_output([PROBE, "describe"]))


# ---- probe processes ----------------------------------------------------------

def wait_for_group(pgid, limit_s=10):
    deadline = time.monotonic() + limit_s
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_probe(args, timeout=CAMPAIGN_TIMEOUT_S):
    """Runs the probe in its own process group; returns (record, error).

    Raises subprocess.TimeoutExpired when the probe outlives `timeout`.
    """
    os.makedirs(TMP_DIR, exist_ok=True)
    env = dict(os.environ, TMPDIR=TMP_DIR)
    proc = subprocess.Popen([PROBE] + args, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env,
                            start_new_session=True, text=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except BaseException:
        # Forked fleet workers share the probe's process group; none may
        # outlive the run.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        wait_for_group(proc.pid)
        raise
    if proc.returncode != 0:
        return None, f"exit {proc.returncode}: {stderr.strip()[-500:]}"
    try:
        return json.loads(stdout.strip().splitlines()[-1]), None
    except (ValueError, IndexError):
        return None, "unparseable probe output"


# ---- references ---------------------------------------------------------------

def workload_seeds(seed):
    return [seed * SUB_SEEDS + j for j in range(SUB_SEEDS)]


def reference_record(result):
    record = {key: result[key] for key in COUNTS}
    record["report_sha256"] = hashlib.sha256(
        result["report"].encode()).hexdigest()
    return record


def load_committed_references():
    if not os.path.exists(REFERENCES):
        return {}
    with open(REFERENCES) as f:
        return json.load(f)


def binary_digest():
    h = hashlib.sha256()
    with open(PROBE, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def generate_reference(workload, seed):
    try:
        result, error = run_probe(["reference", "--workload", workload,
                                   "--seed", str(seed)])
    except subprocess.TimeoutExpired:
        result, error = None, f"timed out after {CAMPAIGN_TIMEOUT_S}s"
    if error is not None:
        raise BenchError(f"reference run failed: {error}")
    if result["undetected"]:
        raise BenchError(f"serial reference for {workload} seed {seed} "
                         f"misses seeded bugs {result['undetected']}")
    return reference_record(result)


def get_references(workload, seeds):
    """The reference of every seed: committed, else cached in the build
    directory, else generated (in parallel) and cached."""
    committed = load_committed_references().get(workload, {})
    missing = [seed for seed in seeds if str(seed) not in committed]
    with concurrent.futures.ThreadPoolExecutor(RECORD_JOBS) as pool:
        generated = dict(zip(missing, pool.map(
            lambda seed: cached_reference(workload, seed), missing)))
    return {seed: committed.get(str(seed)) or generated[seed]
            for seed in seeds}


def cached_reference(workload, seed):
    os.makedirs(REF_CACHE_DIR, exist_ok=True)
    path = os.path.join(REF_CACHE_DIR,
                        f"{workload}-seed{seed}-{binary_digest()}.json")
    if os.path.exists(path):
        with open(path) as f:
            return json.load(f)
    log(f"generating the serial reference for {workload} seed {seed}")
    record = generate_reference(workload, seed)
    with open(path, "w") as f:
        json.dump(record, f)
    return record


def record_references(first, last, workloads):
    """Records the missing references of every workload for --seed
    first..last (delete references.json to record them all afresh)."""
    committed = load_committed_references()
    jobs = [(workload, seed)
            for workload in sorted(workloads)
            for run_seed in range(first, last + 1)
            for seed in workload_seeds(run_seed)
            if str(seed) not in committed.get(workload, {})]
    with concurrent.futures.ThreadPoolExecutor(RECORD_JOBS) as pool:
        records = pool.map(lambda job: generate_reference(*job), jobs)
        for (workload, seed), record in zip(jobs, records):
            log(f"recorded {workload} workload seed {seed}")
            committed.setdefault(workload, {})[str(seed)] = record
    write_references(committed)


def write_references(committed):
    """One line per workload seed, seeds in numeric order."""
    lines = []
    for workload in sorted(committed):
        seeds = sorted(committed[workload], key=int)
        entries = [f'  "{seed}": {json.dumps(committed[workload][seed])}'
                   for seed in seeds]
        lines.append(f' "{workload}": {{\n' + ",\n".join(entries) + "\n }")
    with open(REFERENCES, "w") as f:
        f.write("{\n" + ",\n".join(lines) + "\n}\n")


def check(result, reference, workload, seed):
    """Returns None when the campaign reproduced the reference."""
    if result["workload"] != workload or result["seed"] != seed:
        return "the probe ran another workload or seed"
    if result["undetected"]:
        return f"seeded bugs not detected: {result['undetected']}"
    for key in COUNTS:
        if result[key] != reference[key]:
            return f"{key} {result[key]} != reference {reference[key]}"
    digest = hashlib.sha256(result["report"].encode()).hexdigest()
    if digest != reference["report_sha256"]:
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"mismatch-{workload}-seed{seed}.txt")
        with open(path, "w") as f:
            f.write(result["report"])
        return f"report differs from the reference (saved to {path})"
    return None


# ---- one benchmark run ---------------------------------------------------------

class Campaigns:
    """Runs and checks the campaigns of one workload for one --seed."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seeds = workload_seeds(seed)
        self.references = get_references(workload, self.seeds)
        self.attempted = 0
        self.failed = 0
        self.results = {"campaign": [], "traced": []}
        self.durations = []

    def run(self, mode, seed):
        self.attempted += 1
        start = time.monotonic()
        try:
            result, error = run_probe([mode, "--workload", self.workload,
                                       "--seed", str(seed)])
        except subprocess.TimeoutExpired:
            result, error = None, f"timed out after {CAMPAIGN_TIMEOUT_S}s"
        self.durations.append(time.monotonic() - start)
        if error is None:
            error = check(result, self.references[seed], self.workload, seed)
        if error is not None:
            self.failed += 1
            log(f"{self.workload} workload seed {seed} {mode} campaign "
                f"{self.attempted} failed: {error}")
        if result is not None:
            self.results[mode].append(result)

    def typical_duration(self, per_round):
        return statistics.median(self.durations) * per_round


def measure(campaigns, seconds, modes, min_rounds):
    """Runs rounds of `modes`, cycling through the workload seeds, until
    `min_rounds` ran and the next round would pass `seconds`."""
    start = time.monotonic()
    rounds = 0
    while True:
        seed = campaigns.seeds[rounds % len(campaigns.seeds)]
        for mode in modes:
            campaigns.run(mode, seed)
        rounds += 1
        elapsed = time.monotonic() - start
        if rounds >= min_rounds and \
                elapsed + campaigns.typical_duration(len(modes)) > seconds:
            return


def aggregate(results, value_of):
    """The median over each workload seed's campaigns damps host noise; the
    mean of those per-seed medians without the lowest and the highest fifth
    averages the inputs while ignoring outlying inputs either way."""
    by_seed = {}
    for result in results:
        by_seed.setdefault(result["seed"], []).append(value_of(result))
    medians = sorted(statistics.median(v) for v in by_seed.values())
    trim = len(medians) // 5
    return statistics.mean(medians[trim:len(medians) - trim])


def layer_table(workload, traced):
    """Median self time per span name and per layer over traced campaigns."""
    per_name = {}
    campaign_s = []
    for result in traced:
        totals = {}
        for span in result["spans"]:
            # Parentless spans other than the campaign root are the pmem
            # unit-cost probes, which run after the campaign.
            is_root = span["name"] == "campaign"
            if span["parent"] < 0 and not is_root:
                continue
            name = "unattributed" if is_root else span["name"]
            totals[name] = totals.get(name, 0.0) + span["self_s"]
        for name, value in totals.items():
            per_name.setdefault(name, []).append(value)
        campaign_s.append(result["metrics"]["campaign_s"])
    wall = statistics.median(campaign_s)
    lines = [f"self time per layer, {workload}, median of {len(traced)} "
             f"traced campaign(s); campaign wall {wall:.4f} s",
             f"  {'layer':<12} {'span':<26} {'self_s':>10} {'share':>8}"]

    def layer_of(name):
        return "bench" if name == "unattributed" else name.split(".")[0]

    for name in sorted(per_name, key=lambda n: (layer_of(n) == "bench",
                                                 layer_of(n), n)):
        value = statistics.median(per_name[name])
        lines.append(f"  {layer_of(name):<12} {name:<26} {value:>10.4f} "
                     f"{value / wall:>8.1%}")
    lines.append("  (spans on the analysis thread, injection threads and "
                 "fleet workers overlap the main thread, so rows can sum "
                 "past the wall)")
    return "\n".join(lines)


def write_spans(workload, seed, traced):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.json")
    records = []
    for index, result in enumerate(traced):
        run_id = f"{workload}-seed{seed}-{index}-w{result['seed']}"
        for span in result["spans"]:
            records.append(dict(span, workload=workload, run_id=run_id))
    with open(path, "w") as f:
        json.dump(records, f)
    return path


def workload_names(info):
    return [w["name"] for w in info["workloads"]]


def host_line(info):
    return (f"host: nproc={os.cpu_count()} build_type={info['build_type']} "
            f"compiler={info['compiler']}")


def benchmark_run(workload, seed, seconds, trace, info, bench):
    if workload not in workload_names(info):
        raise BenchError(f"unknown workload {workload}")
    campaigns = Campaigns(workload, seed)
    # An end-to-end run covers every workload seed even when that passes
    # `seconds`; a traced run (an untraced and a traced campaign per round)
    # keeps to `seconds` and summarises the seeds it reached.
    if trace:
        measure(campaigns, seconds, ("campaign", "traced"), 1)
    else:
        measure(campaigns, seconds, ("campaign",), SUB_SEEDS)
    untraced = campaigns.results["campaign"]
    metrics = {}
    if trace:
        traced = campaigns.results["traced"]
        if traced and untraced:
            units = {m["name"]: m["unit"] for m in bench["per_layer"]}
            for name, unit in units.items():
                if name == "bench.trace_overhead":
                    wall = lambda r: r["metrics"]["campaign_s"]  # noqa: E731
                    value = aggregate(traced, wall) / \
                        aggregate(untraced, wall) - 1
                else:
                    value = aggregate(traced, lambda r: r["layers"][name])
                metrics[name] = {"value": value, "unit": unit}
            print(layer_table(workload, traced))
            print(f"spans: {write_spans(workload, seed, traced)}")
    elif untraced:
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        for name in END_TO_END:
            metrics[name] = {
                "value": aggregate(untraced, lambda r: r["metrics"][name]),
                "unit": units[name]}
    return {"correct": campaigns.failed == 0,
            "attempted": campaigns.attempted,
            "failed": campaigns.failed,
            "metrics": metrics}


# ---- steadiness ----------------------------------------------------------------

def steadiness(workloads, repeats, seconds, first_seed, info, bench):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {w: {m: [] for m in END_TO_END} for w in workloads}
    failures = {w: [0, 0] for w in workloads}
    for round_index in range(repeats):
        seed = first_seed + round_index
        # Interleaved run by run, so a slow period of the host hits every
        # workload alike instead of one workload's whole series.
        for workload in workloads:
            result = benchmark_run(workload, seed, seconds, False, info,
                                   bench)
            failures[workload][0] += result["attempted"]
            failures[workload][1] += result["failed"]
            for name, metric in result["metrics"].items():
                values[workload][name].append(metric["value"])
            log(f"round {round_index + 1}/{repeats} {workload} seed {seed}: "
                + " ".join(f"{n}={m['value']:.4f}"
                           for n, m in result["metrics"].items()))
    print(host_line(info))
    print(f"{'workload':<22} {'metric':<12} {'median':>10} {'q1':>10} "
          f"{'q3':>10} {'iqr/med':>8} {'rng/med':>8} {'bound':>6}")
    summary = {"host": host_line(info), "seconds": seconds,
               "repeats": repeats, "first_seed": first_seed,
               "workloads": {}}
    for workload in workloads:
        summary["workloads"][workload] = {
            "attempted": failures[workload][0],
            "failed": failures[workload][1]}
        for name in END_TO_END:
            series = values[workload][name]
            if len(series) < 2:
                continue
            med = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            iqr = (q3 - q1) / med
            rng = (max(series) - min(series)) / med
            bound = bounds[name]
            flag = "WIDE" if iqr > bound else \
                "warn" if iqr > bound / 3 else ""
            print(f"{workload:<22} {name:<12} {med:>10.4f} {q1:>10.4f} "
                  f"{q3:>10.4f} {iqr:>8.2%} {rng:>8.2%} {bound:>6.2f} "
                  f"{flag}")
            summary["workloads"][workload][name] = {
                "values": series, "median": med, "q1": q1, "q3": q3,
                "iqr_over_median": iqr, "range_over_median": rng,
                "bound": bound}
        print(f"{workload:<22} failed {failures[workload][1]} of "
              f"{failures[workload][0]} campaigns")
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"steadiness-{int(time.time())}.json")
    with open(path, "w") as f:
        json.dump(summary, f, indent=1)
    print(f"summary: {path}")


# ---- main ----------------------------------------------------------------------

def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true")
    parser.add_argument("--workloads", help="comma-separated, default all")
    parser.add_argument("--repeats", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--record-references", metavar="FIRST-LAST")
    return parser.parse_args()


def main():
    args = parse_args()
    try:
        bench = load_benchmark()
        build()
        info = describe()
        if args.record_references:
            first, last = (int(x) for x in
                           args.record_references.split("-"))
            record_references(first, last, workload_names(info))
            return 0
        seconds = args.seconds if args.seconds is not None \
            else bench["run_seconds"]
        if args.steadiness:
            workloads = args.workloads.split(",") if args.workloads else \
                [w["name"] for w in bench["workloads"]]
            steadiness(workloads, args.repeats, seconds, args.first_seed,
                       info, bench)
            return 0
        if args.workload is None or args.seed is None:
            raise BenchError("--workload and --seed are required")
        if args.seed < 0:
            raise BenchError("--seed must not be negative")
        result = benchmark_run(args.workload, args.seed, seconds,
                               args.trace == 1, info, bench)
    except (BenchError, OSError, subprocess.CalledProcessError) as error:
        log(f"campaign_bench: {error}")
        return 1
    print(host_line(info))
    print(json.dumps(result), flush=True)
    return 0 if result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
