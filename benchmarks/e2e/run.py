"""End-to-end benchmark of the bootstrap service: one command.

    python3 benchmarks/e2e/run.py --workload W --seed S --seconds T --trace 0|1

runs workload ``W`` through the public service API in a fresh
interpreter, checks every output, and prints one JSON object last:
the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Without ``--workload`` it runs
all four.  ``--aa K`` runs two interleaved sets of ``K`` runs of the
same code and holds their gap against the bounds; ``--smoke`` runs
everything at toy sizes in under 30 s and checks the printed names
against ``BENCHMARK.json``; ``--report`` prints the budget of the last
traces.  ``python -m benchmarks.e2e.run`` from the repo root is the same
command.  See README.md beside this file.
"""

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(_HERE))
sys.path.insert(0, os.path.dirname(_HERE))

from e2e import spans  # noqa: E402
from e2e.probe import Probe, disturbed  # noqa: E402
from e2e.stats import bound_from_gaps, iqr_share, median, worse_by  # noqa: E402

OUT_DIR = os.path.join(_HERE, "out")
DEFAULT_SEED = 20240604
#: Fresh interpreters whose set-up time is the median reported.
SETUP_LAUNCHES = 3
#: A measured child that takes longer than this is killed (the driver
#: allows a run 180 s).
CHILD_TIMEOUT_S = 150
SMOKE_SECONDS = 1.5
#: Below these no bound is set, however small the A/A gap.
BOUND_FLOORS = {"latency_p50_ms": 0.10, "throughput_rps": 0.10,
                "setup_s": 0.15, "peak_rss_mb": 0.05}


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def launch(workload: str, seed: int, seconds: float, trace: int,
           smoke: bool = False, setup_only: bool = False) -> dict:
    """Run ``measure.py`` in a fresh interpreter and return the JSON
    object it printed last.  The child leads its own process group so
    that a timeout also takes the pool workers with it."""
    cmd = [sys.executable, os.path.join(_HERE, "measure.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    cmd += ["--smoke"] if smoke else []
    cmd += ["--setup-only"] if setup_only else []
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise SystemExit(f"{workload}: measured process exceeded "
                         f"{CHILD_TIMEOUT_S} s and was killed")
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: measured process exited "
                         f"{proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 probe: Probe, smoke: bool = False) -> dict:
    """One run as the driver sees it: probe, measure, probe; a run the
    probe calls disturbed is discarded and repeated once, and a second
    disturbed run is reported as it is, flagged."""
    discarded = 0
    before = probe.read()
    while True:
        child = launch(workload, seed, seconds, trace, smoke)
        after = probe.read()
        flagged = disturbed(before, after)
        if not flagged or discarded or smoke:
            break
        discarded += 1
        before = after
    attempted, failed = child["sent"], child["failed"]
    if trace:
        values = dict(child["layers"])
        butterfly = after[f"butterfly_{child['probe_shape']}"]
        values["machine.butterfly_points_per_s"] = butterfly
        values["machine.mem_bw_gbps"] = after["mem_bw_gbps"]
        values["ntt.fraction_of_bare_numpy"] = values["ntt.points_per_s"] / butterfly
        values["probe.runs_discarded"] = discarded
        values["probe.disturbed"] = int(flagged)
        kind = "per_layer"
    else:
        setups = [child["setup_s"]]
        if not smoke:
            setups += [launch(workload, seed, seconds, 0, setup_only=True)["setup_s"]
                       for _ in range(SETUP_LAUNCHES - 1)]
        values = {"latency_p50_ms": child["latency_p50_s"] * 1e3,
                  "throughput_rps": child["throughput_rps"],
                  "setup_s": median(setups),
                  "peak_rss_mb": child["peak_rss_mb"]}
        kind = "end_to_end"
    units = {m["name"]: m["unit"] for m in load_spec()[kind]}
    return {"workload": workload, "seed": seed, "trace": trace,
            "correct": failed == 0 and attempted > 0,
            "attempted": attempted, "failed": failed,
            "samples": child.get("samples", attempted),
            "first_error": child["first_error"],
            "runs_discarded": discarded, "disturbed": flagged,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}


def describe(result: dict) -> str:
    """Every metric by name with unit and bound, and the request counts."""
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lines = [f"{result['workload']}  seed={result['seed']} trace={result['trace']}  "
             f"requests sent={result['attempted']} "
             f"succeeded={result['attempted'] - result['failed']} "
             f"failed={result['failed']}  latency samples={result['samples']}  "
             f"runs_discarded={result['runs_discarded']}"
             + ("  DISTURBED" if result["disturbed"] else "")]
    if result["first_error"]:
        lines.append(f"  first error: {result['first_error']}")
    for name, m in result["metrics"].items():
        bound = f"  bound {bounds[name]:.2f}" if name in bounds else ""
        lines.append(f"  {name:<36} {m['value']:>16.6f} {m['unit']}{bound}")
    return "\n".join(lines)


def final_line(result: dict) -> str:
    return json.dumps({k: result[k] for k in
                       ("correct", "attempted", "failed", "metrics")})


def run_aa(k: int, seed: int, seconds: float, probe: Probe) -> int:
    """Two interleaved sets (A B A B ...) of ``k`` full untraced runs of
    the checked-out code; pairs share a seed.  Prints, per workload and
    metric, both medians, the gap, the wider of the two sets' quartile
    spreads, the bound and what the derivation rule would make of this
    gap alone; appends the evidence to ``out/aa_runs.jsonl``;
    returns 1 if a gap exceeds its bound — or, from ``k`` = 5 up (the
    quartiles of fewer points are extrapolations), a spread does, as
    the driver's own check has it (``setup_s`` exempt)."""
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    runs = {name: {"A": [], "B": []} for name in names}
    for i in range(k):
        for side in "AB":
            for name in names:
                result = run_workload(name, seed + i, seconds, 0, probe)
                print(f"[{side}{i}] " + describe(result), flush=True)
                runs[name][side].append(
                    {m: v["value"] for m, v in result["metrics"].items()}
                    | {"failed": result["failed"],
                       "disturbed": result["disturbed"]})
    rows, bad = [], 0
    for name in names:
        for metric in spec["end_to_end"]:
            a = [r[metric["name"]] for r in runs[name]["A"]]
            b = [r[metric["name"]] for r in runs[name]["B"]]
            gap = abs(worse_by(median(a), median(b), metric["better"]))
            spread = max(iqr_share(a), iqr_share(b)) if k >= 2 else 0.0
            over = gap > metric["bound"] or (
                k >= 5 and metric["name"] != "setup_s"
                and spread > metric["bound"])
            bad += over
            rule = bound_from_gaps([gap], BOUND_FLOORS[metric["name"]])
            rows.append({"workload": name, "metric": metric["name"],
                         "median_a": median(a), "median_b": median(b),
                         "gap": gap, "spread": spread, "rule": rule,
                         "bound": metric["bound"], "over": bool(over)})
            print(f"{name:<10} {metric['name']:<16} A={median(a):<12.5g} "
                  f"B={median(b):<12.5g} gap={gap:6.3f} spread={spread:6.3f} "
                  f"bound={metric['bound']:.2f} (rule: {rule:.2f})"
                  f"{'  OVER' if over else ''}")
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "aa_runs.jsonl"), "a") as fh:
        fh.write(json.dumps({
            "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "machine": f"{platform.processor() or platform.machine()}, "
                       f"{os.cpu_count()} cpus",
            "k": k, "seed": seed, "run_seconds": seconds,
            "runs": runs, "rows": rows}) + "\n")
    return 1 if bad else 0


def run_smoke(probe: Probe) -> int:
    """All four workloads, untraced and traced, at toy sizes; the names
    printed must be exactly those of ``BENCHMARK.json``."""
    spec = load_spec()
    wrong = 0
    for w in spec["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            result = run_workload(w["name"], DEFAULT_SEED, SMOKE_SECONDS, trace, probe,
                                  smoke=True)
            print(describe(result), flush=True)
            want = [m["name"] for m in spec[kind]]
            if list(result["metrics"]) != want or not result["correct"]:
                print(f"SMOKE FAILED: {w['name']} trace={trace}")
                wrong += 1
    return 1 if wrong else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--aa", type=int, metavar="K")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--report", action="store_true")
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("benchmarks/e2e needs the repository's src/repro beside it",
              file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    if args.report:
        for name in names:
            path = os.path.join(OUT_DIR, f"trace_{name}.jsonl")
            if os.path.exists(path):
                print(spans.report(path), end="\n\n")
        return 0
    if args.smoke:
        return run_smoke(Probe(seconds=0.1, copy_mib=8))
    probe = Probe()
    if args.aa:
        return run_aa(args.aa, args.seed, seconds, probe)
    results = [run_workload(name, args.seed, seconds, args.trace, probe)
               for name in ([args.workload] if args.workload else names)]
    for result in results:
        print(describe(result))
        print(final_line(result))  # the contract's JSON object, last
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
