"""promptlab benchmark: one workload per invocation, end-to-end or traced per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload search15 --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload search15 --seed 0 --seconds 25 --trace 1

This process is the single driver. It starts workload children one at a time
(closed loop, one operation in flight) and waits for each:

- ``--trace 0``: a few set-up-only children, for the ``setup_s`` median, then
  one child that repeats the workload for ``--seconds``. Prints the end-to-end
  metrics of ``BENCHMARK.json``.
- ``--trace 1``: one untraced pass, then one traced pass, each in its own
  child. Prints the per-layer metrics from the traced pass's spans, with
  ``trace.overhead_share`` against the untraced pass.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Lines before it give the
environment stamp, the drift from ``reference.json`` and, when traced, the
per-layer table. Everything a run writes goes under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".bench_out")

sys.path.insert(0, HERE)
import stamp  # noqa: E402
from workload import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5        # set-up-only children plus the measuring child
# step samples a run takes at least: step_ms_p90 needs 100, and search15 takes
# three searches (237 samples), which averages over more of the host's speed changes
MIN_STEP_SAMPLES = {"search15": 200, "train100": 100, "cli_pipeline": 0}
CHILD_TIMEOUT_S = 170
# step percentiles are taken per window of this many consecutive step samples
# and averaged over the run's windows: 24 steps is 3 search epochs (about 4 s),
# or 4 whole cli_pipeline passes, so every window holds the same command mix
STEP_WINDOW = 24


class ChildFailed(RuntimeError):
    pass


def spawn(out: str, tag: str, workload: str, seed: int, *extra: str) -> dict:
    """Run one workload child to completion and return its result file."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    spawned_at = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "workload.py"), "--workload", workload,
           "--seed", str(seed), "--out", out, "--tag", tag,
           "--spawned-at", repr(spawned_at), *extra]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise ChildFailed(f"{tag}: no result within {CHILD_TIMEOUT_S} s")
    path = os.path.join(out, f"{tag}.json")
    if code != 0 or not os.path.exists(path):
        raise ChildFailed(f"{tag}: exit code {code}")
    with open(path) as fh:
        return json.load(fh)


def operations(*results) -> list:
    return [op for r in results for p in r.get("passes", ()) for op in p["ops"]]


def windowed_percentile(steps: list, q: int) -> float:
    """The q-th percentile of each full window of ``STEP_WINDOW`` steps, averaged.

    Host speed on a shared machine alternates between states about 1.5x apart
    that last seconds to tens of seconds. A percentile over a whole run jumps
    from one state's value to the other's as the slow share of the run crosses
    a threshold; averaged over short windows it moves smoothly with that share,
    while each window's percentile still ignores that window's outlying steps.
    Trailing steps that fill no whole window are left out.
    """
    full = len(steps) // STEP_WINDOW * STEP_WINDOW
    windows = ([steps[i:i + STEP_WINDOW] for i in range(0, full, STEP_WINDOW)]
               if full else [steps])
    return statistics.fmean(
        statistics.quantiles(w, n=100, method="inclusive")[q - 1] for w in windows)


def end_to_end(workload: str, seed: int, seconds: int, quick: bool, out: str):
    extra = ["--quick"] if quick else []

    def setup_only(i):
        return spawn(out, f"setup{i}", workload, seed, "--setup-only", *extra)["setup_s"]

    # set-up samples before and after the measuring child, so host speed
    # changes during the run reach the median from both sides
    setups = [setup_only(i) for i in range(SETUP_SAMPLES // 2)]
    min_steps = 0 if quick else MIN_STEP_SAMPLES[workload]
    main = spawn(out, "main", workload, seed, "--seconds", str(seconds),
                 "--min-steps", str(min_steps), *extra)
    setups.append(main["setup_s"])
    setups += [setup_only(i) for i in range(SETUP_SAMPLES // 2, SETUP_SAMPLES - 1)]
    passes, steps = main["passes"], main["step_ms"]
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.fmean(p["run_s"] for p in passes),
        "cpu_s": statistics.fmean(p["cpu_s"] for p in passes),
        "step_ms_p50": windowed_percentile(steps, 50),
        "step_ms_p90": windowed_percentile(steps, 90),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    samples = {"setup": len(setups), "passes": len(passes), "steps": len(steps),
               "step_windows": max(1, len(steps) // STEP_WINDOW)}
    return metrics, operations(main), main, samples


def per_layer(workload: str, seed: int, quick: bool, out: str):
    import spans

    extra = ["--quick"] if quick else []
    plain = spawn(out, "untraced", workload, seed, "--max-passes", "1", *extra)
    trace_dir = os.path.join(out, "trace")
    os.makedirs(trace_dir)
    traced = spawn(out, "traced", workload, seed, "--max-passes", "1",
                   "--trace-dir", trace_dir, *extra)
    ops = operations(plain, traced)
    for a, b in zip(operations(plain), operations(traced)):
        if a["ok"] and b["ok"] and a["outputs"] != b["outputs"]:
            b.update(ok=False, error="tracing changed the outputs")
    failed = sum(not op["ok"] for op in ops)
    table = spans.SpanTable(spans.load_spans(f)
                            for f in sorted(glob.glob(os.path.join(trace_dir, "*.npz"))))
    metrics = spans.summarize(table, traced["passes"][0]["run_s"],
                              plain["passes"][0]["run_s"], failed / len(ops))
    text = spans.format_table(table)
    with open(os.path.join(out, "layers.txt"), "w") as fh:
        fh.write(text + "\n")
    samples = {"passes": 1, "traced_spans": int(sum(table.calls.values()))}
    return metrics, ops, plain, samples, text


def reference_entry(workload: str, first_pass: dict):
    """The outputs of a run's first pass that ``reference.json`` records, or None if it failed."""
    if not all(op["ok"] for op in first_pass["ops"]):
        return None
    ops = {op["name"]: op["outputs"] for op in first_pass["ops"]}
    if workload == "search15":
        return ops["search"]
    if workload == "train100":
        return ops
    return {k: v for got in ops.values() for k, v in got.items() if k != "stdout"}


def drift(workload: str, seed: int, first_pass: dict) -> dict:
    """Distance of this run's outputs from the recorded reference (never a failure)."""
    with open(os.path.join(HERE, "reference.json")) as fh:
        ref = json.load(fh).get(workload, {}).get(str(seed))
    got = reference_entry(workload, first_pass)
    if ref is None or got is None:
        return {"reference": None if ref is None else "run failed"}
    if workload == "search15":
        return {"selected": got["selected"], "selected_same": got["selected"] == ref["selected"],
                "max_abs_dw": max(abs(a - b) for a, b in zip(got["weights"], ref["weights"]))}
    if workload == "train100":
        return {arm: {k: got[arm][k] - ref[arm][k] for k in ("base", "novel", "hm")}
                for arm in ref}
    return {"changed_artifacts": sorted(k for k in set(got) | set(ref) if got.get(k) != ref.get(k))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="a few steps per workload, for the harness tests only")
    args = parser.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "promptlab", "__init__.py")):
        print(f"error: no promptlab sources under {SRC}", file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2

    out = os.path.join(OUT_ROOT, f"{args.workload}-s{args.seed}-t{args.trace}"
                       + ("-quick" if args.quick else ""))
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    env = {"environment": stamp.environment(), "load_start": stamp.load_average(),
           "probe_start": stamp.speed_probe()}
    table = None
    try:
        if args.trace:
            metrics, ops, first, samples, table = per_layer(
                args.workload, args.seed, args.quick, out)
            wanted = [m["name"] for m in spec["per_layer"]]
        else:
            metrics, ops, first, samples = end_to_end(
                args.workload, args.seed, args.seconds, args.quick, out)
            wanted = [m["name"] for m in spec["end_to_end"]]
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env.update(load_end=stamp.load_average(), probe_end=stamp.speed_probe(), samples=samples)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    missing = [name for name in wanted if name not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    failed = sum(not op["ok"] for op in ops)
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in wanted},
    }
    outputs_drift = (None if args.quick
                     else drift(args.workload, args.seed, first["passes"][0]))
    report = {"env": env, "drift": outputs_drift,
              "errors": [f"{op['name']}: {op['error']}" for op in ops if not op["ok"]][:10]}
    for name, payload in (("env.json", env), ("report.json", report), ("result.json", result)):
        with open(os.path.join(out, name), "w") as fh:
            json.dump(payload, fh, indent=1)
    if table:
        print(table)
    print("# " + json.dumps({k: report[k] for k in ("drift", "errors")}))
    print("# " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
