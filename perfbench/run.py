#!/usr/bin/env python3
"""Benchmark driver for cmlinv; see perfbench/README.md.

    python3 perfbench/run.py --workload fg-grid --seed 0 --seconds 30 --trace 0

Runs from the root of a source checkout.  One driver process runs one pass
process at a time (a closed loop with one client); every pass is a fresh
interpreter, so no in-process memo survives from one pass to the next.

--trace 0 runs max(3, round(seconds / 5)) timed passes and reports the
end-to-end metrics of BENCHMARK.json.  The pass count, not a clock, ends
the run, so both sides of a comparison do the same work and pool the same
number of samples.  --trace 1 runs one untraced pass, one traced pass and
one padic counting pass, and reports the per-layer metrics.  End-to-end
times are scaled to a reference CPU speed measured inside each pass (see
passrun.py); per-layer times are as measured.  Either way
the last line of stdout is the JSON result; the lines before it are the
per-item report.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

sys.dont_write_bytecode = True

import passrun  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NOMINAL_PASS_S = 5.0
MIN_PASSES = 3
PASS_CAP_S = 90.0
RUN_BUDGET_S = 160.0
SRC_MODULES = ("padic", "characters", "quadfield", "cmform", "kl", "sympower",
               "linvariant", "acceptance", "cli")

# Layers each workload must call (EXERCISED) and must never call (UNUSED).
EXERCISED = {
    "fg-grid": ("padic", "characters", "kl", "quadfield", "linvariant"),
    "field-twoway": ("padic", "quadfield", "cmform", "linvariant"),
    "cli-session": ("padic", "characters", "kl", "quadfield", "cmform", "sympower",
                    "linvariant"),
}
UNUSED = {
    "fg-grid": ("cmform", "sympower"),
    "field-twoway": ("characters", "kl", "sympower"),
    "cli-session": (),
}


class Pass:
    """Rows printed by one pass process, with times scaled to the reference speed."""

    def __init__(self, n_items: int, lines: list[str], finished: bool):
        rows = []
        for line in lines:
            try:
                rows.append(json.loads(line))
            except ValueError:  # a line cut short when the pass was killed
                pass
        self.items = [r for r in rows if "item" in r]
        for r in self.items:
            r["adj_s"] = r["seconds"] * r["rate"] / passrun.REFERENCE_RATE
        setup = next((r for r in rows if "setup_s" in r), None)
        self.setup_s = setup and setup["setup_s"] * setup["rate"] / passrun.REFERENCE_RATE
        self.rates = [r["rate"] for r in rows if "rate" in r]
        end = next((r for r in rows if "rss_mb" in r), None)
        self.complete = finished and end is not None and len(self.items) == n_items
        self.wall_s = sum(r["adj_s"] for r in self.items) if self.complete else None
        self.rss_mb = end["rss_mb"] if self.complete else None
        # a pass that died counts every planned item, started or not
        self.attempted = n_items if not self.complete else len(self.items)
        self.failed = self.attempted - sum(r["ok"] for r in self.items)


def run_pass(workload, seed, mode, n_items, env, dump_dir: Path, deadline) -> Pass:
    dump_dir.mkdir(parents=True, exist_ok=True)
    timeout = max(1.0, min(PASS_CAP_S, deadline - time.monotonic()))
    spawn = time.monotonic()
    cmd = [sys.executable, str(HERE / "passrun.py"), workload, str(seed), mode,
           repr(spawn), str(dump_dir)]
    # own process group, so a kill also reaches the CLI commands it started
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=ROOT, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
        finished = proc.returncode == 0
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        finished = False
    p = Pass(n_items, out.decode().splitlines(), finished)
    if not p.complete:
        sys.stderr.write(f"pass ({mode}) did not complete:\n{err.decode()[-2000:]}\n")
    return p


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with 10 samples beyond it."""
    s = sorted(samples)
    if len(s) < 11:
        return s[-1], 100.0
    return s[-11], 100.0 * (len(s) - 10) / len(s)


def end_to_end(passes: list[Pass]) -> tuple[dict, list[str]]:
    done = [p for p in passes if p.complete]
    secs = [r["adj_s"] for p in passes for r in p.items]
    per_item = defaultdict(list)
    for p in passes:
        for r in p.items:
            per_item[r["item"]].append(r["adj_s"])
    rates = sorted(r for p in passes for r in p.rates)
    attempted = sum(p.attempted for p in passes)
    t, q = tail(secs)
    metrics = {
        "setup_s": statistics.median(p.setup_s for p in passes if p.setup_s is not None),
        "wall_s": statistics.median(p.wall_s for p in done),
        # the median over items of each item's median: with an even item
        # count the pooled median falls between two items' extreme samples
        "item_p50_s": statistics.median(statistics.median(v) for v in per_item.values()),
        "item_tail_s": t,
        "ok_ratio": (attempted - sum(p.failed for p in passes)) / attempted,
        "peak_rss_mb": statistics.median(p.rss_mb for p in done),
    }
    notes = [f"passes {len(passes)} ({len(done)} complete); item_p50_s over "
             f"{len(per_item)} items, {len(secs)} samples; item_tail_s is p{q:.1f}, "
             f"{min(10, len(secs) - 1)} samples beyond it",
             f"calibration loop: median {statistics.median(rates):.1f}/s "
             f"(min {rates[0]:.1f}, max {rates[-1]:.1f}); times are scaled to "
             f"{passrun.REFERENCE_RATE:.0f}/s"]
    return metrics, notes


def item_report(workload: str, items: list[dict], passes: list[Pass]) -> list[str]:
    lines = []
    for i, item in enumerate(items):
        rows = [r for p in passes for r in p.items if r["item"] == i]
        if not rows:
            continue
        label = " ".join(item["argv"]) if workload == "cli-session" else \
            " ".join(f"{k}={v}" for k, v in item.items())
        med = statistics.median(r["adj_s"] for r in rows)
        digits = "" if workload == "cli-session" else f"  digits {rows[-1]['digits']}"
        errors = {r["error"] for r in rows if r["error"]}
        lines.append(f"item {i:2d}  {label:<58s} {med:8.4f} s{digits}  "
                     f"ok {sum(r['ok'] for r in rows)}/{len(rows)}"
                     + (f"  error {sorted(errors)[0]}" if errors else ""))
    return lines


def source_lines() -> dict:
    def count(path: Path) -> int:
        return sum(1 for line in path.read_text().splitlines() if line.strip())
    out = {"src.lines": sum(count(f) for f in (ROOT / "src").rglob("*.py"))}
    for mod in SRC_MODULES:
        out[f"{mod}.lines"] = count(ROOT / "src" / "cmlinv" / f"{mod}.py")
    return out


def per_layer(workload, seed, n_items, env, out_dir, deadline):
    plain = run_pass(workload, seed, "plain", n_items, env, out_dir / "plain", deadline)
    spans = run_pass(workload, seed, "spans", n_items, env, out_dir / "spans", deadline)
    count = run_pass(workload, seed, "count", n_items, env, out_dir / "count", deadline)
    passes = [plain, spans, count]
    dumps = [json.loads(f.read_text())
             for d in ("spans", "count") for f in sorted((out_dir / d).glob("*.json"))]
    metrics = tracer.summarize(dumps)
    metrics["trace.overhead_s"] = (spans.wall_s - plain.wall_s
                                   if spans.complete and plain.complete else 0.0)
    ac = next((r["acceptance"] for r in plain.items if "acceptance" in r), {})
    for k in range(1, 9):
        metrics[f"acceptance.AC-{k}.s"] = ac.get(f"AC-{k}", 0.0)
    metrics.update(source_lines())
    notes = []
    for layer in EXERCISED[workload]:
        if tracer.layer_calls(metrics, layer) == 0:
            notes.append(f"prediction failed: {layer} is never called on {workload}")
    for layer in UNUSED[workload]:
        if tracer.layer_calls(metrics, layer) != 0:
            notes.append(f"prediction failed: {layer} is called on {workload}")
    return metrics, passes, notes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S

    if not (ROOT / "src" / "cmlinv" / "cli.py").is_file():
        sys.stderr.write(f"no cmlinv sources under {ROOT / 'src'}; run from a checkout\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(ROOT / "src")
    # compile the package's bytecode once, so no timed pass pays for it
    if subprocess.run([sys.executable, "-c", "import cmlinv.cli"], env=env,
                      cwd=ROOT).returncode != 0:
        sys.stderr.write("cmlinv does not import\n")
        return 1
    env["PYTHONDONTWRITEBYTECODE"] = "1"

    items = workloads.plan(args.workload, args.seed)
    out_dir = ROOT / ".bench_out" / str(os.getpid())
    try:
        if args.trace:
            metrics, passes, notes = per_layer(args.workload, args.seed, len(items),
                                               env, out_dir, deadline)
        else:
            n_passes = max(MIN_PASSES, round(args.seconds / NOMINAL_PASS_S))
            passes = []
            for _ in range(n_passes):
                if time.monotonic() > deadline - 5:
                    break
                passes.append(run_pass(args.workload, args.seed, "plain", len(items),
                                       env, out_dir, deadline))
            if not any(p.complete for p in passes):
                sys.stderr.write("no pass completed\n")
                return 1
            metrics, notes = end_to_end(passes)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            out_dir.parent.rmdir()
        except OSError:
            pass

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        sys.stderr.write(f"metrics not computed: {missing}\n")
        return 1
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for line in item_report(args.workload, items, passes) + notes:
        print(line)
    result = {
        "correct": failed == 0 and not any(n.startswith("prediction failed") for n in notes),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
