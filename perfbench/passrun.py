"""One pass over a workload's items, in a fresh interpreter.

    python3 perfbench/passrun.py WORKLOAD SEED MODE SPAWN_TIME DUMP_DIR

MODE is plain, spans or count.  SPAWN_TIME is the driver's
time.monotonic() just before it started this process (CLOCK_MONOTONIC is
system-wide on Linux), so set-up time includes interpreter start.  Prints
one JSON line per event: {"setup_s", "rate"}, one {"item", "seconds",
"rate", ...} row per item, then {"rss_mb"} when the pass is done.  A
driver that kills this process still has every row printed before the
kill.

Speed calibration: the CPU speed of a shared machine drifts by a third
over 10 to 20 s, and process CPU time drifts with it.  So the pass times a
fixed pure-Python loop (CALIBRATION_S long) right after set-up and again
whenever CALIBRATE_EVERY_S of items have run, and gives every item the
mean loop rate measured just before and just after it.  The driver scales
each measured time by rate / REFERENCE_RATE: seconds on a machine that
runs the loop REFERENCE_RATE times per second.  The loop never calls
cmlinv, so a change to the program moves the measured time and not the
rate.

fg-grid and field-twoway run their items in this process, each under an
interval timer that stops it at ITEM_CAP_S.  cli-session starts each
command as its own `python -m cmlinv.cli` process and kills it at the
cap.  A capped item is a failed item.
"""

from __future__ import annotations

import json
import resource
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import workloads

ITEM_CAP_S = 20.0
CALIBRATION_S = 0.1
CALIBRATE_EVERY_S = 1.0
REFERENCE_RATE = 600.0
HERE = Path(__file__).resolve().parent


class ItemTimeout(Exception):
    pass


def _emit(row: dict) -> None:
    sys.stdout.write(json.dumps(row) + "\n")
    sys.stdout.flush()


def _on_alarm(signum, frame):
    raise ItemTimeout(f"item ran past {ITEM_CAP_S} s")


def _loop() -> Fraction:
    acc = Fraction(0)
    for a in range(1, 400):
        acc += Fraction(a, 391) ** 3
    return acc


def calibration_rate() -> float:
    """Runs of `_loop` per second, over at least CALIBRATION_S."""
    n, t0 = 0, time.perf_counter()
    while True:
        _loop()
        n += 1
        dt = time.perf_counter() - t0
        if dt >= CALIBRATION_S:
            return n / dt


class Calibrated:
    """Holds item rows until the next calibration gives them their rate."""

    def __init__(self):
        self.rate = calibration_rate()
        self.since = time.perf_counter()
        self.pending: list[dict] = []

    def add(self, row: dict, last: bool) -> None:
        self.pending.append(row)
        if last or time.perf_counter() - self.since >= CALIBRATE_EVERY_S:
            rate = calibration_rate()
            for r in self.pending:
                r["rate"] = (self.rate + rate) / 2
                _emit(r)
            self.pending.clear()
            self.rate, self.since = rate, time.perf_counter()


def run_in_process(workload, items, mode, spawn, dump_dir) -> int:
    tracer = None
    if mode != "plain":
        from tracer import Tracer
        tracer = Tracer(mode)
        tracer.install()
    prepared = [workloads.prepare(workload, item) for item in items]
    setup = time.monotonic() - spawn
    cal = Calibrated()
    _emit({"setup_s": setup, "rate": cal.rate})
    signal.signal(signal.SIGALRM, _on_alarm)
    for i, (item, args) in enumerate(zip(items, prepared)):
        if tracer is not None:
            tracer.item = i
        row = {"item": i, "ok": False, "digits": None, "error": None}
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, ITEM_CAP_S)
        try:
            result = workloads.run_item(workload, item, args)
        except Exception as exc:  # noqa: BLE001  (a failing item is counted, not fatal)
            result, row["error"] = None, f"{type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        row["seconds"] = time.perf_counter() - t0
        if result is not None:
            row["ok"], row["digits"] = workloads.check(workload, item, result)
        cal.add(row, last=i == len(items) - 1)
    if tracer is not None:
        tracer.dump(str(Path(dump_dir) / "pass.json"))
    _emit({"rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024})
    return 0


def run_cli(items, mode, dump_dir) -> int:
    t0 = time.monotonic()
    subprocess.run([sys.executable, "-c", "import cmlinv.cli"], check=True)
    setup = time.monotonic() - t0
    cal = Calibrated()
    _emit({"setup_s": setup, "rate": cal.rate})
    for i, item in enumerate(items):
        if mode == "plain":
            cmd = [sys.executable, "-m", "cmlinv.cli", *item["argv"]]
        else:
            dump = str(Path(dump_dir) / f"cmd{i}.json")
            cmd = [sys.executable, str(HERE / "tracer.py"), mode, dump, *item["argv"]]
        row = {"item": i, "ok": False, "digits": None, "error": None}
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd, capture_output=True, timeout=ITEM_CAP_S)
        except subprocess.TimeoutExpired:
            proc, row["error"] = None, f"killed after {ITEM_CAP_S} s"
        row["seconds"] = time.monotonic() - t0
        if proc is not None:
            row["ok"] = workloads.check_cli(item, proc.returncode, proc.stdout)
            if not row["ok"]:
                row["error"] = f"exit {proc.returncode}: {proc.stderr.decode()[-200:]}"
            elif item["argv"][0] == "acceptance":
                row["acceptance"] = workloads.acceptance_seconds(proc.stdout)
        cal.add(row, last=i == len(items) - 1)
    _emit({"rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024})
    return 0


def main(argv: list[str]) -> int:
    workload, seed, mode, spawn, dump_dir = argv
    items = workloads.plan(workload, int(seed))
    if workload == "cli-session":
        return run_cli(items, mode, dump_dir)
    return run_in_process(workload, items, mode, float(spawn), dump_dir)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
