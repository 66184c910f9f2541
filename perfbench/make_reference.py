"""Capture the reference stdout of every cli-session command a seed can draw.

    PYTHONPATH=src python3 perfbench/make_reference.py

Run it only at a commit whose output is known to be right (the references
in the repository come from the commit that added this benchmark); the
cli-session check compares later commits byte for byte against them.
"""

import subprocess
import sys

import workloads


def main() -> int:
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for item in workloads.cli_items():
        proc = subprocess.run([sys.executable, "-m", "cmlinv.cli", *item["argv"]],
                              capture_output=True, check=False)
        if proc.returncode != item["rc"]:
            sys.stderr.write(f"{item['argv']}: exit {proc.returncode}, "
                             f"expected {item['rc']}\n")
            return 1
        (workloads.REFERENCE_DIR / f"{item['ref']}.out").write_bytes(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
