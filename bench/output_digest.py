#!/usr/bin/env python3
"""Digest dardsim's CSV output over a fixed scheduler x substrate matrix.

Usage: python3 bench/output_digest.py PATH_TO_DARDSIM

Runs every cell below with --csv and a fixed seed and prints one
`<cell> <md5 of stdout>` line per run:

  fluid  k=4 and k=8 x every fluid scheduler
  packet k=4         x every packet scheduler

Simulated results are deterministic, so two builds whose outputs should be
identical print identical lines: run it on both and diff the outputs. A
cell whose run exits non-zero fails the script (exit 1).
"""

import hashlib
import subprocess
import sys

FLUID_SCHEDULERS = ["ecmp", "wcmp", "pvlb", "dard", "hedera"]
PACKET_SCHEDULERS = FLUID_SCHEDULERS + ["texcp"]
SEED = "7"

# 256 MiB flows at 0.5/s per host make elephants that DARD and Hedera move;
# the packet cells stay small because every packet is an event.
FLUID_ARGS = ["--flow-mb=256", "--rate=0.5", "--duration=5"]
PACKET_ARGS = ["--flow-mb=4", "--rate=0.5", "--duration=2"]


def cells():
    for size in (4, 8):
        for sched in FLUID_SCHEDULERS:
            yield (f"fluid/k{size}/{sched}",
                   ["--substrate=fluid", f"--size={size}",
                    f"--scheduler={sched}"] + FLUID_ARGS)
    for sched in PACKET_SCHEDULERS:
        yield (f"packet/k4/{sched}",
               ["--substrate=packet", "--size=4",
                f"--scheduler={sched}"] + PACKET_ARGS)


def main(argv):
    if len(argv) != 2 or argv[1] in ("-h", "--help"):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    dardsim = argv[1]
    for name, args in cells():
        cmd = [dardsim, *args, "--csv", f"--seed={SEED}"]
        run = subprocess.run(cmd, capture_output=True, timeout=600)
        if run.returncode != 0:
            sys.stderr.write(f"{name}: exit {run.returncode}: {' '.join(cmd)}\n")
            sys.stderr.write(run.stderr.decode(errors="replace"))
            return 1
        print(f"{name} {hashlib.md5(run.stdout).hexdigest()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
