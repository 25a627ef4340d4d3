#!/usr/bin/env python3
"""Digest dardsim's output over a fixed scheduler x substrate matrix.

Usage: python3 bench/output_digest.py PATH_TO_DARDSIM

Runs every cell below with a fixed seed and prints one `<name> <md5>` line
per digest:

  fluid  k=4 and k=8 x every fluid scheduler     md5 of --csv stdout
  packet k=4         x every packet scheduler    md5 of --csv stdout
  packet k=4: DARD under the chaos fault plan, WCMP on an oversubscribed
    fabric and WCMP over mixed link speeds      md5 of --csv stdout
  run dirs (--run-dir --spans): fluid DARD at k=4 and k=8, the chaos
    preset with 8 MiB and with 128 MiB flows, Hedera at k=8 and packet DARD
    at k=4 with 16 MiB and with 32 MiB flows   md5 of each artifact
    below, and of the text and --md output of `dardscope report` and
    `dardscope spans`, of `report --window=2`, and of `dardscope flow` for
    the report's most-moved flow
  one `dardscope diff` of the k=8 DARD and Hedera run dirs, text and --md

The run-dir cells exercise the trace and sample writers and dardscope's
readers. They leave out --snapshot-period, because snapshot lines carry the
host's RSS, and the dardscope digests drop what carries the directory path
or host timings: the `run:`, `wall clock:`, `A:` and `B:` lines and the
markdown report's "Wall clock" sentence. dardscope is taken from dardsim's
directory.

Simulated results are deterministic, so two builds whose outputs should be
identical print identical lines: run it on both and diff the outputs. A
cell whose run exits non-zero fails the script (exit 1).
"""

import hashlib
import os
import re
import subprocess
import sys
import tempfile

FLUID_SCHEDULERS = ["ecmp", "wcmp", "pvlb", "dard", "hedera"]
PACKET_SCHEDULERS = FLUID_SCHEDULERS + ["texcp"]
SEED = "7"

# 256 MiB flows at 0.5/s per host make elephants that DARD and Hedera move;
# the packet cells stay small because every packet is an event.
FLUID_ARGS = ["--flow-mb=256", "--rate=0.5", "--duration=5"]
PACKET_ARGS = ["--flow-mb=4", "--rate=0.5", "--duration=2"]

# Packet paths the scheduler matrix leaves out: links that fail and
# black-hole packets mid-route (the chaos plan drops 9 packets here against
# 4 without faults), a 2:1 oversubscribed fabric, and core columns of 1 and
# 2 Gbps, whose unequal serialization times mix along one route. At p=4,
# --oversub=2 leaves one uplink per aggregation switch, all at one speed, so
# mixed speeds need their own cell. 16 MiB flows fill queues enough to drop.
PACKET_EXTRA_CELLS = [
    ("packet/k4/dard-chaos",
     ["--substrate=packet", "--size=4", "--scheduler=dard", "--flow-mb=8",
      "--rate=0.5", "--duration=4", "--query-interval=0.1",
      "--schedule-interval=0.1", "--faults=chaos"]),
    ("packet/k4/wcmp-oversub2",
     ["--substrate=packet", "--size=4", "--scheduler=wcmp", "--oversub=2",
      "--flow-mb=16", "--rate=0.5", "--duration=2"]),
    ("packet/k4/wcmp-skew2",
     ["--substrate=packet", "--size=4", "--scheduler=wcmp", "--speed-skew=2",
      "--flow-mb=16", "--rate=0.5", "--duration=2"]),
]

# The packet run-dir cell needs flows that become elephants (16 MiB flows
# give 130 trace lines at seed 7); with 4 MiB flows its trace is empty.
# Neither that cell nor the 8 MiB chaos cell moves a flow, so each has an
# -elephants twin whose flows DARD moves (seed 7: 21 moves over 15 flows
# under chaos, 1 move on the packet substrate); the chaos twin is the cell
# whose max-min solves see capacity changes while flows move.
RUN_DIR_CELLS = [
    ("rundir/fluid/k4/dard",
     ["--substrate=fluid", "--size=4", "--scheduler=dard"] + FLUID_ARGS),
    ("rundir/fluid/k8/dard",
     ["--substrate=fluid", "--size=8", "--scheduler=dard"] + FLUID_ARGS),
    ("rundir/fluid/k4/chaos",
     ["--substrate=fluid", "--size=4", "--scheduler=dard", "--flow-mb=8",
      "--rate=0.5", "--duration=8", "--query-interval=0.1",
      "--schedule-interval=0.1", "--faults=chaos"]),
    ("rundir/fluid/k4/chaos-elephants",
     ["--substrate=fluid", "--size=4", "--scheduler=dard", "--flow-mb=128",
      "--rate=0.5", "--duration=8", "--query-interval=0.1",
      "--schedule-interval=0.1", "--faults=chaos"]),
    ("rundir/fluid/k8/hedera",
     ["--substrate=fluid", "--size=8", "--scheduler=hedera"] + FLUID_ARGS),
    ("rundir/packet/k4/dard",
     ["--substrate=packet", "--size=4", "--scheduler=dard", "--flow-mb=16",
      "--rate=0.5", "--duration=2"]),
    ("rundir/packet/k4/dard-elephants",
     ["--substrate=packet", "--size=4", "--scheduler=dard", "--flow-mb=32",
      "--rate=0.5", "--duration=2"]),
]
RUN_DIR_FILES = ["trace.jsonl", "link_samples.csv", "agg_samples.csv",
                 "control_bytes.csv"]
DIFF_CELLS = ("rundir/fluid/k8/dard", "rundir/fluid/k8/hedera")
DIFF_NAME = "rundir/diff/fluid/k8/dard-vs-hedera"
HOST_LINES = (b"run:", b"wall clock:", b"A: ", b"B: ")
WALL_CLOCK_MD = re.compile(
    rb" Wall clock: setup [^ ]+ s, run [^ ]+ s, collect [^ ]+ s\.")
MOST_MOVED = re.compile(rb"most-moved flow: (\d+) ")


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
    yield from PACKET_EXTRA_CELLS


def md5(data):
    return hashlib.md5(data).hexdigest()


def run_or_none(name, cmd):
    """stdout of `cmd`, or None (with the reason on stderr) if it failed."""
    run = subprocess.run(cmd, capture_output=True, timeout=600)
    if run.returncode != 0:
        sys.stderr.write(f"{name}: exit {run.returncode}: {' '.join(cmd)}\n")
        sys.stderr.write(run.stderr.decode(errors="replace"))
        return None
    return run.stdout


def run_dir_of(root, name):
    return os.path.join(root, name.replace("/", "_"))


def host_free(data):
    """`data` without the parts that carry host paths or host timings."""
    return b"".join(WALL_CLOCK_MD.sub(b"", line)
                    for line in data.splitlines(keepends=True)
                    if not line.startswith(HOST_LINES))


def digest_scope(name, args, md=None):
    """Prints the digest of one dardscope run's stdout, and of its --md
    file when `md` names one; returns stdout, or None if the run failed."""
    out = run_or_none(name, args + ([f"--md={md}"] if md else []))
    if out is None:
        return None
    print(f"{name} {md5(host_free(out))}", flush=True)
    if md:
        with open(md, "rb") as f:
            print(f"{name}.md {md5(host_free(f.read()))}", flush=True)
    return out


def digest_run_dir(name, args, dardsim, dardscope, root):
    """Prints the digests of one run-dir cell; False if a run failed."""
    run_dir = run_dir_of(root, name)
    cmd = [dardsim, *args, "--spans", f"--run-dir={run_dir}", f"--seed={SEED}"]
    if run_or_none(name, cmd) is None:
        return False
    for file in RUN_DIR_FILES:
        path = os.path.join(run_dir, file)
        if os.path.exists(path):
            with open(path, "rb") as f:
                print(f"{name}/{file} {md5(f.read())}", flush=True)
        else:
            print(f"{name}/{file} absent", flush=True)
    md = os.path.join(root, "scope.md")
    report = digest_scope(f"{name}/dardscope-report",
                          [dardscope, "report", run_dir], md)
    if report is None or digest_scope(f"{name}/dardscope-spans",
                                      [dardscope, "spans", run_dir],
                                      md) is None:
        return False
    if digest_scope(f"{name}/dardscope-report-window2",
                    [dardscope, "report", run_dir, "--window=2"]) is None:
        return False
    moved = MOST_MOVED.search(report)
    if moved is None:
        print(f"{name}/dardscope-flow none", flush=True)
        return True
    flow = moved.group(1).decode()
    return digest_scope(f"{name}/dardscope-flow-{flow}",
                        [dardscope, "flow", run_dir, flow]) is not None


def main(argv):
    if len(argv) != 2 or argv[1] in ("-h", "--help"):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    dardsim = argv[1]
    dardscope = os.path.join(os.path.dirname(os.path.abspath(dardsim)),
                             "dardscope")
    if not os.path.exists(dardscope):
        sys.stderr.write(f"no dardscope next to {dardsim}\n")
        return 1
    for name, args in cells():
        out = run_or_none(name, [dardsim, *args, "--csv", f"--seed={SEED}"])
        if out is None:
            return 1
        print(f"{name} {md5(out)}", flush=True)
    with tempfile.TemporaryDirectory(prefix="output_digest_") as root:
        for name, args in RUN_DIR_CELLS:
            if not digest_run_dir(name, args, dardsim, dardscope, root):
                return 1
        a, b = DIFF_CELLS
        if digest_scope(DIFF_NAME,
                        [dardscope, "diff", run_dir_of(root, a),
                         run_dir_of(root, b)],
                        os.path.join(root, "diff.md")) is None:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
