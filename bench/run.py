"""Benchmark runner: ``python3 bench/run.py [--workload NAME] ...``.

Runs each workload in a fresh interpreter of its own session, one
after another, and makes sure nothing of that session outlives it: a
workload that leaves a process, a shared-memory segment or a file in
its work directory behind fails the run.  ``SIGINT``, ``SIGTERM`` and a
timeout take the same clean-up path.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Without
``--workload`` all workloads run and ``metrics`` maps each
workload's name to its metrics.
"""

import argparse
import glob
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
OUT_DIR = os.path.join(BENCH, "out")

#: A workload run must end well inside the driver's 180 s limit.
TIMEOUT_SECONDS = 170.0


class Interrupted(Exception):
    """SIGINT or SIGTERM arrived; unwind through the clean-up."""


def session_members(session):
    """Pids of the live processes in ``session`` (zombies excluded)."""
    members = []
    for path in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(path) as handle:
                text = handle.read()
        except OSError:
            continue  # the process ended while we were looking
        # The command name may hold spaces: fields follow the last ')'.
        fields = text[text.rindex(")") + 2:].split()
        state, sid = fields[0], int(fields[3])
        if sid == session and state != "Z":
            members.append(int(path.split("/")[2]))
    return members


def command_line(pid):
    try:
        with open("/proc/%d/cmdline" % (pid,), "rb") as handle:
            return handle.read().replace(b"\0", b" ").decode().strip()
    except OSError:
        return "?"


def stop_session(session):
    """Wait for ``session`` to empty, kill what stays; what was killed.

    The workload's process is gone by now.  multiprocessing's resource
    tracker (started for the shard pool's shared memory) ends itself a
    moment after its parent, so stragglers get two seconds.
    """
    deadline = time.monotonic() + 2.0
    while session_members(session) and time.monotonic() < deadline:
        time.sleep(0.02)
    leaked = [(pid, command_line(pid)) for pid in session_members(session)]
    if leaked:
        try:
            os.killpg(session, signal.SIGKILL)
        except ProcessLookupError:
            pass
        deadline = time.monotonic() + 5.0
        while session_members(session) and time.monotonic() < deadline:
            time.sleep(0.05)
    return leaked


def run_workload(name, args):
    """One workload in its own session; ``(result or None, problems)``."""
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work_%s_" % (name,), dir=OUT_DIR)
    command = [sys.executable, os.path.join(BENCH, "worker.py"),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir]
    if args.smoke:
        command.append("--smoke")
    problems = []
    # One hash seed for every run: string hashing decides dict layout,
    # and a random one moves timings by a few percent between runs.
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                             cwd=ROOT, start_new_session=True,
                             env=dict(os.environ, PYTHONHASHSEED="0"))
    try:
        try:
            output, _ = child.communicate(timeout=TIMEOUT_SECONDS)
        except (Interrupted, subprocess.TimeoutExpired):
            # P3: let the workload run its own clean-up, then insist.
            child.terminate()
            try:
                child.communicate(timeout=10.0)
            except subprocess.TimeoutExpired:
                child.kill()
                child.communicate()
            raise
    finally:
        # P2: the workload's session must be empty once it has exited.
        leaked = stop_session(child.pid)
        if leaked:
            problems.append("leaked_processes: %s" % (leaked,))
        segments = [path for prefix in ("repro", "bench")
                    for path in glob.glob("/dev/shm/%s_%d_*"
                                          % (prefix, child.pid))]
        for path in segments:
            os.unlink(path)
        if segments:
            problems.append("leaked shared memory: %s" % (segments,))
        left = os.listdir(workdir)
        shutil.rmtree(workdir, ignore_errors=True)
        if left:
            problems.append("files left in the work directory: %s"
                            % (left,))
        for problem in problems:
            print("PROBLEM in %s: %s" % (name, problem), file=sys.stderr)
    lines = output.splitlines()
    print("\n".join(lines[:-1]))
    if child.returncode != 0:
        problems.append("exit code %d" % (child.returncode,))
        print("PROBLEM in %s: exit code %d" % (name, child.returncode),
              file=sys.stderr)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return result, problems


def main(argv=None):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            spec = json.load(handle)
    except OSError as error:
        print("cannot read BENCHMARK.json: %s" % (error,), file=sys.stderr)
        return 2
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(
        prog="bench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, default=None,
                        help="run one workload (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the tables and operation order")
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"],
                        help="length of the timed section")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: traced run, prints the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="1 round of 10 operations; not comparable")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("the program's sources (src/repro) are not in %s" % (ROOT,),
              file=sys.stderr)
        return 2

    def interrupt(signum, frame):
        raise Interrupted(signum)

    signal.signal(signal.SIGINT, interrupt)
    signal.signal(signal.SIGTERM, interrupt)
    results = {}
    failed = False
    try:
        for name in [args.workload] if args.workload else names:
            result, problems = run_workload(name, args)
            if result is not None and problems:
                result["correct"] = False
            if result is None or not result["correct"]:
                failed = True
            results[name] = result
    except Interrupted as stop:
        print("interrupted by signal %d" % stop.args, file=sys.stderr)
        return 128 + stop.args[0]
    except subprocess.TimeoutExpired:
        print("%s timed out after %d s" % (name, TIMEOUT_SECONDS),
              file=sys.stderr)
        return 1
    if None in results.values():
        return 1
    if args.workload:
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps({
            "correct": not failed,
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {name: r["metrics"]
                        for name, r in results.items()},
        }))
    # A wrong answer or a leak is a failed run, not a measurement.
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
