"""One workload in one fresh interpreter: the timed or the traced run.

``bench/run.py`` starts this module in its own session, one workload
after another.  Standard output is a readable listing of every metric
followed, on the last line, by the JSON result object.
"""

import argparse
import gc
import glob
import json
import multiprocessing
import os
import resource
import signal
import sys
import time
from time import perf_counter_ns

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "bench", "out")

#: Set-ups per timed run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Timed rounds per run at least; more while ``--seconds`` lasts.
MIN_ROUNDS = 5
#: A repetition counts as disturbed when it took this many times its
#: operation's median; the share of such repetitions is printed.
DISTURBED = 1.2

#: The traced run asserts what each workload is for: the layer that
#: must dominate it, as a share of the operations' time.
INTENT = {
    "join_deep": ("operators", 0.85),
    "plan_cold": ("optimizer", 0.6),
    "serve_durable": ("server+robustness", 0.5),
}


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def reap_children():
    """Join every child process (5 s), kill stragglers; their count."""
    children = multiprocessing.active_children()
    deadline = time.monotonic() + 5.0
    for child in children:
        # The pool's own manager thread may reap a worker first; its
        # exit code then shows a moment later, so look again.
        while child.is_alive() and time.monotonic() < deadline:
            child.join(0.05)
            time.sleep(0.005)
    stragglers = [child for child in children if child.is_alive()]
    for child in stragglers:
        child.kill()
        child.join(5.0)
    return len(stragglers)


def shm_segments(pid):
    """Shared-memory segments this process created and left behind."""
    return sorted(glob.glob("/dev/shm/repro_%d_*" % (pid,))
                  + glob.glob("/dev/shm/bench_%d_*" % (pid,)))


def peak_rss_mb():
    """Peak resident set of this process (a timed run has no child)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cache_delta(before, after):
    return {key: after[key] - before[key]
            for key in ("hits", "misses", "evictions")}


def cache_intent(workload, delta, problems):
    """plan_cold never hits the plan cache; the others never miss."""
    if workload.smoke:
        return
    if workload.name == "plan_cold":
        if delta["hits"]:
            problems.append("plan_cold hit the plan cache %d times"
                            % (delta["hits"],))
    elif delta["misses"]:
        problems.append("%s missed the plan cache %d times"
                        % (workload.name, delta["misses"]))


def tally(workload, rounds, wrong, cache_before):
    """``(attempted, failed, problems)`` of a run's checked work."""
    problems = ["oracle mismatch on %s" % (name,) for name in wrong]
    cache_intent(workload, cache_delta(
        cache_before, workload.db.plan_cache.stats()), problems)
    attempted = sum(r.attempted for r in rounds) + len(
        workload.active_templates())
    failed = sum(r.failed for r in rounds) + len(wrong)
    return attempted, failed, problems


# ----------------------------------------------------------------------
# Timed run: the end-to-end metrics, nothing traced
# ----------------------------------------------------------------------
def timed_run(workload, seconds):
    import statistics

    from bench import stats

    setups = []
    for _ in range(1 if workload.smoke else SETUP_REPEATS):
        # The previous set-up is dropped outside the timer.
        workload.teardown()
        rows = workload.input_rows()
        gc.collect()
        started = perf_counter_ns()
        workload.setup(rows)
        setups.append((perf_counter_ns() - started) / 1e9)
    wrong = workload.verify()
    workload.run_round(workload.sequence)  # discarded warm-up round
    # N1: the tables and caches built so far leave the collector's
    # sight, so a gen-2 collection mid-query walks only query garbage.
    gc.collect()
    gc.freeze()
    before = workload.db.plan_cache.stats()
    rounds = []
    started = time.monotonic()
    minimum, seconds = (1, 0) if workload.smoke else (MIN_ROUNDS, seconds)
    while len(rounds) < minimum or time.monotonic() - started < seconds:
        rounds.append(workload.run_round(workload.sequence))
    attempted, failed, problems = tally(workload, rounds, wrong, before)
    # Every round ran the same operations in the same order, so each
    # operation has one latency per round, spread over the whole run;
    # its latency is their median, which half of the run being
    # disturbed -- slower or faster -- does not move.
    repeats = [[ns / 1e6 for ns in column if ns is not None]
               for column in zip(*(r.latencies_ns for r in rounds))]
    repeats = [column for column in repeats if column]
    if not repeats:
        raise SystemExit("no operation succeeded")
    typical = [statistics.median(column) for column in repeats]
    values = {
        "query_p50_ms": stats.percentile(typical, 0.5),
        "query_p90_ms": stats.percentile(typical, 0.9),
        "queries_per_s": 1e3 * len(typical) / sum(typical),
        "tuples_pulled_per_result": (sum(r.pulled for r in rounds)
                                     / sum(r.results for r in rounds)),
        "setup_s": statistics.median(setups),
    }
    print("rounds: %d timed of %d operations each, 1 warm-up discarded"
          % (len(rounds), len(workload.sequence)))
    print("set-ups: %s s" % (", ".join("%.3f" % s for s in setups),))
    print("p50 of each round: %s ms" % (" ".join(
        "%.2f" % (stats.percentile([ns / 1e6 for ns in r.timed_ns()], 0.5),)
        for r in rounds if r.timed_ns()),))
    slow = sum(value > DISTURBED * middle
               for column, middle in zip(repeats, typical)
               for value in column)
    print("%.3f of the repetitions took over %.1f x their operation's median"
          % (slow / sum(len(column) for column in repeats), DISTURBED))
    print("query_p90_ms has %d operations beyond it" % (len(typical) // 10,))
    print("%-28s %12.4f" % ("failed_share", failed / attempted))
    return values, attempted, failed, problems


# ----------------------------------------------------------------------
# Traced run: the per-layer metrics; never feeds an end-to-end metric
# ----------------------------------------------------------------------
def traced_run(workload, per_layer):
    """The workload's trace, then those of the scenarios it hosts.

    A hosted scenario (``join_sharded`` in ``join_deep``, ``serve_durable``
    in ``short_warm``) is traced exactly like a workload, in its own
    database; it contributes the per-layer metrics only it exercises.
    """
    values, attempted, failed, problems = trace_scenario(workload, per_layer)
    for hosted in workload.hosted:
        workload.teardown()
        gc.unfreeze()
        scenario = hosted(workload.seed, smoke=workload.smoke,
                          workdir=workload.workdir)
        print("hosted scenario %s" % (scenario.name,))
        try:
            theirs, tried, lost, trouble = trace_scenario(scenario,
                                                          per_layer)
        finally:
            scenario.teardown()
            reap_children()
        values.update({name: theirs[name] for name in per_layer
                       if name.startswith(scenario.owns)})
        attempted += tried
        failed += lost
        problems += trouble
    return values, attempted, failed, problems


def trace_scenario(workload, per_layer):
    from bench import spans
    from bench.workloads import span_metrics

    tr = spans.Tracer()
    workload.setup(workload.input_rows(), tr)
    wrong = workload.verify()
    workload.run_round(workload.sequence)  # discarded warm-up round
    gc.collect()
    gc.freeze()
    cache = workload.db.plan_cache
    before = cache.stats()
    # Untraced, traced, untraced: the two untraced rounds around the
    # traced one are the base of bench.probe_overhead_ratio, so slow
    # drift of the machine cancels out of it.
    bases = [workload.run_round(workload.sequence)]
    tr.phase = "round"
    traced = workload.run_round(workload.sequence, tr)
    memo_plans = workload.memo_plans
    bases.append(workload.run_round(workload.sequence))
    delta = cache_delta(before, cache.stats())
    attempted, failed, problems = tally(workload, bases + [traced], wrong,
                                        before)
    base_ns = [ns for base in bases for ns in base.timed_ns()]
    traced_ns = traced.timed_ns()
    if not (base_ns and traced_ns):
        raise SystemExit("no operation succeeded")
    operations = len(traced_ns)
    base_ms = sum(base_ns) / 1e6 / len(base_ns)
    traced_ms = sum(traced_ns) / 1e6 / operations

    probes = workload.probes(tr, base_ms)
    values = dict.fromkeys(per_layer, 0.0)
    values.update(span_metrics(workload, tr, operations, memo_plans,
                               base_ms, traced_ms))
    lookups = delta["hits"] + delta["misses"]
    values["plan_cache.hit_ratio"] = (delta["hits"] / lookups
                                      if lookups else 0.0)
    values["plan_cache.evictions_per_query"] = (
        delta["evictions"] / (3 * operations))
    values.update(probes)

    shares = workload.layer_shares(tr, probes, base_ms)
    intent = INTENT.get(workload.name)
    if intent is not None and not workload.smoke:
        layer, least = intent
        if shares.get(layer, 0.0) < least:
            problems.append("%s share of %s is %.3f, below %.2f"
                            % (layer, workload.name,
                               shares.get(layer, 0.0), least))

    ratio_bases = {key[1:]: value for key, value in values.items()
                   if key.startswith("_")}
    ratio_bases.update(untraced_op_ms=base_ms, traced_op_ms=traced_ms)
    values = {name: values[name] for name in per_layer}
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "trace_%s.json" % (workload.name,))
    document = {"workload": workload.name, "seed": workload.seed,
                "smoke": workload.smoke, "layer_shares": shares,
                "metrics": values, "bases": ratio_bases}
    document.update(tr.as_json())
    with open(path, "w") as handle:
        json.dump(document, handle)
    print("trace: %d spans in %s" % (len(tr.spans),
                                     os.path.relpath(path, ROOT)))
    print("layer shares of operation time: %s" % (", ".join(
        "%s %.3f" % item for item in shares.items()),))
    print("bases: %s" % (", ".join(
        "%s %.4f" % item for item in sorted(ratio_bases.items())),))
    return values, attempted, failed, problems


def main(argv=None):
    parser = argparse.ArgumentParser(prog="bench/worker.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    # Replace the script's own directory: its module names must not
    # shadow the standard library's.
    sys.path[0:1] = [ROOT, os.path.join(ROOT, "src")]
    from bench.workloads import WORKLOADS

    def terminate(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, terminate)
    spec = declared()
    kind = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in spec[kind]}
    workload = WORKLOADS[args.workload](args.seed, smoke=args.smoke,
                                        workdir=args.workdir)
    print("workload %s  seed %d  %s%s" % (
        workload.name, args.seed, "traced" if args.trace else "timed",
        "  SMOKE: NOT COMPARABLE" if args.smoke else ""))
    leaked = 0
    try:
        if args.trace:
            values, attempted, failed, problems = traced_run(
                workload, list(units))
        else:
            values, attempted, failed, problems = timed_run(
                workload, args.seconds)
    finally:
        # P1: whatever happened, stop what this process started.
        workload.teardown()
        leaked = reap_children()
        segments = shm_segments(os.getpid())
        for path in segments:
            os.unlink(path)
    if leaked:
        problems.append("%d child processes had to be killed" % (leaked,))
    if segments:
        problems.append("shared-memory segments left: %s"
                        % (", ".join(segments),))
    if not args.trace:
        values["peak_rss_mb"] = peak_rss_mb()
    for name in units:
        print("%-36s %14.4f %s" % (name, values[name], units[name]))
    for problem in problems:
        print("PROBLEM: %s" % (problem,), file=sys.stderr)
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
