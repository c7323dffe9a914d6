#!/usr/bin/env python3
"""Runner for the end-to-end benchmark (bench/e2e/README.md). Standard library only.

Run from the repository root:

  python3 bench/e2e/run.py                  build, run every workload once, print
                                            `workload metric value unit`
  python3 bench/e2e/run.py --repeat 5 --save A.json
                                            five runs per workload (seeds 1..5)
  python3 bench/e2e/run.py --repeat 5 --save B.json --parent P --save-parent A.json
                                            the same, interleaved run by run with
                                            the binary P (another commit's build)
  python3 bench/e2e/run.py compare A.json B.json
                                            medians, quartiles and change against
                                            each metric's BENCHMARK.json bound
  python3 bench/e2e/run.py trace            traced + untraced run per workload:
                                            per-layer table and tracing overhead
  python3 bench/e2e/run.py --workload W --seed N --seconds S --trace 0|1
                                            one run; the last stdout line is the
                                            JSON result
  python3 bench/e2e/run.py smoke --binary B every workload in --quick mode; emitted
                                            metric names must equal the declared ones

Exit status is non-zero when a build fails, an operation fails, or an output
check does not hold.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build-e2e")
BINARY = os.path.join(BUILD, "cdmpp_bench")
RUN_TIMEOUT_S = 170
# A repeated run whose fixed-rate phase the host disturbed on every attempt
# inside the binary is run again with the same seed, at most this often.
DISTURBED_RERUNS = 2


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures (once) and builds build-e2e/cdmpp_bench; False on failure."""
    steps = []
    # Configure unless a previous configure finished (a failed one leaves a
    # cache but no build system behind).
    if not any(os.path.exists(os.path.join(BUILD, f)) for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "cdmpp_bench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def results_dir(binary):
    """Results and trace files land next to the binary, inside its build tree."""
    return os.path.join(os.path.dirname(binary), "results")


def run_once(binary, workload, seed, seconds, trace, quick=False):
    """Runs the binary once; returns (exit code, result dict or None)."""
    os.makedirs(results_dir(binary), exist_ok=True)
    tag = "{}-{}-{}".format(workload, seed, "trace" if trace else "plain")
    out = os.path.join(results_dir(binary), tag + ".json")
    if os.path.exists(out):
        os.remove(out)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--out", out]
    if trace:
        cmd.append("--trace")
    if quick:
        cmd.append("--quick")
    try:
        rc = subprocess.run(cmd, stdout=sys.stderr, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log("{}: timed out after {} s".format(tag, RUN_TIMEOUT_S))
        return 1, None
    try:
        with open(out) as f:
            return rc, json.load(f)
    except (OSError, ValueError):
        log("{}: no result (exit {})".format(tag, rc))
        return rc or 1, None


def is_correct(rc, result):
    return (rc == 0 and result is not None and result["failed"] == 0 and
            all(c["checked"] > 0 and c["mismatched"] == 0 for c in result["checks"]))


def declared(spec, trace):
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def cmd_single(args, spec):
    """Single-run mode: one run, its result as the last stdout line."""
    if not build():
        return 1
    trace = args.trace == 1
    rc, result = run_once(BINARY, args.workload, args.seed, args.seconds, trace)
    if result is None:
        return 1
    block = result["per_layer" if trace else "end_to_end"]
    missing = [n for n in declared(spec, trace) if n not in block]
    if missing:
        log("result lacks declared metrics: " + ", ".join(missing))
        return 1
    if result["disturbed"]:
        log("warning: the host disturbed every attempt at the fixed-rate phase")
    correct = is_correct(rc, result)
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: block[n] for n in declared(spec, trace)},
    }))
    return 0 if correct else 1


def print_phases(workload, result):
    for p in result["phases"]:
        if p["open_loop"]:
            log("  {} {}: {} rps, n={} ok={} failed={}, p50 {:.4f} ms, windowed p99 {:.4f} ms "
                "({} windows), gen late p99 {:.4f} ms max {:.3f} ms, floor p99 {:.2f} us".format(
                    workload, p["name"], p["rate_rps"], p["attempted"], p["succeeded"],
                    p["failed"], p["p50_ms"], p["p99_ms"], len(p["window_p99_ms"]),
                    p["gen_late_ms_p99"], p["gen_late_ms_max"], p["floor_us_p99"]))
        else:
            log("  {} {}: n={} ok={} failed={} hits={}, {:.0f} worker completions/s".format(
                workload, p["name"], p["attempted"], p["succeeded"], p["failed"],
                p["ready_at_submit"], p["completed_per_s"]))


def run_undisturbed(binary, workload, seed, seconds):
    """One untraced run, run again with the same seed while the host disturbed it."""
    for _ in range(DISTURBED_RERUNS):
        rc, result = run_once(binary, workload, seed, seconds, False)
        if result is None or not result["disturbed"]:
            return rc, result
        log("{} seed {}: the host disturbed the fixed-rate phase, running again".format(
            workload, seed))
    return run_once(binary, workload, seed, seconds, False)


def cmd_runs(args, spec):
    """Default mode: every workload, `--repeat` seeds each, metrics printed.

    With --parent, each (workload, seed) runs on both binaries, in alternating
    order, so that host drift over the session falls on both sets alike.
    """
    if not build():
        return 1
    sides = [("", BINARY, args.save)]
    if args.parent:
        sides.append(("parent ", args.parent, args.save_parent))
    seeds = list(range(args.seed, args.seed + args.repeat))
    saved = {label: {"seconds": args.seconds, "seeds": seeds, "host": None, "units": {},
                     "runs": {}} for label, _, _ in sides}
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        for r, seed in enumerate(seeds):
            for label, binary, _ in (sides if r % 2 == 0 else sides[::-1]):
                rc, result = run_undisturbed(binary, workload, seed, args.seconds)
                correct = is_correct(rc, result)
                ok = ok and correct
                if result is None:
                    continue
                side = saved[label]
                side["host"] = result["host"]
                row = {}
                for name in declared(spec, False):
                    metric = result["end_to_end"][name]
                    row[name] = metric["value"]
                    side["units"][name] = metric["unit"]
                    print("{}{} {} {:.6g} {}".format(label, workload, name, metric["value"],
                                                     metric["unit"]))
                print("{}{} correct {} (attempted {}, failed {}, disturbed {}, checks {})".format(
                    label, workload, correct, result["attempted"], result["failed"],
                    result["disturbed"],
                    ", ".join("{} {}/{}".format(c["name"], c["checked"] - c["mismatched"],
                                                c["checked"]) for c in result["checks"])))
                print_phases(label + workload, result)
                side["runs"].setdefault(workload, []).append(row)
    for label, _, path in sides:
        side = saved[label]
        side["summary"] = {
            workload: {name: dict(zip(("q1", "median", "q3"),
                                      quartiles([row[name] for row in rows])))
                       for name in declared(spec, False)}
            for workload, rows in side["runs"].items()}
        if args.repeat > 1:
            print("\n{}workload metric median [q1, q3] spread".format(label))
            for workload, metrics in side["summary"].items():
                for name, q in metrics.items():
                    print("{}{} {} {:.6g} [{:.6g}, {:.6g}] {:.1%}".format(
                        label, workload, name, q["median"], q["q1"], q["q3"],
                        (q["q3"] - q["q1"]) / q["median"] if q["median"] else 0.0))
        if path:
            with open(path, "w") as f:
                json.dump(side, f, indent=1, sort_keys=True)
                f.write("\n")
            log("wrote " + path)
    return 0 if ok else 1


def short(x):
    return "{:.0f}".format(x) if abs(x) >= 1000 else "{:.4g}".format(x)


def cmd_compare(args, spec):
    """Change of B against A per (workload, metric), judged by each bound.

    When both sets ran the same seeds (an interleaved --parent session), runs
    pair up by seed, and `B wins` counts the pairs in which B read better.
    """
    with open(args.a) as f:
        a = json.load(f)
    with open(args.b) as f:
        b = json.load(f)
    paired = a["seeds"] == b["seeds"]
    print("{:13s} {:12s} {:>28s} {:>28s} {:>8s} {:>6s} {:>7s}  verdict".format(
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "bound",
        "B wins"))
    worse_count = 0
    for workload in sorted(set(a["runs"]) & set(b["runs"])):
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            va = [row[name] for row in a["runs"][workload]]
            vb = [row[name] for row in b["runs"][workload]]
            qa, qb = quartiles(va), quartiles(vb)
            change = (qb[1] - qa[1]) / qa[1]
            worse = change if m["better"] == "lower" else -change
            wins = "-"
            if paired and len(va) == len(vb):
                sign = -1 if m["better"] == "lower" else 1
                wins = "{}/{}".format(sum(sign * (y - x) > 0 for x, y in zip(va, vb)), len(va))
            spread = (qa[2] - qa[0]) / qa[1]
            if worse > bound:
                verdict = "WORSE"
                worse_count += 1
            elif spread > bound:
                verdict = "unresolved (A spread {:.1%})".format(spread)
            else:
                verdict = "ok"
            print("{:13s} {:12s} {:>28s} {:>28s} {:>+8.1%} {:>6.0%} {:>7s}  {}".format(
                workload, name, "{} [{}, {}]".format(*map(short, (qa[1], qa[0], qa[2]))),
                "{} [{}, {}]".format(*map(short, (qb[1], qb[0], qb[2]))), change, bound, wins,
                verdict))
    return 1 if worse_count else 0


def cmd_trace(args, spec):
    """Per-layer table from the traced run, and the overhead tracing adds."""
    if not build():
        return 1
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        rc0, plain = run_once(BINARY, workload, args.seed, args.seconds, False)
        rc1, traced = run_once(BINARY, workload, args.seed, args.seconds, True)
        ok = ok and is_correct(rc0, plain) and is_correct(rc1, traced)
        if plain is None or traced is None:
            continue
        for name in declared(spec, True):
            metric = traced["per_layer"][name]
            print("{} {} {:.6g} {}".format(workload, name, metric["value"], metric["unit"]))
        for name, metric in sorted(traced["extra"].items()):
            print("{} {} {:.6g} {}".format(workload, name, metric["value"], metric["unit"]))
        for name in declared(spec, False):
            before = plain["end_to_end"][name]["value"]
            after = traced["end_to_end"][name]["value"]
            print("{} obs.trace_overhead.{} {:+.2%} fraction".format(
                workload, name, (after - before) / before if before else 0.0))
        print("{} trace_file {}".format(
            workload, os.path.join(results_dir(BINARY), "trace_{}.json".format(workload))))
    return 0 if ok else 1


def cmd_smoke(args, spec):
    """ctest: each workload in --quick mode, traced and untraced."""
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (False, True):
            rc, result = run_once(args.binary, workload, 1, 1, trace, quick=True)
            if not is_correct(rc, result):
                log("FAIL {} trace={}: run failed or a check did not hold".format(workload, trace))
                ok = False
                continue
            emitted = set(result["per_layer" if trace else "end_to_end"])
            wanted = set(declared(spec, trace))
            if emitted != wanted:
                log("FAIL {} trace={}: undeclared {} missing {}".format(
                    workload, trace, sorted(emitted - wanted), sorted(wanted - emitted)))
                ok = False
            else:
                log("ok   {} trace={}: {} metrics".format(workload, trace, len(emitted)))
    return 0 if ok else 1


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", nargs="?", choices=["compare", "trace", "smoke"])
    parser.add_argument("files", nargs="*", help="compare: A.json B.json")
    parser.add_argument("--workload", choices=names,
                        help="run one workload once (single-run mode)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="single-run mode: 1 reports the per-layer metrics")
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload, seeds N, N+1, ...")
    parser.add_argument("--save", help="write the runs' metrics here (input to compare)")
    parser.add_argument("--parent", help="a second binary (another commit's build-e2e/"
                        "cdmpp_bench) whose runs interleave with this one's")
    parser.add_argument("--save-parent", help="write the --parent runs' metrics here")
    parser.add_argument("--binary", default=BINARY, help="smoke: the binary under test")
    args = parser.parse_args()
    if args.parent:
        if not args.save_parent:
            parser.error("--parent needs --save-parent")
        args.parent = os.path.abspath(args.parent)
    if args.command == "compare":
        if len(args.files) != 2:
            parser.error("compare takes two result files")
        args.a, args.b = args.files
        return cmd_compare(args, spec)
    if args.command == "trace":
        return cmd_trace(args, spec)
    if args.command == "smoke":
        return cmd_smoke(args, spec)
    if args.workload:
        return cmd_single(args, spec)
    return cmd_runs(args, spec)


if __name__ == "__main__":
    sys.exit(main())
