#!/usr/bin/env python3
"""Build and run the host-performance benchmark (perf/README.md).

One run of one workload, as BENCHMARK.json's command runs it:

    python3 perf/run.py --workload coll-replay --seed 3 --seconds 10 --trace 0

prints every metric, then one JSON object as the last stdout line:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (and writes perf/out/<workload>.host.trace.json).

Other modes:

    python3 perf/run.py                  # every workload, untraced
    python3 perf/run.py --trace 1        # every workload, traced
    python3 perf/run.py --smoke          # every workload scaled down (<20 s)
    python3 perf/run.py --repeat 10 --out cap.json   # quartiles per metric
    python3 perf/run.py --compare parent.json change.json
    python3 perf/run.py --record         # two sets of 5 runs -> baseline.json

Each run builds han_perf first (CMake, Release, into build-perf/) and
runs each workload in its own process. The exit status is non-zero when
the build fails, a metric is missing or not finite, or an operation failed.
"""

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERF = ROOT / "perf"
BUILD = ROOT / "build-perf"
OUT = PERF / "out"
BINARY = BUILD / "han_perf"

FIRST_RUN_LIMIT_S = 900  # a run that builds from scratch
RUN_LIMIT_S = 180        # any other run


class BenchError(Exception):
    """A failure that must end the run without printing a result."""


_child = None  # the running build step or han_perf, if any


def _stop_child(signum, _frame):
    """SIGTERM/SIGINT: stop the running child's whole process group, then
    exit without a result."""
    if _child is not None:
        _kill_group(_child)
    sys.exit(128 + signum)


def _kill_group(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def run_bounded(cmd, deadline):
    """Run `cmd` in its own process group until it ends or `deadline`
    passes. On a timeout the whole group (make and the compilers under a
    build, too) is killed and waited for before TimeoutExpired is raised.
    Returns (returncode, stdout, stderr)."""
    global _child
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        _child = proc
        try:
            out, err = proc.communicate(
                timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            _kill_group(proc)
            raise
        finally:
            _child = None
    return proc.returncode, out, err


def load_spec():
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        raise BenchError(f"{spec_path} is missing")
    return json.loads(spec_path.read_text())


def build(deadline):
    """Configure (once) and build han_perf."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(PERF), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "han_perf",
                  "-j", jobs])
    for cmd in steps:
        try:
            code, out, err = run_bounded(cmd, deadline)
        except (OSError, subprocess.TimeoutExpired) as e:
            raise BenchError(f"build step {cmd[:2]} failed: {e}") from e
        if code != 0:
            sys.stderr.write(out[-4000:] + err[-4000:])
            raise BenchError(f"build step {' '.join(cmd[:3])} failed")
    if not BINARY.is_file():
        raise BenchError(f"{BINARY} was not built")


def run_han_perf(spec, workload, seed, seconds, trace, smoke, deadline):
    """One han_perf process; returns its validated result."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds))]
    if trace:
        OUT.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace", "--trace-out",
                str(OUT / f"{workload}.host.trace.json")]
    if smoke:
        cmd.append("--smoke")
    try:
        code, out, err = run_bounded(cmd, deadline)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{workload}: han_perf timed out") from e
    sys.stderr.write(err)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        raise BenchError(f"{workload}: han_perf exited {code}")
    try:
        raw = json.loads(lines[-1])
    except ValueError as e:
        raise BenchError(f"{workload}: han_perf printed no result") from e
    return validate(spec, workload, raw, trace)


def validate(spec, workload, raw, trace):
    """Check han_perf's metrics against BENCHMARK.json: every metric of
    the run's kind present, with its unit, and finite. Returns the result
    in the shape perf/README.md describes."""
    build_type = raw.get("build", {}).get("type")
    if build_type != "Release":
        raise BenchError(f"{workload}: han_perf build type is {build_type!r}, "
                         "not Release")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    got = raw["metrics"]
    metrics = {}
    for m in wanted:
        entry = got.get(m["name"])
        if entry is None:
            raise BenchError(f"{workload}: metric {m['name']} is missing")
        value = entry["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise BenchError(f"{workload}: metric {m['name']} is not finite")
        if entry["unit"] != m["unit"]:
            raise BenchError(f"{workload}: metric {m['name']} has unit "
                             f"{entry['unit']}, BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    extra = set(got) - set(metrics)
    if extra:
        raise BenchError(f"{workload}: metrics not in BENCHMARK.json: "
                         f"{sorted(extra)}")
    return {"correct": bool(raw["correct"]), "attempted": int(raw["attempted"]),
            "failed": int(raw["failed"]), "metrics": metrics,
            "n/a": raw.get("n/a", []), "raw": raw.get("raw", {}),
            "compiler": raw["build"].get("compiler", "")}


def ok(result):
    return result["correct"] and result["failed"] == 0


# What an untraced han_perf run reports beside its metrics: op_ms and
# setup_s before normalization, and the run's median reference-kernel time.
RAW = (("op_ms", "ms"), ("setup_s", "s"), ("reference_ms", "ms"))


def print_metrics(workload, result, trace):
    """One line per metric. Per-layer metrics of a layer the workload does
    not exercise read 0 in the JSON and "n/a" here; untraced runs add the
    op_ms and setup_s before normalization and the kernel time they were
    divided by."""
    for name, m in result["metrics"].items():
        value = ("n/a" if name in result["n/a"] else f"{m['value']:.6g}")
        print(f"{workload:14s} {name:26s} {value:>18s} {m['unit']}")
    if not trace:
        for name, unit in RAW:
            print(f"{workload:14s} {name + ' (raw)':26s} "
                  f"{result['raw'][name]:>18.6g} {unit}")
    print(f"{workload:14s} {'correct':26s} {str(result['correct']):>18s} "
          f"({result['failed']} of {result['attempted']} ops failed)")


# --- repeat / record / compare ----------------------------------------------


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def capture(spec, workloads, runs, seed0, seconds, deadline_per_run):
    """runs x workloads untraced results: {workload: [{seed, ...}, ...]}."""
    out = {w: [] for w in workloads}
    for i in range(runs):
        for w in workloads:
            seed = seed0 + i
            r = run_han_perf(spec, w, seed, seconds, False, False,
                           time.monotonic() + deadline_per_run)
            out[w].append({"seed": seed, "compiler": r["compiler"],
                           "correct": r["correct"],
                           "attempted": r["attempted"], "failed": r["failed"],
                           "metrics": {k: v["value"]
                                       for k, v in r["metrics"].items()},
                           "raw": r["raw"]})
            print(f"  {w} seed {seed}: " + ", ".join(
                f"{k}={v:.6g}" for k, v in out[w][-1]["metrics"].items()),
                file=sys.stderr)
    return out


def summarize(spec, runs):
    """Print median/quartiles/spread per workload and metric. FLAG marks an
    end-to-end spread above a third of the metric's bound: the run needs to
    be steadier or longer. The RAW values follow, for reference (no
    bound)."""
    print(f"{'workload':14s} {'metric':14s} {'median':>14s} {'q1':>14s} "
          f"{'q3':>14s} {'spread':>8s} {'bound':>6s}")
    rows = [(m["name"], m["bound"], lambda r, n=m["name"]: r["metrics"][n])
            for m in spec["end_to_end"]]
    rows += [(f"{n} (raw)", None, lambda r, n=n: r["raw"][n])
             for n, _ in RAW]
    for w, rs in runs.items():
        for name, bound, get in rows:
            values = [get(r) for r in rs]
            q1, med, q3 = quartiles(values)
            s = spread(values)
            flag = bound is not None and s > bound / 3
            shown = f"{bound:6.0%}" if bound is not None else f"{'':6s}"
            print(f"{w:14s} {name:14s} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{s:8.2%} {shown}{'  FLAG' if flag else ''}")


def build_type():
    cache = (BUILD / "CMakeCache.txt").read_text()
    return next((line.split("=", 1)[1] for line in cache.splitlines()
                 if line.startswith("CMAKE_BUILD_TYPE:")), "")


def stamp(runs):
    compilers = {r["compiler"] for rs in runs.values() for r in rs}
    sha = "unknown"
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {"nproc": os.cpu_count(), "build_type": build_type(),
            "compiler": sorted(compilers),
            "git_sha": sha,
            "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def load_runs(path):
    """A capture ({"runs"}) or a baseline ({"sets": [capture, ...]}, whose
    sets are concatenated)."""
    data = json.loads(Path(path).read_text())
    if "runs" in data:
        return data["runs"]
    runs = {}
    for s in data["sets"]:
        for w, rs in s["runs"].items():
            runs.setdefault(w, []).extend(rs)
    return runs


def compare(spec, parent, change):
    """One row per workload and metric of two {workload: [run]} captures.
    A gain needs the change to win at least 9/10 of the seed-paired runs
    and the medians to differ by more than the parent's interquartile
    range; a regression is a median worse than the parent's by more than
    the metric's bound. Returns the number of regressions."""
    print(f"{'workload':14s} {'metric':14s} {'parent':>12s} {'change':>12s} "
          f"{'delta':>8s} {'wins':>7s}  verdict")
    regressions = 0
    for w in parent:
        if w not in change:
            continue
        by_seed = {r["seed"]: r for r in change[w]}
        pairs = [(p, by_seed[p["seed"]]) for p in parent[w]
                 if p["seed"] in by_seed]
        for m in spec["end_to_end"]:
            name, lower = m["name"], m["better"] == "lower"
            a = [p["metrics"][name] for p, _ in pairs]
            b = [c["metrics"][name] for _, c in pairs]
            if not a:
                continue
            q1, ma, q3 = quartiles(a)
            mb = statistics.median(b)
            wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
            worse = (mb - ma) if lower else (ma - mb)
            if wins >= 0.9 * len(pairs) and -worse > (q3 - q1):
                verdict = "gain"
            elif worse > m["bound"] * abs(ma):
                verdict = "REGRESSION"
                regressions += 1
            elif spread(a) > m["bound"] and not (
                    max(b) < min(a) if lower else min(b) > max(a)):
                verdict = "unresolved (parent spread above bound)"
            else:
                verdict = "no change"
            delta = (mb - ma) / ma if ma else 0.0
            print(f"{w:14s} {name:14s} {ma:12.6g} {mb:12.6g} {delta:8.2%} "
                  f"{wins:>3d}/{len(pairs):<3d}  {verdict}")
        # Normalization cancels only part of a change in machine speed:
        # say when the reference kernel itself moved between the captures.
        ka = [p["raw"]["reference_ms"] for p, _ in pairs if "raw" in p]
        kb = [c["raw"]["reference_ms"] for _, c in pairs if "raw" in c]
        if ka and kb:
            ka, kb = statistics.median(ka), statistics.median(kb)
            drift = kb / ka - 1.0
            print(f"{w:14s} {'reference_ms':14s} {ka:12.6g} {kb:12.6g} "
                  f"{drift:8.2%}           "
                  f"{'machine speed differed' if abs(drift) > 0.1 else ''}")
    return regressions


# --- main -----------------------------------------------------------------------


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", help="run one workload (the form BENCHMARK.json's command uses)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, help="timed phase length")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="every workload scaled down: the pre-commit check")
    p.add_argument("--repeat", type=int, metavar="N",
                   help="N untraced runs per workload (seeds seed..seed+N-1)")
    p.add_argument("--out", help="--repeat: write the runs to this file")
    p.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    p.add_argument("--record", action="store_true",
                   help="two sets of 5 runs into perf/baseline.json")
    args = p.parse_args()
    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, _stop_child)

    start = time.monotonic()
    try:
        spec = load_spec()
        if args.compare:
            parent, change = (load_runs(path) for path in args.compare)
            return 1 if compare(spec, parent, change) else 0
        fresh = not BINARY.is_file()
        limit = FIRST_RUN_LIMIT_S if fresh else RUN_LIMIT_S
        build(start + limit - 5)
        workloads = [w["name"] for w in spec["workloads"]]
        seconds = args.seconds or spec["run_seconds"]

        if args.workload:
            if args.workload not in workloads:
                raise BenchError(f"unknown workload {args.workload}")
            r = run_han_perf(spec, args.workload, args.seed, seconds,
                           args.trace == 1, args.smoke, start + limit - 5)
            print_metrics(args.workload, r, args.trace == 1)
            print(json.dumps({k: r[k] for k in
                              ("correct", "attempted", "failed", "metrics")}))
            return 0 if ok(r) else 1

        if args.repeat or args.record:
            if args.record and build_type() != "Release":
                raise BenchError("refusing to record a non-Release build")
            sets = 2 if args.record else 1
            n = 5 if args.record else args.repeat
            captures = []
            for _ in range(sets):
                runs = capture(spec, workloads, n, args.seed, seconds,
                               RUN_LIMIT_S)
                summarize(spec, runs)
                captures.append({"seconds": seconds, "runs": runs})
            failed = any(not ok(r) for c in captures
                         for rs in c["runs"].values() for r in rs)
            if args.record:
                print("second set against the first:")
                compare(spec, captures[0]["runs"], captures[1]["runs"])
                path = PERF / "baseline.json"
                path.write_text(json.dumps({"stamp": stamp(captures[0]["runs"]),
                                            "sets": captures},
                                           indent=1) + "\n")
                print(f"wrote {path.relative_to(ROOT)}")
            elif args.out:
                Path(args.out).write_text(json.dumps(
                    {"stamp": stamp(captures[0]["runs"]), **captures[0]},
                    indent=1) + "\n")
            return 1 if failed else 0

        # Every workload once: untraced, traced or smoke.
        if args.smoke:
            seconds = min(seconds, 1.0)
        results = {}
        for w in workloads:
            r = run_han_perf(spec, w, args.seed, seconds, args.trace == 1,
                           args.smoke, time.monotonic() + RUN_LIMIT_S)
            print_metrics(w, r, args.trace == 1)
            results[w] = r
        print(f"total {time.monotonic() - start:.1f} s", file=sys.stderr)
        return 0 if all(ok(r) for r in results.values()) else 1
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
