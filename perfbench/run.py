"""tuttemap benchmark: one workload per process, one job after another.

    python3 perfbench/run.py --workload trees --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`. Each job is one in-process `tuttemap.cli.main([...])` call on
seeded input files, and every answer is checked against the oracles in
`oracles.py`. Jobs run round robin, every job at least once, until
`--seconds` have passed. The last line of standard output is the result
as JSON; the lines before it break the times down by job.

With `--trace 0` the end-to-end metrics are reported: the median time of
each job, summed per command, in seconds scaled to a fixed machine speed
(see SpeedProbe). With `--trace 1` the run makes one untraced pass and two
traced passes and reports per-layer self time and call counts. README.md
defines every metric.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import oracles
from inputs import CENSUS_EDGES, COMMANDS, GENERA, make_jobs
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench-out"
SETUP_REPEATS = 21


def setup(workload: str, seed: int, workdir: Path):
    """Import the package afresh and write the inputs."""
    for name in [m for m in sys.modules if m == "tuttemap" or m.startswith("tuttemap.")]:
        del sys.modules[name]
    cli = importlib.import_module("tuttemap.cli")
    return cli, make_jobs(workload, seed, workdir)


class Checker:
    """Per-job oracles, plus the checks that compare jobs with one another."""

    def __init__(self, jobs) -> None:
        goldens = oracles.load_goldens()
        self.expect = {}
        for job in jobs:
            if job.graph is not None:
                g = job.graph
                trees = oracles.tree_count(g.vertices, [(u, v) for _, u, v in g.edges])
                self.expect[job.label] = (len(g.edges), trees, goldens.get(g.name))
        self.tutte: dict[str, dict] = {}
        self.census_z11: dict = {}
        self.z: dict = {}

    def job(self, job, out: dict) -> None:
        if job.command == "census":
            self.census_z11[job.genus] = oracles.check_census(out, job.genus, CENSUS_EDGES)
        elif job.command == "zpoly":
            z = oracles.poly_from_terms(out["z"])
            oracles.check_zpoly(z, job.genus)
            self.z[job.genus] = z
        else:
            poly = oracles.poly_from_terms(out["polynomials"][job.command])
            oracles.check_tutte(poly, *self.expect[job.label])
            self.tutte[job.label] = poly

    def across(self) -> None:
        check = oracles.check
        if "delcon:W10" in self.tutte and "recursive:W10" in self.tutte:
            check(self.tutte["delcon:W10"] == self.tutte["recursive:W10"],
                  "delcon and recursive disagree on W10")
        if len(self.z) == len(GENERA):
            check(self.z[None] == oracles.poly_sum(self.z[g] for g in GENERA if g is not None),
                  "Z over all genera is not the sum of Z by genus")
            for genus, z11 in self.census_z11.items():
                check(oracles.evaluate(self.z[genus], 1, 1) == z11,
                      f"Z(1,1) for genus {genus} is not the census tree total")


def raw_timed(fn):
    """Call fn(); returns (its result, seconds, the same seconds)."""
    t0 = time.perf_counter()
    result = fn()
    raw = time.perf_counter() - t0
    return result, raw, raw


def run_job(cli, job, checker: Checker, timed) -> tuple[float, float, str | None]:
    """Time one CLI call with `timed` (raw_timed or SpeedProbe.timed);
    returns (seconds, raw seconds, failure reason or None)."""
    out, err = io.StringIO(), io.StringIO()

    def call() -> int:
        with redirect_stdout(out), redirect_stderr(err):
            return cli.main(list(job.argv))

    gc.collect()  # every job starts from a collected heap, not the last job's garbage
    t0 = time.perf_counter()
    try:
        code, seconds, raw = timed(call)
    except Exception as exc:  # a crash is a failed job, not a failed benchmark
        elapsed = time.perf_counter() - t0
        return elapsed, elapsed, f"raised {exc!r}"
    if code != 0:
        return seconds, raw, f"exit {code}: {err.getvalue().strip()}"
    try:
        checker.job(job, json.loads(out.getvalue()))
    except (oracles.OracleError, ValueError, KeyError) as exc:
        return seconds, raw, f"oracle: {exc}"
    return seconds, raw, None


class Tally:
    def __init__(self, timed) -> None:
        self.timed = timed
        self.attempted = 0
        self.failed = 0

    def run(self, cli, job, checker: Checker) -> tuple[float, float]:
        """Run one job; returns (seconds, raw seconds)."""
        seconds, raw, problem = run_job(cli, job, checker, self.timed)
        self.attempted += 1
        if problem:
            self.failed += 1
            print(f"FAILED {job.label}: {problem}", file=sys.stderr)
        return seconds, raw

    def across(self, checker: Checker) -> None:
        try:
            checker.across()
        except oracles.OracleError as exc:
            self.failed += 1
            print(f"FAILED cross-check: {exc}", file=sys.stderr)


# On the 2-vCPU Xeon VM the baseline was measured on, the vCPUs switch
# between speeds about 1.7x apart every few seconds, and the program's time
# (CPU time too) follows them. So while jobs run, SIGALRM fires every
# PROBE_PERIOD s and times probe_loop: fixed pure-Python work of the
# package's kind (dict, set and tuple traffic, small-int arithmetic). A
# job's time, less the probes inside it, is reported scaled by PROBE_REF_S
# over the probes' mean time: seconds at the speed at which the loop takes
# PROBE_REF_S. That is about the loop's median time on that VM, so scaled
# and raw times are close there.
PROBE_PERIOD = 0.05
PROBE_REF_S = 0.00025


def probe_loop() -> None:
    counts: dict = {}
    seen = set()
    for i in range(400):
        k = (i * 7919) % 1009
        counts[k] = counts.get(k, 0) + i
        pair = (k, i & 15)
        if pair not in seen:
            seen.add(pair)


class SpeedProbe:
    """Times probe_loop on a timer; scales intervals by the speed seen."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (end, seconds)

    def _tick(self, signum, frame) -> None:
        # no collection inside the probe: that would time the job's heap
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        probe_loop()
        t1 = time.perf_counter()
        if collecting:
            gc.enable()
        self.samples.append((t1, t1 - t0))

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD, PROBE_PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def timed(self, fn):
        """Call fn(); returns (its result, scaled seconds, raw seconds)."""
        first = len(self.samples)
        t0 = time.perf_counter()
        result = fn()
        t1 = time.perf_counter()
        raw = t1 - t0
        inside = [d for end, d in self.samples[first:] if end <= t1]
        if not inside:  # shorter than a period: use the nearest probe
            if not self.samples:
                self._tick(None, None)
            nearest = min(self.samples, key=lambda s: abs(s[0] - t0))[1]
            return result, raw * PROBE_REF_S / nearest, raw
        work = raw - sum(inside)
        return result, work * PROBE_REF_S / statistics.mean(inside), raw


def end_to_end(workload, cli, jobs, checker, seconds, probe: SpeedProbe,
               setup_times) -> tuple[Tally, dict]:
    tally = Tally(probe.timed)
    raw = {job.label: [] for job in jobs}
    samples = {job.label: [] for job in jobs}
    deadline = time.perf_counter() + seconds
    i = 0
    while i < len(jobs) or time.perf_counter() < deadline:
        job = jobs[i % len(jobs)]
        scaled, elapsed = tally.run(cli, job, checker)
        raw[job.label].append(elapsed)
        samples[job.label].append(scaled)
        i += 1
    tally.across(checker)

    medians = {label: statistics.median(s) for label, s in samples.items()}
    loop = [d for _, d in probe.samples]
    print(f"probe loop: median {statistics.median(loop) * 1e3:.3f} ms over {len(loop)} "
          f"runs; times in s at PROBE_REF_S = {PROBE_REF_S * 1e3} ms (raw in brackets)")
    for job in jobs:
        print(f"{job.label:20} runs {len(raw[job.label]):3}  median "
              f"{medians[job.label]:8.4f} [{statistics.median(raw[job.label]):8.4f}]")
    per_command = {
        c: sum(medians[j.label] for j in jobs if j.command == c) for c in COMMANDS[workload]
    }
    for command, total in per_command.items():
        print(f"{command}_s {total:.4f}")
    a, b = (per_command[c] for c in COMMANDS[workload])
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (a + b, "s"),
        "cmd_a_s": (a, "s"),
        "cmd_b_s": (b, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return tally, metrics


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(workload, cli, jobs, checker) -> tuple[Tally, dict, bool]:
    tally = Tally(raw_timed)
    untraced = sum(tally.run(cli, job, checker)[0] for job in jobs)

    tracer = Tracer()
    tracer.install()
    passes, walls = [], []
    trees_ok = True
    try:
        for _ in range(2):
            tracer.reset_totals()
            wall = 0.0
            for index, job in enumerate(jobs):
                tracer.job = index
                before = tracer.results["spanning.trees"]
                wall += tally.run(cli, job, checker)[0]
                if job.command in ("order", "embedding"):
                    trees = tracer.results["spanning.trees"] - before
                    trees_ok &= trees == checker.expect[job.label][1]
            walls.append(wall)
            passes.append(tracer.totals())
            if len(passes) == 1:
                # the second pass only re-counts; the file keeps the first's spans
                spans = tracer.write(OUT / f"trace-{workload}.bin")
    finally:
        tracer.uninstall()
    tally.across(checker)

    counts_ok = all(
        passes[0].get(k) == passes[1].get(k) for k in passes[0] if k.endswith("_n")
    )
    if not counts_ok:
        print("FAILED self-check: call counts differ between two traced passes",
              file=sys.stderr)
    if not trees_ok:
        print("FAILED self-check: trees enumerated != Kirchhoff tree count",
              file=sys.stderr)

    def s(name: str) -> float:
        return statistics.median(p.get(name + "_s", 0.0) for p in passes)

    def n(name: str) -> int:
        return passes[0].get(name + "_n", 0)

    metrics = {}
    for name in LAYER_TIMED:
        metrics[name + "_s"] = (s(name), "s")
        if name in LAYER_COUNTED:
            metrics[name + "_n"] = (n(name), "count")
    metrics["spanning.trees_n"] = (n("spanning.trees"), "count")
    metrics["mapenum.maps_n"] = (n("mapenum.maps"), "count")
    metrics["engines.memo_hit_ratio"] = (
        ratio(n("engines.isomorphic_true"), n("engines.certificate")), "ratio")
    metrics["engines.iso_true_ratio"] = (
        ratio(n("engines.isomorphic_true"), n("engines.isomorphic")), "ratio")
    metrics["mapenum.kept_ratio"] = (
        ratio(n("mapenum.maps"), n("cmap.canonical_form")), "ratio")
    metrics["trace.overhead_s"] = (statistics.median(walls) - untraced, "s")
    metrics["trace.spans_n"] = (spans, "count")
    return tally, metrics, counts_ok and trees_ok


LAYER_TIMED = [
    "spanning.enumerate", "spanning.tree_init", "spanning.fundamental_cycle",
    "spanning.fundamental_cocycle", "activity.motion_function",
    "activity.embedding_activities", "activity.order_activities",
    "poly.add", "poly.mul", "poly.pow",
    "engines.certificate", "engines.isomorphic", "engines.evaluators",
    "graph.minor", "graph.is_isthmus", "graph.component_count", "graph.from_text",
    "cmap.minor", "cmap.underlying_graph", "cmap.validate", "cmap.canonical_form",
    "mapenum.census", "mapenum.partition_function", "cli.main",
]
LAYER_COUNTED = [  # a subset of LAYER_TIMED
    "spanning.tree_init", "spanning.fundamental_cycle", "spanning.fundamental_cocycle",
    "activity.motion_function", "poly.add", "poly.mul", "poly.pow",
    "engines.certificate", "engines.isomorphic",
    "graph.minor", "graph.is_isthmus", "graph.component_count",
    "cmap.minor", "cmap.underlying_graph", "cmap.validate", "cmap.canonical_form",
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(COMMANDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "tuttemap" / "cli.py").is_file():
        print(f"error: no tuttemap sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        with SpeedProbe() as probe:
            setup_times = []
            for _ in range(SETUP_REPEATS):
                (cli, jobs), scaled, _ = probe.timed(
                    lambda: setup(args.workload, args.seed, workdir))
                setup_times.append(scaled)
            checker = Checker(jobs)
            if not args.trace:
                tally, metrics = end_to_end(args.workload, cli, jobs, checker,
                                            args.seconds, probe, setup_times)
                self_ok = True
        if args.trace:  # self times are raw seconds: no probe inside spans
            tally, metrics, self_ok = per_layer(args.workload, cli, jobs, checker)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": tally.failed == 0 and self_ok,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
