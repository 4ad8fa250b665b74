"""seqguess benchmark: four workloads, timed end to end or traced per layer.

    python3 bench/run.py --workload seq_kernel --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all

seqguess is imported from the src/ directory beside bench/.  One
sequential process, one caller, closed loop: the next library call starts
only when the previous one has returned, and no threads are started.  A
run repeats whole passes over the workload's fixed case list while the
next pass still fits in --seconds (at least MIN_PASSES passes).  Every
output is checked by check.py.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced passes and reports the per-layer metrics of layers.py, medians
over the traced passes, plus trace.overhead.  A provenance record, and
the spans of the last traced pass, go to bench/results/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3
MIN_ROUNDS = 2  # a traced round is one untraced and one traced pass
SETUP_RUNS = 15
SETUP_CODE = "import seqguess; assert str(seqguess.guess_rat([0, 1, 4, 9])[0]) == '[f(n): f(n) = n^2]'"

END_TO_END = (
    ("setup_s", "s"),
    ("guesses_per_s", "1/s"),
    ("guess_p50_s", "s"),
    ("peak_rss_mb", "MiB"),
)


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


def launch_setup() -> float:
    """Wall time of one fresh interpreter importing seqguess and guessing once."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=60)
    dt = perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError("set-up run failed: " + proc.stderr.decode(errors="replace").strip()[-500:])
    return dt


def import_seqguess():
    if not (SRC / "seqguess" / "__init__.py").is_file():
        raise BenchError(f"no seqguess sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import seqguess

    return seqguess


class Runner:
    """Runs passes over one case list and checks every outcome."""

    def __init__(self, cases):
        self.render = importlib.import_module("seqguess.render")
        self.cases = cases
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self._verdicts: dict = {}

    def _render(self, res) -> str:
        if hasattr(res, "kind"):
            return self.render.render_operator(res)
        return self.render.render_text(res)

    def call(self, i: int, tracer=None) -> float:
        """One library call including rendering; returns its wall time."""
        case = self.cases[i]
        err = None
        t0 = perf_counter()
        try:
            if tracer is None:
                results = case.run()
                texts = [self._render(r) for r in results]
            else:
                with tracer.span("call." + case.entry) as rec:
                    results = case.run()
                    texts = [self._render(r) for r in results]
                    rec[4] = len(results)
        except Exception as exc:  # any exception is a failed call, reported below
            err = f"{type(exc).__name__}: {exc}"
        dt = perf_counter() - t0
        self.attempted += 1
        if err is None:
            # the rendering fixes the equation up to scale: one check per distinct output
            key = (i, tuple(texts))
            if key not in self._verdicts:
                self._verdicts[key] = check.check(case.expect, results, texts)
            err = self._verdicts[key]
        if err is not None:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(f"{case.label}: {err}")
        return dt

    def new_times(self) -> list[list[float]]:
        return [[] for _ in self.cases]

    def run_pass(self, times: list[list[float]], tracer=None) -> None:
        """One pass over every case, appending each call's wall time."""
        for i in range(len(self.cases)):
            times[i].append(self.call(i, tracer))


def repeat(seconds: float, minimum: int, body) -> None:
    """Calls body() at least `minimum` times, then while the next call fits in `seconds`."""
    start = perf_counter()
    done = 0
    while True:
        body()
        done += 1
        if done >= minimum and (perf_counter() - start) * (done + 1) / done > seconds:
            return


def case_times(times: list[list[float]]) -> list[float]:
    """Each case's time: the fastest of its passes.

    The host is shared with other tenants: one call measured 171-410 ms
    over 4 minutes, in slow and fast spells lasting seconds.  Interference
    only adds time, so the fastest repeat is the steadiest estimate of
    the program's own cost (the convention of Python's timeit).
    """
    return [min(t) for t in times]


def provenance(sg, run: dict) -> dict:
    import numpy

    lines = {p.name: len(p.read_text().splitlines()) for p in sorted((SRC / "seqguess").glob("*.py"))}
    return {
        **run,
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seqguess": sg.__version__,
        "src_lines": lines,
        "src_lines_total": sum(lines.values()),
    }


def git_commit() -> str:
    """HEAD of the checkout from .git, without looking above the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def execute(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One benchmark run: prints every metric by name with its unit, returns the result."""
    sg = import_seqguess()
    cases = workloads.build(workload, seed, sg, tiny)
    runner = Runner(cases)
    print(f"workload {workload}, seed {seed}: {len(cases)} cases, closed loop, one caller")
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{workload}-seed{seed}-trace{int(trace)}"
    if trace:
        # untraced and traced passes alternate, so slow spells of the host
        # fall on both sides of trace.overhead
        tracer = layers.Tracer()
        plain, traced = runner.new_times(), runner.new_times()
        per_pass: list[dict] = []

        def round_():
            runner.run_pass(plain)
            with tracer.patched():
                tracer.reset()
                runner.run_pass(traced, tracer)
            per_pass.append(layers.layer_metrics(tracer.spans))

        repeat(seconds, MIN_ROUNDS, round_)
        tracer.write(stem.with_suffix(".spans.jsonl"))
        values = layers.median_metrics(per_pass)
        values["trace.overhead"] = sum(case_times(traced)) / sum(case_times(plain)) - 1
        units = dict(layers.PER_LAYER)
        extra = {"traced_passes": len(per_pass), "dominant_layer": layers.dominant_layer(values)}
        print(f"dominant layer by self time: {extra['dominant_layer']}")
    else:
        # set-up launches are spread over the run, one after each pass, so
        # that a slow spell of the host does not fall on all of them
        launch_setup()  # writes bytecode caches; not counted
        setup_runs = 1 if tiny else SETUP_RUNS
        setup_times: list[float] = []

        def pass_():
            runner.run_pass(times)
            if len(setup_times) < setup_runs:
                setup_times.append(launch_setup())

        times = runner.new_times()
        repeat(seconds, MIN_PASSES, pass_)
        while len(setup_times) < setup_runs:
            setup_times.append(launch_setup())
        best = case_times(times)
        samples = len(cases) * len(times[0])
        values = {
            "setup_s": statistics.median(setup_times),
            "guesses_per_s": len(cases) / sum(best),
            "guess_p50_s": statistics.median(best),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = dict(END_TO_END)
        extra = {"passes": len(times[0]), "calls": samples, "guess_p50_samples": len(best),
                 "case_times_s": {case.label: t for case, t in zip(cases, times)}, "setup_times_s": setup_times}
        print(f"{extra['passes']} passes, {samples} calls; guess_p50_s is the median of {len(best)} "
              f"per-case times, each the fastest of {extra['passes']} calls")
    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]}")
    failed_frac = runner.failed / runner.attempted
    print(f"failed_frac {failed_frac:.6g} ratio ({runner.failed} of {runner.attempted} calls)")
    for reason in runner.reasons:
        print(f"FAILED {reason}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    run = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace), **extra}
    record = {"provenance": provenance(sg, run), "failed_frac": failed_frac, "failures": runner.reasons, **result}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    print("provenance " + json.dumps(record["provenance"]))
    return result


def run_all(args) -> dict:
    """Every workload, each in its own process so peak_rss_mb is its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise BenchError(f"workload {name} exited with {proc.returncode}")
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for metric, v in res["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = v
    return merged


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        if args.workload == "all":
            result = run_all(args)
        else:
            result = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
