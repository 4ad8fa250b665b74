"""Self-test of the benchmark harness on tiny inputs.

    python3 -m pytest -q bench/tests
"""

import copy
import importlib
import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

import seqguess  # noqa: E402


def printed_metrics(out: str) -> dict[str, str]:
    """name -> unit for every '<name> <value> <unit>' line."""
    found = {}
    for line in out.splitlines():
        parts = line.split()
        if len(parts) >= 3:
            try:
                float(parts[1])
            except ValueError:
                continue
            found[parts[0]] = parts[2]
    return found


def test_benchmark_json_matches_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_prints_every_metric(workload, capsys):
    result = run.execute(workload, seed=1, seconds=0.1, trace=False, tiny=True)
    printed = printed_metrics(capsys.readouterr().out)
    for name, unit in run.END_TO_END:
        assert printed.get(name) == unit
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
    assert printed.get("failed_frac") == "ratio"
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_prints_layers_and_restores_patches(workload, capsys):
    originals = {(mod, attr): getattr(importlib.import_module(mod), attr) for mod, attr, _ in layers.PATCHES}
    result = run.execute(workload, seed=1, seconds=0.1, trace=True, tiny=True)
    printed = printed_metrics(capsys.readouterr().out)
    for name, unit in layers.PER_LAYER:
        assert printed.get(name) == unit
        assert result["metrics"][name]["unit"] == unit
    assert result["correct"]
    assert result["metrics"]["lift.do_solve.calls"]["value"] > 0
    for (mod, attr), fn in originals.items():
        assert getattr(importlib.import_module(mod), attr) is fn


def test_patches_undone_when_a_call_raises():
    tracer = layers.Tracer()
    G = importlib.import_module("seqguess.guess")
    original = G.do_solve
    with pytest.raises(ValueError):
        with tracer.patched():
            assert G.do_solve is not original
            G.guess_rat([1, 2], safety=-1)
    assert G.do_solve is original


def planted_prec():
    full = workloads.gen_prec_terms(2, 1, 20, random.Random(5))
    res = seqguess.guess_prec(full[:12], homogeneous=1, max_shift=2, max_degree=1)
    exp = workloads.Expect("planted", full=full, max_order=2)
    return res, exp


def test_checker_accepts_planted_and_flags_perturbed_equation():
    res, exp = planted_prec()
    assert check.check(exp, res, [str(r) for r in res]) is None
    bad = copy.deepcopy(res[0])
    for cs in bad.coeffs:
        if cs:
            cs[0] += 1
            break
    assert check.check(exp, [bad], [str(bad)]) is not None
    assert check.check(workloads.Expect("planted", full=exp.full, max_order=1), res, [str(res[0])]) is not None


def test_checker_flags_wrong_goldens_and_spurious_guesses():
    res = seqguess.guess_rat([0, 1, 4, 9])
    texts = [str(r) for r in res]
    assert check.check(workloads.Expect("golden", text="[f(n): f(n) = n^2]"), res, texts) is None
    assert check.check(workloads.Expect("golden", text="[f(n): f(n) = n^3]"), res, texts) is not None
    assert check.check(workloads.Expect("none"), res, texts) is not None
    assert check.check(workloads.Expect("planted", full=[0, 1, 4, 9], max_order=1), [], []) is not None


def test_checker_on_series_q_and_operator_cases():
    rng = random.Random(2)
    alg = workloads.gen_cubic_series(40, rng)
    res = seqguess.guess_alg(alg[:30])
    assert check.check(workloads.Expect("planted", full=alg, max_order=3, order_of="degree"), res, []) is None
    assert check.check(workloads.Expect("planted", full=alg[:30] + [alg[30] + 1], max_order=3,
                                        order_of="degree"), res, []) is not None

    gauss = workloads.gaussian_binomials(14)
    res = seqguess.guess_prec([seqguess.RatPoly.make(p) for p in gauss[:12]], q=True, max_shift=1)
    exp = workloads.Expect("planted", full=gauss, max_order=1, q=True)
    assert check.check(exp, res, []) is None
    wrong = gauss[:13] + [[c + (i == 0) for i, c in enumerate(gauss[13])]]
    assert check.check(workloads.Expect("planted", full=wrong, max_order=1, q=True), res, []) is not None

    full, _ = workloads.planted_operator(12, random.Random(3))
    res = seqguess.guess(full[:9])
    assert check.check(workloads.Expect("operator", full=full), res, []) is None
    off = full[:-1] + [full[-1] + Fraction(1, 2)]
    assert check.check(workloads.Expect("operator", full=off), res, []) is not None


def test_fails_without_sources(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "seq_kernel", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
