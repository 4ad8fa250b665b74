"""Traced run: spans around seqguess's layer boundaries, patched from outside.

Each name is replaced where its caller looks it up, so the program itself
is unchanged: the solver primitives in `seqguess.lift`, the search
driver's collaborators in the `seqguess.guess` module, and the renderers
in `seqguess.render`.  A span records (name, start, end, parent, info) in
memory; `info` holds the counts a layer can only report at its boundary
(outcome, columns in and out, computed cell counts, reconstruction hits).

Layers are the modules.  A span's self time is its duration minus the
durations of its child spans; a layer's self time is the sum over its
spans.  Busy time of a function is the summed duration of its spans.
"""

from __future__ import annotations

import importlib
import json
import statistics
from contextlib import contextmanager
from time import perf_counter

# (module whose global is patched, attribute, span name)
PATCHES = (
    ("seqguess.lift", "sigma_basis", "hermite_pade.sigma_basis"),
    ("seqguess.lift", "sigma_normalize", "sigma_normalize.sigma_normalize"),
    ("seqguess.lift", "sample_prime", "modarith.sample_prime"),
    ("seqguess.lift", "crt_combine", "rings.crt_combine"),
    ("seqguess.lift", "rat_recon_vec", "rings.rat_recon_vec"),
    ("seqguess.lift", "lagrange_add", "rings.lagrange_add"),
    ("seqguess.lift", "poly_rat_recon", "rings.poly_rat_recon"),
    ("seqguess.guess", "do_solve", "lift.do_solve"),
    ("seqguess.guess", "build_schema", "models.build_schema"),
    ("seqguess.guess", "build_images", "models.build_images"),
    ("seqguess.guess", "check_images", "models.check_images"),
    ("seqguess.guess", "filter_interpolating", "guess.filter_interpolating"),
    ("seqguess.guess", "guess_class", "guess.guess_class"),
    ("seqguess.render", "render_text", "render.render_text"),
    ("seqguess.render", "render_operator", "render.render_operator"),
)

LAYERS = ("guess", "lift", "hermite_pade", "sigma_normalize", "models", "rings", "modarith", "render")

# per-layer metrics, in the order BENCHMARK.json lists them; all per pass
PER_LAYER = (
    ("guess.self_s", "s"),
    ("guess.filter_interpolating.calls", "count"),
    ("guess.filter_interpolating.busy_s", "s"),
    ("guess.candidates", "count"),
    ("guess.verified", "count"),
    ("guess.kept", "count"),
    ("guess.kept_ratio", "ratio"),
    ("guess.op_nodes", "count"),
    ("lift.do_solve.calls", "count"),
    ("lift.do_solve.busy_s", "s"),
    ("lift.self_s", "s"),
    ("lift.solved", "count"),
    ("lift.no_solution", "count"),
    ("lift.aborted", "count"),
    ("lift.useful_ratio", "ratio"),
    ("lift.q_points", "count"),
    ("lift.bad_primes", "count"),
    ("lift.recon_attempts", "count"),
    ("lift.recon_hits", "count"),
    ("hermite_pade.sigma_basis.calls", "count"),
    ("hermite_pade.sigma_basis.busy_s", "s"),
    ("hermite_pade.conditions", "count"),
    ("hermite_pade.alloc_cells", "count"),
    ("hermite_pade.used_cells", "count"),
    ("hermite_pade.cell_use_ratio", "ratio"),
    ("hermite_pade.self_s", "s"),
    ("sigma_normalize.calls", "count"),
    ("sigma_normalize.busy_s", "s"),
    ("sigma_normalize.self_s", "s"),
    ("models.build_images.calls", "count"),
    ("models.build_images.busy_s", "s"),
    ("models.check_images.calls", "count"),
    ("models.check_images.busy_s", "s"),
    ("models.build_schema.calls", "count"),
    ("models.self_s", "s"),
    ("rings.crt_combine.calls", "count"),
    ("rings.crt_combine.busy_s", "s"),
    ("rings.rat_recon_vec.calls", "count"),
    ("rings.rat_recon_vec.busy_s", "s"),
    ("rings.rat_recon_vec.hits", "count"),
    ("rings.poly_rat_recon.calls", "count"),
    ("rings.poly_rat_recon.busy_s", "s"),
    ("rings.poly_rat_recon.hits", "count"),
    ("rings.lagrange_add.calls", "count"),
    ("rings.lagrange_add.busy_s", "s"),
    ("rings.self_s", "s"),
    ("modarith.sample_prime.calls", "count"),
    ("modarith.sample_prime.busy_s", "s"),
    ("modarith.self_s", "s"),
    ("render.render_text.calls", "count"),
    ("render.render_text.busy_s", "s"),
    ("render.self_s", "s"),
    ("trace.overhead", "ratio"),
)

_BAD_EVENTS = {"bad_prime", "skip_prime", "all_bad", "bad_point", "skip_point", "all_bad_points"}
_RECON_EVENTS = {"recon", "point_recon"}


def _arg(args, kw, pos: int, name: str):
    return kw[name] if name in kw else (args[pos] if len(args) > pos else None)


def _note_do_solve(args, kw, out, exc):
    if exc is not None:
        kind = type(exc).__name__
        return {"outcome": {"NoSolution": "no_solution", "ReconstructionAborted": "aborted"}.get(kind, kind)}
    events = out.state.events
    recon = [e for e in events if e[0] in _RECON_EVENTS]
    return {
        "outcome": "solved",
        "bad": sum(1 for e in events if e[0] in _BAD_EVENTS),
        "recon": len(recon),
        "recon_hits": sum(1 for e in recon if e[-1]),
    }


def _note_sigma_basis(args, kw, out, exc):
    streams, bounds, sigma = _arg(args, kw, 0, "streams"), _arg(args, kw, 1, "bounds"), _arg(args, kw, 2, "sigma")
    m = len(streams)
    info = {"sigma": sigma, "alloc": m * m * ((max(bounds) if bounds else 0) + sigma + 1)}
    if out is not None:
        info["used"] = m * m * (int(out.degrees.max()) + 1)
    return info


def _note_filter(args, kw, out, exc):
    return {"in": len(_arg(args, kw, 0, "columns")), "out": len(out) if out is not None else 0}


def _note_hit(args, kw, out, exc):
    return {"hit": out is not None}


def _note_build_images(args, kw, out, exc):
    return {"q": _arg(args, kw, 3, "q_point") is not None}


NOTES = {
    "lift.do_solve": _note_do_solve,
    "hermite_pade.sigma_basis": _note_sigma_basis,
    "guess.filter_interpolating": _note_filter,
    "rings.rat_recon_vec": _note_hit,
    "rings.poly_rat_recon": _note_hit,
    "models.build_images": _note_build_images,
}


class Tracer:
    """Span recorder; `patched()` installs the wrappers and always undoes them."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, info]
        self.stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack, note = self.spans, self.stack, NOTES.get(name)

        def wrapper(*args, **kw):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kw)
            except BaseException as exc:
                rec[2] = perf_counter()
                stack.pop()
                if note is not None:
                    rec[4] = note(args, kw, None, exc)
                raise
            rec[2] = perf_counter()
            stack.pop()
            if note is not None:
                rec[4] = note(args, kw, out, None)
            return out

        return wrapper

    @contextmanager
    def span(self, name: str):
        """A root span opened by the benchmark itself, e.g. one library call."""
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            yield rec
        finally:
            rec[2] = perf_counter()
            self.stack.pop()

    @contextmanager
    def patched(self):
        saved = []
        try:
            for module_name, attr, name in PATCHES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def reset(self):
        self.spans.clear()
        self.stack.clear()

    def write(self, path):
        """All spans as JSON lines, times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent, info in self.spans:
                fh.write(json.dumps({"name": name, "start": start - t0, "end": end - t0,
                                     "parent": parent, "info": info}) + "\n")


def _layer(name: str) -> str:
    # root spans ("call.<entry point>") time the public guess_* / guess calls
    return "guess" if name.startswith("call.") else name.split(".")[0]


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of the spans of one pass."""
    n = len(spans)
    child = [0.0] * n
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    self_s = dict.fromkeys(LAYERS, 0.0)
    c = dict.fromkeys(("candidates", "verified", "kept", "op_nodes", "solved", "no_solution", "aborted",
                       "q_points", "bad", "recon", "recon_hits", "conditions", "alloc", "used",
                       "rat_hits", "poly_hits"), 0)
    root_of = [0] * n
    for i, (name, start, end, parent, info) in enumerate(spans):
        root_of[i] = i if parent < 0 else root_of[parent]
        dur = end - start
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0.0) + dur  # no patched function calls itself
        self_s[_layer(name)] += dur - child[i]
        if parent < 0:
            c["kept"] += info or 0  # root spans carry the number of results returned
        elif name == "guess.guess_class":
            c["op_nodes"] += spans[root_of[i]][0] == "call.guess"
        elif name == "guess.filter_interpolating":
            c["candidates"] += info["in"]
            c["verified"] += info["out"]
        elif name == "lift.do_solve":
            outcome = info["outcome"]
            if outcome in ("solved", "no_solution", "aborted"):
                c[outcome] += 1
            c["bad"] += info.get("bad", 0)
            c["recon"] += info.get("recon", 0)
            c["recon_hits"] += info.get("recon_hits", 0)
        elif name == "models.build_images":
            c["q_points"] += info["q"]
        elif name == "hermite_pade.sigma_basis":
            c["conditions"] += info["sigma"]
            c["alloc"] += info["alloc"]
            c["used"] += info.get("used", 0)
        elif name == "rings.rat_recon_vec":
            c["rat_hits"] += info["hit"]
        elif name == "rings.poly_rat_recon":
            c["poly_hits"] += info["hit"]

    def ratio(a, b):
        return a / b if b else 0.0

    def fn(name):
        return calls.get(name, 0), busy.get(name, 0.0)

    m: dict[str, float] = {}
    m["guess.self_s"] = self_s["guess"]
    m["guess.filter_interpolating.calls"], m["guess.filter_interpolating.busy_s"] = fn("guess.filter_interpolating")
    m["guess.candidates"], m["guess.verified"], m["guess.kept"] = c["candidates"], c["verified"], c["kept"]
    m["guess.kept_ratio"] = ratio(c["kept"], c["verified"])
    m["guess.op_nodes"] = c["op_nodes"]
    m["lift.do_solve.calls"], m["lift.do_solve.busy_s"] = fn("lift.do_solve")
    m["lift.self_s"] = self_s["lift"]
    m["lift.solved"], m["lift.no_solution"], m["lift.aborted"] = c["solved"], c["no_solution"], c["aborted"]
    m["lift.useful_ratio"] = ratio(c["solved"], m["lift.do_solve.calls"])
    m["lift.q_points"] = c["q_points"]
    m["lift.bad_primes"], m["lift.recon_attempts"], m["lift.recon_hits"] = c["bad"], c["recon"], c["recon_hits"]
    m["hermite_pade.sigma_basis.calls"], m["hermite_pade.sigma_basis.busy_s"] = fn("hermite_pade.sigma_basis")
    m["hermite_pade.conditions"] = c["conditions"]
    m["hermite_pade.alloc_cells"], m["hermite_pade.used_cells"] = c["alloc"], c["used"]
    m["hermite_pade.cell_use_ratio"] = ratio(c["used"], c["alloc"])
    m["hermite_pade.self_s"] = self_s["hermite_pade"]
    m["sigma_normalize.calls"], m["sigma_normalize.busy_s"] = fn("sigma_normalize.sigma_normalize")
    m["sigma_normalize.self_s"] = self_s["sigma_normalize"]
    m["models.build_images.calls"], m["models.build_images.busy_s"] = fn("models.build_images")
    m["models.check_images.calls"], m["models.check_images.busy_s"] = fn("models.check_images")
    m["models.build_schema.calls"] = calls.get("models.build_schema", 0)
    m["models.self_s"] = self_s["models"]
    m["rings.crt_combine.calls"], m["rings.crt_combine.busy_s"] = fn("rings.crt_combine")
    m["rings.rat_recon_vec.calls"], m["rings.rat_recon_vec.busy_s"] = fn("rings.rat_recon_vec")
    m["rings.rat_recon_vec.hits"] = c["rat_hits"]
    m["rings.poly_rat_recon.calls"], m["rings.poly_rat_recon.busy_s"] = fn("rings.poly_rat_recon")
    m["rings.poly_rat_recon.hits"] = c["poly_hits"]
    m["rings.lagrange_add.calls"], m["rings.lagrange_add.busy_s"] = fn("rings.lagrange_add")
    m["rings.self_s"] = self_s["rings"]
    m["modarith.sample_prime.calls"], m["modarith.sample_prime.busy_s"] = fn("modarith.sample_prime")
    m["modarith.self_s"] = self_s["modarith"]
    m["render.render_text.calls"], m["render.render_text.busy_s"] = fn("render.render_text")
    m["render.self_s"] = self_s["render"]
    return m


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median_low(p[k] for p in passes) for k in passes[0]}


def dominant_layer(metrics: dict[str, float]) -> str:
    return max(LAYERS, key=lambda layer: metrics[f"{layer}.self_s"])
