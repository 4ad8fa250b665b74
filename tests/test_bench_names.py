"""The traced benchmark patches seqguess names by string; keep them alive.

bench/layers.py replaces each (module, name) in PATCHES with a timing
wrapper.  That only works while the name is a module global which some
function of that module looks up when it runs, so a rename in src must
fail here rather than silently in the traced benchmark.
"""

import dis
import importlib
import importlib.util
import types
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers_names", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _global_names(module) -> set[str]:
    """Names the module's own functions (nested ones included) read as globals."""
    names: set[str] = set()
    stack = [obj.__code__ for obj in vars(module).values()
             if isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__]
    while stack:
        code = stack.pop()
        names.update(ins.argval for ins in dis.get_instructions(code) if ins.opname == "LOAD_GLOBAL")
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return names


def test_every_patched_name_resolves():
    patches = _load_layers().PATCHES
    assert patches
    for module_name, attr, _span in patches:
        module = importlib.import_module(module_name)
        assert isinstance(module, types.ModuleType), module_name
        assert callable(vars(module).get(attr)), f"{module_name}.{attr} is not a module global"
        assert attr in _global_names(module), f"nothing in {module_name} calls {attr} by its global name"


def test_traced_build_images_sees_the_q_point():
    """lift.q_points counts the build_images spans whose q_point is set
    (4th positional argument or keyword); a changed call would make the
    count read 0, or count every image, without failing anything."""
    from seqguess import RatPoly, guess_rat

    def q_flags(terms, q):
        tracer = _load_layers().Tracer()
        with tracer.patched():
            assert guess_rat(terms, q=q)
        return [info["q"] for name, _, _, _, info in tracer.spans if name == "models.build_images"]

    assert any(q_flags([RatPoly.make([1] * n) for n in range(6)], True))
    flags = q_flags([0, 1, 4, 9], False)
    assert flags and not any(flags)
