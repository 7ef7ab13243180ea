"""Per-layer call counts and self time for twobridge, measured from outside.

Each listed public function is replaced, at every binding of it in the
loaded ``twobridge`` modules, by a wrapper that counts calls and records
self time: the time spent in the call minus the time spent in other
wrapped functions it called.  Generator functions are timed per item
pulled, so the consumer's work between items is not charged to them.
A listed name that no longer exists is reported as absent.  The package
itself is not modified; ``Tracer.remove`` restores every binding.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

# The layers are the modules of src/twobridge.
LAYER_FUNCTIONS = {
    "word": ("parse_word", "inner_word", "enumerate_words", "normalize", "render"),
    "triangulation": ("build_sakuma_weeks", "edge_classes", "validate", "degree_predicates"),
    "blocks": ("decompose",),
    "angles": ("theorem_family", "assign_angles", "expand_to_tetrahedra", "verify_angle_structure"),
    "volume": (
        "bounds_report",
        "assignment_volume",
        "tet_volume",
        "lobachevsky",
        "v3",
        "maximize_volume",
    ),
    "isosig": ("encode_isosig", "decode_isosig"),
    "moves": ("simplify", "pachner_32", "move_44"),
    "cli": ("main",),
}

# Functions whose self time is also reported per tetrahedron of their
# input, so that scaling in word length can be read off the long workload.
PER_TET = (
    "triangulation.build_sakuma_weeks",
    "triangulation.edge_classes",
    "triangulation.validate",
    "angles.assign_angles",
    "angles.verify_angle_structure",
    "volume.maximize_volume",
)

COUNTERS = (
    "volume.maximize_volume.iterations",
    "volume.maximize_volume.unconverged",
    "angles.assign_angles.failed",
    "moves.simplify.moves",
    "moves.useful_44_ratio",
)


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric a traced run reports, in order."""
    names = []
    for layer, functions in LAYER_FUNCTIONS.items():
        for fn in functions:
            names += [(f"{layer}.{fn}.calls", "count"), (f"{layer}.{fn}.self_s", "s")]
        names.append((f"{layer}.self_s", "s"))
    names += [(f"{key}.us_per_tet", "us") for key in PER_TET]
    names += [(name, "share" if name.endswith("_ratio") else "count") for name in COUNTERS]
    names.append(("trace.overhead_share", "share"))
    return names


def _tets(arg) -> int:
    """Tetrahedra in a triangulation, or in the layered triangulation of a word."""
    if hasattr(arg, "tet_count"):
        return arg.tet_count
    if hasattr(arg, "ell"):
        return 2 * (arg.ell - 1)
    return 0


class _Stat:
    __slots__ = ("calls", "self_s", "tets")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.tets = 0


class Tracer:
    """Wrappers around the listed functions, with the totals they collect.

    Install once, run the traced work, remove, then read ``metrics``.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {
            f"{layer}.{fn}": _Stat() for layer, fns in LAYER_FUNCTIONS.items() for fn in fns
        }
        self.iterations = 0
        self.unconverged = 0
        self.angles_failed = 0
        self.simplify_moves = 0
        self.kept_44 = 0
        self.absent: list[str] = []
        # One accumulator per active wrapped call: time spent in wrapped callees.
        self._stack = [0.0]
        self._wrappers: dict[str, object] = {}
        self._originals: dict[str, object] = {}
        self._installed: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Bind a wrapper in place of each listed function, wherever it is bound."""
        for layer, functions in LAYER_FUNCTIONS.items():
            try:
                module = importlib.import_module(f"twobridge.{layer}")
            except ModuleNotFoundError:
                module = None
            for fn in functions:
                key = f"{layer}.{fn}"
                original = getattr(module, fn, None)
                if fn.startswith("_") or not callable(original):
                    self.absent.append(key)
                    continue
                self._originals[key] = original
                self._wrappers[key] = self._wrap(key, original)
        by_id = {id(orig): key for key, orig in self._originals.items()}
        for name, module in list(sys.modules.items()):
            if name != "twobridge" and not name.startswith("twobridge."):
                continue
            for attr, value in list(vars(module).items()):
                key = by_id.get(id(value))
                if key is not None and not attr.startswith("_"):
                    setattr(module, attr, self._wrappers[key])
                    self._installed.append((module, attr, value))

    def remove(self) -> None:
        """Restore every binding that install replaced."""
        for module, attr, original in self._installed:
            setattr(module, attr, original)
        self._installed.clear()

    def _observe(self, key: str, result, exc: BaseException | None) -> None:
        if key == "volume.maximize_volume" and exc is None:
            self.iterations += result.iterations
            self.unconverged += not result.converged
        elif key == "angles.assign_angles" and exc is not None and not isinstance(exc, ValueError):
            self.angles_failed += 1
        elif key == "moves.simplify" and exc is None:
            self.simplify_moves += len(result.moves)
            self.kept_44 += sum(1 for m in result.moves if m.kind == "4-4")

    def _wrap(self, key: str, fn):
        stat = self.stats[key]
        stack = self._stack
        clock = self.clock
        observe = self._observe
        per_tet = key in PER_TET

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                stat.calls += 1
                items = fn(*args, **kwargs)
                while True:
                    stack.append(0.0)
                    start = clock()
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                    finally:
                        elapsed = clock() - start
                        stat.self_s += elapsed - stack.pop()
                        stack[-1] += elapsed
                    yield item

            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if per_tet and args:
                stat.tets += _tets(args[0])
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                observe(key, None, exc)
                raise
            finally:
                elapsed = clock() - start
                stat.calls += 1
                stat.self_s += elapsed - stack.pop()
                stack[-1] += elapsed
            observe(key, result, None)
            return result

        return wrapper

    def metrics(self, scale: float) -> dict[str, float]:
        """Everything collected, with times multiplied by scale (see refspeed)."""
        out: dict[str, float] = {}
        for layer, functions in LAYER_FUNCTIONS.items():
            layer_self = 0.0
            for fn in functions:
                stat = self.stats[f"{layer}.{fn}"]
                out[f"{layer}.{fn}.calls"] = stat.calls
                out[f"{layer}.{fn}.self_s"] = stat.self_s * scale
                layer_self += stat.self_s * scale
            out[f"{layer}.self_s"] = layer_self
        for key in PER_TET:
            stat = self.stats[key]
            out[f"{key}.us_per_tet"] = 1e6 * stat.self_s * scale / stat.tets if stat.tets else 0.0
        move_44_calls = self.stats["moves.move_44"].calls
        out["volume.maximize_volume.iterations"] = self.iterations
        out["volume.maximize_volume.unconverged"] = self.unconverged
        out["angles.assign_angles.failed"] = self.angles_failed
        out["moves.simplify.moves"] = self.simplify_moves
        out["moves.useful_44_ratio"] = self.kept_44 / move_44_calls if move_44_calls else 0.0
        return out
