"""Run one benchmark workload against twobridge's public API in this process.

Started by run.py in a fresh interpreter that imports twobridge from src/.
The workload makes its inputs from the seed, repeats timed passes over them
until the time budget is spent (one client, closed loop: each operation
starts when the previous one returns), checks every output and prints a
report followed by one JSON line with the raw results.

An operation is one call into a stage on one word (for ``survey``, the
whole command).  It fails when it raises anything other than a ValueError
for input outside the stage's documented domain, or when its output fails
its check.  ``attempted`` and ``failed`` count distinct operations, each
once however many passes repeat it (an operation that fails in any pass is
failed), so they depend on the inputs only and not on how many passes fit
in the time budget.  A word continues through every later stage that does
not need the failed output.  A failed check on an output the program presented as
valid (rather than one it flagged itself, by an exception, ``converged``
or a verification report) is a wrong answer and makes the run incorrect.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import statistics
import sys
import time
from collections import Counter

import twobridge as tb
import twobridge.cli

from refspeed import SpeedProbe
from tracer import Tracer, metric_names

SURVEY_ARGS = ["survey", "--max-n", "11"]
SURVEY_WORDS = 4094
# SHA-256 of the stdout of `twobridge survey --max-n 11` when this benchmark
# was written; the bytes are meant never to change.
SURVEY_CSV_SHA256 = "c02d085fab3f4c5c30a72a238509b36ee44721c7fa3aff5ba4e150e0da2f869b"

CENSUS_LENGTHS = range(4, 15)
CENSUS_PER_LENGTH = 10
LONG_WORDS = 16
LONG_LENGTHS = (60, 250)
# Reference samples on either side of a word that scale its time.
SCALE_WINDOW = 2


# ---------------------------------------------------------------- inputs


def _render(syllables) -> str:
    """Word text, made without calling twobridge so that input drawing is not traced."""
    return "".join(f"{c}^{e}" if e > 1 else c for c, e in syllables)


def census_words(seed: int) -> list[tuple[tuple[str, int], ...]]:
    """Uniform random normalised hyperbolic words, ell balanced over [4, 14].

    Each of the ell - 1 gaps between letters is a syllable boundary with
    probability 1/2 (a draw without a boundary is redrawn); syllables
    alternate starting with R.  Every length gets the same number of
    words, so ell is uniform over the list.  The words come from one fixed
    draw and the seed sets only their order: census holds words that hit
    the known defects, and which ones fail must not change with the seed,
    or runs on different seeds would disagree about the failures.
    """
    rng = random.Random("census")
    words = []
    for ell in CENSUS_LENGTHS:
        for _ in range(CENSUS_PER_LENGTH):
            cuts: list[int] = []
            while not cuts:
                cuts = [i for i in range(1, ell) if rng.random() < 0.5]
            bounds = [0] + cuts + [ell]
            words.append(
                tuple(("RL"[k % 2], hi - lo) for k, (lo, hi) in enumerate(zip(bounds, bounds[1:])))
            )
    random.Random(f"census-{seed}").shuffle(words)
    return words


def long_words(seed: int) -> list[tuple[tuple[str, int], ...]]:
    """Paper-family words R L^a1 R^a2 ... X with a_i in {1, 2}, ell in [60, 250].

    The lengths are LONG_WORDS evenly spaced values covering the range, so
    ell is uniform over the list.  The closing letter X is the opposite of
    the last inner letter, the shape enumerate_words gives.  As in census,
    the words come from one fixed draw and the seed sets only their order:
    with 16 words, the exponents of one seed against another moved the
    maximize_volume time of a word of the same length by up to a quarter
    (0.32 s against 0.41 s at ell 161), which would hide smaller changes
    between commits.
    """
    rng = random.Random("long")
    lo, hi = LONG_LENGTHS
    words = []
    for i in range(LONG_WORDS):
        ell = lo + round(i * (hi - lo) / (LONG_WORDS - 1))
        inner: list[tuple[str, int]] = []
        letters = 0
        while letters < ell - 2:
            exp = min(rng.choice((1, 2)), ell - 2 - letters)
            inner.append(("LR"[len(inner) % 2], exp))
            letters += exp
        closing = "R" if inner[-1][0] == "L" else "L"
        words.append((("R", 1),) + tuple(inner) + ((closing, 1),))
    random.Random(f"long-{seed}").shuffle(words)
    return words


def in_family(syllables) -> bool:
    """Inner exponents in {1, 2}: the documented domain of assign_angles."""
    letters = "".join(c * e for c, e in syllables)[1:-1]
    runs, run = [], 1
    for a, b in zip(letters, letters[1:]):
        if a == b:
            run += 1
        else:
            runs.append(run)
            run = 1
    runs.append(run)
    return max(runs) <= 2


# ---------------------------------------------------------------- accounting


class Ledger:
    """Operations attempted and failed, with the failures listed.

    An operation is identified by (stage, word); ``attempted`` and
    ``failed`` count distinct operations, ``executed`` every call.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.executed = 0
        self.operations: set[tuple[str, str]] = set()
        self.failed_operations: set[tuple[str, str]] = set()
        self.wrong = 0
        self.failures: Counter = Counter()

    @property
    def attempted(self) -> int:
        return len(self.operations)

    @property
    def failed(self) -> int:
        return len(self.failed_operations)

    def call(self, stage: str, word: str, fn, *args, rejectable: bool = False, **kwargs):
        """One operation; returns (result or None, seconds spent in fn)."""
        self.executed += 1
        self.operations.add((stage, word))
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
        except ValueError as exc:
            elapsed = self.clock() - start
            if not rejectable:
                self.fail(stage, type(exc).__name__, word)
            return None, elapsed
        except Exception as exc:  # every other exception is a counted failure
            elapsed = self.clock() - start
            self.fail(stage, type(exc).__name__, word)
            return None, elapsed
        return result, self.clock() - start

    def fail(self, stage: str, what: str, word: str, wrong: bool = False) -> None:
        self.failed_operations.add((stage, word))
        self.wrong += wrong
        self.failures[(stage, what, word, wrong)] += 1

    def check(self, ok: bool, stage: str, what: str, word: str, wrong: bool = False) -> bool:
        """Count the operation as failed unless ok; returns ok."""
        if not ok:
            self.fail(stage, what, word, wrong)
        return ok


def _degrees(tri) -> list[int]:
    return sorted(tb.edge_classes(tri).degrees())


def _angles(led: Ledger, name: str, w, syllables, tri, dec=None):
    """assign_angles (then expand_to_tetrahedra), and verify_angle_structure.

    Returns the verified assignment, or None, and the seconds spent.
    """
    args = (w,) if dec is None else (w, dec)
    family = in_family(syllables)
    assignment, spent = led.call("assign_angles", name, tb.assign_angles, *args, rejectable=not family)
    if assignment is None:
        return None, spent
    start = led.clock()
    try:
        angle_map = tb.expand_to_tetrahedra(assignment, tri)
    except Exception as exc:  # counted against the assign_angles operation
        led.fail("assign_angles", type(exc).__name__, name)
        return None, spent + led.clock() - start
    spent += led.clock() - start
    report, dt = led.call("verify_angle_structure", name, tb.verify_angle_structure, tri, angle_map)
    spent += dt
    if report is None or not led.check(report.passed, "verify_angle_structure", "not passed", name):
        return None, spent
    return assignment, spent


def _maximize(led: Ledger, name: str, tri, assignment):
    res, spent = led.call("maximize_volume", name, tb.maximize_volume, tri, seed=assignment)
    if res is None:
        return None, spent
    if not led.check(res.converged, "maximize_volume", "unconverged", name):
        return None, spent
    if not led.check(not res.on_boundary, "maximize_volume", "on_boundary", name):
        return None, spent
    if assignment is not None:
        explicit = tb.volume.assignment_volume(assignment)
        led.check(res.volume >= explicit - 1e-9, "maximize_volume", "below explicit volume", name, wrong=True)
    return res, spent


def _build(led: Ledger, name: str, w):
    """build_sakuma_weeks, validate and degree_predicates."""
    tri, spent = led.call("build_sakuma_weeks", name, tb.build_sakuma_weeks, w)
    if tri is None:
        return None, spent
    rep, dt = led.call("validate", name, tb.validate, tri)
    spent += dt
    if rep is not None:
        led.check(rep.passed, "validate", "not passed", name)
    _, dt = led.call("degree_predicates", name, tb.degree_predicates, tri, w)
    return tri, spent + dt


def census_word(led: Ledger, name: str, w, syllables) -> float:
    """All census stages on one word; returns the seconds spent in them."""
    tri, spent = _build(led, name, w)
    if tri is None:
        return spent
    assignment, dt = _angles(led, name, w, syllables, tri)
    spent += dt
    _, dt = _maximize(led, name, tri, assignment)
    spent += dt

    sig, dt = led.call("encode_isosig", name, tb.encode_isosig, tri)
    spent += dt
    if sig is not None:
        decoded, dt = led.call("decode_isosig", name, tb.decode_isosig, sig)
        spent += dt
        if decoded is not None:
            same = (
                decoded.tet_count == tri.tet_count
                and _degrees(decoded) == _degrees(tri)
                and tb.validate(decoded).passed
            )
            led.check(same, "decode_isosig", "round trip differs", name, wrong=True)

    trace, dt = led.call("simplify", name, tb.simplify, tri)
    spent += dt
    if trace is not None:
        final = trace.final
        ok = final.tet_count <= tri.tet_count and tb.validate(final).passed
        led.check(ok, "simplify", "final invalid or larger", name, wrong=True)
        _, dt = led.call("encode_isosig(final)", name, tb.encode_isosig, final)
        spent += dt
    return spent


def long_word(led: Ledger, name: str, w, syllables) -> float:
    """All long stages on one word; returns the seconds spent in them."""
    tri, spent = _build(led, name, w)
    if tri is None:
        return spent
    dec, dt = led.call("decompose", name, lambda: tb.decompose(tb.inner_word(w)))
    spent += dt
    assignment, dt = _angles(led, name, w, syllables, tri, dec)
    spent += dt
    _, dt = _maximize(led, name, tri, assignment)
    spent += dt
    report, dt = led.call("bounds_report", name, tb.bounds_report, w)
    spent += dt
    if report is not None:
        ok = report.tet_count == tri.tet_count and report.explicit_volume is not None
        if ok and assignment is not None:
            ok = abs(report.explicit_volume - tb.volume.assignment_volume(assignment)) <= 1e-9
        led.check(ok, "bounds_report", "report differs", name, wrong=True)
    return spent


def survey_pass(led: Ledger) -> float:
    buf = io.StringIO()
    start = led.clock()
    with contextlib.redirect_stdout(buf):
        code, _ = led.call("survey", "survey --max-n 11", twobridge.cli.main, SURVEY_ARGS)
    spent = led.clock() - start
    if code is not None:
        if led.check(code == 0, "survey", f"exit {code}", "survey --max-n 11"):
            digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
            led.check(digest == SURVEY_CSV_SHA256, "survey", "CSV bytes differ", "survey --max-n 11", wrong=True)
    return spent


# ---------------------------------------------------------------- passes


def _percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks, q in [0, 1]."""
    data = sorted(values)
    pos = q * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def make_inputs(workload: str, seed: int):
    """(names, words, syllables) for the workload; empty for survey."""
    if workload == "survey":
        return [], [], []
    draw = census_words if workload == "census" else long_words
    syllables = draw(seed)
    return [_render(s) for s in syllables], [tb.Word(s) for s in syllables], syllables


def run_pass(workload: str, led: Ledger, inputs, probe: SpeedProbe, stop: float | None = None):
    """One pass over the inputs, or its first words if perf_counter passes stop.

    Returns, for each word done, its seconds in all (checks included) and in
    its stages, at nominal speed; for survey one entry, the whole command,
    with its stage seconds per word.  The machine's speed drifts within a
    pass, so each word is scaled by the reference samples taken while it
    ran and SCALE_WINDOW on either side (see refspeed).
    """
    spans = []  # per word: first sample, end sample, seconds in all, seconds in stages
    if workload == "survey":
        first, start = len(probe.samples), led.clock()
        spent = survey_pass(led)
        spans.append((first, len(probe.samples), led.clock() - start, spent / SURVEY_WORDS))
    else:
        per_word = census_word if workload == "census" else long_word
        for n, w, s in zip(*inputs):
            first, start = len(probe.samples), led.clock()
            spent = per_word(led, n, w, s)
            spans.append((first, len(probe.samples), led.clock() - start, spent))
            if stop is not None and time.perf_counter() >= stop:
                break
    for _ in range(SCALE_WINDOW):
        probe.sample()
    done = []
    for first, end, elapsed, spent in spans:
        scale = probe.scale(max(0, first - SCALE_WINDOW), end + SCALE_WINDOW)
        done.append((elapsed * scale, spent * scale))
    return done


def warm_up(workload: str, inputs) -> None:
    """Untimed, uncounted work so that lazy imports and first calls are done."""
    if workload == "survey":
        with contextlib.redirect_stdout(io.StringIO()):
            twobridge.cli.main(["survey", "--max-n", "3"])
        return
    names, words, syllables = inputs
    i = min(range(len(words)), key=lambda k: words[k].ell)
    per_word = census_word if workload == "census" else long_word
    per_word(Ledger(), names[i], words[i], syllables[i])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=("survey", "census", "long"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    import numpy
    import scipy

    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(
        f"# env nproc={len(os.sched_getaffinity(0))} python={sys.version.split()[0]} "
        f"numpy={numpy.__version__} scipy={scipy.__version__} "
        + " ".join(f"{k}={os.environ.get(k, '')}" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"))
    )
    inputs = make_inputs(args.workload, args.seed)
    if inputs[0]:
        digest = hashlib.sha256("\n".join(inputs[0]).encode()).hexdigest()[:16]
        print(f"# inputs {len(inputs[0])} words, sha256 {digest}")
    else:
        print(f"# inputs twobridge {' '.join(SURVEY_ARGS)}, {SURVEY_WORDS} words")
    warm_up(args.workload, inputs)

    pass_s: dict[bool, list[float]] = {False: [], True: []}
    scales, layer_passes = [], []
    # Per entry of a pass (a word; for survey the whole command), its seconds
    # in all and in its stages over the untraced passes.
    entry_s: list[list[float]] = []
    stage_s: list[list[float]] = []
    absent: list[str] = []
    deadline = time.perf_counter() + args.seconds
    with SpeedProbe() as probe:
        led = Ledger(probe.clock)
        # A traced run alternates untraced and traced passes, so that the
        # tracing overhead is measured on the same inputs in the same process.
        while True:
            traced = bool(args.trace) and len(pass_s[False]) > len(pass_s[True])
            tracer = Tracer(probe.clock) if traced else None
            # An untraced run stops at the deadline within a pass, once every
            # word has a time; a traced run compares whole passes.
            stop = deadline if entry_s and not args.trace else None
            first_sample = len(probe.samples)
            if tracer is not None:
                tracer.install()
            try:
                done = run_pass(args.workload, led, inputs, probe, stop)
            finally:
                if tracer is not None:
                    tracer.remove()
            scale = probe.scale(first_sample)
            scales.append(scale)
            pass_s[traced].append(sum(elapsed for elapsed, _ in done))
            if tracer is not None:
                layer_passes.append(tracer.metrics(scale))
                absent = tracer.absent
            else:
                entry_s = entry_s or [[] for _ in done]
                stage_s = stage_s or [[] for _ in done]
                for k, (elapsed, spent) in enumerate(done):
                    entry_s[k].append(elapsed)
                    stage_s[k].append(spent)
            if time.perf_counter() >= deadline and (not args.trace or layer_passes):
                break

    passes = len(scales)
    print(
        f"# passes {passes}, {sum(pass_s[False]) + sum(pass_s[True]):.2f} s at nominal speed, "
        f"speed scale {min(scales):.3f}-{max(scales):.3f}"
    )
    for (stage, what, word, wrong), n in sorted(led.failures.items()):
        tag = "wrong" if wrong else "failed"
        print(f"{tag}: {args.workload} {stage} {what} {word} (x{n})")
    if absent:
        print(f"# absent: {' '.join(absent)}")

    if not args.trace:
        # Throughput and percentiles over words of each word's median time,
        # so that one slow pass moves no word; survey times only whole
        # passes, so its percentiles are over passes.
        entry_medians = [statistics.median(times) for times in entry_s]
        entry_words = SURVEY_WORDS if args.workload == "survey" else 1
        if args.workload == "survey":
            latencies = stage_s[0]
        else:
            latencies = [statistics.median(times) for times in stage_s]
        metrics = {
            "words_per_s": (entry_words * len(entry_medians) / sum(entry_medians), "1/s"),
            "word_ms_p50": (1e3 * _percentile(latencies, 0.5), "ms"),
            "word_ms_p90": (1e3 * _percentile(latencies, 0.9), "ms"),
            "ok_share": (1 - led.failed / led.attempted, "share"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        notes = {
            "words_per_s": f"{len(entry_medians) * entry_words} words at their median over {passes} passes",
            "word_ms_p50": f"n={len(latencies)}",
            "word_ms_p90": f"n={len(latencies)}",
        }
    else:
        overhead = statistics.mean(pass_s[True]) / statistics.mean(pass_s[False]) - 1
        values = {
            name: statistics.mean(m[name] for m in layer_passes) for name in layer_passes[0]
        }
        values["trace.overhead_share"] = overhead
        metrics = {name: (values[name], unit) for name, unit in metric_names()}
        notes = {}
    print(
        f"metric error_share {led.failed / led.attempted:.6g} share "
        f"({led.failed}/{led.attempted} distinct operations, {led.executed} calls)"
    )
    for name, (value, unit) in metrics.items():
        note = f" ({notes[name]})" if name in notes else ""
        print(f"metric {name} {value:.6g} {unit}{note}")
    result = {
        "correct": led.wrong == 0,
        "attempted": led.attempted,
        "failed": led.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
