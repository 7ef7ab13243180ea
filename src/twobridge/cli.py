"""Command-line front end.

Subcommands operate on twist words given as positional arguments (or read
from a file with --words-file, one word per line):

    build      gluing table (text, --json, or --isosig)
    edges      edge-class degrees and the low-degree criteria
    simplify   greedy 3-2 / 4-4 simplification, trace and final signature
    blocks     block decomposition of the inner word (JSON)
    angles     explicit angle structure and its verification report
    volume     explicit and maximised volumes
    bounds     complexity bounds report (text, --json, or --csv)
    survey     bounds reports over the enumerated word family (CSV, or --json)

Exit status: 0 on success, 1 on bad input, 2 on an internal verification
failure, also where a printed record fails its check: an unverified angle
structure, or an unconverged volume maximum (--max-iters too), whose
record gives V at the last iterate and a null gradient norm off the plane.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from operator import attrgetter

from . import __version__
from .angles import assign_angles, expand_to_tetrahedra, theorem_family, verify_angle_structure
from .blocks import decompose
from .isosig import encode_isosig
from .moves import simplify
from .triangulation import VerificationError, build_sakuma_weeks, degree_predicates, edge_classes, gluing_table
from .volume import CSV_COLUMNS, assignment_volume, bounds_report, maximize_volume
from .word import Word, enumerate_words, inner_word, is_hyperbolic, normalize, parse_word


def _words_from_args(args) -> list[Word]:
    texts = list(args.word or [])
    if getattr(args, "words_file", None):
        with open(args.words_file) as fh:
            texts += [line.strip() for line in fh if line.strip()]
    if not texts:
        raise ValueError("no words given")
    return [normalize(parse_word(t)) for t in texts]


def _each_word(args) -> int:
    """Print each word's record once it is complete; 2 if any is unverified."""
    code = 0
    for w in _words_from_args(args):
        lines, verified = args.record(w, args)
        print(*lines, sep="\n")
        if not verified:
            code = 2
    return code


def _build(w: Word, args) -> tuple[list[str], bool]:
    tri = build_sakuma_weeks(w)
    if args.isosig:
        return [encode_isosig(tri)], True
    if args.json:
        return [tri.to_json()], True
    return [f"# {w}", gluing_table(tri)], True


def _edges(w: Word, args) -> tuple[list[str], bool]:
    tri = build_sakuma_weeks(w)
    table = edge_classes(tri)
    has3, has4 = degree_predicates(tri, w)
    if args.json:
        doc = {
            "word": str(w),
            "degrees": table.degrees(),
            "has_degree_3": has3,
            "has_degree_4": has4,
        }
        return [json.dumps(doc)], True
    lines = [f"# {w}: {len(table)} edge classes"]
    lines += [f"edge {cls.index}: degree {cls.degree}" for cls in table.classes]
    lines.append(f"degree-3 edge: {has3}; degree-4 edge: {has4}")
    return lines, True


def _simplify(w: Word, args) -> tuple[list[str], bool]:
    trace = simplify(build_sakuma_weeks(w))
    isosig = encode_isosig(trace.final)
    if args.isosig:
        return [isosig], True
    if args.json:
        doc = {
            "word": str(w),
            "initial_tets": trace.initial_tets,
            "moves": json.loads(trace.to_json()),
            "final_tets": trace.final.tet_count,
            "final_isosig": isosig,
        }
        return [json.dumps(doc)], True
    lines = [f"# {w}: {trace.initial_tets} -> {trace.final.tet_count} tetrahedra"]
    for m in trace.moves:
        extra = "" if m.axis is None else f" axis {m.axis}"
        lines.append(f"{m.kind} on edge {m.target}{extra}: {m.tets_after} tetrahedra")
    lines.append(f"final isosig: {isosig}")
    return lines, True


def _blocks(w: Word, args) -> tuple[list[str], bool]:
    if not is_hyperbolic(w):
        raise ValueError(f"{w} is not hyperbolic (needs at least two syllables)")
    return [decompose(inner_word(w)).to_json()], True


def _angles(w: Word, args) -> tuple[list[str], bool]:
    assignment = assign_angles(w)
    tri = build_sakuma_weeks(w)
    report = verify_angle_structure(tri, expand_to_tetrahedra(assignment, tri))
    if args.json:
        doc = {
            "word": str(w),
            "layers": json.loads(assignment.to_json()),
            "verified": report.passed,
            "bad_edge_classes": report.bad_edge_classes,
        }
        return [json.dumps(doc)], report.passed
    return [f"# {w}", assignment.to_json(), f"verified: {report.passed}"], report.passed


def _volume(w: Word, args) -> tuple[list[str], bool]:
    tri = build_sakuma_weeks(w)
    seed = assign_angles(w) if theorem_family(w) else None
    explicit = None if seed is None else assignment_volume(seed)
    res = maximize_volume(tri, seed=seed, tolerance=args.tolerance, max_iters=args.max_iters)
    doc = {
        "word": str(w),
        "tet_count": tri.tet_count,
        "explicit_volume": explicit,
        "maximized_volume": res.volume,
        "gradient_norm": res.gradient_norm,
        "converged": res.converged,
        "on_boundary": res.on_boundary,
    }
    if args.json:
        return [json.dumps(doc)], res.converged
    return [f"{key}: {val}" for key, val in doc.items()], res.converged


def _print_reports(reports, as_json: bool, as_csv: bool) -> int:
    if as_json:
        for r in reports:
            print(json.dumps(r.to_dict()))
    elif as_csv:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows(map(attrgetter(*CSV_COLUMNS), reports))
    else:
        for r in reports:
            d = r.to_dict()
            width = max(len(k) for k in d)
            print(*(f"{k.ljust(width)}  {v}" for k, v in d.items() if k != "schema_version"), "", sep="\n")
    return 0


def _cmd_bounds(args) -> int:
    return _print_reports([bounds_report(w) for w in _words_from_args(args)], args.json, args.csv)


def _cmd_survey(args) -> int:
    # A map, not a list: each row is printed before the next report is
    # computed, so memory stays flat however many words there are.
    reports = map(bounds_report, enumerate_words(args.max_n, set(args.exponents), args.C))
    return _print_reports(reports, args.json, not args.json)


class _ArgumentParser(argparse.ArgumentParser):
    """Reports usage errors with exit status 1, the status for bad input."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="twobridge",
        description="Layered triangulations of 2-bridge link complements: "
        "construction, simplification and volume-based complexity bounds.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, helptext, record=None, fn=_each_word, words=True, with_json=True, with_csv=False, isosig=None):
        p = sub.add_parser(name, help=helptext)
        if words:
            p.add_argument("word", nargs="*", help="twist words such as R^2LR")
            p.add_argument("--words-file", help="file with one word per line")
        modes = p.add_mutually_exclusive_group()  # one output format
        if with_json:
            modes.add_argument("--json", action="store_true", help="machine-readable output")
        if with_csv:
            modes.add_argument("--csv", action="store_true", help=f"CSV with columns {','.join(CSV_COLUMNS)}")
        if isosig:
            modes.add_argument("--isosig", action="store_true", help=isosig)
        p.set_defaults(fn=fn, record=record)
        return p

    add("build", "construct the layered triangulation", _build, isosig="print only the isomorphism signature")
    add("edges", "edge classes, degrees and low-degree criteria", _edges)
    add("simplify", "simplify via 3-2 and 4-4 moves", _simplify, isosig="print only the final signature")
    add("blocks", "block decomposition of the inner word (JSON)", _blocks, with_json=False)
    add("angles", "explicit angle structure with verification", _angles)
    p = add("volume", "explicit and maximised volumes", _volume)
    p.add_argument("--tolerance", type=float, default=1e-10, help="projected-gradient stopping tolerance")
    p.add_argument("--max-iters", type=int, default=200, help="maximum ascent iterations; a run that stops unconverged exits 2")
    add("bounds", "complexity bounds for given words", fn=_cmd_bounds, with_csv=True)
    p = add("survey", "bounds over the enumerated family (CSV, or --json)", fn=_cmd_survey, words=False)
    p.add_argument("--max-n", type=int, required=True, help="largest inner syllable count")
    p.add_argument("--C", type=int, default=None, help="restrict to words with this many squared syllables")
    p.add_argument(
        "--exponents", type=int, nargs="+", default=[1, 2], help="allowed inner exponents"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OverflowError, MemoryError) as exc:  # exponents too large to expand into letters
        print(f"error: input too large ({type(exc).__name__})", file=sys.stderr)
        return 1
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
