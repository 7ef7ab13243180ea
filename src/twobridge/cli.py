"""Command-line front end.

Subcommands operate on twist words given as positional arguments (or read
from a file with --words-file, one word per line):

    build      gluing table (text, --json, or --isosig)
    edges      edge-class degrees and the low-degree criteria
    simplify   greedy 3-2 / 4-4 simplification, trace and final signature
    blocks     block decomposition of the inner word (JSON)
    angles     explicit angle structure and its verification report
    volume     explicit and maximised volumes
    bounds     complexity bounds report (text or --json)
    survey     CSV of bounds reports over the enumerated word family

Exit status: 0 on success, 1 on bad input, 2 on an internal verification
failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import __version__
from .angles import assign_angles, expand_to_tetrahedra, verify_angle_structure
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


def _cmd_build(args, out) -> int:
    for w in _words_from_args(args):
        tri = build_sakuma_weeks(w)
        if args.isosig:
            print(encode_isosig(tri), file=out)
        elif args.json:
            print(tri.to_json(), file=out)
        else:
            print(f"# {w}", file=out)
            print(gluing_table(tri), file=out)
    return 0


def _cmd_edges(args, out) -> int:
    for w in _words_from_args(args):
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
            print(json.dumps(doc), file=out)
        else:
            print(f"# {w}: {len(table)} edge classes", file=out)
            for cls in table.classes:
                print(f"edge {cls.index}: degree {cls.degree}", file=out)
            print(f"degree-3 edge: {has3}; degree-4 edge: {has4}", file=out)
    return 0


def _cmd_simplify(args, out) -> int:
    for w in _words_from_args(args):
        trace = simplify(build_sakuma_weeks(w))
        if args.isosig:
            print(encode_isosig(trace.final), file=out)
        elif args.json:
            doc = {
                "word": str(w),
                "initial_tets": trace.initial_tets,
                "moves": json.loads(trace.to_json()),
                "final_tets": trace.final.tet_count,
                "final_isosig": encode_isosig(trace.final),
            }
            print(json.dumps(doc), file=out)
        else:
            print(f"# {w}: {trace.initial_tets} -> {trace.final.tet_count} tetrahedra", file=out)
            for m in trace.moves:
                extra = "" if m.axis is None else f" axis {m.axis}"
                print(f"{m.kind} on edge {m.target}{extra}: {m.tets_after} tetrahedra", file=out)
            print(f"final isosig: {encode_isosig(trace.final)}", file=out)
    return 0


def _cmd_blocks(args, out) -> int:
    for w in _words_from_args(args):
        if not is_hyperbolic(w):
            raise ValueError(f"{w} is not hyperbolic (needs at least two syllables)")
        dec = decompose(inner_word(w))
        print(dec.to_json(), file=out)
    return 0


def _cmd_angles(args, out) -> int:
    code = 0
    for w in _words_from_args(args):
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
            print(json.dumps(doc), file=out)
        else:
            print(f"# {w}", file=out)
            print(assignment.to_json(), file=out)
            print(f"verified: {report.passed}", file=out)
        if not report.passed:
            code = 2
    return code


def _cmd_volume(args, out) -> int:
    for w in _words_from_args(args):
        tri = build_sakuma_weeks(w)
        seed = None
        explicit = None
        try:
            assignment = assign_angles(w)
            explicit = assignment_volume(assignment)
            seed = assignment
        except ValueError:
            pass
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
            print(json.dumps(doc), file=out)
        else:
            for key, val in doc.items():
                print(f"{key}: {val}", file=out)
    return 0


def _bounds_lines(reports, as_json, as_csv):
    lines = []
    if as_json:
        for r in reports:
            lines.append(json.dumps(r.to_dict()))
    elif as_csv:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n", extrasaction="ignore")
        writer.writeheader()
        writer.writerows(r.to_dict() for r in reports)
        lines.append(buf.getvalue().rstrip("\n"))
    else:
        for r in reports:
            d = r.to_dict()
            width = max(len(k) for k in d)
            lines.extend(f"{k.ljust(width)}  {v}" for k, v in d.items() if k != "schema_version")
            lines.append("")
    return lines


def _cmd_bounds(args, out) -> int:
    reports = [bounds_report(w) for w in _words_from_args(args)]
    for line in _bounds_lines(reports, args.json, args.csv):
        print(line, file=out)
    return 0


def _cmd_survey(args, out) -> int:
    reports = [bounds_report(w) for w in enumerate_words(args.max_n, set(args.exponents), args.C)]
    for line in _bounds_lines(reports, args.json, not args.json):
        print(line, file=out)
    return 0


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

    def add(name, fn, helptext, words=True):
        p = sub.add_parser(name, help=helptext)
        if words:
            p.add_argument("word", nargs="*", help="twist words such as R^2LR")
            p.add_argument("--words-file", help="file with one word per line")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(fn=fn)
        return p

    p = add("build", _cmd_build, "construct the layered triangulation")
    p.add_argument("--isosig", action="store_true", help="print only the isomorphism signature")
    add("edges", _cmd_edges, "edge classes, degrees and low-degree criteria")
    p = add("simplify", _cmd_simplify, "simplify via 3-2 and 4-4 moves")
    p.add_argument("--isosig", action="store_true", help="print only the final signature")
    add("blocks", _cmd_blocks, "block decomposition of the inner word")
    add("angles", _cmd_angles, "explicit angle structure with verification")
    p = add("volume", _cmd_volume, "explicit and maximised volumes")
    p.add_argument("--tolerance", type=float, default=1e-10, help="projected-gradient stopping tolerance")
    p.add_argument("--max-iters", type=int, default=200, help="maximum ascent iterations")
    p = add("bounds", _cmd_bounds, "complexity bounds for given words")
    p.add_argument("--csv", action="store_true", help=f"CSV with columns {','.join(CSV_COLUMNS)}")
    p = add("survey", _cmd_survey, "bounds over the enumerated family (CSV)", words=False)
    p.add_argument("--max-n", type=int, required=True, help="largest inner syllable count")
    p.add_argument("--C", type=int, default=None, help="restrict to words with this many squared syllables")
    p.add_argument(
        "--exponents", type=int, nargs="+", default=[1, 2], help="allowed inner exponents"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args, sys.stdout)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
