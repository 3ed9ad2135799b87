"""Command-line front end: construct | count | enumerate | verify.

Human-readable output goes to stdout; JSON goes to files (--out) or replaces
stdout under --json.  Every command is deterministic for a fixed (config,
seed).  Exit codes: 0 success, 1 verification or oracle failure or a
stdout closed before the output was written, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .counting import (
    count_cycles,
    count_cycles_bruteforce,
    cycle_report,
)
from .enumeration import (
    MAX_N,
    MIN_N,
    corpus_graph6,
    _certificate,
)
from .families import FAMILY_MAX_N, expand, expected_c5, spec_from_name
from .graphs import SCHEMA_VERSION, Graph, GraphError, parse_graph_text, to_edge_list_text, to_graph6
from .verification import (
    _LEMMAS,
    _check_level,
    _check_variants,
    verify_monotonicity,
    verify_theorem,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

# Largest --workers accepted; each worker is a process of its own.
MAX_WORKERS = 64


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        workers, variants = getattr(args, "workers", 1), getattr(args, "variants", 0)
        if not 1 <= workers <= MAX_WORKERS or variants < 0:
            raise GraphError(f"--workers must be in 1..{MAX_WORKERS} and --variants at least 0")
        code = args.func(args)
        sys.stdout.flush()
        return code
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # the reader closed stdout, so the output is incomplete; stdout is
        # pointed at os.devnull, so that the flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAIL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pentaplanar",
        description="Pentagon-count workbench for planar graphs.",
    )
    sub = parser.add_subparsers(required=True)

    p = sub.add_parser("construct", help="build a named family graph")
    p.add_argument("--family", required=True,
                   help="dn | en | a8 | a11 | exc0..exc5")
    p.add_argument("--n", type=int,
                   help=f"vertex count (dn/en, <= {FAMILY_MAX_N}; fixed for the rest)")
    p.add_argument("--count", action="store_true",
                   help="also print the pentagon count")
    p.add_argument("--format", choices=("graph6", "edgelist"), default="graph6")
    p.add_argument("--out", help="write the graph here instead of stdout")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("count", help="count cycles in an input graph")
    p.add_argument("input", help="path to a graph file, or - for stdin")
    p.add_argument("--k", type=int, choices=(3, 4, 5),
                   help="print a single count instead of the full report")
    p.add_argument("--format", choices=("auto", "graph6", "edgelist"),
                   default="auto")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against the brute-force counter")
    p.add_argument("--json", action="store_true", help="emit report JSON to stdout")
    p.add_argument("--out", help="write report JSON here")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("enumerate", help="enumerate planar triangulations")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", help="write sorted graph6 corpus lines here")
    p.add_argument("--json", action="store_true",
                   help="emit the certificate as JSON")
    p.add_argument("--workers", type=int, default=_default_workers())
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify", help="verify the extremal counts and lemmas")
    p.add_argument("--n", default="5..12",
                   help="single n or inclusive range like 5..12")
    p.add_argument("--lemmas-only", action="store_true",
                   help="skip the theorem sweep, run only the lemma suites")
    p.add_argument("--variants", type=int, default=0,
                   help="additionally check this many edge-deleted variants")
    p.add_argument("--workers", type=int, default=_default_workers())
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--json", action="store_true", help="emit JSON to stdout")
    p.add_argument("--out", help="write JSON here")
    p.add_argument("--allow-big", action="store_true",
                   help=f"permit n = 13..{MAX_N} (slow)")
    p.set_defaults(func=_cmd_verify)

    return parser


def _default_workers() -> int:
    """The number of CPUs this process may run on, at most MAX_WORKERS;
    the machine's CPU count where the OS cannot tell."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(cpus, MAX_WORKERS)


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_construct(args: argparse.Namespace) -> int:
    spec = spec_from_name(args.family, args.n)
    g = expand(spec)
    text = to_graph6(g) + "\n" if args.format == "graph6" else to_edge_list_text(g)
    if args.out:
        _write(text, args.out)
    elif not args.count:
        sys.stdout.write(text)
    if args.count:
        c5 = count_cycles(g, 5)
        print(c5)
        if c5 != expected_c5(spec):
            print(f"error: expected {expected_c5(spec)} pentagons, counted {c5}",
                  file=sys.stderr)
            return EXIT_FAIL
    return EXIT_OK


def _read_graph(path: str, fmt: str) -> Graph:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path) as fh:
                text = fh.read()
    except UnicodeDecodeError as exc:
        raise GraphError(f"{path}: not a text file ({exc.reason})") from None
    return parse_graph_text(text, fmt)


def _cmd_count(args: argparse.Namespace) -> int:
    g = _read_graph(args.input, args.format)
    report = cycle_report(g)
    if args.oracle:
        for k in (3, 4, 5):
            mine = (report.c3, report.c4, report.c5)[k - 3]
            oracle = count_cycles_bruteforce(g, k)
            if mine != oracle:
                print(
                    f"oracle mismatch at k={k}: counted {mine}, brute force {oracle}",
                    file=sys.stderr,
                )
                return EXIT_FAIL
    if args.out:
        _write(report.to_json() + "\n", args.out)
    if args.k:
        print((report.c3, report.c4, report.c5)[args.k - 3])
    elif args.json:
        print(report.to_json())
    elif not args.out:
        print(f"n={report.n} m={report.m} c3={report.c3} c4={report.c4} c5={report.c5}")
    return EXIT_OK


def _cmd_enumerate(args: argparse.Namespace) -> int:
    if not (MIN_N <= args.n <= MAX_N):
        raise GraphError(f"--n must be in {MIN_N}..{MAX_N}")
    lines = corpus_graph6(args.n, workers=args.workers)
    cert = _certificate(args.n, lines)
    if args.out:
        _write("\n".join(lines) + "\n", args.out)
    elif not args.json:
        for line in lines:
            print(line)
    if args.json:
        print(cert.to_json())
    else:
        print(f"n={cert.n}: {cert.count} classes, digest {cert.digest[:16]}...",
              file=sys.stderr)
    return EXIT_OK


def _parse_range(text: str) -> range:
    lo, sep, hi = text.partition("..")
    try:
        return range(int(lo), int(hi if sep else lo) + 1)
    except ValueError:
        raise GraphError(
            f"--n must be an integer or a range like 5..12, got {text!r}"
        ) from None


def _cmd_verify(args: argparse.Namespace) -> int:
    ns = _parse_range(args.n)
    cap = MAX_N if args.allow_big else 12
    if not ns or ns[0] < 5 or ns[-1] > cap:
        raise GraphError(
            f"--n range must lie within 5..{cap}"
            + ("" if args.allow_big else f" (use --allow-big for 13..{MAX_N})")
        )
    failed = False
    reports = []
    for n in ns:
        if args.lemmas_only:
            _, lemmas = _check_level(n, _LEMMAS, args.workers, False)
            rep = {
                "schema_version": SCHEMA_VERSION,
                "n": n,
                "lemmas": {k: v.to_json_dict() for k, v in lemmas.items()},
            }
            bad = sum(v.violations for v in lemmas.values())
            failed |= bad > 0
            if not args.json:
                print(f"n={n}: lemma checks "
                      + " ".join(f"{k}={v.checked}" for k, v in lemmas.items())
                      + f" violations={bad}")
        else:
            cert = verify_theorem(n, workers=args.workers, include_lemmas=True)
            rep = cert.to_json_dict()
            bad = sum(v.violations for v in cert.lemmas.values())
            failed |= (not cert.theorem_match) or bad > 0
            if not args.json:
                fams = ",".join(e.family for e in cert.extremal)
                print(
                    f"n={n}: max_c5={cert.max_c5} expected={cert.expected_max} "
                    f"second={cert.second_best} extremal=[{fams}] "
                    f"lemma_violations={bad} "
                    f"{'OK' if cert.theorem_match and bad == 0 else 'FAIL'}"
                )
        reports.append(rep)

    summary: dict = {"schema_version": SCHEMA_VERSION, "certificates": reports}
    if args.variants:
        lemmas = _check_variants(args.variants, args.seed, args.workers)
        bad = sum(v.violations for v in lemmas.values())
        failed |= bad > 0
        summary["variants"] = {
            "count": args.variants,
            "seed": args.seed,
            "lemmas": {k: v.to_json_dict() for k, v in lemmas.items()},
        }
        if not args.json:
            print(f"variants({args.variants}, seed={args.seed}): violations={bad}")
    if not args.lemmas_only:
        mono = verify_monotonicity(samples=200, seed=args.seed, workers=args.workers)
        summary["monotonicity"] = mono.to_json_dict()
        failed |= not mono.passed
        if not args.json:
            print(
                f"monotonicity: {'pass' if mono.passed else 'FAIL'} "
                f"({mono.edges_tested} edge additions, seed={mono.seed})"
            )
    if args.json:
        print(json.dumps(summary, indent=2))
    if args.out:
        _write(json.dumps(summary, indent=2) + "\n", args.out)
    return EXIT_FAIL if failed else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
