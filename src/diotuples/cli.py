"""Command-line surface: verify, search, extend, bounds and canned reproductions.

Exit codes: 0 = claim holds / success, 1 = witness or violation found,
2 = usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .quad_ring import QuadInt, elem_to_json, format_elem, is_squarefree, make_ring, parse_elem
from .tuples import extend_scan, extend_triple, is_regular, make_tuple, verify_tuple
from .search import SearchConfig, SearchReport, run_campaign, write_clique_csv, write_report, _WORKER_COST

JOBS_HELP = (
    "worker processes at most (default 1); fewer when fewer fields are pending, fewer CPUs are "
    f"usable or the fields' norm balls hold under {_WORKER_COST:,} pairs {{z, -z}} per worker, below "
    "which a pool costs more than it saves; one worker runs in this process; the report records the value given"
)


def _build_parser() -> argparse.ArgumentParser:
    """The whole command line; each command, bounds subcommand and reproduce target binds its handler as run."""
    ap = argparse.ArgumentParser(prog="diotuples", description=__doc__)
    ap.add_argument("--version", action="version", version=f"diotuples {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="verify a D(n) tuple")
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--n", default="-1")
    p.add_argument("--elems", required=True, help="comma-separated element texts")
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("search", help="exhaustive k-tuple search over fields")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--D-range", dest="d_range", help="inclusive range a..b of squarefree D")
    g.add_argument("--D-list", dest="d_list", help="comma-separated squarefree D values")
    p.add_argument("--max-norm", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", default="-1")
    p.add_argument("--jobs", type=int, default=1, help=JOBS_HELP)
    p.add_argument("--out", help="write the JSON report here")
    p.add_argument("--csv", help="write a clique CSV here")
    p.add_argument(
        "--checkpoint",
        help="persist finished fields to this JSON file, rewritten once per chunk of fields "
        "(a crash loses at most the chunks in flight)",
    )
    p.add_argument("--resume", action="store_true", help="reuse an existing checkpoint (needs --checkpoint)")
    p.add_argument("--json", action="store_true", help="print the report JSON to stdout")
    p.set_defaults(run=_cmd_search)

    p = sub.add_parser("extend", help="extend a D(-1) triple by a z-scan")
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--triple", required=True, help="comma-separated a,b,c")
    p.add_argument("--z-norm-bound", dest="z_norm_bound", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_extend)

    p = sub.add_parser("bounds", help="approximation constants and the inequality chain")
    bsub = p.add_subparsers(dest="bounds_command", required=True)
    pj = bsub.add_parser("jz", help="evaluate the approximation constants")
    pj.add_argument("--a1", required=True)
    pj.add_argument("--a2", required=True)
    pj.add_argument("--T", required=True)
    pj.add_argument("--D", type=int, default=1)
    pj.add_argument("--precision-bits", type=int, default=None)
    pj.set_defaults(run=_cmd_bounds_jz)
    pc = bsub.add_parser("chain", help="verify the exact magnitude chain")
    pc.add_argument("--json", action="store_true")
    pc.set_defaults(run=_cmd_bounds_chain)
    pt = bsub.add_parser("threshold", help="exact minimal N with N^8*13^31 >= 66^31*3956^10")
    pt.set_defaults(run=_cmd_bounds_threshold)

    p = sub.add_parser("reproduce", help="run a canned computation and compare outcomes")
    rsub = p.add_subparsers(dest="target", required=True)
    for target, max_norm, k in (("quintuple-scan", 224, 5), ("quadruple-min", 143, 4)):
        pr = rsub.add_parser(target)
        pr.add_argument("--out", help="write the search report here")
        pr.set_defaults(run=_reproduce_scan, max_norm=max_norm, k=k)
    rsub.add_parser("example-quadruple").set_defaults(run=_reproduce_example_quadruple)
    rsub.add_parser("d3-triples").set_defaults(run=_reproduce_d3_triples)
    return ap


def _cmd_verify(args) -> int:
    ring = make_ring(args.D)
    n = parse_elem(args.n, ring)
    elems = [parse_elem(t, ring) for t in args.elems.split(",")]
    t = make_tuple(ring, n, elems)
    report = verify_tuple(t)
    if args.json:
        print(json.dumps(report.to_json(), indent=1))
    else:
        print(f"ring D={args.D}, n={format_elem(n)}")
        print("tuple:", ", ".join(format_elem(e) for e in t.elems))
        for pc in report.pairs:
            w = "no witness" if pc.witness is None else f"witness {format_elem(pc.witness)}"
            print(f"  pair ({format_elem(pc.a)}, {format_elem(pc.b)}): {w}")
        verdict = "PASS" if report.ok else "FAIL"
        print(f"{verdict}: D({format_elem(n)}) {len(t.elems)}-tuple")
        if not report.ok:
            a, b = report.failing_pair
            print(f"first failing pair: ({format_elem(a)}, {format_elem(b)})")
    return 0 if report.ok else 1


def _parse_d_selection(args) -> list[int]:
    if args.d_range:
        lo, _, hi = args.d_range.partition("..")
        try:
            lo, hi = int(lo), int(hi)
        except ValueError:
            raise ValueError(f"--D-range must have the form a..b (integers), got {args.d_range!r}") from None
        if not lo <= hi:
            raise ValueError(f"empty D range {args.d_range}")
        ds = [D for D in range(max(lo, 1), hi + 1) if is_squarefree(D)]
        if not ds:
            raise ValueError(f"--D-range {args.d_range} holds no squarefree D >= 1")
        return ds
    try:
        return [int(t) for t in args.d_list.split(",")]  # building the SearchConfig rejects a bad D
    except ValueError:
        raise ValueError(f"--D-list must be comma-separated integers, got {args.d_list!r}") from None


def _print_progress(res: dict) -> None:
    """One stderr line per finished field, as run_campaign hands it over."""
    print(
        f"D={res['D']}: {res['vertex_count']} vertices, {res['edge_count']} edges, "
        f"{len(res['cliques'])} clique record(s) [{res['wall_time']:.2f}s]",
        file=sys.stderr,
    )


def _check_output_dirs(*flag_paths: tuple[str, str | None]) -> None:
    """Reject an output path that is a directory, lies in a missing one or is named by two flags."""
    flag_of: dict[str, str] = {}  # real path -> the first flag naming it
    for flag, path in flag_paths:
        if not path:
            continue
        if os.path.isdir(path):
            raise ValueError(f"{flag} {path}: is a directory")
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise ValueError(f"{flag} {path}: directory does not exist")
        real = os.path.realpath(path)
        if real in flag_of:
            raise ValueError(f"{flag_of[real]} and {flag} name one file: {path}")
        flag_of[real] = flag


def _run_search(cfg: SearchConfig, out: str | None, csv: str | None = None, resume: bool = False) -> SearchReport:
    """Run the campaign of `search` or a `reproduce` scan, a progress line per field, then write its files.

    First, in order: --resume needs a checkpoint, the output paths, an existing checkpoint needs --resume.
    """
    if resume and not cfg.checkpoint_path:
        raise ValueError("--resume needs --checkpoint")
    _check_output_dirs(("--out", out), ("--csv", csv), ("--checkpoint", cfg.checkpoint_path))
    if cfg.checkpoint_path and os.path.exists(cfg.checkpoint_path) and not resume:
        raise ValueError(f"checkpoint {cfg.checkpoint_path} exists; pass --resume to reuse it")
    report = run_campaign(cfg, progress=_print_progress)
    if out:
        write_report(report, out)
    if csv:
        write_clique_csv(report, csv)
    return report


def _cmd_search(args) -> int:
    cfg = SearchConfig(
        D_list=_parse_d_selection(args),
        max_norm=args.max_norm,
        k=args.k,
        n=args.n,
        jobs=args.jobs,
        checkpoint_path=args.checkpoint,
    )
    report = _run_search(cfg, args.out, args.csv, args.resume)
    if args.json:
        print(json.dumps(report.to_json(), indent=1))
    else:
        print(
            f"searched {len(report.results)} field(s), k={cfg.k}, max_norm={cfg.max_norm}: "
            f"{report.total_cliques} clique(s) in {report.wall_time:.2f}s"
        )
        for D, elems in report.sorted_cliques():
            print(f"  D={D}: {{{', '.join(format_elem(e) for e in elems)}}}")
    return 0 if report.total_cliques == 0 else 1


def _cmd_extend(args) -> int:
    ring = make_ring(args.D)
    parts = [parse_elem(t, ring) for t in args.triple.split(",")]
    if len(parts) != 3:
        raise ValueError("--triple must name exactly three elements")
    a, b, c = parts
    if args.z_norm_bound < 0:
        raise ValueError("--z-norm-bound must be >= 0")
    # a zero or repeated element is a usage error: make_tuple raises, and main exits 2
    if not verify_tuple(make_tuple(ring, QuadInt(ring, -1, 0), parts)).ok:
        print("not extendable: {a, b, c} is not a D(-1) triple", file=sys.stderr)
        return 1
    scan = extend_scan(a, b, c, args.z_norm_bound)
    # one record (d, Pell witness, {a, b, d} regular) per extension, for both views
    records = [(d, w, is_regular(a, b, d)) for d, w in scan.extensions]
    base_regular = is_regular(a, b, c)
    if args.json:
        payload = {
            "schema": 2,
            "D": args.D,
            "triple": [elem_to_json(e) for e in (a, b, c)],
            "triple_regular": base_regular,
            "extensions": [
                {
                    "d": elem_to_json(d),
                    "x": elem_to_json(w.x),
                    "y": elem_to_json(w.y),
                    "z": elem_to_json(w.z),
                    "abd_regular": regular,
                }
                for d, w, regular in records
            ],
            "scan": scan.to_json(),
        }
        print(json.dumps(payload, indent=1))
    else:
        flag = "regular" if base_regular else "not regular"
        print(f"triple {{{format_elem(a)}, {format_elem(b)}, {format_elem(c)}}} ({flag})")
        if not records:
            print(f"no extension with norm(z) <= {args.z_norm_bound}")
        for d, w, regular in records:
            dflag = "regular" if regular else "not regular"
            print(
                f"  d = {format_elem(d)}  (x={format_elem(w.x)}, y={format_elem(w.y)}, "
                f"z={format_elem(w.z)}; {{a, b, d}} {dflag})"
            )
        classes = "whole ball" if scan.root_classes is None else f"{scan.root_classes} root classes"
        counts = f"{scan.z_scanned} z scanned, {scan.sieve_passed} passed the sieve, {scan.accepted} accepted"
        print(f"scan: {classes}, {counts}")
    return 0


def _cmd_bounds_chain(args) -> int:
    from .bounds import chain_verify  # each bounds handler imports it here: no other command needs mpmath

    trace = chain_verify()
    if args.json:
        print(json.dumps(trace.to_json(), indent=1))
    else:
        print(trace.format_table())
    return 0 if trace.confirmed else 1


def _cmd_bounds_threshold(args) -> int:
    from .bounds import threshold_a22

    n = threshold_a22()
    print(f"minimal N with N^8*13^31 >= 66^31*3956^10: {n}")
    print(f"N <= 1.8e7: {n <= 18 * 10**6}")
    return 0


def _cmd_bounds_jz(args) -> int:
    from . import bounds as bnd

    bits = bnd.DEFAULT_PRECISION_BITS if args.precision_bits is None else args.precision_bits
    ring = make_ring(args.D)
    a1 = parse_elem(args.a1, ring)
    a2 = parse_elem(args.a2, ring)
    T = parse_elem(args.T, ring)
    try:
        c = bnd.jz_constants(a1, a2, T, bits)
    except bnd.HypothesisFailure as exc:
        print(f"hypothesis failure: {exc}", file=sys.stderr)
        return 1
    print(f"a1={format_elem(a1)} a2={format_elem(a2)} T={format_elem(T)} (D={args.D})")
    print(f"M^2 = {c.M_sq}")
    for name, val in (("L", c.L), ("l", c.l), ("p", c.p), ("P", c.P), ("lambda", c.lam), ("c1", c.c1)):
        print(f"{name:>7} = {val}  (rel err <= {val.max_rel_error:.3e})")
    print(f"precision: {c.precision_bits} bits")
    return 0


def _reproduce_example_quadruple(args) -> int:
    ring = make_ring(1)
    n = parse_elem("-1", ring)
    t = make_tuple(ring, n, [parse_elem(s, ring) for s in ("1", "2", "5", "-24")])
    report = verify_tuple(t)
    expected = [parse_elem(s, ring) for s in ("1", "2", "0+5*w", "3", "0+7*w", "0+11*w")]
    got = [pc.witness for pc in report.pairs]
    ok = report.ok and got == expected
    print("quadruple {1, 2, 5, -24} in Z[i], n=-1:", "PASS" if report.ok else "FAIL")
    print(
        "witnesses:",
        ", ".join("-" if w is None else format_elem(w) for w in got),
        "(expected:",
        ", ".join(format_elem(w) for w in expected) + ")",
    )
    if not ok:
        print("MISMATCH against the expected witness list")
    return 0 if ok else 1


def _reproduce_scan(args) -> int:
    # both scans predict less work than a pool of two needs (search._WORKER_COST), so they run serially
    cfg = SearchConfig(D_list=[D for D in range(1, 226) if is_squarefree(D)], max_norm=args.max_norm, k=args.k, n="-1")
    report = _run_search(cfg, args.out)
    print(
        f"squarefree D < 226, max_norm={cfg.max_norm}, k={cfg.k}: "
        f"{report.total_cliques} clique(s) in {report.wall_time:.1f}s (expected 0)"
    )
    return 0 if report.total_cliques == 0 else 1


def _reproduce_d3_triples(args) -> int:
    ring = make_ring(3)
    n = parse_elem("-1", ring)
    w = parse_elem("(1+1*s)/2", ring)
    triples = [
        (w, w.conj(), parse_elem("1", ring)),
        (-w, -(w.conj()), parse_elem("-1", ring)),
    ]
    ok = True
    for a, b, c in triples:
        rep = verify_tuple(make_tuple(ring, n, [a, b, c]))
        exts = extend_triple(a, b, c, 10**4)
        label = f"{{{format_elem(a)}, {format_elem(b)}, {format_elem(c)}}}"
        print(
            f"{label}: verifies={rep.ok}, extensions with norm(z) <= 1e4: {len(exts)}"
            " (expected: verifies, none)"
        )
        ok = ok and rep.ok and not exts
    return 0 if ok else 1


def _join_d_range(argv: list[str]) -> list[str]:
    """`--D-range a..b` as `--D-range=a..b`, so that argparse does not read a range like -5..3 as an option.

    Argparse takes any unambiguous prefix of an option, so `--D-r`, `--D-ra`, ... are joined too;
    `--D-` is a prefix of `--D-list` as well, so it is left to argparse.
    """
    args = list(argv)
    i = 0
    while i < len(args) - 1:
        if args[i].startswith("--D-r") and "--D-range".startswith(args[i]) and ".." in args[i + 1]:
            args[i : i + 2] = [f"--D-range={args[i + 1]}"]
        i += 1
    return args


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(_join_d_range(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
