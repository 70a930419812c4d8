"""Command-line driver: sweeps, searches, family utilities, reports.

Subcommands
-----------
sweep-inequalities   evaluate the inequality grid, streaming one JSON record
                     per point to --out, with a CSV/JSON summary and
                     crash-safe --resume
search               exact product/sum optimum at one (n, k, t), by brute
                     force or the generating-set scan, witnesses included
frankl               r-window family sizes at one (n, k, t) as CSV, with the
                     maximizer, ties, and the threshold regime
compress             left-compress a family file by simultaneous shifts
genset               minimal generating set of a family file, or expand a
                     generating set back to its k-uniform family
verify-case4         explicit-construction checks at one (n, k)
verify-main-small    search-based confirmation of the product bound

Exit codes: 0 when every executed check passes, 1 on usage errors and on
operating-system errors on a path (one "error:" line naming it), 2 on any
violation, integrity failure, or capacity refusal.  Machine output goes to
--out ("-" means standard output; with CROSSINT_OUT_DIR set, bare subcommands
default to files under that directory); the human summary goes to standard
error.  Record streams are deterministic: the same flags always produce
byte-identical output, and a resumed sweep reproduces the fresh stream,
re-reading only the records after its last checkpoint.  A sweep forks one
worker per CPU it may run on, and its stream, sidecars, checkpoints, standard
error and exit code do not depend on how many there are.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import os
import sys

from .errors import (
    CapacityError,
    CrossIntError,
    DomainError,
    IntegrityError,
    UsageError,
)

#: Environment variable naming the default output directory for --out.
OUT_DIR_ENV = "CROSSINT_OUT_DIR"


# ---------------------------------------------------------------------------
# Names lent to the benchmark's tracer


#: The names the benchmark's tracer (perfbench/tracing.py) wraps in this
#: module, each with the module that owns it.  A command imports only the
#: modules it runs, so a name is imported from its owner the first time it
#: is looked up here (__getattr__), and the handlers and the sweep reach it
#: through this module (_traced, cli.record_to_line), where the tracer's
#: wrapper stands once it is set.  The table goes when the tracer wraps
#: each name in its owner (ROADMAP item 2).
_OWNERS = {
    "RecordDigest": "stream",
    "parse_record_line": "stream",
    "record_to_line": "stream",
    "read_family": "families",
    "write_family": "families",
    "left_compress": "compression",
    "is_left_compressed": "compression",
    "read_genset": "gensets",
    "write_genset": "gensets",
    "minimal_genset": "gensets",
    "size_from_genset": "gensets",
    "upset_k": "gensets",
    "verify_main_theorem_small": "search",
}


def __getattr__(name: str):
    """The object of a name of _OWNERS, imported from its owner and kept in
    this module (PEP 562: called only for a name this module lacks)."""
    if name not in _OWNERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    owner = importlib.import_module("." + _OWNERS[name], __package__)
    value = globals()[name] = getattr(owner, name)
    return value


def _traced(*names: str) -> list:
    """The objects names of _OWNERS stand for in this module: a tracer's
    wrapper where one is set, else the owner's object."""
    here = globals()
    return [here[name] if name in here else __getattr__(name) for name in names]


# ---------------------------------------------------------------------------
# Output plumbing


def resolve_out(out: str | None, default_name: str) -> str:
    """--out value, or a file under the default output directory, or "-"."""
    if out:
        return out
    out_dir = os.environ.get(OUT_DIR_ENV)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        return os.path.join(out_dir, default_name)
    return "-"


def _write_out(path: str, text) -> None:
    if path != "-":
        _replace_file(path, text)
    elif isinstance(text, str):
        sys.stdout.write(text)
    else:
        sys.stdout.writelines(text)


def _replace_file(path: str, text) -> None:
    """Write text, a str or an iterable of str pieces, to path through a
    temporary file in the same directory and os.replace: a reader sees the
    old file or the new one, and a failed write leaves the old one whole
    and no temporary file behind.  An OSError on the temporary file is
    raised again naming path, with the same errno and text."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines((text,) if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:
            raise type(exc)(exc.errno, exc.strerror, path) from None
        raise


def _say(message: str) -> None:
    print(message, file=sys.stderr)


def _json_text(obj) -> str:
    """The JSON text of an --out report or a summary sidecar: keys sorted,
    two-space indents, a final newline."""
    # imported here, so that the commands that write no JSON do not load it
    import json

    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# sweep-inequalities


def _cmd_sweep(args: argparse.Namespace) -> int:
    # the one command that runs the inequality engine, the workers and the
    # checkpoint, so the one that imports them
    from .workers import run_sweep

    return run_sweep(args)


# ---------------------------------------------------------------------------
# search


def _side_obj(side, n: int, k: int) -> dict:
    from .families import elements_of
    from .gensets import GenSet, expandable

    write_family, write_genset, upset_k = _traced("write_family", "write_genset", "upset_k")
    if isinstance(side, GenSet):
        obj: dict = {
            "kind": "genset",
            "elements": [list(elements_of(m)) for m in side.elements],
            "genset": "".join(write_genset(side)),
        }
        if expandable(n, k):
            obj["family"] = "".join(write_family(upset_k(side)))
        return obj
    return {"kind": "family", "family": "".join(write_family(side))}


def _witnesses_obj(report) -> list[dict]:
    """The witness pairs of a SearchResult or a MainTheoremReport, as
    set-list texts."""
    n, k = report.n, report.k
    return [{"a": _side_obj(a, n, k), "b": _side_obj(b, n, k)} for a, b in report.witnesses]


def _say_witness_cut(report) -> None:
    """Say so when the witnesses of a SearchResult or a MainTheoremReport
    are fewer than the optimal pairs the search counted, a count that stops
    at _TIE_SOFT_CAP."""
    from .search import _TIE_SOFT_CAP

    kept, ties = len(report.witnesses), report.stats.get("ties", 0)
    if ties > kept:
        least = "at least " if ties >= _TIE_SOFT_CAP else ""
        _say(f"witness list cut: kept {kept} of {least}{ties} optimal pairs")


def _cmd_search(args: argparse.Namespace) -> int:
    from .search import brute_force_best, genset_search_best_product

    if args.method == "brute":
        result = brute_force_best(args.n, args.k, args.t, args.objective)
    else:
        if args.objective != "product":
            raise UsageError(
                "the genset method maximizes the product only; "
                "use --method brute for the sum objective"
            )
        result = genset_search_best_product(args.n, args.k, args.t)
    out = resolve_out(args.out, f"search-{args.n}-{args.k}-{args.t}.json")
    # the fields are the JSON keys; the exact value is a decimal string
    obj = dict(result._asdict(), value=str(result.value), witnesses=_witnesses_obj(result))
    _write_out(out, _json_text(obj))
    _say(
        f"{result.objective} optimum at (n,k,t)=({args.n},{args.k},{args.t}) "
        f"by {result.method}: {result.value} with {len(result.witnesses)} witness pair(s)"
    )
    _say_witness_cut(result)
    return 0


# ---------------------------------------------------------------------------
# frankl


def _cmd_frankl(args: argparse.Namespace) -> int:
    from .frankl import FranklParams, ak_regime, frankl_max, frankl_size, valid_r_range

    best = frankl_max(args.n, args.k, args.t)
    lines = ["r,size,max,tie"]
    for r in valid_r_range(args.n, args.k, args.t):
        size = frankl_size(FranklParams(args.n, args.k, args.t, r))
        is_max = int(r in best.best_r)
        tie = int(is_max and len(best.best_r) > 1)
        lines.append(f"{r},{size},{is_max},{tie}")
    out = resolve_out(args.out, f"frankl-{args.n}-{args.k}-{args.t}.csv")
    _write_out(out, "\n".join(lines) + "\n")
    _say(
        f"max window size at (n,k,t)=({args.n},{args.k},{args.t}): "
        f"{best.size} at r in {best.best_r}"
    )
    try:
        regime = ak_regime(args.n, args.k, args.t)
    except CrossIntError:
        _say("regime: out of scope (every pair of k-sets already meets in >= t points)")
    else:
        from fractions import Fraction

        thr = Fraction(regime.threshold_num, regime.threshold_den)
        _say(f"regime: {regime.kind} r={regime.r} tied={regime.tied} threshold={thr}")
    return 0


# ---------------------------------------------------------------------------
# compress / genset file utilities


def _cmd_compress(args: argparse.Namespace) -> int:
    read_family, left_compress, write_family = _traced(
        "read_family", "left_compress", "write_family"
    )
    family = read_family(sys.stdin.buffer if args.infile == "-" else args.infile)
    compressed = left_compress(family)
    if len(compressed) != len(family):
        raise IntegrityError(
            f"compression changed the family size: {len(family)} -> {len(compressed)}"
        )
    # the sweep moves nothing exactly when the family is left-compressed
    already = compressed.members == family.members
    out = resolve_out(args.out, "compressed-family.txt")
    _write_out(out, write_family(compressed))
    _say(
        f"family n={family.n} k={family.k} members={len(family)}: "
        + ("already left-compressed" if already else "compressed")
    )
    return 0


def _cmd_genset(args: argparse.Namespace) -> int:
    from .gensets import upset_size

    read_family, write_family, read_genset, write_genset, minimal_genset, upset_k = _traced(
        "read_family", "write_family", "read_genset", "write_genset", "minimal_genset", "upset_k"
    )
    out = resolve_out(args.out, "genset.txt")
    if args.expand:
        genset = read_genset(sys.stdin.buffer if args.infile == "-" else args.infile)
        family = upset_k(genset)
        _write_out(out, write_family(family))
        _say(
            f"expanded {len(genset)} generator(s) on n={genset.n}, k={genset.k} "
            f"to {len(family)} member(s)"
        )
        return 0
    family = read_family(sys.stdin.buffer if args.infile == "-" else args.infile)
    genset = minimal_genset(family)
    try:
        counted = upset_size(genset)
    except CapacityError:
        # generators past PROFILE_CAP: the cell count, exact when left-compressed
        size_from_genset, is_left_compressed = _traced("size_from_genset", "is_left_compressed")
        counted = size_from_genset(genset)
        if counted != len(family) and not is_left_compressed(family):
            raise UsageError(
                "generators past the profile cap are counted by cells, which needs "
                "a left-compressed family: run compress first"
            )
    if counted != len(family):
        raise IntegrityError(
            f"generated family size {counted} disagrees with family size {len(family)}"
        )
    _write_out(out, write_genset(genset))
    _say(
        f"minimal generating set of n={family.n} k={family.k} "
        f"members={len(family)}: {len(genset)} element(s)"
    )
    return 0


# ---------------------------------------------------------------------------
# verify-case4


def _section4_json_obj(report) -> dict:
    """The report, its checks and their rows as JSON objects of their fields,
    with the exact integers (sizes, lhs, rhs) as decimal strings."""
    return dict(
        report._asdict(),
        checks=[
            dict(
                check._asdict(),
                sizes={label: str(size) for label, size in check.sizes.items()},
                rows=[
                    dict(row._asdict(), lhs=str(row.lhs), rhs=str(row.rhs))
                    for row in check.rows
                ],
            )
            for check in report.checks
        ],
    )


def _cmd_verify_case4(args: argparse.Namespace) -> int:
    # the one command that runs the construction checks, so the one that imports them
    from .constructions import verify_section4_constructions

    report = verify_section4_constructions(args.n, args.k, args.t)
    out = resolve_out(args.out, f"case4-{args.n}-{args.k}-{args.t}.json")
    _write_out(out, _json_text(_section4_json_obj(report)))
    for check in report.checks:
        if check.skipped:
            _say(f"  {check.name}: skipped ({check.skip_reason})")
            continue
        ok = sum(1 for row in check.rows if row.holds)
        info = sum(1 for row in check.rows if not row.holds and not row.guard_met)
        tag = f" ({info} outside printed hypotheses)" if info else ""
        _say(f"  {check.name}: {ok}/{len(check.rows)} rows hold{tag}")
    # verify_section4_constructions raises IntegrityError (exit 2) on a failed
    # row whose hypothesis holds, so every such row held.
    _say(
        f"all printed comparisons hold under their hypotheses at "
        f"(n,k,t)=({args.n},{args.k},{args.t})"
    )
    return 0


# ---------------------------------------------------------------------------
# verify-main-small


def _cmd_verify_main_small(args: argparse.Namespace) -> int:
    (verify_main_theorem_small,) = _traced("verify_main_theorem_small")
    report = verify_main_theorem_small(
        args.n, args.k, args.t, shift_trials=args.shift_trials, seed=args.seed
    )
    out = resolve_out(args.out, f"main-small-{args.n}-{args.k}-{args.t}.json")
    # the fields are the JSON keys; the exact values are decimal strings
    obj = dict(
        report._asdict(),
        value=str(report.value),
        star_value=str(report.star_value),
        witnesses=_witnesses_obj(report),
    )
    _write_out(out, _json_text(obj))
    _say(
        f"optimum {report.value} vs star product {report.star_value} "
        f"(threshold n >= {report.threshold}); structures: {', '.join(report.structures)}"
    )
    _say_witness_cut(report)
    failed = report.bound_confirmed is False or report.shift_ok is False
    if report.bound_confirmed is None:
        _say("n below the threshold: the star product is not claimed to be optimal")
    else:
        _say(f"bound confirmed: {report.bound_confirmed}")
    if report.shift_trials:
        _say(f"shift stress ({report.shift_trials} trials): ok={report.shift_ok}")
    return 2 if failed else 0


# ---------------------------------------------------------------------------
# Parser assembly


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage failures raise instead of exiting 2."""

    def error(self, message: str):  # noqa: D401 - argparse contract
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="crossint", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep-inequalities", help="evaluate the inequality grid")
    p.add_argument("--t-min", type=int, default=3)
    p.add_argument("--t-max", type=int, default=8)
    p.add_argument("--k-span", type=int, default=12)
    p.add_argument("--n-span", type=int, default=40)
    p.add_argument("--out", help="record stream path ('-' = stdout)")
    p.add_argument(
        "--resume",
        action="store_true",
        help="continue an interrupted stream at --out, trimming a partial tail",
    )
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("search", help="exact optimum at one (n, k, t)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--objective", choices=("product", "sum"), default="product")
    p.add_argument("--method", choices=("brute", "genset"), default="genset")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("frankl", help="r-window family sizes as CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_frankl)

    p = sub.add_parser("compress", help="left-compress a family file")
    p.add_argument("--in", dest="infile", required=True, help="family file ('-' = stdin)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_compress)

    p = sub.add_parser("genset", help="minimal generating set of a family file")
    p.add_argument("--in", dest="infile", required=True, help="input file ('-' = stdin)")
    p.add_argument(
        "--expand",
        action="store_true",
        help="treat the input as a generating set and write its k-uniform family",
    )
    p.add_argument("--out")
    p.set_defaults(func=_cmd_genset)

    p = sub.add_parser("verify-case4", help="explicit-construction checks at (n, k)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=int, default=3)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify_case4)

    p = sub.add_parser(
        "verify-main-small", help="confirm the product bound by exhaustive search"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--shift-trials", type=int, default=0)
    p.add_argument("--seed", type=int, default=0, help="shift-trial randomness only")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify_main_small)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help
        code = exc.code
        return int(code) if isinstance(code, int) else 0
    except (UsageError, DomainError, OSError) as exc:
        # an OSError's text names the path it failed on
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        partial = getattr(exc, "partial_best", None)
        if partial is not None:
            print(
                f"partial best before the cap: {partial.value} "
                f"(stats: {dict(partial.stats)})",
                file=sys.stderr,
            )
        return 2
    except IntegrityError as exc:
        print(f"integrity: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    # the sweep's workers module imports this one as crossint.cli: it must
    # find this module there, not compile and run a second copy
    sys.modules.setdefault("crossint.cli", sys.modules[__name__])
    sys.exit(main())
