"""Command-line front end.

Subcommands: build (graph export), seq (sequence table), zeck (digit
expansion of one value), verify (claim suite), paths (distances and path
counts), milestone (maximum-degree milestone search), conjecture
(non-repetitiveness scan).  Exit status: 0 success, 1 claim/conjecture
violation, 2 usage or validation error, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import tempfile

from . import analysis, export, paths, sequences
from .graph import build

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_IO = 3

_WRITE_CHUNK = 1 << 16


def _positive(name: str):
    def parse(text: str) -> int:
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(f"{name} must be >= 1, got {value}")
        return value

    return parse


def _non_negative(name: str):
    def parse(text: str) -> int:
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"{name} must be >= 0, got {value}")
        return value

    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="jaco", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct a graph and export it")
    p.add_argument("--a", type=_positive("a"), required=True)
    p.add_argument("--n", type=_positive("n"), required=True)
    p.add_argument("--format", choices=export.FORMATS, default="dot")
    p.add_argument("--out", default=None)

    p = sub.add_parser("seq", help="dump the sequence table as TSV")
    p.add_argument("--a", type=_positive("a"), required=True)
    p.add_argument("--horizon", type=_non_negative("horizon"), required=True)
    p.add_argument("--check-closed-form", action="store_true")
    p.add_argument("--out", default=None)

    p = sub.add_parser("zeck", help="constrained digit expansion of a value")
    p.add_argument("--a", type=_positive("a"), required=True)
    p.add_argument("--value", type=_non_negative("value"), required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("verify", help="run the claim verification suite")
    p.add_argument("--a-min", type=_positive("a-min"), default=1)
    p.add_argument("--a-max", type=_positive("a-max"), default=3)
    p.add_argument("--n", type=_positive("n"), default=200)
    p.add_argument("--jobs", type=_positive("jobs"), default=1,
                   help="accepted for compatibility and not used; the claims run serially")
    p.add_argument("--out", default=None)

    p = sub.add_parser("paths", help="distances (and path counts) from v_1")
    p.add_argument("--a", type=_positive("a"), required=True)
    p.add_argument("--n", type=_positive("n"), required=True)
    p.add_argument("--psi", action="store_true",
                   help="add the order-1 recursion path counts")
    p.add_argument("--oracle-psi", action="store_true",
                   help="add linear-time path counts (any order)")
    p.add_argument("--out", default=None)

    p = sub.add_parser("milestone", help="smallest n with maximum degree a(a+1)")
    p.add_argument("--a", type=_positive("a"), required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("conjecture", help="scan the non-repetitiveness conjecture")
    p.add_argument("--n", type=_positive("n"), required=True)
    p.add_argument("--jobs", type=_positive("jobs"), default=1,
                   help="accepted for compatibility and not used; the scan runs serially")
    p.add_argument("--out", default=None)

    return parser


def _emit(text: str, out: str | None) -> int:
    if out is None:
        _write_text(sys.stdout, text)
        return EXIT_OK
    try:
        _write_atomic(text, out)
    except OSError as exc:
        print(f"jaco: cannot write {out}: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _write_atomic(text: str, out: str) -> None:
    """Write text to out so that readers see the old file or the whole new one.

    The text goes to a temp file beside the target, which then replaces it;
    on failure the temp file is removed and the target is untouched.  A
    symlink is followed, and a target that exists but is not a regular file
    (a device, a pipe) is written in place.
    """
    target = os.path.realpath(out) if os.path.islink(out) else out
    if os.path.exists(target) and not os.path.isfile(target):
        with open(target, "w", encoding="utf-8", newline="") as handle:
            _write_text(handle, text)
        return
    # mkstemp creates the file 0600; give it the mode open() would
    umask = os.umask(0)
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(prefix=".jaco-", suffix=".tmp", dir=os.path.dirname(target))
    try:
        with open(fd, "w", encoding="utf-8", newline="") as handle:
            os.chmod(fd, 0o666 & ~umask)
            _write_text(handle, text)
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _write_text(handle, text: str) -> None:
    # a text file copies what it is given into one bytes object; slices keep
    # that copy at _WRITE_CHUNK characters instead of the whole output
    for start in range(0, len(text), _WRITE_CHUNK):
        handle.write(text[start : start + _WRITE_CHUNK])


def _cmd_build(args) -> int:
    g = build(args.a, args.n)
    return _emit(export.render(g, args.format), args.out)


def _cmd_seq(args) -> int:
    table = sequences.c_series(args.a, args.horizon)
    text = export.seq_dump(table)
    if args.check_closed_form:
        mismatch = any(
            sequences.c_closed(args.a, n) != table.c[n]
            for n in range(1, args.horizon + 1)
        )
        text += f"CLOSED-FORM {'MISMATCH' if mismatch else 'OK'}\n"
        status = _emit(text, args.out)
        return status if status else (EXIT_VIOLATION if mismatch else EXIT_OK)
    return _emit(text, args.out)


def _cmd_zeck(args) -> int:
    rep = sequences.zeck_encode(args.a, args.value)
    lines = [f"alpha[{i + 1}]={alpha}" for i, alpha in enumerate(rep.digits)]
    if rep.digits:
        lines.append(f"tau={sequences.tau(rep)}")
    ok = sequences.zeck_decode(args.a, rep) == args.value
    lines.append(f"value_check={'OK' if ok else 'FAIL'}")
    status = _emit("\n".join(lines) + "\n", args.out)
    return status if status else (EXIT_OK if ok else EXIT_VIOLATION)


def _cmd_verify(args) -> int:
    report = analysis.verify_suite(args.a_min, args.a_max, args.n)
    status = _emit(analysis.render_report(report), args.out)
    return status if status else (EXIT_OK if report.passed else EXIT_VIOLATION)


def _cmd_paths(args) -> int:
    g = build(args.a, args.n)
    dist = paths.distances(g)
    psi = None
    if args.oracle_psi:
        psi = paths.path_table(g).psi
    elif args.psi:
        if args.a != 1:
            print(
                "jaco: --psi uses the order-1 recursion; "
                "use --oracle-psi for other orders",
                file=sys.stderr,
            )
            return EXIT_USAGE
        psi = paths.psi_recursive(g)
    lines = []
    for i in range(1, args.n + 1):
        if psi is None:
            lines.append(f"{i} {dist[i]}")
        else:
            lines.append(f"{i} {dist[i]} {psi[i]}")
    return _emit("\n".join(lines) + "\n", args.out)


def _cmd_milestone(args) -> int:
    result = analysis.milestone_delta(args.a)
    return _emit(f"n_star={result.n_star}\n", args.out)


def _cmd_conjecture(args) -> int:
    report = paths.conjecture_scan(args.n)
    status = _emit(paths.render_conjecture(report), args.out)
    return status if status else (EXIT_OK if report.violations == 0 else EXIT_VIOLATION)


_HANDLERS = {
    "build": _cmd_build,
    "seq": _cmd_seq,
    "zeck": _cmd_zeck,
    "verify": _cmd_verify,
    "paths": _cmd_paths,
    "milestone": _cmd_milestone,
    "conjecture": _cmd_conjecture,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except analysis.TheoremViolationError as exc:
        print(f"jaco: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except (ValueError, IndexError) as exc:
        print(f"jaco: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
