"""Command-line front end.

Subcommands: build (graph export), seq (sequence table), zeck (digit
expansion of one value), verify (claim suite), paths (distances from v_1;
--psi adds the linear-time shortest-path counts at any order), milestone
(maximum-degree milestone search), conjecture (non-repetitiveness scan).
Each subcommand computes its text and whether its checks passed; main
alone writes the text, to stdout or to --out, and sets the exit status:
0 success, 1 claim/conjecture violation, 2 usage or validation error,
3 I/O failure on stdout or --out (3 outranks 1).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import stat
import sys
import tempfile

from . import analysis, export, paths, sequences
from .graph import build

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_IO = 3

_WRITE_CHUNK = 1 << 16


def _at_least(low: int, name: str):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{name} must be >= {low}, got {value}")
        return value

    return parse


class _Parser(argparse.ArgumentParser):
    # argparse writes help itself and drops an OSError, so --help that
    # cannot be written would exit 0 unseen, or 120 at the last flush
    def print_help(self, file=None):
        if file is not None:
            super().print_help(file)
        elif _emit(self.format_help(), None):
            self.exit(EXIT_IO)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args keeps no state between calls
    parser = _Parser(prog="jaco", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct a graph and export it")
    p.add_argument("--a", type=_at_least(1, "a"), required=True)
    p.add_argument("--n", type=_at_least(1, "n"), required=True)
    p.add_argument("--format", choices=export.FORMATS, default="dot")

    p = sub.add_parser("seq", help="dump the sequence table as TSV")
    p.add_argument("--a", type=_at_least(1, "a"), required=True)
    p.add_argument("--horizon", type=_at_least(0, "horizon"), required=True)
    p.add_argument("--check-closed-form", action="store_true")

    p = sub.add_parser("zeck", help="constrained digit expansion of a value")
    p.add_argument("--a", type=_at_least(1, "a"), required=True)
    p.add_argument("--value", type=_at_least(0, "value"), required=True)

    p = sub.add_parser("verify", help="run the claim verification suite")
    p.add_argument("--a-min", type=_at_least(1, "a-min"), default=1)
    p.add_argument("--a-max", type=_at_least(1, "a-max"), default=3)
    p.add_argument("--n", type=_at_least(1, "n"), default=200)

    p = sub.add_parser("paths", help="distances (and path counts) from v_1")
    p.add_argument("--a", type=_at_least(1, "a"), required=True)
    p.add_argument("--n", type=_at_least(1, "n"), required=True)
    p.add_argument("--psi", action="store_true",
                   help="add the shortest-path counts (linear time, any order)")

    p = sub.add_parser("milestone", help="smallest n with maximum degree a(a+1)")
    p.add_argument("--a", type=_at_least(1, "a"), required=True)

    p = sub.add_parser("conjecture", help="scan the non-repetitiveness conjecture")
    p.add_argument("--n", type=_at_least(1, "n"), required=True)

    # added last so that every usage line keeps its order
    for name in ("verify", "conjecture"):
        sub.choices[name].add_argument(
            "--jobs", type=_at_least(1, "jobs"), default=1,
            help="accepted for compatibility and not used; the work runs serially")
    for p in sub.choices.values():
        p.add_argument("--out", default=None)
    return parser


def _emit(text: str, out: str | None) -> int:
    try:
        if out is None:
            _write_text(sys.stdout, text)
            sys.stdout.flush()
        else:
            _write_atomic(text, out)
    except OSError as exc:
        if out is None:
            out = "standard output"
            _drop_stdout()
        print(f"jaco: cannot write {out}: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _drop_stdout() -> None:
    # the interpreter flushes stdout once more at exit, which would fail
    # again on the unwritten rest; point its descriptor at os.devnull.  An
    # in-process stream with no descriptor has no such last flush to fear
    with contextlib.suppress(AttributeError, OSError, ValueError):
        fd = sys.stdout.fileno()
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, fd)
        os.close(null)


def _write_atomic(text: str, out: str) -> None:
    """Write text to out so that readers see the old file or the whole new one.

    The text goes to a temp file beside the target, which then replaces it;
    on failure the temp file is removed and the target is untouched.  A
    symlink is followed, and a target that exists but is not a regular file
    (a device, a pipe) is written in place.
    """
    target = os.path.realpath(out) if os.path.islink(out) else out
    try:
        mode = os.stat(target).st_mode
    except OSError:
        # a new regular file: mkstemp creates it 0600, so give it the mode
        # open() would
        umask = os.umask(0)
        os.umask(umask)
        mode = stat.S_IFREG | 0o666 & ~umask
    if not stat.S_ISREG(mode):
        with open(target, "w", encoding="utf-8", newline="") as handle:
            _write_text(handle, text)
        return
    fd, tmp = tempfile.mkstemp(prefix=".jaco-", suffix=".tmp", dir=os.path.dirname(target))
    try:
        with open(fd, "w", encoding="utf-8", newline="") as handle:
            # an existing target keeps its permission bits
            os.chmod(fd, mode & 0o777)
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


def _cmd_build(args) -> tuple[str, bool]:
    return export.render(build(args.a, args.n), args.format), True


def _cmd_seq(args) -> tuple[str, bool]:
    table = sequences.c_series(args.a, args.horizon)
    text = export.seq_dump(table)
    if not args.check_closed_form:
        return text, True
    ok = all(
        sequences.c_closed(args.a, n) == table.c[n] for n in range(1, args.horizon + 1)
    )
    return text + f"CLOSED-FORM {'OK' if ok else 'MISMATCH'}\n", ok


def _cmd_zeck(args) -> tuple[str, bool]:
    digits = sequences.zeck_encode(args.a, args.value)
    lines = [f"alpha[{i + 1}]={alpha}" for i, alpha in enumerate(digits)]
    if digits:
        lines.append(f"tau={sequences.tau(digits)}")
    ok = sequences.zeck_decode(args.a, digits) == args.value
    lines.append(f"value_check={'OK' if ok else 'FAIL'}")
    return "\n".join(lines) + "\n", ok


def _cmd_verify(args) -> tuple[str, bool]:
    report = analysis.verify_suite(args.a_min, args.a_max, args.n)
    return analysis.render_report(report), report.passed


def _cmd_paths(args) -> tuple[str, bool]:
    g = build(args.a, args.n)
    if args.psi:
        table = paths.path_table(g)
        dist, psi = table.dist, table.psi
        lines = [f"{i} {dist[i]} {psi[i]}" for i in range(1, args.n + 1)]
    else:
        dist = paths.distances(g)
        lines = [f"{i} {dist[i]}" for i in range(1, args.n + 1)]
    lines.append("")
    return "\n".join(lines), True


def _cmd_milestone(args) -> tuple[str, bool]:
    return f"n_star={analysis.milestone_delta(args.a)}\n", True


def _cmd_conjecture(args) -> tuple[str, bool]:
    report = paths.conjecture_scan(args.n)
    return paths.render_conjecture(report), report.violations == 0


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
    args = _build_parser().parse_args(argv)
    try:
        text, ok = _HANDLERS[args.command](args)
        return _emit(text, args.out) or (EXIT_OK if ok else EXIT_VIOLATION)
    except analysis.TheoremViolationError as exc:
        print(f"jaco: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except (ValueError, IndexError) as exc:
        print(f"jaco: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (MemoryError, OverflowError) as exc:
        # past 2**60 items CPython refuses a list before allocating any of it
        print(f"jaco: input too large ({type(exc).__name__})", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
