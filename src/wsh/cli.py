"""Command line front end.

Exit codes: 0 on success, 1 for usage errors, 2 for input that fails
validation or a report or --help text that cannot be written (a closed or
missing stdout too), 3 when --check finds a disagreement between the fast
path and the verification path, or when the fast path's own consistency
checks fail.
Each failure is one message on stderr; with stderr missing or closed
nothing is printed, and the exit code is the same.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys

from .errors import ComplexError, ParseError, PrecisionExhausted
from .fields import FieldSpec
from .fileio import parse_complex_file, render_json_report, render_text_report, split_lines
from .homology import homology, homology_all
from .oracle import homology_via_snf

USAGE_ERROR = 1
INPUT_ERROR = 2
CHECK_MISMATCH = 3


class _Exit(Exception):
    """A run that ends early: raised as _Exit(code, message) wherever it
    fails, and turned by main() alone into the message on stderr and the
    code returned."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; this tool reserves 2 for input
    # validation, so usage problems exit 1 instead
    def error(self, message):
        raise _Exit(USAGE_ERROR, f"{self.format_usage()}{self.prog}: error: {message}")

    def exit(self, status=0, message=None):  # after --help, with no message
        raise _Exit(status, message)

    # -h calls this with no file. argparse's own falls back to stderr
    # without a stdout and ignores a failed write; the help leaves as the
    # report does
    def print_help(self, file=None):
        _write_stdout(self.format_help())


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="wsh",
        description="Weighted simplicial homology over a discrete valuation ring.",
    )
    p.add_argument("file", help="input file of weighted simplex records")
    p.add_argument(
        "--field",
        default="rational",
        help="coefficient field: 'rational' or 'gf:<p>' for a prime p",
    )
    p.add_argument(
        "--dim",
        type=int,
        default=None,
        metavar="N",
        help="report only this homology dimension",
    )
    p.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write a JSON report to PATH ('-' for stdout) instead of text",
    )
    p.add_argument(
        "--generators",
        action="store_true",
        help="include homology generators in the report",
    )
    p.add_argument(
        "--check",
        action="store_true",
        help="recompute the free rank and torsion of each module with the "
        "independent verifier (pairs and generators are not rechecked)",
    )
    p.add_argument(
        "--complete-faces",
        action="store_true",
        help="add faces missing from the input instead of rejecting it",
    )
    return p


def _open_in_place(path, flags):
    # open(path, "w") without O_TRUNC. On ext4 (auto_da_alloc, its default),
    # truncating a file to zero and writing it again frees its blocks,
    # allocates them anew and starts writeback at close, which took longer
    # than rendering the report; main() cuts the old tail after writing
    # instead. Only an existing regular file gains; a new path costs the
    # same either way. The price: a crash mid-write can leave old and new
    # bytes mixed, where the truncating write left the file empty or whole
    # (README, Design notes). 0o666 is the mode open() creates a file with.
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def _drop_stdout():
    # a failed write may leave bytes in sys.stdout's buffer, which the
    # interpreter flushes again as it exits, printing "Exception ignored" when
    # that fails too (the signal module's note on SIGPIPE): point fd 1 at
    # os.devnull so that flush succeeds. No stream (None), or one without a
    # file descriptor (a StringIO in place of sys.stdout, whose fileno()
    # raises io.UnsupportedOperation, a ValueError), is left alone
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _write_stdout(text):
    try:
        if sys.stdout is None:  # fd 1 was closed when the interpreter started
            import errno  # here only: `import wsh.cli` does not load it

            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as e:  # the reader of a pipe has gone, or the disk is full
        _drop_stdout()
        raise _Exit(INPUT_ERROR, f"wsh: error: cannot write stdout: {e.strerror}")


# built by the first main() call and reused: parsing leaves a parser unchanged
_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = _build_parser()
    try:
        return _run(_parser.parse_args(argv))
    except _Exit as e:
        code, message = e.args
        # with no stderr, or one that cannot be written, the code alone
        # reports the failure
        if message and sys.stderr is not None:
            try:
                print(message, file=sys.stderr)
            except OSError:
                pass
        return code


def _run(args) -> int:
    try:
        field = FieldSpec.from_name(args.field)
    except ValueError as e:
        raise _Exit(USAGE_ERROR, f"wsh: error: {e}")
    if args.dim is not None and args.dim < 0:
        raise _Exit(USAGE_ERROR, "wsh: error: --dim must be non-negative")

    try:
        with open(args.file, "rb") as fh:
            data = fh.read()
    except OSError as e:
        raise _Exit(INPUT_ERROR, f"wsh: error: cannot read {args.file}: {e.strerror}")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        # numbered as parse_complex_file numbers lines; "?" stands for the bad byte
        line = len(split_lines(data[: e.start].decode("utf-8") + "?"))
        raise _Exit(INPUT_ERROR, f"wsh: error: {args.file}: line {line}: not UTF-8 text")

    try:
        X = parse_complex_file(text, complete=args.complete_faces)
    except (ParseError, ComplexError) as e:
        raise _Exit(INPUT_ERROR, f"wsh: error: {args.file}: {e}")

    try:
        if args.dim is not None:
            modules = [homology(X, args.dim, field, with_generators=args.generators)]
        else:
            modules = homology_all(X, field, with_generators=args.generators)
    except ComplexError as e:
        where = f"H_{args.dim}: " if args.dim is not None else ""
        raise _Exit(CHECK_MISMATCH, f"wsh: error: {where}{e}")

    if args.check:
        mismatches = []
        known = {}  # the Smith forms of this X and field, shared across dimensions
        for mod in modules:
            try:
                free, torsion = homology_via_snf(X, mod.n, field, known)
            except PrecisionExhausted as e:
                raise _Exit(CHECK_MISMATCH, f"wsh: check failed at H_{mod.n}: {e}")
            if (free, torsion) != (mod.free_rank, list(mod.torsion)):
                mismatches.append(
                    f"wsh: check mismatch at H_{mod.n}: "
                    f"fast path {mod.free_rank} free {list(mod.torsion)} torsion, "
                    f"verifier {free} free {torsion} torsion"
                )
        if mismatches:
            raise _Exit(CHECK_MISMATCH, "\n".join(mismatches))

    if args.json is None or args.json == "-":
        render = render_text_report if args.json is None else render_json_report
        _write_stdout(render(modules, field))
        return 0
    payload = render_json_report(modules, field)
    regular = False
    try:
        with open(args.json, "w", encoding="utf-8", opener=_open_in_place) as fh:
            regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
            fh.write(payload)
            if regular:
                fh.truncate()  # cut what is left of a longer old report
    except OSError as e:
        if regular:
            # leave no byte of the old report behind a failed write; cut
            # by path once closed, as the close may still have flushed
            # part of the new one
            try:
                os.truncate(args.json, 0)
            except OSError:
                pass  # best effort: the message below is what counts
        raise _Exit(INPUT_ERROR, f"wsh: error: cannot write {args.json}: {e.strerror}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
