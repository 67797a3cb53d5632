"""Command line front end.

Exit codes: 0 on success, 1 for usage errors, 2 for input that fails
validation or a report that cannot be written, 3 when --check finds a
disagreement between the fast path and the verification path, or when the
fast path's own consistency checks fail.
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


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; this tool reserves 2 for input
    # validation, so usage problems exit 1 instead
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


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
    # os.devnull so that flush succeeds. A stream without a file descriptor
    # (a StringIO in place of sys.stdout, whose fileno() raises
    # io.UnsupportedOperation, a ValueError) is left alone
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


# built by the first main() call and reused: parsing leaves a parser unchanged
_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = _build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as e:
        return e.code

    try:
        field = FieldSpec.from_name(args.field)
    except ValueError as e:
        print(f"wsh: error: {e}", file=sys.stderr)
        return USAGE_ERROR
    if args.dim is not None and args.dim < 0:
        print("wsh: error: --dim must be non-negative", file=sys.stderr)
        return USAGE_ERROR

    try:
        with open(args.file, "rb") as fh:
            data = fh.read()
    except OSError as e:
        print(f"wsh: error: cannot read {args.file}: {e.strerror}", file=sys.stderr)
        return INPUT_ERROR
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        # numbered as parse_complex_file numbers lines; "?" stands for the bad byte
        line = len(split_lines(data[: e.start].decode("utf-8") + "?"))
        print(f"wsh: error: {args.file}: line {line}: not UTF-8 text", file=sys.stderr)
        return INPUT_ERROR

    try:
        X = parse_complex_file(text, complete=args.complete_faces)
    except (ParseError, ComplexError) as e:
        print(f"wsh: error: {args.file}: {e}", file=sys.stderr)
        return INPUT_ERROR

    try:
        if args.dim is not None:
            modules = [homology(X, args.dim, field, with_generators=args.generators)]
        else:
            modules = homology_all(X, field, with_generators=args.generators)
    except ComplexError as e:
        where = f"H_{args.dim}: " if args.dim is not None else ""
        print(f"wsh: error: {where}{e}", file=sys.stderr)
        return CHECK_MISMATCH

    if args.check:
        mismatches = []
        known = {}  # the Smith forms of this X and field, shared across dimensions
        for mod in modules:
            try:
                free, torsion = homology_via_snf(X, mod.n, field, known)
            except PrecisionExhausted as e:
                print(f"wsh: check failed at H_{mod.n}: {e}", file=sys.stderr)
                return CHECK_MISMATCH
            if (free, torsion) != (mod.free_rank, list(mod.torsion)):
                mismatches.append((mod.n, (mod.free_rank, list(mod.torsion)), (free, torsion)))
        if mismatches:
            for n, fast, slow in mismatches:
                print(
                    f"wsh: check mismatch at H_{n}: "
                    f"fast path {fast[0]} free {fast[1]} torsion, "
                    f"verifier {slow[0]} free {slow[1]} torsion",
                    file=sys.stderr,
                )
            return CHECK_MISMATCH

    if args.json is None or args.json == "-":
        render = render_text_report if args.json is None else render_json_report
        report = render(modules, field)
        try:
            sys.stdout.write(report)
            sys.stdout.flush()
        except OSError as e:  # the reader of a pipe has gone, or the disk is full
            _drop_stdout()
            print(f"wsh: error: cannot write stdout: {e.strerror}", file=sys.stderr)
            return INPUT_ERROR
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
        print(f"wsh: error: cannot write {args.json}: {e.strerror}", file=sys.stderr)
        return INPUT_ERROR
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
