import contextlib
import errno
import io
import json
import os
import random
import re
import shlex
import stat
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wsh.cli
import wsh.complexes
import wsh.homology
import wsh.oracle
from wsh.errors import ComplexError, PrecisionExhausted
from wsh.cli import main
from wsh.homology import homology, homology_all
from .conftest import (
    GF2,
    NOT_LINE_BREAKS,
    RATIONALS,
    glued_triangles_complex,
    random_weighted_complex,
    simplex_boundary_maximal,
    tetra_boundary_complex,
    torus_grid_complex,
)
from wsh.fileio import serialize_complex

TETRA = serialize_complex(tetra_boundary_complex())
GLUED = serialize_complex(glued_triangles_complex())


@pytest.fixture
def tetra_file(tmp_path):
    p = tmp_path / "tetra.cplx"
    p.write_text(TETRA)
    return str(p)


@pytest.fixture
def glued_file(tmp_path):
    p = tmp_path / "glued.cplx"
    p.write_text(GLUED)
    return str(p)


def test_default_text_report(tetra_file, capsys):
    assert main([tetra_file]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "field: rational"
    assert "H_1 = R/(pi^1) (+) R/(pi^1) (+) R/(pi^1)" in out


def test_field_flag(tetra_file, capsys):
    assert main(["--field", "gf:2", tetra_file]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "field: gf:2"
    assert "H_1 = R/(pi^1) (+) R/(pi^1) (+) R/(pi^1)" in out


def test_dim_flag(tetra_file, capsys):
    assert main(["--dim", "2", tetra_file]) == 0
    out = capsys.readouterr().out
    assert out.strip().splitlines()[1:] == ["H_2 = R"]


def test_calls_in_one_process_share_no_flags(tetra_file, capsys):
    # the parser is built once per process; every call parses only its own argv
    assert main(["--dim", "2", "--field", "gf:2", tetra_file]) == 0
    assert capsys.readouterr().out.splitlines() == ["field: gf:2", "H_2 = R"]
    parser = wsh.cli._parser
    assert main([tetra_file]) == 0
    text = capsys.readouterr().out
    assert [line.split(" =")[0] for line in text.splitlines()] == [
        "field: rational",
        "H_0",
        "H_1",
        "H_2",
    ]
    assert main(["--json", "-", "--generators", tetra_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [d["n"] for d in payload["dimensions"]] == [0, 1, 2]
    assert main([tetra_file]) == 0
    assert capsys.readouterr().out == text
    assert wsh.cli._parser is parser


def test_json_to_file(glued_file, tmp_path, capsys):
    out_path = tmp_path / "report.json"
    assert main(["--json", str(out_path), "--check", glued_file]) == 0
    assert capsys.readouterr().out == ""
    payload = json.loads(out_path.read_text())
    torsion_by_n = {d["n"]: d["torsion"] for d in payload["dimensions"]}
    assert torsion_by_n[0] and torsion_by_n[1]


def test_json_to_stdout(glued_file, capsys):
    assert main(["--json", "-", glued_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["field"] == "rational"


def test_generators_flag(tetra_file, capsys):
    assert main(["--generators", "--dim", "2", tetra_file]) == 0
    out = capsys.readouterr().out
    assert "generator:" in out


def test_check_flag_passes(tetra_file, capsys):
    assert main(["--check", tetra_file]) == 0


@pytest.mark.parametrize(
    "text",
    [
        TETRA,
        serialize_complex(torus_grid_complex(4, random.Random(4))),
        simplex_boundary_maximal(5),
    ],
    ids=["tetra", "torus4", "sphere4"],
)
def test_check_builds_and_eliminates_each_boundary_once(text, tmp_path, monkeypatch, capsys):
    built, eliminated = [], []
    build, eliminate = wsh.oracle.weighted_boundary_matrix, wsh.oracle.snf_valuations

    def counted_build(X, k, *args):
        matrix = build(X, k, *args)
        built.append((k, matrix))
        return matrix

    def counted_eliminate(matrix):
        eliminated.append(next(k for k, m in built if m is matrix))
        return eliminate(matrix)

    monkeypatch.setattr(wsh.oracle, "weighted_boundary_matrix", counted_build)
    monkeypatch.setattr(wsh.oracle, "snf_valuations", counted_eliminate)
    p = tmp_path / "complex.cplx"
    p.write_text(text)
    assert main([str(p)]) == 0
    report = capsys.readouterr().out
    assert built == [] and eliminated == []
    assert main(["--check", str(p)]) == 0
    assert capsys.readouterr().out == report
    dim = len(report.splitlines()) - 2  # a field line, then H_0 to H_dim
    assert [k for k, _m in built] == list(range(1, dim + 1))
    assert eliminated == list(range(1, dim + 1))


@pytest.mark.parametrize("field", [RATIONALS, GF2], ids=lambda f: f.name)
def test_fast_path_builds_no_boundary_matrix(field, tmp_path, monkeypatch, capsys):
    # the fast path and the oracle both read each column off the faces:
    # neither builds a BoundaryMatrix, with or without --check
    built = {"homology": 0, "oracle": 0}
    for name in built:
        module = getattr(wsh, name)

        def spy(X, n, name=name, build=module.boundary_exponent_matrix):
            built[name] += 1
            return build(X, n)

        monkeypatch.setattr(module, "boundary_exponent_matrix", spy)
    X = torus_grid_complex(6, random.Random(6))
    for gens in (False, True):
        homology_all(X, field, with_generators=gens)
        for n in range(X.dim + 1):
            homology(X, n, field, with_generators=gens)
    assert built == {"homology": 0, "oracle": 0}
    p = tmp_path / "torus6.cplx"
    p.write_text(serialize_complex(X))
    assert main(["--field", field.name, "--check", "--generators", str(p)]) == 0
    assert built == {"homology": 0, "oracle": 0}


def test_check_failure_names_the_first_module_that_needs_the_map(tetra_file, monkeypatch, capsys):
    # the calls for H_1 and H_2 both need d_2; H_1 asks first
    build = wsh.oracle.weighted_boundary_matrix

    def exhausted_at_2(X, k, *args):
        if k == 2:
            raise PrecisionExhausted("pivot valuations are not ascending")
        return build(X, k, *args)

    monkeypatch.setattr(wsh.oracle, "weighted_boundary_matrix", exhausted_at_2)
    assert main(["--check", tetra_file]) == 3
    why = "pivot valuations are not ascending"
    assert capsys.readouterr().err == f"wsh: check failed at H_1: {why}\n"
    assert main(["--check", "--dim", "2", tetra_file]) == 3
    assert capsys.readouterr().err == f"wsh: check failed at H_2: {why}\n"


def test_complete_faces_flag(tmp_path, capsys):
    p = tmp_path / "partial.cplx"
    p.write_text("a b ; 5\na b c ; 1\n")
    assert main([str(p)]) == 2
    assert main(["--complete-faces", str(p)]) == 0


def test_usage_errors_exit_1(tetra_file, tmp_path, capsys):
    assert main([]) == 1
    assert main(["--field", "gf:4", tetra_file]) == 1
    assert main(["--field", "nonsense", tetra_file]) == 1
    assert main(["--field", "gf:3317044064679887385961981", tetra_file]) == 1
    assert main(["--dim", "-1", tetra_file]) == 1
    # a negative dimension is a usage error before the file is opened
    capsys.readouterr()
    assert main(["--dim", "-1", str(tmp_path / "missing.cplx")]) == 1
    assert capsys.readouterr().err == "wsh: error: --dim must be non-negative\n"
    assert main(["--no-such-flag", tetra_file]) == 1


def test_input_errors_exit_2(tmp_path, capsys):
    missing = tmp_path / "missing.cplx"
    assert main([str(missing)]) == 2
    bad = tmp_path / "bad.cplx"
    bad.write_text("a b ; 2\na ; 1\nb ; 2\n")
    assert main([str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err
    empty = tmp_path / "empty.cplx"
    empty.write_text("# only a comment\n")
    assert main([str(empty)]) == 2
    underscored = tmp_path / "underscored.cplx"
    underscored.write_text("a ; 1_0\n")
    assert main([str(underscored)]) == 2
    assert "line 1" in capsys.readouterr().err


def test_label_that_would_not_read_back_exits_2(tmp_path, capsys):
    p = tmp_path / "hash.cplx"
    p.write_text("a #b ; 1\n")
    assert main(["--complete-faces", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"wsh: error: {p}: line 1: label '#b' would not read back as one vertex\n"
    )


def test_non_utf8_input_exits_2(tmp_path, capsys):
    p = tmp_path / "latin1.cplx"
    p.write_bytes(b"a ; 1\r\nb ; 1\n# caf\xe9\na b ; 0\n")
    assert main([str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"wsh: error: {p}: line 3: not UTF-8 text\n"
    p.write_bytes(b"\xff")
    assert main(["--check", str(p)]) == 2
    assert capsys.readouterr().err == f"wsh: error: {p}: line 1: not UTF-8 text\n"


def test_utf8_byte_order_mark_is_dropped(tmp_path, capsys):
    # a kept mark would make 'a' on line 1 a vertex apart from 'a' on line 2: H_0 = R (+) R
    p = tmp_path / "bom.cplx"
    p.write_bytes(b"\xef\xbb\xbfa b ; 0\nc a ; 0\n")
    assert main(["--complete-faces", "--check", str(p)]) == 0
    assert capsys.readouterr().out == "field: rational\nH_0 = R\nH_1 = 0\n"


@pytest.mark.parametrize("ch", NOT_LINE_BREAKS, ids=lambda ch: f"U+{ord(ch):04X}")
def test_line_numbers_count_only_cr_and_lf(ch, tmp_path, capsys):
    p = tmp_path / "joined.cplx"
    p.write_bytes(f"a ; 1{ch}b ; 1\n".encode())
    assert main([str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"wsh: error: {p}: line 1: expected 'v1 v2 ... ; weight'\n"
    # the bad byte is on the third line to `wc -l`
    data = f"a ; 1\n# x{ch}y\n".encode() + b"\xff ; 1\n"
    p.write_bytes(data)
    lines = data.count(b"\n")
    assert main([str(p)]) == 2
    assert capsys.readouterr().err == f"wsh: error: {p}: line {lines}: not UTF-8 text\n"


@pytest.mark.parametrize("eol", ["\r\n", "\r"])
def test_cr_and_crlf_files_report_as_lf(eol, tmp_path, capsys):
    p = tmp_path / "tetra.cplx"
    p.write_text(TETRA, newline="")
    assert main(["--generators", str(p)]) == 0
    expected = capsys.readouterr().out
    p.write_text(TETRA.replace("\n", eol), newline="")
    assert main(["--generators", str(p)]) == 0
    assert capsys.readouterr().out == expected
    p.write_text(f"a ; 1{eol}{eol}b ; x{eol}", newline="")
    assert main([str(p)]) == 2
    assert capsys.readouterr().err.startswith(f"wsh: error: {p}: line 3: bad weight")
    p.write_bytes(f"a ; 1{eol}# caf".encode() + b"\xe9" + eol.encode())
    assert main([str(p)]) == 2
    assert capsys.readouterr().err == f"wsh: error: {p}: line 2: not UTF-8 text\n"


def test_unwritable_json_path_exits_2(glued_file, tmp_path, capsys):
    # a directory cannot be opened for writing
    assert main(["--json", str(tmp_path), glued_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"wsh: error: cannot write {tmp_path}: ")


class _BrokenStdout(io.StringIO):
    """A stdout whose reader has gone: every write fails with EPIPE. Its
    fileno(), a StringIO's, raises, so main() leaves fd 1 alone."""

    def write(self, s):
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))


class _FullStdout(io.StringIO):
    """A stdout on a full disk: writes are buffered, the flush fails."""

    def flush(self):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize(
    "stdout, reason",
    [(_BrokenStdout, "Broken pipe"), (_FullStdout, "No space left on device")],
    ids=["write-epipe", "flush-enospc"],
)
@pytest.mark.parametrize("flags", [[], ["--json", "-"]], ids=["text", "json"])
def test_unwritable_stdout_exits_2(flags, stdout, reason, glued_file, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", stdout())
    assert main([*flags, glued_file]) == 2
    assert capsys.readouterr().err == f"wsh: error: cannot write stdout: {reason}\n"


@pytest.mark.parametrize(
    "flags, text",
    [([], GLUED), (["--json", "-"], GLUED),
     (["--generators"], serialize_complex(torus_grid_complex(12, random.Random(12))))],
    ids=["text", "json", "generators"],
)
def test_closed_stdout_pipe_exits_2_without_a_traceback(flags, text, tmp_path):
    # `wsh FILE | head` once head has quit: a report larger than the pipe's
    # buffer too, and the interpreter's last flush must not complain either
    path = tmp_path / "in.cplx"
    path.write_text(text)
    env = dict(os.environ, PYTHONPATH=str(Path(wsh.cli.__file__).parent.parent))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "wsh.cli", *flags, str(path)],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 2
    assert done.stderr == "wsh: error: cannot write stdout: Broken pipe\n"


class _ClosedStream(io.StringIO):
    """A stream on a closed or read-only descriptor: every write fails with EBADF."""

    def write(self, s):
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))


@pytest.mark.parametrize("stderr", [lambda: None, _ClosedStream], ids=["none", "ebadf"])
@pytest.mark.parametrize(
    "case, code",
    [("bogus-flag", 1), ("bad-field", 1), ("missing-face", 2), ("json-dir", 2),
     ("check-mismatch", 3)],
)
def test_failures_keep_their_code_without_a_writable_stderr(
    case, code, stderr, tetra_file, tmp_path, monkeypatch, capsys
):
    # with no stderr to write to, the exit code alone reports the failure:
    # the message goes nowhere, and never to stdout
    bad = tmp_path / "bad.cplx"
    bad.write_text("a b ; 1\n")
    argv = {
        "bogus-flag": ["--bogus", tetra_file],
        "bad-field": ["--field", "gf:4", tetra_file],
        "missing-face": [str(bad)],
        "json-dir": ["--json", str(tmp_path), tetra_file],
        "check-mismatch": ["--check", tetra_file],
    }[case]
    monkeypatch.setattr(wsh.cli, "homology_via_snf", lambda X, n, field, known=None: (n, [7]))
    monkeypatch.setattr(sys, "stderr", stderr())
    assert main(argv) == code
    assert "wsh:" not in capsys.readouterr().out


@pytest.mark.parametrize("flags", [[], ["--json", "-"]], ids=["text", "json"])
def test_missing_stdout_exits_2(flags, glued_file, monkeypatch, capsys):
    # the interpreter sets sys.stdout to None when it starts with fd 1 closed
    monkeypatch.setattr(sys, "stdout", None)
    assert main([*flags, glued_file]) == 2
    assert capsys.readouterr().err == "wsh: error: cannot write stdout: Bad file descriptor\n"


def test_closed_stderr_or_stdout_keeps_the_exit_code(glued_file, tmp_path):
    # `wsh bad.cplx 2>&-` and `wsh ok.cplx >&-` in a shell
    bad = tmp_path / "bad.cplx"
    bad.write_text("a b ; 1\n")
    env = dict(os.environ, PYTHONPATH=str(Path(wsh.cli.__file__).parent.parent))
    wsh_command = shlex.join([sys.executable, "-m", "wsh.cli"])

    def run(path, redirect, **streams):
        script = f"exec {wsh_command} {shlex.quote(str(path))} {redirect}"
        return subprocess.run(["/bin/sh", "-c", script], env=env, text=True, **streams)

    done = run(bad, "2>&-", stdout=subprocess.PIPE)
    assert done.returncode == 2
    assert done.stdout == ""
    done = run(glued_file, ">&-", stderr=subprocess.PIPE)
    assert done.returncode == 2
    assert done.stderr == "wsh: error: cannot write stdout: Bad file descriptor\n"


def _fresh_report(argv, path):
    assert main(["--json", str(path), *argv]) == 0
    return path.read_bytes()


@pytest.mark.parametrize("extra", [300, -300, 0], ids=["longer", "shorter", "same-length"])
def test_json_overwrites_an_existing_report_in_place(extra, glued_file, tmp_path, capsys):
    # an old file longer, shorter or as long as the report ends up holding the
    # bytes of a fresh write, in the same inode with the same permissions
    argv = ["--generators", glued_file]
    new = _fresh_report(argv, tmp_path / "fresh.json")
    out = tmp_path / "report.json"
    out.write_bytes(b"x" * (len(new) + extra))
    out.chmod(0o600)
    before = out.stat()
    assert main(["--json", str(out), *argv]) == 0
    assert capsys.readouterr().err == ""
    assert out.read_bytes() == new
    after = out.stat()
    assert after.st_ino == before.st_ino
    assert stat.S_IMODE(after.st_mode) == 0o600


def test_json_writes_through_a_symlink(glued_file, tmp_path):
    new = _fresh_report([glued_file], tmp_path / "fresh.json")
    target = tmp_path / "target.json"
    target.write_bytes(b"x" * (2 * len(new)))
    link = tmp_path / "link.json"
    link.symlink_to(target)
    assert main(["--json", str(link), glued_file]) == 0
    assert link.is_symlink()
    assert target.read_bytes() == new


def test_json_to_devnull(glued_file, capsys):
    # /dev/null is not a regular file: written, never cut
    assert main(["--json", os.devnull, glued_file]) == 0
    assert capsys.readouterr() == ("", "")


def test_json_report_is_never_opened_with_o_trunc(glued_file, tmp_path, monkeypatch):
    out = tmp_path / "report.json"
    out.write_bytes(b"x" * 100_000)
    flags_of = []
    real_open = os.open

    def spy(path, flags, *args, **kwargs):
        if os.fspath(path) == str(out):
            flags_of.append(flags)
        return real_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(wsh.cli.os, "open", spy)
    assert main(["--json", str(out), glued_file]) == 0
    # one open, for writing, created if missing, and not truncated to zero
    assert len(flags_of) == 1
    assert flags_of[0] & os.O_WRONLY and flags_of[0] & os.O_CREAT
    assert not flags_of[0] & os.O_TRUNC
    fresh = tmp_path / "fresh.json"
    assert out.read_bytes() == _fresh_report([glued_file], fresh)
    # a new report gets the permissions a plain open(path, "w") gives a file
    plain = tmp_path / "plain.json"
    plain.write_text("")
    assert fresh.stat().st_mode == plain.stat().st_mode


class _DiskFullFile(io.FileIO):
    """A file on a disk with room for `room` more bytes: a write past that
    takes what fits, and the next one fails with ENOSPC, as write(2) does."""

    room = 0

    def write(self, b):
        if not self.room:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        n = super().write(bytes(b)[: self.room])
        self.room -= n
        return n


def test_failed_json_write_leaves_no_byte_of_the_old_report(glued_file, tmp_path, monkeypatch, capsys):
    out = tmp_path / "report.json"
    old = _fresh_report(["--generators", glued_file], out)
    new = _fresh_report([glued_file], tmp_path / "fresh.json")
    assert len(old) > len(new)
    real_open = open

    def full_disk_open(file, mode="r", **kwargs):
        if "w" not in mode:
            return real_open(file, mode, **kwargs)
        raw = _DiskFullFile(file, mode, opener=kwargs.pop("opener", None))
        raw.room = len(new) // 2  # the disk fills partway through the report
        return io.TextIOWrapper(io.BufferedWriter(raw), **kwargs)

    monkeypatch.setattr(wsh.cli, "open", full_disk_open, raising=False)
    capsys.readouterr()
    assert main(["--json", str(out), glued_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"wsh: error: cannot write {out}: No space left on device\n"
    assert out.read_bytes() == b""


def test_maximal_mode_through_cli(tmp_path, capsys):
    p = tmp_path / "torus_like.cplx"
    p.write_text("!maximal 0\na b c\nb c d\n")
    assert main([str(p)]) == 0
    out = capsys.readouterr().out
    assert "H_0 = R" in out


def test_dim_beyond_complex(tetra_file, capsys):
    # a dimension past the complex has no simplices: answered at once,
    # without walking the dimensions up to it
    for flags in (
        ["--dim", "5"],
        ["--dim", "1000000000"],
        ["--dim", "1000000000", "--check", "--generators"],
    ):
        start = time.perf_counter()
        assert main([*flags, tetra_file]) == 0, flags
        assert time.perf_counter() - start < 1.0, flags
        out = capsys.readouterr().out
        assert f"H_{flags[1]} = 0" in out.splitlines(), flags


def test_huge_record_exits_2_without_enumerating(tmp_path, monkeypatch, capsys):
    def refuse(listed):
        raise AssertionError("faces enumerated")

    monkeypatch.setattr(wsh.complexes, "_heaviest_cofaces", refuse)
    big = " ".join(f"x{i}" for i in range(64))
    maximal = tmp_path / "maximal.cplx"
    maximal.write_text(f"!maximal 0\na b\n{big}\n")
    assert main([str(maximal)]) == 2
    assert "line 3: simplex with 64 vertices" in capsys.readouterr().err
    listed = tmp_path / "listed.cplx"
    listed.write_text(f"{big} ; 0\n")
    assert main(["--complete-faces", str(listed)]) == 2
    assert "line 1: simplex with 64 vertices" in capsys.readouterr().err


def test_fast_path_consistency_errors_exit_3(tetra_file, monkeypatch, capsys):
    def unpaired(*args, **kwargs):
        raise ComplexError("1 independent 2-simplices left unpaired")

    monkeypatch.setattr(wsh.cli, "homology_all", unpaired)
    monkeypatch.setattr(wsh.cli, "homology", unpaired)
    assert main([tetra_file]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "wsh: error: 1 independent 2-simplices left unpaired\n"
    assert main(["--dim", "1", tetra_file]) == 3
    assert capsys.readouterr().err == "wsh: error: H_1: 1 independent 2-simplices left unpaired\n"


def test_check_mismatch_exits_3(tetra_file, monkeypatch, capsys):
    monkeypatch.setattr(wsh.cli, "homology_via_snf", lambda X, n, field, known=None: (n, [7]))
    assert main(["--check", "--dim", "1", tetra_file]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "wsh: check mismatch at H_1: fast path 0 free [1, 1, 1] torsion, "
        "verifier 1 free [7] torsion\n"
    )


def test_check_precision_failure_exits_3(tetra_file, monkeypatch, capsys):
    def exhausted(X, n, field, known=None):
        raise PrecisionExhausted("elimination left a nonzero entry below the pivot")

    monkeypatch.setattr(wsh.cli, "homology_via_snf", exhausted)
    assert main(["--check", tetra_file]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "wsh: check failed at H_0: elimination left a nonzero entry below the pivot\n"


def test_readme_examples_are_verbatim_output(tmp_path, monkeypatch, capsys):
    # every "$ wsh ... glued.cplx" block in the README, run on the README's
    # own glued.cplx, prints exactly the lines the block shows
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```[a-z]*\n(.*?)^```$", readme, re.MULTILINE | re.DOTALL)
    (glued,) = [b for b in blocks if b.startswith("# filled triangle abc glued")]
    examples = [b for b in blocks if re.match(r"\$ wsh .*glued\.cplx\n", b)]
    assert len(examples) == 3
    (tmp_path / "glued.cplx").write_text(glued)
    monkeypatch.chdir(tmp_path)
    for block in examples:
        command, expected = block.split("\n", 1)
        assert main(shlex.split(command)[2:]) == 0, command
        assert capsys.readouterr().out == expected, command


# small valid files; records stay short, so a few spliced tokens cannot make
# a record whose closure is large
_FUZZ_BASES = [TETRA, GLUED, "!maximal 0\na b c\nb c d\n", "!maximal 2\nx y\ny z\nz x\n"] + [
    serialize_complex(random_weighted_complex(random.Random(s), max_vertices=5, max_simplices=12))
    for s in range(4)
]
# separators, bad weights and labels, directives, comments, control
# characters, a line separator and bytes that are not UTF-8
_FUZZ_JUNK = [
    b"", b";", b" ; ", b"\n", b"\r", b"\t", b"\x00", b"#", b"a", b"a a", b"-1", b"+3",
    b"1_0", b"\xd9\xa3", b"99999999999999999999", b"!maximal", b"!maximal 0",
    b"!maximal x", b"\xe2\x80\xa8", b"\xff", b"\xc3",
]
_FLAG_SETS = [
    [],
    ["--field", "gf:2", "--generators"],
    ["--json", "-", "--generators"],
    ["--complete-faces"],
    ["--dim", "1", "--json", "-"],
    ["--check"],
    ["--check", "--field", "gf:3", "--complete-faces"],
    ["--check", "--dim", "1"],
    ["--check", "--dim", "4", "--generators", "--json", "-"],
]


@settings(max_examples=200, deadline=None)
@given(
    base=st.sampled_from(_FUZZ_BASES),
    edits=st.lists(
        st.tuples(st.integers(min_value=0), st.sampled_from(_FUZZ_JUNK), st.booleans()),
        max_size=3,
    ),
)
def test_cli_exits_cleanly_on_spliced_files(base, edits, tmp_path_factory):
    # each edit replaces or inserts one junk token among the file's tokens
    tokens = re.split(rb"( |\n)", base.encode("utf-8"))
    for at, junk, replace in edits:
        at %= len(tokens) + 1
        if replace and at < len(tokens):
            tokens[at] = junk
        else:
            tokens.insert(at, junk)
    path = tmp_path_factory.getbasetemp() / "spliced.cplx"
    path.write_bytes(b"".join(tokens))
    for flags in _FLAG_SETS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(flags + [str(path)])
        assert code in (0, 1, 2, 3), flags
        if code == 0:
            assert err.getvalue() == "", flags
        else:
            said = [
                line
                for line in err.getvalue().splitlines()
                if line.startswith(("wsh: error: ", "wsh: check "))
            ]
            assert len(said) == 1, (flags, err.getvalue())


def test_cli_imports_without_dataclasses_inspect_or_typing():
    # every run pays for what `import wsh.cli` loads; -S keeps the site
    # module, which may load typing itself, out of the child
    code = (
        "import sys, wsh.cli; "
        "print(*[m for m in ('dataclasses', 'inspect', 'typing') if m in sys.modules])"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(wsh.cli.__file__).parent.parent))
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.split() == []
