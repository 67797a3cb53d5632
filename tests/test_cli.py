import json
import re
import shlex
from pathlib import Path

import pytest

import wsh.cli
import wsh.complexes
from wsh.errors import ComplexError, PrecisionExhausted
from wsh.cli import main
from .conftest import glued_triangles_complex, tetra_boundary_complex
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


def test_unwritable_json_path_exits_2(glued_file, tmp_path, capsys):
    # a directory cannot be opened for writing
    assert main(["--json", str(tmp_path), glued_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"wsh: error: cannot write {tmp_path}: ")


def test_maximal_mode_through_cli(tmp_path, capsys):
    p = tmp_path / "torus_like.cplx"
    p.write_text("!maximal 0\na b c\nb c d\n")
    assert main([str(p)]) == 0
    out = capsys.readouterr().out
    assert "H_0 = R" in out


def test_dim_beyond_complex(tetra_file, capsys):
    assert main(["--dim", "5", tetra_file]) == 0
    out = capsys.readouterr().out
    assert "H_5 = 0" in out


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
    monkeypatch.setattr(wsh.cli, "homology_via_snf", lambda X, n, field: (n, [7]))
    assert main(["--check", "--dim", "1", tetra_file]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "wsh: check mismatch at H_1: fast path 0 free [1, 1, 1] torsion, "
        "verifier 1 free [7] torsion\n"
    )


def test_check_precision_failure_exits_3(tetra_file, monkeypatch, capsys):
    def exhausted(X, n, field):
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
