"""tests/outputs_vs_base.py without a CLI run: its variants parse, and
``compare`` gives its verdicts on hand-made outputs."""

from pathlib import Path

import pytest

import outputs_vs_base as ovb
from fedcurr.config import parse_run_config

REPO = Path(__file__).resolve().parents[1]
ERROR_LINE = b"error: vanilla arm, seed 202208: round 4: non-finite test loss\n"


@pytest.mark.parametrize("name", ovb.VARIANTS)
def test_variant_config_parses(tmp_path, name):
    # parse_run_config raises on a key that nothing reads.
    path = tmp_path / f"{name}.ini"
    ovb.write_config(REPO, ovb.VARIANTS[name].keys, path)
    parse_run_config(str(path))


def _trees(tmp_path: Path) -> tuple[Path, Path, Path]:
    """A base and a head tree whose CHANGES.md each say "Digits changed:"
    once, and the same outputs of every run of both in ``out``."""
    for tree in ("base", "head"):
        (tmp_path / tree).mkdir()
        (tmp_path / tree / "CHANGES.md").write_text("- Digits changed: 1e-16 at most.\n")
        for name, _, files, diverges in ovb.runs():
            run = tmp_path / "out" / tree / name
            run.mkdir(parents=True)
            for f in files:
                (run / f).write_bytes(b"round,accuracy\n0,0.75\n")
            (run / "code").write_bytes(b"1\n" if diverges else b"0\n")
            (run / "stderr").write_bytes(ERROR_LINE if diverges else b"")
    return tmp_path / "base", tmp_path / "head", tmp_path / "out"


def _waive(head: Path) -> None:
    with open(head / "CHANGES.md", "a") as fh:
        fh.write("- Digits changed: the last digit of one accuracy.\n")


def _one_byte(data: bytes) -> bytes:
    return data.replace(b"0.75", b"0.76")


def _append_column(data: bytes) -> bytes:
    return data.replace(b"accuracy\n", b"accuracy,zeta_sq\n").replace(b"0.75\n", b"0.75,0.1\n")


def test_identical_outputs_pass(tmp_path, capsys):
    assert ovb.compare(*_trees(tmp_path)) == 0
    assert capsys.readouterr().out == "outputs are byte-identical to the base commit\n"


@pytest.mark.parametrize("waived", [False, True])
@pytest.mark.parametrize("edit", [_one_byte, lambda data: _one_byte(_append_column(data))])
def test_changed_byte_fails_unless_waived(tmp_path, capsys, waived, edit):
    # A changed cell of a base column counts beside an appended column too.
    base, head, out = _trees(tmp_path)
    path = out / "head" / "mlp-t1" / "metrics.csv"
    path.write_bytes(edit(path.read_bytes()))
    if waived:
        _waive(head)
    assert ovb.compare(base, head, out) == (0 if waived else 1)
    printed = capsys.readouterr().out
    assert printed.startswith("differs from the base commit: mlp-t1/metrics.csv\n")
    assert ("a new CHANGES.md entry says 'Digits changed:'" in printed) == waived
    assert ("::error::" in printed) != waived


def test_each_changed_base_cell_is_printed(tmp_path, capsys):
    # One line per changed cell of a base column, with the relative change
    # of a number; an appended column's cells are not listed.
    base, head, out = _trees(tmp_path)
    for tree, text in (("base", b"case,empirical,passed\nc1,4.0,1\nc2,0.5,no\n"),
                       ("head", b"case,empirical,passed,zeta_sq\nc1,4.2,1,0.1\nc2,0.5,1,0.2\n")):
        (out / tree / "verify" / "report.csv").write_bytes(text)
    _waive(head)
    assert ovb.compare(base, head, out) == 0
    assert capsys.readouterr().out.splitlines() == [
        "differs from the base commit: verify/report.csv",
        "verify/report.csv row 1 (c1) empirical: 4.0 -> 4.2 (rel 5.0e-02)",
        "verify/report.csv row 2 (c2) passed: no -> 1",
        "outputs differ from the base commit, and a new CHANGES.md entry says "
        "'Digits changed:'",
    ]


def test_appended_column_passes_without_a_waiver(tmp_path, capsys):
    base, head, out = _trees(tmp_path)
    for run in ("trials3-t1", "trials3-t2", "verify"):
        for path in (out / "head" / run).glob("*.csv"):
            path.write_bytes(_append_column(path.read_bytes()))
    assert ovb.compare(base, head, out) == 0
    printed = capsys.readouterr().out
    assert printed.splitlines() == [
        "appends columns to the base commit's: verify/report.csv",
        "appends columns to the base commit's: trials3-t1/metrics.csv",
        "appends columns to the base commit's: trials3-t1/summary.csv",
        "appends columns to the base commit's: trials3-t2/metrics.csv",
        "appends columns to the base commit's: trials3-t2/summary.csv",
        "outputs keep every cell of the base commit",
    ]


@pytest.mark.parametrize("runs, file, edit, message", [
    (["head/trials3-t2"], "metrics.csv", _one_byte,
     "trials3-t2/metrics.csv differs from trials3-t1/metrics.csv"),
    (["head/div-eta-t1", "head/div-eta-t2"], "code", lambda data: b"2\n",
     "div-eta-t1 did not end with exit 1 and one error line"),
    (["head/div-eta-t1", "head/div-eta-t2"], "stderr", lambda data: data + b"Traceback\n",
     "div-eta-t2 did not end with exit 1 and one error line"),
    (["base/fedprox-t1"], "code", lambda data: b"1\n", "base fedprox-t1 did not exit 0"),
    (["head/verify"], "stderr", lambda data: b"RuntimeWarning: overflow encountered\n",
     "head verify exited 0 but wrote to stderr:\nRuntimeWarning: overflow encountered"),
    # By column: only columns appended after the base's may pass, and only
    # when they keep the thread-count rule.
    (["head/trials3-t2"], "metrics.csv", _append_column,
     "trials3-t2/metrics.csv differs from trials3-t1/metrics.csv"),
    (["head/run-t1"], "summary.csv", lambda data: data.replace(b"accuracy", b"acc"),
     "run-t1/summary.csv header round,acc does not start with the base's round,accuracy"),
    (["head/verify"], "report.csv", lambda data: b"accuracy,round\n0.75,0\n",
     "verify/report.csv header accuracy,round does not start with the base's round,accuracy"),
    (["head/mlp-t1"], "metrics.csv", lambda data: data.split(b"\n")[0] + b"\n",
     "mlp-t1/metrics.csv has 1 rows, the base's 2"),
    (["head/mlp-t1"], "metrics.csv", lambda data: data + b"1,0.8,9\n",
     "mlp-t1/metrics.csv has 3 rows, the base's 2"),
    (["head/linear-t1"], "metrics.csv", lambda data: data.replace(b"0.75", b"0.75,9"),
     "linear-t1/metrics.csv has a row that is not 2 cells wide, as its header is"),
])
def test_rule_breach_fails_even_with_a_waiver(tmp_path, capsys, runs, file, edit, message):
    base, head, out = _trees(tmp_path)
    for run in runs:
        path = out / run / file
        path.write_bytes(edit(path.read_bytes()))
    _waive(head)
    assert ovb.compare(base, head, out) == 1
    printed = capsys.readouterr().out
    assert f"::error::{message}" in printed
    assert "identical" not in printed and "says 'Digits changed:'" not in printed
