"""Run the shipped configs and a table of variants of configs/example_run.ini
on two source trees and compare the outputs, each CSV cell by cell and every
other file byte for byte (ROADMAP aim 1):

    python tests/outputs_vs_base.py BASE HEAD

BASE and HEAD are checkouts, or ``git archive`` copies, of the base commit
and of the change; each runs ``fedcurr.cli`` from its own ``src`` on its own
``configs``, on this one machine, as digests do not carry across OpenBLAS
CPU kernels. ``compare`` holds the rules; it exits 1 when one fails.
"""

from __future__ import annotations

import configparser
import csv
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple


class Variant(NamedTuple):
    keys: dict[str, str]  # "section.key" -> value, set on configs/example_run.ini
    threads: tuple[int, ...] = (1,)
    diverges: bool = False


ALL_ARMS = {"data_curriculum.orderings": "curriculum,anti,random,vanilla"}
MLP = {"model.kind": "mlp", "model.hidden_dim": "16", "dataset.classes": "10"}
DIV_LINEAR = {"model.kind": "linear", "optimizer.eta0": "5"}
SCORINGS = ("l_loss", "lg_loss", "g_pred", "l_pred", "lg_pred", "random")

VARIANTS = {
    "run": Variant({}),  # the shipped example; it covers g_loss scoring
    # Expert training, the f_ord reshuffle and expert scoring: no shipped config.
    "expert": Variant({"data_curriculum.scoring": "expert", "partition.f_ord": "0.5",
                       "partition.expert_epochs": "5"}),
    # A 4-class softmax, whose log-softmax sums rows column by column.
    "clients4": Variant({
        "dataset.classes": "4", "client_curriculum.enabled": "true",
        "client_curriculum.ordering": "curriculum", "client_curriculum.pacing_family": "linear",
        "client_curriculum.pacing_a": "0.8", "client_curriculum.pacing_b": "0.2",
    }),
    "mlp": Variant(MLP),  # the MLP's products; 10 classes sum rows with np.add.reduce
    # A scalar head: a one-column product through the output weights.
    "mlp1": Variant({"model.kind": "mlp", "model.hidden_dim": "8", "dataset.classes": "1"}),
    # The other aggregation rules and the FedProx and SCAFFOLD gradient terms.
    "fedprox": Variant({"federation.algorithm": "fedprox", "federation.mu_prox": "0.01"}),
    "scaffold": Variant({"federation.algorithm": "scaffold"}),
    "fednova": Variant({"federation.algorithm": "fednova"}),
    # SCAFFOLD with a local scoring and a growing client set (2 to 4 a
    # round): the per-client arrays are read and written by id as the
    # participants change, beside the pass at each local model.
    "scaffold-local": Variant({
        "federation.algorithm": "scaffold", "data_curriculum.scoring": "lg_loss", **ALL_ARMS,
        "client_curriculum.enabled": "true", "client_curriculum.ordering": "anti",
    }, (1, 2)),
    # The MLP with a pass at each local model, its hidden activations beside
    # the pass at theta: the wide benchmark's path.
    "mlp-local": Variant({**MLP, "data_curriculum.scoring": "lg_pred", **ALL_ARMS,
                          "client_curriculum.enabled": "true"}, (1, 2)),
    "linear": Variant({"model.kind": "linear"}),  # the regression path
    **{s: Variant({"data_curriculum.scoring": s, **ALL_ARMS}) for s in SCORINGS},
    # 12 jobs (4 arms x 3 trials) in lockstep, in one process and in two.
    "trials3": Variant({"run.n_trials": "3", **ALL_ARMS}, (1, 2)),
    # The MLP in batches of 7: most epochs end on a padded short batch.
    "tails": Variant({**MLP, "optimizer.batch_size": "7", "run.n_trials": "2", **ALL_ARMS}, (1, 2)),
    # 40 Dirichlet clients of the 600 rows at beta 0.05, 25 of them holding
    # one row: one-row blocks of the training pool and one-row batches.
    "tiny-clients": Variant({"partition.beta": "0.05", "partition.num_clients": "40", **ALL_ARMS,
                             "client_curriculum.enabled": "true"}, (1, 2)),
    # Losses overflow (at 5 and 12 rounds), or parameters leave finite values.
    "div-linear": Variant(DIV_LINEAR, (1, 2), diverges=True),
    "div-linear12": Variant({**DIV_LINEAR, "federation.rounds": "12", "run.n_trials": "3",
                             **ALL_ARMS}, (1, 2), diverges=True),
    "div-eta": Variant({"optimizer.eta0": "1e6"}, (1, 2), diverges=True),
    # Expert training's parameters leave finite values.
    "div-expert": Variant({"partition.f_ord": "0.5", "partition.expert_epochs": "5",
                           "optimizer.eta0": "1e6"}, (1, 2), diverges=True),
}
RUN_FILES = ("metrics.csv", "summary.csv")
DIVERGED_FILES = ("code", "stderr")  # run_tree writes them for every run


def write_config(tree: Path, keys: dict[str, str], path: Path) -> None:
    """``tree``'s configs/example_run.ini with ``keys`` set, written to ``path``."""
    cp = configparser.ConfigParser(interpolation=None)
    with open(tree / "configs" / "example_run.ini", encoding="utf-8") as fh:
        cp.read_file(fh)
    for name, value in keys.items():
        section, key = name.split(".")
        if not cp.has_section(section):
            cp.add_section(section)
        cp.set(section, key, value)
    with open(path, "w", encoding="utf-8") as fh:
        cp.write(fh)


def runs() -> list[tuple[str, str, tuple[str, ...], bool]]:
    """(output directory, that of its variant's first thread count, the
    files compared, must diverge) of every run."""
    found = [("verify", "verify", ("report.csv",), False)]
    for name, variant in VARIANTS.items():
        files = DIVERGED_FILES if variant.diverges else RUN_FILES
        dirs = [f"{name}-t{t}" for t in variant.threads]
        found += [(d, dirs[0], files, variant.diverges) for d in dirs]
    return found


def run_tree(tree: Path, out: Path) -> None:
    """Run the verify grid and every variant on ``tree``, into ``out``."""
    out.mkdir()
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "OPENBLAS_NUM_THREADS": "1"}
    commands = {"verify": ["verify", str(tree / "configs" / "theory_verify.ini")]}
    for name, variant in VARIANTS.items():
        write_config(tree, variant.keys, out / f"{name}.ini")
        for t in variant.threads:
            commands[f"{name}-t{t}"] = ["run", str(out / f"{name}.ini"), "--threads", str(t)]
    for name, args in commands.items():
        proc = subprocess.run(
            [sys.executable, "-m", "fedcurr.cli", *args, "--out", str(out / name)],
            cwd=tree, env=env, capture_output=True,
        )
        (out / name).mkdir(exist_ok=True)
        (out / name / "code").write_text(f"{proc.returncode}\n")
        (out / name / "stderr").write_bytes(proc.stderr)


def _read(path: Path) -> bytes | None:
    return path.read_bytes() if path.exists() else None


def _table(data: bytes) -> list[list[str]]:
    return list(csv.reader(io.StringIO(data.decode(errors="replace"), newline="")))


def _layout_breach(base: list[list[str]], head: list[list[str]]) -> str | None:
    """How ``head`` is more than ``base`` with columns appended: a header
    that does not start with the base's, another row count, or a row not as
    wide as the head's header; None when it is not."""
    base_header, header = (rows[0] if rows else [] for rows in (base, head))
    if header[: len(base_header)] != base_header:
        return f"header {','.join(header)} does not start with the base's {','.join(base_header)}"
    if len(head) != len(base):
        return f"has {len(head)} rows, the base's {len(base)}"
    if any(len(row) != len(header) for row in head):
        return f"has a row that is not {len(header)} cells wide, as its header is"
    return None


def _appends(base: list[list[str]], head: list[list[str]]) -> bool:
    """Whether ``head`` is wider than ``base`` and each of its rows starts
    with the cells of the base's row."""
    width = len(base[0])
    return len(head[0]) > width and all(row[:width] == cells for row, cells in zip(head, base))


def _changed_cells(path: str, base: list[list[str]], head: list[list[str]]) -> list[str]:
    """One line for each cell of a base column that ``head`` changes: its
    data row (from 1), that row's first cell, its column, both values and,
    for numbers, the relative change."""
    lines = []
    for i, (old_row, new_row) in enumerate(zip(base[1:], head[1:]), 1):
        for column, old, new in zip(base[0], old_row, new_row):
            if old == new:
                continue
            line = f"{path} row {i} ({new_row[0]}) {column}: {old} -> {new}"
            try:
                rel = abs(float(new) - float(old)) / abs(float(old))
            except (ValueError, ZeroDivisionError):
                rel = None
            lines.append(line if rel is None else f"{line} (rel {rel:.1e})")
    return lines


def compare(base: Path, head: Path, out: Path) -> int:
    """Print the verdict on the runs ``run_tree`` left in out/base and
    out/head and return the exit code. Each head run gives the same bytes at
    every thread count, each diverging head run ends with exit code 1 and one
    ``error:`` line, and every other run exits 0, the head's with nothing on
    stderr, so a numpy warning on a finished run fails. Each head CSV is the
    base's with columns appended or none (``_layout_breach``). Every cell of
    the base's columns, and every other file, equals the base's, unless
    ``head``'s CHANGES.md says "Digits changed:" more often than ``base``'s:
    the change's entry gives the size of the change. Appended columns pass.
    Each changed cell of a base column is printed with its old and new value."""
    errors, changed, appended, cells = [], [], [], []
    for name, first, files, diverges in runs():
        for tree in ("base", "head"):
            if not diverges and _read(out / tree / name / "code") != b"0\n":
                stderr = (_read(out / tree / name / "stderr") or b"").decode(errors="replace")
                errors.append(f"{tree} {name} did not exit 0:\n{stderr}")
        run = out / "head" / name
        lines = (_read(run / "stderr") or b"").splitlines(keepends=True)
        if diverges and not (
            _read(run / "code") == b"1\n" and len(lines) == 1
            and lines[0].startswith(b"error: ") and lines[0].endswith(b"\n")
        ):
            errors.append(f"{name} did not end with exit 1 and one error line")
        if not diverges and _read(run / "code") == b"0\n" and lines:
            stderr = b"".join(lines).decode(errors="replace")
            errors.append(f"head {name} exited 0 but wrote to stderr:\n{stderr}")
        errors += [
            f"{name}/{f} differs from {first}/{f}: the thread count changed a byte"
            for f in files if _read(run / f) != _read(out / "head" / first / f)
        ]
        for f in files:  # against the base: whole files, or each CSV by column
            old, new = _read(out / "base" / name / f), _read(run / f)
            if old == new:
                continue
            if not (f.endswith(".csv") and old and new):
                changed.append(f"{name}/{f}")
                continue
            base_rows, head_rows = _table(old), _table(new)
            breach = _layout_breach(base_rows, head_rows)
            if breach:
                errors.append(f"{name}/{f} {breach}")
            elif _appends(base_rows, head_rows):
                appended.append(f"{name}/{f}")
            else:
                changed.append(f"{name}/{f}")
                cells += _changed_cells(f"{name}/{f}", base_rows, head_rows)
    if errors:
        print("\n".join(f"::error::{error}" for error in errors))
        return 1
    for f in appended:
        print(f"appends columns to the base commit's: {f}")
    if not changed:
        print("outputs keep every cell of the base commit" if appended
              else "outputs are byte-identical to the base commit")
        return 0
    print("\n".join([f"differs from the base commit: {f}" for f in changed] + cells))
    waivers = [(t / "CHANGES.md").read_bytes().count(b"Digits changed:") for t in (base, head)]
    if waivers[1] > waivers[0]:
        print("outputs differ from the base commit, and a new CHANGES.md entry says "
              "'Digits changed:'")
        return 0
    print("::error::outputs differ from the base commit; add 'Digits changed:' and the size "
          "of the change to this change's CHANGES.md entry")
    return 1


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.exit(__doc__)
    base, head = (Path(tree).resolve() for tree in argv)
    with tempfile.TemporaryDirectory() as tmp:
        run_tree(base, Path(tmp) / "base")
        run_tree(head, Path(tmp) / "head")
        return compare(base, head, Path(tmp))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
