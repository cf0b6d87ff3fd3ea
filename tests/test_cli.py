import os
import re

from fedcurr.cli import main

MINIMAL_RUN = """
[dataset]
n = 120
classes = 2
dim = 3
noise_low = 0.1
noise_high = 1.0

[partition]
scheme = iid
num_clients = 6

[model]
kind = softmax

[federation]
rounds = 1
local_epochs = 1
participants = 3

[optimizer]
eta0 = 0.01
batch_size = 10

[data_curriculum]
orderings = curriculum,vanilla

[run]
seed = 202207
n_trials = 2
test_n = 60
"""

SMALL_VERIFY = """
[tiny_convex]
kind = convex
dim = 4
mu = 0.5
L = 2
M = 0.5
sigma = 0.1
Q = 4
T = 5
J = 2
schedule = data
B_end = 0.3
n_runs = 100
seed = 1

[tiny_nonconvex]
kind = nonconvex
dim = 3
Q = 4
T = 5
J = 2
alpha = 0.1
sigma = 0.02
theta0 = 0.15
n_runs = 100
seed = 2
"""


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_missing_required_key_exits_2(tmp_path, capsys):
    cfg = write(tmp_path / "bad.ini", MINIMAL_RUN.replace("n = 120\n", ""))
    code = main(["run", cfg, "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "'n'" in err and "[dataset]" in err


def test_malformed_line_exits_2(tmp_path, capsys):
    cfg = write(tmp_path / "bad.ini", MINIMAL_RUN + "\nnot a key value line\n")
    code = main(["run", cfg, "--out", str(tmp_path / "out")])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_minimal_run_row_counts(tmp_path):
    cfg = write(tmp_path / "run.ini", MINIMAL_RUN)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    lines = read(out / "metrics.csv").decode().strip().splitlines()
    # Header plus one round row per (arm, trial).
    assert len(lines) == 1 + 2 * 2
    header = lines[0].split(",")
    assert header == [
        "round", "algorithm", "ordering", "scoring", "pacing_family", "pacing_a",
        "pacing_b", "seed", "test_acc", "test_loss", "mean_client_loss", "lambda",
        "subset_frac",
    ]
    summary = read(out / "summary.csv").decode().strip().splitlines()
    assert len(summary) == 3


def test_rerun_is_byte_identical(tmp_path):
    cfg = write(tmp_path / "run.ini", MINIMAL_RUN)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", cfg, "--out", str(out1)]) == 0
    assert main(["run", cfg, "--out", str(out2)]) == 0
    assert read(out1 / "metrics.csv") == read(out2 / "metrics.csv")
    assert read(out1 / "summary.csv") == read(out2 / "summary.csv")


def test_thread_count_does_not_change_output(tmp_path):
    cfg = write(tmp_path / "run.ini", MINIMAL_RUN)
    out1, out8 = tmp_path / "t1", tmp_path / "t8"
    assert main(["run", cfg, "--out", str(out1), "--threads", "1"]) == 0
    assert main(["run", cfg, "--out", str(out8), "--threads", "8"]) == 0
    assert read(out1 / "metrics.csv") == read(out8 / "metrics.csv")


def test_seed_override_changes_output(tmp_path):
    cfg = write(tmp_path / "run.ini", MINIMAL_RUN)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["run", cfg, "--out", str(out1)]) == 0
    assert main(["run", cfg, "--out", str(out2), "--seed", "999"]) == 0
    assert read(out1 / "metrics.csv") != read(out2 / "metrics.csv")


def test_threads_env_fallback(tmp_path):
    cfg = write(tmp_path / "run.ini", MINIMAL_RUN)
    out = tmp_path / "env"
    os.environ["FEDCURR_THREADS"] = "2"
    try:
        assert main(["run", cfg, "--out", str(out)]) == 0
    finally:
        del os.environ["FEDCURR_THREADS"]
    assert (out / "metrics.csv").exists()


def test_verify_small_grid_passes(tmp_path):
    cfg = write(tmp_path / "verify.ini", SMALL_VERIFY)
    out = tmp_path / "out"
    assert main(["verify", cfg, "--out", str(out)]) == 0
    lines = read(out / "report.csv").decode().strip().splitlines()
    assert len(lines) == 3
    assert lines[0].split(",") == [
        "case", "kind", "T", "J", "Q", "schedule", "empirical", "bound", "slack", "passed",
    ]
    assert all(line.endswith(",1") for line in lines[1:])


def test_verify_thread_count_does_not_change_report(tmp_path):
    cfg = write(tmp_path / "verify.ini", SMALL_VERIFY)
    out1, out2 = tmp_path / "t1", tmp_path / "t2"
    assert main(["verify", cfg, "--out", str(out1), "--threads", "1"]) == 0
    assert main(["verify", cfg, "--out", str(out2), "--threads", "2"]) == 0
    assert read(out1 / "report.csv") == read(out2 / "report.csv")


def test_verify_empty_grid(tmp_path):
    cfg = write(tmp_path / "empty.ini", "")
    out = tmp_path / "out"
    assert main(["verify", cfg, "--out", str(out)]) == 0
    lines = read(out / "report.csv").decode().strip().splitlines()
    assert len(lines) == 1


def test_verify_stepsize_precondition_violation(tmp_path, capsys):
    bad = SMALL_VERIFY.replace("B_end = 0.3", "B_end = 0.3\nalpha = 5.0")
    cfg = write(tmp_path / "verify.ini", bad)
    code = main(["verify", cfg, "--out", str(tmp_path / "out")])
    assert code != 0
    assert "alpha[" in capsys.readouterr().err


def test_verify_unknown_kind_exits_2(tmp_path, capsys):
    cfg = write(tmp_path / "verify.ini", "[case]\nkind = quantum\n")
    assert main(["verify", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "kind" in capsys.readouterr().err


def test_shipped_example_config_runs(tmp_path):
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    cfg = os.path.join(here, "configs", "example_run.ini")
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    lines = read(out / "metrics.csv").decode().strip().splitlines()
    assert len(lines) == 1 + 2 * 2 * 5


def test_diverging_run_ends_in_one_error_line(tmp_path, capsys):
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(here, "configs", "example_run.ini"), encoding="utf-8") as fh:
        text = fh.read()
    assert "eta0 = 0.01" in text
    cfg = write(tmp_path / "diverge.ini", text.replace("eta0 = 0.01", "eta0 = 1e6"))
    code = main(["run", cfg, "--out", str(tmp_path / "out")])
    assert code == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert re.match(r"error: round \d+, client \d+: non-finite parameters", lines[0])


def test_zero_trials_exits_2(tmp_path, capsys):
    cfg = write(tmp_path / "bad.ini", MINIMAL_RUN.replace("n_trials = 2", "n_trials = 0"))
    code = main(["run", cfg, "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "'n_trials'" in err and "[run]" in err
    assert not (tmp_path / "out" / "summary.csv").exists()
