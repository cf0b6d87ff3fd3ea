import configparser
import os
import re
import subprocess
import sys
import time
import warnings

import pytest

from fedcurr import ConfigurationError, cli
from fedcurr.cli import main
from fedcurr.config import parse_run_config

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")

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


def assert_no_child_processes():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
def test_threads_env_typo_exits_2(tmp_path, capsys, monkeypatch, value):
    cfg = write(tmp_path / "run.ini", MINIMAL_RUN)
    monkeypatch.setenv("FEDCURR_THREADS", value)
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: FEDCURR_THREADS"), lines
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_uneven_shares_match_one_process(tmp_path):
    # Three jobs in two processes: the parent runs jobs 0 and 2, a worker job 1.
    text = MINIMAL_RUN.replace("curriculum,vanilla", "curriculum,anti,vanilla")
    cfg = write(tmp_path / "run.ini", text.replace("n_trials = 2", "n_trials = 1"))
    outs = {}
    for threads in ("1", "2"):
        outs[threads] = tmp_path / threads
        assert main(["run", cfg, "--out", str(outs[threads]), "--threads", threads]) == 0
        assert_no_child_processes()
    assert len(read(outs["1"] / "metrics.csv").splitlines()) == 1 + 3
    for name in ("metrics.csv", "summary.csv"):
        assert read(outs["1"] / name) == read(outs["2"] / name)


def test_processes_are_capped_at_the_job_count(tmp_path, monkeypatch):
    cfg = write(tmp_path / "run.ini", MINIMAL_RUN)  # 2 arms x 2 trials = 4 jobs
    real_fork = os.fork
    forks = []

    def guarded_fork():
        if len(forks) >= 3:
            pytest.fail("more worker processes than jobs - 1")
        forks.append(None)
        return real_fork()

    monkeypatch.setattr(os, "fork", guarded_fork)
    out1, out_many = tmp_path / "t1", tmp_path / "many"
    assert main(["run", cfg, "--out", str(out1), "--threads", "1"]) == 0
    assert forks == []
    assert main(["run", cfg, "--out", str(out_many), "--threads", "1000000"]) == 0
    assert len(forks) == 3
    assert_no_child_processes()
    for name in ("metrics.csv", "summary.csv"):
        assert read(out1 / name) == read(out_many / name)


def test_worker_error_is_reported_as_in_job_order(tmp_path, capfd, monkeypatch):
    # Jobs run arm by arm: 0 curriculum/202207, 1 curriculum/202208,
    # 2 vanilla/202207, 3 vanilla/202208. Jobs 1 and 2 fail. At --threads 2
    # job 1 runs in the worker and job 2 in the parent, which fails first;
    # job 1's error is still the one reported.
    real = cli.run_experiment

    def flaky(exp, *args, **kwargs):
        if exp.data_curriculum is not None and exp.seed == 202208:
            raise ConfigurationError("job 1 failed", field="rounds")
        if exp.data_curriculum is None and exp.seed == 202207:
            raise FloatingPointError("job 2 failed")
        return real(exp, *args, **kwargs)

    monkeypatch.setattr(cli, "run_experiment", flaky)
    cfg = write(tmp_path / "run.ini", MINIMAL_RUN)
    errors = []
    for threads in ("1", "2"):
        assert main(["run", cfg, "--out", str(tmp_path / threads), "--threads", threads]) == 1
        assert_no_child_processes()
        errors.append(capfd.readouterr().err)
    assert errors[0] == errors[1] == "error: job 1 failed\n"


def test_parent_failure_stops_and_reaps_workers(tmp_path, monkeypatch):
    parent = os.getpid()
    real = cli.run_experiment

    def stuck_worker(exp, *args, **kwargs):
        if os.getpid() != parent:
            time.sleep(60)  # ended by the parent's SIGKILL
        if exp.seed == 202207 and exp.data_curriculum is not None:
            raise RuntimeError("parent job failed")
        return real(exp, *args, **kwargs)

    monkeypatch.setattr(cli, "run_experiment", stuck_worker)
    cfg = write(tmp_path / "run.ini", MINIMAL_RUN)
    began = time.monotonic()
    with pytest.raises(RuntimeError, match="parent job failed"):
        main(["run", cfg, "--out", str(tmp_path / "out"), "--threads", "4"])
    assert time.monotonic() - began < 30
    assert_no_child_processes()


# Big enough that OpenBLAS splits the MLP's matrix products across threads,
# which changes the digits of `lambda` when BLAS runs unpinned.
MLP_RUN = """
[dataset]
n = 4000
classes = 10
dim = 20
noise_low = 0.1
noise_high = 2.0

[partition]
scheme = iid
num_clients = 4

[model]
kind = mlp
hidden_dim = 64

[federation]
rounds = 5
local_epochs = 1
participants = 4

[optimizer]
eta0 = 0.05
momentum = 0.9
batch_size = 100

[run]
seed = 1
n_trials = 1
test_n = 2000
"""


def test_output_does_not_depend_on_blas_threads(tmp_path):
    # On a single-core machine OpenBLAS runs one thread either way, and this
    # test cannot tell a pinned command from an unpinned one.
    cfg = write(tmp_path / "mlp.ini", MLP_RUN)
    src = os.path.join(os.path.dirname(CONFIGS), "src")
    base = {
        k: v for k, v in os.environ.items()
        if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    }
    base["PYTHONPATH"] = src
    outputs = []
    for blas in (None, "1"):
        env = dict(base) if blas is None else dict(base, OPENBLAS_NUM_THREADS=blas)
        out = tmp_path / f"blas_{blas}"
        subprocess.run(
            [sys.executable, "-m", "fedcurr.cli", "run", cfg, "--out", str(out)],
            env=env, check=True, capture_output=True, timeout=120,
        )
        outputs.append(read(out / "metrics.csv"))
    assert outputs[0] == outputs[1]


def test_main_pins_blas_and_restores_the_count(tmp_path, monkeypatch):
    api = cli._openblas_threads()
    if api is None:
        pytest.skip("numpy has no OpenBLAS of a known layout here")
    get, set_ = api
    seen = []
    monkeypatch.setattr(cli, "command_verify", lambda cfg, out: seen.append(get()) or 0)
    previous = get()
    set_(2)
    try:
        assert main(["verify", write(tmp_path / "v.ini", SMALL_VERIFY)]) == 0
        assert seen == [1]
        assert get() == 2
    finally:
        set_(previous)


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


def test_verify_report_rows_follow_config_order(tmp_path):
    convex, nonconvex = SMALL_VERIFY.split("[tiny_nonconvex]")
    swapped = "[tiny_nonconvex]" + nonconvex + convex
    reports = {}
    for order, text in (("given", SMALL_VERIFY), ("swapped", swapped)):
        cfg = write(tmp_path / f"{order}.ini", text)
        assert main(["verify", cfg, "--out", str(tmp_path / order)]) == 0
        reports[order] = read(tmp_path / order / "report.csv").decode().splitlines()
    header, *rows = reports["swapped"]
    assert [row.split(",")[0] for row in rows] == ["tiny_nonconvex", "tiny_convex"]
    assert [header] + rows[::-1] == reports["given"]


def test_verify_empty_grid(tmp_path):
    cfg = write(tmp_path / "empty.ini", "")
    out = tmp_path / "out"
    assert main(["verify", cfg, "--out", str(out)]) == 0
    lines = read(out / "report.csv").decode().strip().splitlines()
    assert len(lines) == 1


def test_verify_stepsize_precondition_violation(tmp_path, capsys):
    # L = 2, M = 0.5: the limit 1/(4(3+2M)L) is 1/32. Checked at parse time.
    bad = SMALL_VERIFY.replace("B_end = 0.3", "B_end = 0.3\nalpha = 5.0")
    cfg = write(tmp_path / "verify.ini", bad)
    code = main(["verify", cfg, "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "'alpha'" in err[0] and "[tiny_convex]" in err[0], err
    assert "0.03125" in err[0]
    assert not (tmp_path / "out").exists()


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


def test_diverging_run_ends_in_one_error_line(tmp_path, capfd):
    # capfd also sees what a forked worker writes to the inherited stderr.
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(here, "configs", "example_run.ini"), encoding="utf-8") as fh:
        text = fh.read()
    assert "eta0 = 0.01" in text
    cfg = write(tmp_path / "diverge.ini", text.replace("eta0 = 0.01", "eta0 = 1e6"))
    errors = []
    for threads in ("1", "2"):
        code = main(["run", cfg, "--out", str(tmp_path / threads), "--threads", threads])
        assert code == 1
        assert_no_child_processes()
        errors.append(capfd.readouterr().err)
    assert errors[0] == errors[1]
    lines = errors[0].strip().splitlines()
    assert len(lines) == 1
    assert re.match(r"error: round \d+, client \d+: non-finite parameters", lines[0])


def test_diverging_expert_training_ends_in_one_error_line(tmp_path, capsys):
    with open(os.path.join(CONFIGS, "example_run.ini"), encoding="utf-8") as fh:
        text = fh.read()
    for old, new in (
        ("eta0 = 0.01", "eta0 = 1e6"),
        ("kind = softmax", "kind = mlp\nhidden_dim = 8"),
        ("num_clients = 10", "num_clients = 10\nf_ord = 0.5\nexpert_epochs = 3"),
    ):
        assert old in text
        text = text.replace(old, new)
    cfg = write(tmp_path / "diverge.ini", text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["run", cfg, "--out", str(tmp_path / "out")])
    assert code == 1
    assert [str(w.message) for w in caught] == []
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1, lines
    assert re.fullmatch(r"error: expert training: non-finite parameters after step \d+", lines[0])
    assert not (tmp_path / "out" / "metrics.csv").exists()


def test_client_curriculum_draws_the_participants_per_round(tmp_path):
    # 5 clients, 3 per round; the retired client_batch_size, where given,
    # must agree and changes nothing.
    text = MINIMAL_RUN.replace("num_clients = 6", "num_clients = 5") + (
        "\n[client_curriculum]\nenabled = true\n"
    )
    for i, extra in enumerate(("", "client_batch_size = 3\n")):
        cfg = write(tmp_path / f"cc{i}.ini", text + extra)
        exp = parse_run_config(cfg).experiment
        assert exp.participants == 3 and exp.client_curriculum is not None
        assert main(["run", cfg, "--out", str(tmp_path / f"out{i}")]) == 0
    for name in ("metrics.csv", "summary.csv"):
        assert read(tmp_path / "out0" / name) == read(tmp_path / "out1" / name)


def test_zero_trials_exits_2(tmp_path, capsys):
    cfg = write(tmp_path / "bad.ini", MINIMAL_RUN.replace("n_trials = 2", "n_trials = 0"))
    code = main(["run", cfg, "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "'n_trials'" in err and "[run]" in err
    assert not (tmp_path / "out" / "summary.csv").exists()


CLIENT_CC = {"enabled": "true"}

# (command, section, key, value, other keys of that section)
INVALID_CONFIGS = [
    ("run", "data_curriculum", "pacing_a", "1.5", {}),
    ("run", "client_curriculum", "pacing_a", "1.5", CLIENT_CC),
    # Retired: it must equal [federation] participants, 4 in the shipped config.
    ("run", "client_curriculum", "client_batch_size", "40", CLIENT_CC),
    ("run", "client_curriculum", "client_batch_size", "0", CLIENT_CC),
    ("run", "client_curriculum", "client_batch_size", "3", CLIENT_CC),
    # Checked with the client curriculum off too.
    ("run", "client_curriculum", "pacing_b", "0", {}),
    # A repeated arm would run twice and count twice in summary.csv.
    ("run", "data_curriculum", "orderings", "curriculum,curriculum", {}),
    # Keys nothing reads: a typo, and a section the parser does not know.
    ("run", "federation", "participnts", "4", {}),
    ("run", "federaton", "participants", "4", {}),
    ("run", "federation", "participants", "40", {}),
    ("run", "federation", "local_epochs", "0", {}),
    ("run", "federation", "rounds", "-1", {}),
    ("run", "optimizer", "batch_size", "0", {}),
    ("run", "optimizer", "momentum", "1.5", {}),
    ("run", "optimizer", "eta0", "inf", {}),
    ("run", "partition", "num_clients", "0", {}),
    ("run", "partition", "num_clients", "700", {}),
    ("run", "partition", "skew_classes", "3", {"scheme": "label_skew"}),
    # 300 samples per class dealt to 400 holders: clients 300-399 get none.
    ("run", "partition", "num_clients", "400", {"scheme": "label_skew", "skew_classes": "2"}),
    ("run", "dataset", "noise_low", "nan", {}),
    ("run", "dataset", "noise_low", "-1", {}),
    ("run", "run", "n_trials", "0", {}),
    # Without the check the untrained init model would rank the data.
    ("run", "partition", "expert_epochs", "-3", {"f_ord": "0.5"}),
    ("run", "run", "test_n", "1", {}),
    ("verify", "convex_client_schedule", "dim", "0", {}),
    ("verify", "convex_data_schedule", "dim", "0", {}),
    ("verify", "convex_diminishing_alpha", "dim", "0", {}),
    ("verify", "nonconvex_logcosh", "dim", "0", {}),
    ("verify", "convex_data_schedule", "Q", "0", {}),
    ("verify", "convex_diminishing_alpha", "T", "0", {}),
    ("verify", "nonconvex_logcosh", "J", "0", {}),
    ("verify", "convex_client_schedule", "mu", "5", {}),
    ("verify", "convex_client_schedule", "mu", "0", {}),
    ("verify", "convex_data_schedule", "B_start", "0.6", {}),
    ("verify", "convex_diminishing_alpha", "n_runs", "50", {}),
    ("verify", "nonconvex_logcosh", "n_runs", "0", {}),
    ("verify", "convex_client_schedule", "Q", "1", {}),
    ("verify", "convex_data_schedule", "dim", "1", {"Q": "3"}),
    ("verify", "nonconvex_logcosh", "dim", "1", {"Q": "3"}),
    ("verify", "convex_client_schedule", "M", "-1", {}),
    # alpha omitted: the default stepsize 1/(8(3+2M)L) would divide by zero.
    ("verify", "convex_client_schedule", "M", "-1.5", {}),
    ("verify", "convex_data_schedule", "schedule", "bogus", {}),
    ("verify", "convex_diminishing_alpha", "alpha_mode", "bogus", {}),
    ("verify", "nonconvex_logcosh", "kind", "bogus", {}),
    ("verify", "convex_data_schedule", "sigma", "-0.1", {}),
    ("verify", "nonconvex_logcosh", "sigma", "-0.1", {}),
    ("verify", "nonconvex_logcosh", "alpha", "-0.05", {}),
    # A zero step never moves theta0.
    ("verify", "nonconvex_logcosh", "alpha", "0", {}),
    # A convex-only key in a nonconvex case is not read.
    ("verify", "nonconvex_logcosh", "schedule", "client", {}),
    # Omit alpha for the default; a given convex alpha must be > 0.
    ("verify", "convex_client_schedule", "alpha", "-5", {}),
    ("verify", "convex_client_schedule", "alpha", "0", {}),
    # L = 4, M = 1: the convex stepsize limit 1/(4(3+2M)L) is 0.0125.
    ("verify", "convex_client_schedule", "alpha", "5", {}),
    # inverse_round takes its largest step, alpha, in round 0.
    ("verify", "convex_diminishing_alpha", "alpha", "0.02", {}),
]


@pytest.mark.parametrize(
    "command,section,key,value,others",
    INVALID_CONFIGS,
    ids=[f"{c[1]}.{c[2]}={c[3]}" for c in INVALID_CONFIGS],
)
def test_invalid_config_exits_2_before_any_output(
    tmp_path, capsys, command, section, key, value, others
):
    shipped = "example_run.ini" if command == "run" else "theory_verify.ini"
    cp = configparser.ConfigParser()
    cp.optionxform = str  # keep the keys' case
    cp.read(os.path.join(CONFIGS, shipped), encoding="utf-8")
    if not cp.has_section(section):
        cp.add_section(section)
    for k, v in {**others, key: value}.items():
        cp.set(section, k, v)
    path = tmp_path / "bad.ini"
    with open(path, "w", encoding="utf-8") as fh:
        cp.write(fh)
    out = tmp_path / "out"
    assert main([command, str(path), "--out", str(out)]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert f"'{key}'" in lines[0] and f"[{section}]" in lines[0], lines[0]
    for name in ("metrics.csv", "summary.csv", "report.csv"):
        assert not (out / name).exists()
