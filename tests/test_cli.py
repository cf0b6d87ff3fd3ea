import configparser
import csv
import os
import re
import resource
import signal
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from fedcurr import ConfigurationError, cli, theory
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


def read_rows(path):
    """The rows of a CSV output, each a dict from column name to cell."""
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


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


@pytest.mark.parametrize("value", ["0", "-2"])
def test_threads_below_one_exits_2(tmp_path, capsys, value):
    cfg = write(tmp_path / "run.ini", MINIMAL_RUN)
    assert main(["run", cfg, "--out", str(tmp_path / "out"), "--threads", value]) == 2
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert lines == [f"error: --threads must be an integer >= 1, got '{value}'"]
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["abc", "1.5"])
def test_threads_not_an_integer_exits_2(tmp_path, capsys, value):
    cfg = write(tmp_path / "run.ini", MINIMAL_RUN)
    with pytest.raises(SystemExit) as stop:
        main(["run", cfg, "--out", str(tmp_path / "out"), "--threads", value])
    assert stop.value.code == 2
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert lines[-1].endswith(f"argument --threads: invalid int value: '{value}'"), lines
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


def test_lockstepped_shares_match_at_every_thread_count(tmp_path):
    # Six jobs (3 arms x 2 trials) run in lockstep within each process: one
    # share of 6, two of 3, three of 2, and at 4 processes shares of 2, 2,
    # 1 and 1. The outputs are the same bytes at every count.
    text = MINIMAL_RUN.replace("curriculum,vanilla", "curriculum,anti,vanilla")
    cfg = write(tmp_path / "run.ini", text.replace("rounds = 1", "rounds = 3"))
    outs = {}
    for threads in ("1", "2", "3", "4"):
        outs[threads] = tmp_path / threads
        assert main(["run", cfg, "--out", str(outs[threads]), "--threads", threads]) == 0
        assert_no_child_processes()
    assert len(read(outs["1"] / "metrics.csv").splitlines()) == 1 + 6 * 3
    for threads in ("2", "3", "4"):
        for name in ("metrics.csv", "summary.csv"):
            assert read(outs["1"] / name) == read(outs[threads] / name)


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

    def flaky(jobs):
        # The real call's entries, with the errors of jobs 1 and 2 in theirs.
        results = real(jobs)
        for j, (exp, *_) in enumerate(jobs):
            if exp.data_curriculum is not None and exp.seed == 202208:
                results[j] = ConfigurationError("job 1 failed", field="rounds")
            elif exp.data_curriculum is None and exp.seed == 202207:
                results[j] = FloatingPointError("job 2 failed")
        return results

    monkeypatch.setattr(cli, "run_experiment", flaky)
    cfg = write(tmp_path / "run.ini", MINIMAL_RUN)
    errors = []
    for threads in ("1", "2"):
        assert main(["run", cfg, "--out", str(tmp_path / threads), "--threads", threads]) == 1
        assert_no_child_processes()
        errors.append(capfd.readouterr().err)
    assert errors[0] == errors[1] == "error: curriculum arm, seed 202208: job 1 failed\n"


def test_parent_failure_stops_and_reaps_workers(tmp_path, monkeypatch):
    parent = os.getpid()
    real = cli.run_experiment

    def stuck_worker(jobs):
        if os.getpid() != parent:
            time.sleep(60)  # ended by the parent's SIGKILL
        if any(exp.seed == 202207 and exp.data_curriculum is not None for exp, *_ in jobs):
            raise RuntimeError("parent job failed")
        return real(jobs)

    monkeypatch.setattr(cli, "run_experiment", stuck_worker)
    cfg = write(tmp_path / "run.ini", MINIMAL_RUN)
    began = time.monotonic()
    with pytest.raises(RuntimeError, match="parent job failed"):
        main(["run", cfg, "--out", str(tmp_path / "out"), "--threads", "4"])
    assert time.monotonic() - began < 30
    assert_no_child_processes()


def test_killed_worker_ends_in_one_error_line(tmp_path, capfd, monkeypatch):
    # A worker killed for memory gets SIGKILL; the run ends with exit 1 and
    # one line naming the worker and the signal, writes no metrics.csv and
    # reaps every worker.
    parent, real = os.getpid(), cli.run_experiment

    def killed(jobs):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(jobs)

    monkeypatch.setattr(cli, "run_experiment", killed)
    out = tmp_path / "out"
    cfg = write(tmp_path / "run.ini", MINIMAL_RUN)
    assert main(["run", cfg, "--out", str(out), "--threads", "2"]) == 1
    assert_no_child_processes()
    lines = capfd.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    assert re.fullmatch(r"error: job worker \d+ failed \(killed by signal 9\)", lines[0]), lines
    assert not (out / "metrics.csv").exists()


def test_worker_out_of_memory_ends_in_one_error_line(tmp_path, capfd, monkeypatch):
    # Only the worker runs out of memory, with numpy's own error; it sends
    # the error as its share's result, so the run ends with exit 1 and one
    # line, as at --threads 1, writes no metrics.csv and reaps every worker.
    parent, real = os.getpid(), cli.run_experiment

    def short_of_memory(jobs):
        if os.getpid() != parent:
            np.empty(1 << 50)  # 8 PiB: no machine can map it
        return real(jobs)

    monkeypatch.setattr(cli, "run_experiment", short_of_memory)
    out = tmp_path / "out"
    cfg = write(tmp_path / "run.ini", MINIMAL_RUN)
    assert main(["run", cfg, "--out", str(out), "--threads", "2"]) == 1
    assert_no_child_processes()
    lines = capfd.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith("error: Unable to allocate"), lines
    assert not (out / "metrics.csv").exists()


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
        cfg = write(tmp_path / "v.ini", SMALL_VERIFY)
        assert main(["verify", cfg, "--out", str(tmp_path / "out")]) == 0
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
    assert all(row["passed"] == "1" for row in read_rows(out / "report.csv"))


def test_verify_case_name_with_a_comma_is_one_cell(tmp_path):
    # A section name is written as it is; the CSV writer quotes it.
    case = (
        "[a,b]\nkind = nonconvex\ndim = 4\nQ = 4\nT = 3\nJ = 1\nalpha = 0.05\n"
        "sigma = 0.05\ntheta0 = 0.4\nn_runs = 100\nseed = 1\n"
    )
    out = tmp_path / "out"
    assert main(["verify", write(tmp_path / "comma.ini", case), "--out", str(out)]) == 0
    with open(out / "report.csv", encoding="utf-8", newline="") as fh:
        assert [len(row) for row in csv.reader(fh)] == [10, 10]
    [row] = read_rows(out / "report.csv")
    assert row["case"] == "a,b" and row["kind"] == "nonconvex" and row["passed"] == "1"


def test_readme_lists_each_output_header(tmp_path):
    # The README states each output's header verbatim, as one code span.
    out = tmp_path / "out"
    assert main(["run", write(tmp_path / "run.ini", MINIMAL_RUN), "--out", str(out)]) == 0
    assert main(["verify", write(tmp_path / "v.ini", SMALL_VERIFY), "--out", str(out)]) == 0
    with open(os.path.join(os.path.dirname(CONFIGS), "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    for name in ("metrics.csv", "summary.csv", "report.csv"):
        header = read(out / name).decode().splitlines()[0]
        assert f"`{header}`" in readme, (name, header)


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
    cases = [row["case"] for row in read_rows(tmp_path / "swapped" / "report.csv")]
    assert cases == ["tiny_nonconvex", "tiny_convex"]
    assert [header] + rows[::-1] == reports["given"]


def test_verify_empty_grid_exits_2(tmp_path, capsys):
    # A grid of no case checks nothing; it must not pass with an empty report.
    cfg = write(tmp_path / "empty.ini", "# no case\n")
    out = tmp_path / "out"
    assert main(["verify", cfg, "--out", str(out)]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "no case" in lines[0], lines
    assert not out.exists()


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


CONVEX_CASE = "[huge]\nkind = convex\ndim = 4\nmu = 0.5\nL = 4\nM = 1\nQ = 4\nT = 3\nJ = 2\n"
NONCONVEX_CASE = "[huge]\nkind = nonconvex\ndim = 4\nQ = 4\nT = 3\nJ = 2\nalpha = 0.05\n"

# Cases whose bound or empirical mean is not finite: a bias cap whose
# square overflows, a start point whose distance does, and a sigma whose
# square does, convex and nonconvex.
NON_FINITE_CASES = {
    "bias": CONVEX_CASE + "sigma = 0.1\nB_end = 1e160\n",
    "theta0": CONVEX_CASE + "sigma = 0.1\nB_end = 0.5\ntheta0 = 1e160\n",
    "convex_sigma": CONVEX_CASE + "sigma = 1e160\nB_end = 0.5\n",
    "nonconvex_sigma": NONCONVEX_CASE + "sigma = 1e160\n",
}


@pytest.mark.parametrize("text", NON_FINITE_CASES.values(), ids=NON_FINITE_CASES)
def test_verify_case_that_is_not_finite_ends_in_one_error_line(tmp_path, capsys, text):
    # Such a case cannot pass or fail on its numbers: an inf bound passes
    # any mean, and a nan compares false.
    cfg = write(tmp_path / "verify.ini", text + "n_runs = 100\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["verify", cfg, "--out", str(tmp_path / "out")])
    assert code == 1
    assert [str(w.message) for w in caught] == []
    lines = capsys.readouterr().err.strip().splitlines()
    assert lines == ["error: case huge: non-finite bound (inf)"], lines
    assert not (tmp_path / "out" / "report.csv").exists()


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize("text", [CONVEX_CASE + "sigma = 0.1\nB_end = 0.5\n", NONCONVEX_CASE],
                         ids=["convex", "nonconvex"])
def test_verify_case_too_large_for_memory_ends_in_one_error_line(tmp_path, text):
    # 2**62 runs: no array of them can exist, so the case must fail at its
    # first one, and not build anything per run before it. A subprocess
    # under a 2 GiB address-space cap, so that a case that did would stop.
    cfg = write(tmp_path / "verify.ini", text + f"n_runs = {2**62}\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(CONFIGS), "src"),
               OPENBLAS_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-m", "fedcurr.cli", "verify", cfg, "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=2, preexec_fn=_cap_address_space,
    )
    assert done.returncode == 1
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: case huge: "), lines
    assert not (tmp_path / "out" / "report.csv").exists()


def test_out_of_memory_ends_in_one_error_line(tmp_path, capsys, monkeypatch):
    def exhausted(cases, out):
        raise MemoryError("out of memory")

    monkeypatch.setattr(cli, "command_verify", exhausted)
    cfg = write(tmp_path / "v.ini", SMALL_VERIFY)
    assert main(["verify", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: out of memory"]


def test_case_out_of_numpy_memory_names_the_case(tmp_path, capsys, monkeypatch):
    # numpy's MemoryError subclass takes a shape and a dtype, not a message.
    from numpy._core._exceptions import _ArrayMemoryError

    def exhausted(case):
        raise _ArrayMemoryError((2**60,), np.dtype(np.float64))

    monkeypatch.setattr(theory.ConvexCase, "verify", exhausted)
    cfg = write(tmp_path / "v.ini", SMALL_VERIFY)
    assert main(["verify", cfg, "--out", str(tmp_path / "out")]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["error: case tiny_convex: Unable to allocate 8.00 EiB for an array with "
                     "shape (1152921504606846976,) and data type float64"], lines
    assert not (tmp_path / "out" / "report.csv").exists()


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
    assert re.match(
        r"error: [a-z]+ arm, seed \d+: round \d+, client \d+: non-finite parameters", lines[0]
    )


# The example with a linear model at eta0 = 5: its parameters grow large but
# stay finite while its losses overflow. It used to exit 0 with test_loss =
# inf, and its 12-round variant of 12 jobs printed numpy warnings before its
# error line.
OVERFLOWING = {
    "example": (("kind = softmax", "kind = linear"), ("eta0 = 0.01", "eta0 = 5")),
    "rounds12_trials3": (
        ("kind = softmax", "kind = linear"), ("eta0 = 0.01", "eta0 = 5"),
        ("rounds = 5", "rounds = 12"), ("n_trials = 2", "n_trials = 3"),
        ("orderings = curriculum,vanilla", "orderings = curriculum,anti,random,vanilla"),
    ),
}


@pytest.mark.parametrize("edits", OVERFLOWING.values(), ids=OVERFLOWING)
def test_run_whose_losses_overflow_ends_in_one_error_line(tmp_path, edits):
    # A subprocess, so that stderr holds every numpy warning, the forked
    # worker's included.
    with open(os.path.join(CONFIGS, "example_run.ini"), encoding="utf-8") as fh:
        text = fh.read()
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    cfg = write(tmp_path / "overflow.ini", text)
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(CONFIGS), "src"))
    errors = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        done = subprocess.run(
            [sys.executable, "-m", "fedcurr.cli", "run", cfg, "--out", str(out),
             "--threads", threads],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 1
        assert not (out / "metrics.csv").exists()
        errors.append(done.stderr)
    assert errors[0] == errors[1]
    lines = errors[0].splitlines()
    assert len(lines) == 1, lines
    assert re.fullmatch(
        r"error: [a-z]+ arm, seed \d+: round \d+(, client \d+)?: non-finite [a-z ]+", lines[0]
    )


# An expert whose training diverges, and a linear expert whose training
# ends with finite parameters so large that its per-sample losses overflow.
DIVERGING_EXPERTS = {
    "parameters": (
        (("eta0 = 0.01", "eta0 = 1e6"), ("kind = softmax", "kind = mlp\nhidden_dim = 8"),
         ("num_clients = 10", "num_clients = 10\nf_ord = 0.5\nexpert_epochs = 3")),
        r"non-finite parameters after step \d+",
    ),
    "losses": (
        (("eta0 = 0.01", "eta0 = 1e3"), ("kind = softmax", "kind = linear"),
         ("num_clients = 10", "num_clients = 10\nf_ord = 0.5\nexpert_epochs = 1")),
        r"non-finite loss at the expert model",
    ),
}


@pytest.mark.parametrize("edits,pattern", DIVERGING_EXPERTS.values(), ids=DIVERGING_EXPERTS)
def test_diverging_expert_training_ends_in_one_error_line(tmp_path, capsys, edits, pattern):
    with open(os.path.join(CONFIGS, "example_run.ini"), encoding="utf-8") as fh:
        text = fh.read()
    for old, new in edits:
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
    assert re.fullmatch(r"error: expert training: " + pattern, lines[0])
    assert not (tmp_path / "out" / "metrics.csv").exists()


@pytest.mark.parametrize(
    "f_ord,scoring", [(True, "expert"), (False, "expert"), (True, "g_loss"), (False, "g_loss")]
)
def test_trial_trains_and_runs_the_expert_once(tmp_path, monkeypatch, f_ord, scoring):
    # The f_ord reshuffle and expert scoring rank samples by one array: the
    # expert's per-sample losses over the whole dataset, taken once a trial.
    with open(os.path.join(CONFIGS, "example_run.ini"), encoding="utf-8") as fh:
        text = fh.read().replace("scoring = g_loss", f"scoring = {scoring}")
    if f_ord:
        text = text.replace("num_clients = 10", "num_clients = 10\nf_ord = 0.5\nexpert_epochs = 3")
    else:
        text = text.replace("num_clients = 10", "num_clients = 10\nexpert_epochs = 3")
    cfg = parse_run_config(write(tmp_path / "expert.ini", text))
    experts, passes, ranked = [], [], []
    train, losses = cli.train_centralized, cli.per_sample_losses
    reshuffle = cli.partition_difficulty

    def counted_train(*args, **kwargs):
        experts.append(train(*args, **kwargs))
        return experts[-1]

    def counted_losses(model, params, batch):
        passes.append((params, len(batch)))
        return losses(model, params, batch)

    def counted_reshuffle(ds, part, f, scores, seed):
        ranked.append(scores)
        return reshuffle(ds, part, f, scores, seed)

    monkeypatch.setattr(cli, "train_centralized", counted_train)
    monkeypatch.setattr(cli, "per_sample_losses", counted_losses)
    monkeypatch.setattr(cli, "partition_difficulty", counted_reshuffle)
    for trial in range(cfg.n_trials):
        for seen in (experts, passes, ranked):
            seen.clear()
        _, (ds, _, _, expert_losses) = cli._build_trial(cfg, trial)
        if not f_ord and scoring != "expert":
            assert (experts, passes, expert_losses) == ([], [], None)
            continue
        assert len(experts) == 1
        assert len(passes) == 1
        assert passes[0][0] is experts[0] and passes[0][1] == len(ds)
        assert expert_losses.shape == (len(ds),)
        assert len(ranked) == f_ord and all(r is expert_losses for r in ranked)


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


@pytest.mark.parametrize("command", ["run", "verify"])
def test_negative_seed_flag_exits_2(tmp_path, capsys, command):
    shipped = "example_run.ini" if command == "run" else "theory_verify.ini"
    out = tmp_path / "out"
    assert main([command, os.path.join(CONFIGS, shipped), "--out", str(out), "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert lines == ["error: --seed must be an integer >= 0, got '-1'"], lines
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("scoring", ["g_pred", "l_pred", "lg_pred"])
@pytest.mark.parametrize("model", ["kind = linear", "kind = mlp\nhidden_dim = 4"])
@pytest.mark.parametrize("orderings", ["curriculum,vanilla", "vanilla"])
def test_prediction_scoring_with_a_regression_model_exits_2(
    tmp_path, capsys, monkeypatch, scoring, model, orderings
):
    # A regression model has no class to predict: the parser rejects the
    # scoring before any trial is built, even when every arm is vanilla.
    text = (
        MINIMAL_RUN.replace("kind = softmax", model)
        .replace("classes = 2", "classes = 1" if "mlp" in model else "classes = 2")
        .replace("orderings = curriculum,vanilla", f"orderings = {orderings}\nscoring = {scoring}")
    )
    monkeypatch.setattr(cli, "_build_trial", lambda *args: pytest.fail("a trial was built"))
    out = tmp_path / "out"
    assert main(["run", write(tmp_path / "bad.ini", text), "--out", str(out)]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert lines == [
        "error: key 'scoring' in section [data_curriculum]: "
        "prediction-based scoring requires a classifier"
    ], lines
    assert not out.exists()


@pytest.mark.parametrize("key,value", [("alpha", "0.02"), ("alpha", "0.001"), ("sigma", "3")])
def test_shipped_nonconvex_case_passes_at_other_settings(tmp_path, key, value):
    # The stepsize-weighted left side holds for small stepsizes, and G^2
    # with sigma^2 for large noise; either failed on a correct simulator.
    cp = configparser.ConfigParser()
    cp.optionxform = str
    cp.read(os.path.join(CONFIGS, "theory_verify.ini"), encoding="utf-8")
    for section in cp.sections():
        if section != "nonconvex_logcosh":
            cp.remove_section(section)
    cp.set("nonconvex_logcosh", key, value)
    path = tmp_path / "case.ini"
    with open(path, "w", encoding="utf-8") as fh:
        cp.write(fh)
    out = tmp_path / "out"
    assert main(["verify", str(path), "--out", str(out)]) == 0
    assert read_rows(out / "report.csv")[0]["passed"] == "1"


def test_odd_nonconvex_cohort_in_one_dimension_passes(tmp_path, capsys):
    # The nonconvex oracle adds no bias, so it lays out no direction family
    # and an odd cohort needs no second dimension.
    case = "[nc]\nkind = nonconvex\ndim = 1\nQ = 3\nT = 5\nJ = 2\nalpha = 0.05\nsigma = 0.05\n"
    path = write(tmp_path / "nc.ini", case + "n_runs = 100\n")
    assert main(["verify", path, "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out.startswith("PASS nc: ")


@pytest.mark.parametrize("command", ["run", "verify"])
def test_out_that_cannot_be_a_directory_exits_2(tmp_path, capsys, command):
    # A file stands where the directory would go, or in its path: one error
    # line before any work, no traceback.
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    text, out = (MINIMAL_RUN, taken) if command == "run" else (SMALL_VERIFY, taken / "sub")
    cfg = write(tmp_path / "c.ini", text)
    assert main([command, cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    reason = "File exists" if command == "run" else "Not a directory"
    assert captured.err.splitlines() == [f"error: --out '{out}': {reason}"]
    assert captured.out == ""


@pytest.mark.parametrize("command", ["run", "verify"])
def test_output_file_that_cannot_be_written_exits_1(tmp_path, capsys, command):
    # A directory stands where the output file would go.
    text, name = (MINIMAL_RUN, "metrics.csv") if command == "run" else (SMALL_VERIFY, "report.csv")
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    assert main([command, write(tmp_path / "c.ini", text), "--out", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and name in lines[0], lines


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
    # No arm: there would be no job to run.
    ("run", "data_curriculum", "orderings", "", {}),
    ("run", "data_curriculum", "orderings", ",", {}),
    # Keys nothing reads: a typo, and a section the parser does not know.
    ("run", "federation", "participnts", "4", {}),
    ("run", "federaton", "participants", "4", {}),
    ("run", "federation", "participants", "40", {}),
    ("run", "federation", "local_epochs", "0", {}),
    ("run", "federation", "rounds", "-1", {}),
    ("run", "optimizer", "batch_size", "0", {}),
    ("run", "optimizer", "momentum", "1.5", {}),
    ("run", "optimizer", "eta0", "inf", {}),
    # SCAFFOLD's control update divides by the mean rate.
    ("run", "optimizer", "eta0", "0", {"federation.algorithm": "scaffold"}),
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
    # numpy's generators take no negative seed.
    ("run", "run", "seed", "-1", {}),
    ("verify", "convex_client_schedule", "seed", "-1", {}),
    ("verify", "nonconvex_logcosh", "seed", "-1", {}),
    ("verify", "convex_data_schedule", "problem_seed", "-1", {}),
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
    ("run", "data_curriculum", "orderings", "bogus", {}),
    ("run", "client_curriculum", "enabled", "maybe", {}),
    ("run", "partition", "beta", "0", {}),  # the shipped scheme is dirichlet
    ("run", "partition", "f_ord", "1.5", {}),
    ("run", "dataset", "classes", "0", {}),
    ("run", "dataset", "classes", "1", {}),  # the shipped model is softmax
    ("run", "dataset", "dim", "0", {}),
    ("run", "model", "hidden_dim", "0", {"kind": "mlp"}),
    ("run", "federation", "mu_prox", "-1", {}),
    ("run", "optimizer", "decay_b", "-1", {}),
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
    for name, v in {**others, key: value}.items():
        # A name "section.key" sets a key of another section.
        where, _, k = name.rpartition(".")
        if not cp.has_section(where or section):
            cp.add_section(where or section)
        cp.set(where or section, k, v)
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


def bad_configs(tmp_path):
    """Per case, a config that cannot be read as written and the start of
    its one error line. Values are plain text, never interpolated:
    "%(classes)s00" is not 200."""

    def with_n(name, value):
        return write(tmp_path / name, MINIMAL_RUN.replace("n = 120\n", f"n = {value}\n"))

    (tmp_path / "utf16.ini").write_bytes(b"\xff\xfe[dataset]\n")
    (tmp_path / "empty.ini").write_bytes(b"")
    (tmp_path / "folder.ini").mkdir()
    at_n = "error: key 'n' in section [dataset]: cannot parse"
    return {
        "percent": (with_n("percent.ini", "600%"), f"{at_n} '600%'"),
        "interpolation": (with_n("interp.ini", "%(classes)s00"), f"{at_n} '%(classes)s00'"),
        "not-utf8": (tmp_path / "utf16.ini", "error: cannot read config: 'utf-8' codec"),
        "missing": (tmp_path / "missing.ini", "error: cannot read config: "),
        "directory": (tmp_path / "folder.ini", "error: cannot read config: "),
        "empty": (tmp_path / "empty.ini", "error: missing required section [dataset]"),
    }


@pytest.mark.parametrize(
    "case", ["percent", "interpolation", "not-utf8", "missing", "directory", "empty"]
)
def test_config_that_cannot_be_read_as_written_exits_2(tmp_path, capsys, case):
    path, start = bad_configs(tmp_path)[case]
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(start), lines
    assert not out.exists()
