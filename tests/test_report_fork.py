"""The classified table written in a forked child leaves no process or file behind.

`analyze` hands a report.ClassifiedWriter to analyze_round and emit: a child
writes the classified applications table to its in-memory output file while
the analysis goes on, and emit copies its text at the table's turn.  Whether
the command succeeds, raises after the fork, or a child's write fails, the
output is byte for byte that of one process, no child or descriptor outlives
the command, nothing lands under --out before this process writes there, and
no temporary or `*.part` file is left.  The command-line runner runs BLAS in one thread,
runs the atexit handlers and exits without the interpreter's teardown.
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from asnqual import cli, ingest
from asnqual.ingest import load_round
from asnqual.report import ClassifiedWriter, analyze_round, emit

ROOT = Path(__file__).resolve().parent.parent
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
# the parse and the classified table's writer, where the host may fork and counts OS threads
FORKS = 2 if hasattr(os, "memfd_create") and CPUS >= 2 and os.path.isdir("/proc/self/task") else 0
# 3,000 applicants in two groups: three blocks of rows, forked under a floor of one block
CONFIG = {"plans": [{
    "discipline": "01/A1", "n_full": 1500, "n_associate": 1500, "professors": 101,
    "components": [{"family": "lognormal", "params": [1.2, 0.7]},
                   {"family": "gamma", "params": [2.0, 3.0]},
                   {"family": "poisson", "params": [6.0]}],
    "decision": "noisy-threshold", "flip_probability": 0.1,
}]}


@pytest.fixture(scope="module")
def blocks_round(tmp_path_factory):
    directory = tmp_path_factory.mktemp("blocks")
    (directory / "config.json").write_text(json.dumps(CONFIG), encoding="utf-8")
    assert cli.main(["synth", "--config", str(directory / "config.json"), "--seed", "1",
                     "--out", str(directory / "round")]) == 0
    return directory / "round"


def inputs(round_dir):
    return ["--applications", str(round_dir / "applications.csv"), "--medians", str(round_dir / "medians.csv")]


def files(directory):
    return {p.relative_to(directory).as_posix(): p.read_bytes() for p in sorted(directory.rglob("*"))}


@pytest.fixture(scope="module")
def one_process(blocks_round, tmp_path_factory):
    """The output of each format written by this process alone."""
    out = tmp_path_factory.mktemp("one_process")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "_forkable", lambda: False)
        for format in ("csv", "json"):
            assert cli.main(["analyze", *inputs(blocks_round), "--out", str(out / format),
                             "--format", format]) == 0
    return {format: files(out / format) for format in ("csv", "json")}


def open_fds():
    """This process's open file descriptors, where /proc/self/fd lists them, else None."""
    return set(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


def assert_no_child_left(fds):
    """No child left, and the descriptors `fds` open before the write are those open after it."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert open_fds() == fds


@pytest.fixture
def forkable(monkeypatch):
    """A fork allowed on any host, beside this process's threads and for a three-block round."""
    monkeypatch.setattr(ingest, "_forkable", lambda: True)
    monkeypatch.setattr(ingest, "FORK_ROWS", ingest.BLOCK_ROWS)


@pytest.fixture
def dataset(blocks_round):
    return load_round(blocks_round / "applications.csv", blocks_round / "medians.csv")[0]


@pytest.mark.parametrize("format", ["csv", "json"])
def test_the_childs_text_is_that_of_one_process(forkable, dataset, one_process, tmp_path, format):
    fds = open_fds()
    with ClassifiedWriter(format) as writer:
        analyzed = analyze_round(dataset, writer=writer)
        child = writer.child  # held past the block, so that only close() can free its output file
        assert child is not None and writer.table is analyzed.classified
        emit(analyzed, format, tmp_path, writer=writer)
        assert child.pid is None  # reaped at the table's turn
    assert files(tmp_path) == one_process[format]
    assert_no_child_left(fds)


@pytest.mark.parametrize("format", ["csv", "json"])
def test_a_failed_child_leaves_the_table_to_this_process(
    forkable, dataset, one_process, tmp_path, monkeypatch, format
):
    def fails(writer):
        raise OSError("No space left on device")

    monkeypatch.setattr(ClassifiedWriter, "_write_text", fails)
    fds = open_fds()
    with ClassifiedWriter(format) as writer:
        emit(analyze_round(dataset, writer=writer), format, tmp_path, writer=writer)
        assert writer.child.wait() is None
    assert files(tmp_path) == one_process[format]
    assert_no_child_left(fds)


def test_leaving_the_block_early_kills_and_reaps_the_child(forkable, dataset):
    fds = open_fds()
    with pytest.raises(RuntimeError), ClassifiedWriter("json") as writer:
        analyze_round(dataset, writer=writer)
        child = writer.child  # held past the block, so that only close() can free its output file
        raise RuntimeError
    assert writer.child is None and child.pid is None
    assert_no_child_left(fds)


def test_fewer_rows_than_the_floor_are_not_forked(monkeypatch):
    monkeypatch.setattr(ingest, "_forkable", lambda: True)
    assert not ingest.may_fork(ingest.FORK_ROWS - 1) and ingest.may_fork(ingest.FORK_ROWS)


def test_an_unknown_format_is_refused_before_any_fork():
    with pytest.raises(ValueError, match="unknown format 'xml', expected csv or json"):
        ClassifiedWriter("xml")


# Runs the command line as `python -m asnqual.cli` does, counting forks.  MODE
# "raises" makes the write of the table's child (the second fork) to its output
# file fail, and "killed" kills that child at its write; "parse raises" makes
# the parse's child (the first fork) fail its write, so that this process reads
# the second half itself.  At exit it prints the forks, the exit codes of the children
# reaped, whether a child is left, the BLAS thread setting and the number of OS
# threads, where Linux lists them.  The fork floor is lowered to one block.
DRIVER = """
import atexit, json, os, resource, runpy, signal, sys
from asnqual import ingest
ingest.FORK_ROWS = ingest.BLOCK_ROWS
mode = sys.argv.pop(1)
forks, fork = [], os.fork
codes, waitpid = [], os.waitpid

def counted():
    forks.append(1)
    pid = fork()
    if pid == 0 and len(forks) == {"ok": 0, "raises": 2, "killed": 2, "parse raises": 1}[mode]:
        resource.setrlimit(resource.RLIMIT_CORE, (0, 0))
        if mode == "killed":  # Python ignores SIGXFSZ, so that the write raises
            signal.signal(signal.SIGXFSZ, signal.SIG_DFL)
        resource.setrlimit(resource.RLIMIT_FSIZE, (0, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
    return pid

def waited(pid, options):
    reaped, status = waitpid(pid, options)
    codes.append(os.waitstatus_to_exitcode(status))
    return reaped, status

def report():
    try:
        left = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        left = None
    threads = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
    print(json.dumps({"forks": len(forks), "codes": codes, "left": left, "threads": threads,
                      "blas": os.environ.get("OPENBLAS_NUM_THREADS")}), file=sys.stderr)

os.fork, os.waitpid = counted, waited
atexit.register(report)
sys.argv = ["asnqual", *sys.argv[1:]]
runpy.run_module("asnqual.cli", run_name="__main__", alter_sys=True)
"""


def run_cli(tmp_path, mode, *args, env=ENV):
    """The command's process, and what the driver printed at its exit."""
    temp = tmp_path / "tmp"
    temp.mkdir(exist_ok=True)
    done = subprocess.run([sys.executable, "-c", DRIVER, mode, *map(str, args)],
                          env={**env, "TMPDIR": str(temp)}, capture_output=True, text=True, timeout=120)
    end = json.loads(done.stderr.splitlines()[-1])
    assert end["left"] is None  # no child outlives the command
    assert list(temp.iterdir()) == [] and list(tmp_path.rglob("*.part")) == []
    return done, end


@pytest.mark.parametrize("format", ["csv", "json"])
@pytest.mark.parametrize("mode", ["ok", "raises", "killed", "parse raises"])
def test_analyze_writes_the_bytes_of_one_process(blocks_round, one_process, tmp_path, format, mode):
    out = tmp_path / "report"
    done, end = run_cli(tmp_path, mode, "analyze", *inputs(blocks_round), "--out", out,
                        "--format", format)
    assert (done.returncode, done.stdout) == (0, f"wrote {21 if format == 'csv' else 1} file(s) to {out}\n")
    # the parse's child, then the table's: each returned, raised, or died of SIGXFSZ
    assert end["codes"] == {"ok": [0, 0], "raises": [0, 1], "killed": [0, -signal.SIGXFSZ],
                            "parse raises": [1, 0]}[mode][:FORKS]
    assert files(out) == one_process[format]


@pytest.mark.parametrize("format", ["csv", "json"])
def test_a_bin_width_refused_after_the_fork_writes_nothing(blocks_round, tmp_path, format):
    out = tmp_path / "report"
    done, end = run_cli(tmp_path, "ok", "analyze", *inputs(blocks_round), "--out", out,
                        "--format", format, "--bin-width", "1e-6")
    assert done.returncode == 1 and "--bin-width" in done.stderr and "Traceback" not in done.stderr
    assert end["forks"] == FORKS
    assert not out.exists()


@pytest.mark.parametrize("format", ["csv", "json"])
@pytest.mark.parametrize("mode", ["ok", "raises"])
def test_out_naming_a_file_exits_2_after_the_fork(blocks_round, tmp_path, format, mode):
    blocker = tmp_path / "file"
    blocker.write_text("kept\n", encoding="utf-8")
    done, end = run_cli(tmp_path, mode, "analyze", *inputs(blocks_round), "--out", blocker,
                        "--format", format)
    assert done.returncode == 2 and end["forks"] == FORKS
    assert done.stderr.startswith(f"error: cannot write {blocker}/") and "Traceback" not in done.stderr
    assert blocker.read_text(encoding="utf-8") == "kept\n"


@pytest.mark.parametrize("blas", [None, "2"])
def test_the_runner_sets_one_blas_thread_only_where_none_is_set(blocks_round, tmp_path, blas):
    env = {key: value for key, value in ENV.items() if key != "OPENBLAS_NUM_THREADS"}
    done, end = run_cli(tmp_path, "ok", "analyze", *inputs(blocks_round), "--out", tmp_path / "report",
                        env={**env, **({"OPENBLAS_NUM_THREADS": blas} if blas else {})})
    assert done.returncode == 0 and end["blas"] == (blas or "1")
    if end["threads"] is not None and end["threads"] > 1:  # BLAS started a thread: no fork but the parse's
        assert end["forks"] == min(FORKS, 1)
    elif blas is None:
        assert end["forks"] == FORKS


def test_a_failed_flush_of_stdout_exits_120(blocks_round):
    if not os.path.exists("/dev/full"):
        pytest.skip("needs /dev/full")
    env = {key: value for key, value in ENV.items() if key != "PYTHONUNBUFFERED"}
    with open("/dev/full", "w") as full:
        done = subprocess.run([sys.executable, "-m", "asnqual.cli", "validate", *inputs(blocks_round)],
                              env=env, stdout=full, stderr=subprocess.PIPE, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (120, "error: cannot flush <stdout>: [Errno 28] No space left on device\n")


def test_the_console_script_runs_the_runner(blocks_round, tmp_path):
    # what the `asnqual` script that pip writes does: sys.exit(run())
    script = ("import atexit, sys; from asnqual.cli import run\n"
              "atexit.register(lambda: print('atexit ran', file=sys.stderr))\n"
              "sys.argv = ['asnqual', *sys.argv[1:]]\nsys.exit(run())\n")
    out = tmp_path / "report"
    done = subprocess.run([sys.executable, "-c", script, "analyze", *inputs(blocks_round), "--out", str(out)],
                          env=ENV, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, f"wrote 21 file(s) to {out}\n", "atexit ran\n")
