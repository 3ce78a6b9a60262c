"""The two-process parse of a regular file leaves no process or descriptor behind.

parse_applications reads a clean regular file through the block path, the
second half of it in a forked child when the process may fork.  Whether it
returns, falls back to the row loop or raises a hard error, the child is
reaped and its output file closed before it does.  When no child is made or
the child fails, this process reads the second half by the block path too; a
second half that declines sends the file to the row loop, without this
process block-reading that half first.  A FIFO is never opened by the block
path, and the command-line `validate` forks without a DeprecationWarning,
which Python 3.12 gives for a fork in a process that runs threads.
"""

import errno
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from asnqual import ingest
from asnqual.ingest import load_default_registry, parse_applications
from test_ingest_reference import round_lines, row

ROOT = Path(__file__).resolve().parent.parent
REGISTRY = load_default_registry()
MEDIANS = "discipline,sub_discipline,role,kind,m1,m2,m3\n01/A1,,1,B,1,2,3\n"
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children the test forks, with the split allowed on any host and
    for the test's rounds of 2,100 rows."""
    monkeypatch.setattr(ingest, "_forkable", lambda: True)
    monkeypatch.setattr(ingest, "FORK_ROWS", ingest.BLOCK_ROWS)
    pids, fork = [], os.fork

    def recording():
        pid = fork()
        pids.append(pid)  # in the child, to its own copy of the list
        return pid

    monkeypatch.setattr(os, "fork", recording)
    return pids


def write_round(tmp_path, line=None, at=0):
    lines = round_lines()
    if line is not None:
        lines.insert(at, line)
    path = tmp_path / "applications.csv"
    path.write_text("".join(lines), encoding="utf-8")
    return path


def open_fds():
    """This process's open file descriptors, where /proc/self/fd lists them, else None."""
    return set(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


def assert_one_child_reaped(pids, fds):
    """One child forked and reaped, and the descriptors `fds` open before the parse are
    those open after it."""
    assert len(pids) == 1
    with pytest.raises(ChildProcessError):  # reaped, so no longer a child to wait for
        os.waitpid(pids[0], os.WNOHANG)
    assert open_fds() == fds


@pytest.mark.parametrize("line, at", [(None, 0), (row(last='"Rossi, Jr"'), 300),
                                      (row(last='"Rossi, Jr"'), 1900)],
                         ids=["returns", "falls back from the first half", "falls back from the second half"])
def test_no_child_outlives_a_parse(tmp_path, forks, line, at):
    path, fds = write_round(tmp_path, line, at), open_fds()
    table, diagnostics = parse_applications(path, REGISTRY)
    assert len(table) == 2100 + (line is not None) and diagnostics == []
    assert_one_child_reaped(forks, fds)


def test_no_child_outlives_a_hard_error(tmp_path, forks):
    lines = round_lines()
    lines.insert(1900, lines[100])  # file line 1901, a duplicate across the halves
    path = tmp_path / "applications.csv"
    path.write_text("".join(lines), encoding="utf-8")
    fds = open_fds()
    with pytest.raises(ValueError, match="line 1901: duplicate application for Pad99"):
        parse_applications(path, REGISTRY)
    assert_one_child_reaped(forks, fds)


@pytest.mark.parametrize("forkable", [True, False], ids=["split", "one process"])
def test_a_clean_round_is_read_by_the_block_path(tmp_path, monkeypatch, forkable):
    monkeypatch.setattr(ingest, "_forkable", lambda: forkable)
    monkeypatch.setattr(ingest, "FORK_ROWS", ingest.BLOCK_ROWS)
    monkeypatch.setattr(ingest, "_parse_rows", lambda *args: pytest.fail("read by the row loop"))
    table, diagnostics = parse_applications(write_round(tmp_path), REGISTRY)
    assert (len(table), len(table.groups), diagnostics) == (2100, 1, [])
    assert table[-1].applicant_id == "Pad2099|Ada"


def columns(table):
    return table.ids, table.groups, [bytes(b) for b in (table.group_buffer, table.ind_buffer,
                                                        table.qualified_buffer)]


@pytest.mark.parametrize("call", ["fork", "memfd_create"])
def test_a_failed_fork_leaves_the_whole_file_to_the_block_path(tmp_path, monkeypatch, call):
    path = write_round(tmp_path)
    monkeypatch.setattr(ingest, "_forkable", lambda: False)
    alone, _ = parse_applications(path, REGISTRY)
    monkeypatch.setattr(ingest, "_forkable", lambda: True)
    monkeypatch.setattr(ingest, "FORK_ROWS", ingest.BLOCK_ROWS)
    monkeypatch.setattr(ingest, "_parse_rows", lambda *args: pytest.fail("read by the row loop"))

    def fails(*args):
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, call, fails)
    fds = open_fds()
    table, diagnostics = parse_applications(path, REGISTRY)
    assert (columns(table), diagnostics) == (columns(alone), [])
    assert open_fds() == fds


def test_a_failed_child_leaves_its_half_to_this_process(tmp_path, forks, monkeypatch):
    path = write_round(tmp_path)
    with monkeypatch.context() as alone:
        alone.setattr(ingest, "_forkable", lambda: False)
        one_process, _ = parse_applications(path, REGISTRY)

    def fails(blocks):  # only the child sends a payload
        raise OSError("No space left on device")

    monkeypatch.setattr(ingest._Blocks, "payload", fails)
    monkeypatch.setattr(ingest, "_parse_rows", lambda *args: pytest.fail("read by the row loop"))
    fds = open_fds()
    table, diagnostics = parse_applications(path, REGISTRY)
    assert (columns(table), diagnostics) == (columns(one_process), [])
    assert_one_child_reaped(forks, fds)


def test_a_round_under_the_floor_is_not_forked(monkeypatch):
    monkeypatch.setattr(ingest, "_forkable", lambda: True)
    calls = []
    for call in ("fork", "memfd_create"):
        monkeypatch.setattr(os, call, lambda *args, call=call: calls.append(call))
    fds = open_fds()
    with ingest.ForkedChild(lambda out: pytest.fail("worked"), ingest.FORK_ROWS - 1) as child:
        assert child.wait() is None
    assert calls == [] and open_fds() == fds


def test_a_declined_second_half_is_not_read_again_here(tmp_path, forks, monkeypatch):
    path, fds = write_round(tmp_path, row(last='"Rossi, Jr"'), 1900), open_fds()
    reads, read = [], ingest._Blocks.read

    def counted(blocks, handle, start, end):
        reads.append((start, end))  # in the child, to its own copy of the list
        return read(blocks, handle, start, end)

    monkeypatch.setattr(ingest._Blocks, "read", counted)
    table, diagnostics = parse_applications(path, REGISTRY)
    assert (len(table), diagnostics) == (2101, [])
    assert len(reads) == 1  # this process's half; the child's declined, and the row loop read the file
    assert_one_child_reaped(forks, fds)


def round_files(tmp_path):
    write_round(tmp_path)
    (tmp_path / "medians.csv").write_text(MEDIANS, encoding="utf-8")
    return tmp_path / "applications.csv", tmp_path / "medians.csv"


def test_validate_reads_a_fifo(tmp_path):
    applications, medians = round_files(tmp_path)
    fifo = tmp_path / "fifo.csv"
    os.mkfifo(fifo)
    command = [sys.executable, "-m", "asnqual.cli", "validate", "--applications", str(fifo),
               "--medians", str(medians)]
    done = subprocess.Popen(command, env=ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        deadline = time.monotonic() + 60
        while True:  # the write end opens once validate has opened the read end
            try:
                fd = os.open(fifo, os.O_WRONLY | os.O_NONBLOCK)
                break
            except OSError:
                assert done.poll() is None and time.monotonic() < deadline, done.communicate()
                time.sleep(0.01)
        os.set_blocking(fd, True)
        with open(fd, "wb") as pipe:
            pipe.write(applications.read_bytes())
        out, err = done.communicate(timeout=60)
    finally:
        done.kill()  # a validate that opens the FIFO twice waits for a second writer
        done.wait()
    assert (done.returncode, out.decode(), err.decode()) == (0, "ok: 2100 applications, 1 median sets\n", "")


# Counts the forks of a command run as `python -m asnqual.cli` does, and prints
# the count as the last line of stderr; the child leaves by os._exit, so only the
# parent prints.
DRIVER = """
import atexit, os, runpy, sys
forks, fork = [], os.fork
os.fork = lambda: forks.append(1) or fork()
atexit.register(lambda: print(len(forks), file=sys.stderr))
sys.argv = ["asnqual", *sys.argv[1:]]
runpy.run_module("asnqual.cli", run_name="__main__", alter_sys=True)
"""
# A fork floor under the rounds of 2,100 rows, set before DRIVER runs.
LOWER_FLOOR = "from asnqual import ingest\ningest.FORK_ROWS = ingest.BLOCK_ROWS\n"
# Whether this host may fork: ingest._forkable counts the OS threads of /proc/self/task.
MAY_FORK = (hasattr(os, "memfd_create") and os.path.isdir("/proc/self/task") and (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()) >= 2)


def test_the_command_line_forks_without_a_deprecation_warning(tmp_path):
    applications, medians = round_files(tmp_path)
    done = subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning", "-c", LOWER_FLOOR + DRIVER, "validate",
         "--applications", str(applications), "--medians", str(medians)],
        env=ENV, capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stdout) == (0, "ok: 2100 applications, 1 median sets\n"), done.stderr
    assert json.loads(done.stderr) == (1 if MAY_FORK else 0)


GOLDEN = ROOT / "tests" / "golden"
GOLDEN_ROUND = ["--applications", str(GOLDEN / "applications.csv"), "--medians", str(GOLDEN / "medians.csv"),
                "--registry", str(GOLDEN / "registry.csv")]


@pytest.mark.parametrize("command", ["validate", "analyze --format csv", "analyze --format json"])
def test_the_demo_round_is_read_and_written_in_one_process(tmp_path, command):
    # 680 rows, fewer than FORK_ROWS: a fork there costs more than it saves
    args = [*command.split(), *GOLDEN_ROUND]
    if command != "validate":
        args += ["--out", str(tmp_path / "report")]
    done = subprocess.run([sys.executable, "-c", DRIVER, *args], env=ENV, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stderr.splitlines()[-1]) == 0


# 10,000 rows: in the size sweep of ingest.FORK_ROWS neither fork paid there
@pytest.mark.parametrize("rows, forks", [(10_000, 0), (ingest.FORK_ROWS, 1)], ids=["10,000 rows", "the floor"])
def test_only_a_round_at_the_floor_is_read_in_two_processes(tmp_path, rows, forks):
    path = tmp_path / "applications.csv"
    path.write_text("".join(round_lines(rows)), encoding="utf-8")
    (tmp_path / "medians.csv").write_text(MEDIANS, encoding="utf-8")
    done = subprocess.run([sys.executable, "-c", DRIVER, "validate", "--applications", str(path),
                           "--medians", str(tmp_path / "medians.csv")],
                          env=ENV, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, f"ok: {rows} applications, 1 median sets\n")
    assert json.loads(done.stderr) == (forks if MAY_FORK else 0)


# Parses a round and runs `analyze` on it in one process, beside a thread that it
# starts first, and prints the exit code and the number of forks.
THREADED = LOWER_FLOOR + """
import _thread, os, sys, threading, time
from asnqual import cli, ingest
forks, fork = [], os.fork
os.fork = lambda: forks.append(1) or fork()
thread, applications, medians, out = sys.argv[1:]
if thread == "threading.Thread":
    threading.Thread(target=time.sleep, args=(60,), daemon=True).start()
elif thread == "_thread":  # an OS thread that threading does not list
    _thread.start_new_thread(time.sleep, (60,))
ingest.parse_applications(applications)
code = cli.main(["analyze", "--applications", applications, "--medians", medians, "--out", out])
print(code, len(forks))
"""


@pytest.mark.parametrize("thread", [
    "none",
    "threading.Thread",
    pytest.param("_thread", marks=pytest.mark.skipif(
        not os.path.isdir("/proc/self/task"), reason="OS threads are counted in /proc/self/task")),
])
def test_no_fork_beside_another_thread(tmp_path, thread):
    applications, medians = round_files(tmp_path)
    done = subprocess.run(
        [sys.executable, "-c", THREADED, thread, str(applications), str(medians), str(tmp_path / "report")],
        env={**ENV, "OPENBLAS_NUM_THREADS": "1"}, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    code, forks = map(int, done.stdout.split()[-2:])
    alone = MAY_FORK and thread == "none"
    # alone: the parse, analyze's parse and the classified table's writer
    assert (code, forks) == (0, 3 if alone else 0)
