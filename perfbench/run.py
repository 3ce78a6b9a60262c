"""Benchmark of the asnqual command-line pipeline: synth -> validate -> analyze -> emit.

    python3 perfbench/run.py --workload national-300 --seed 0 --seconds 55 --trace 0

Run it from the repository root.  Every command is the real CLI in a fresh
child process, started one at a time (closed loop, one client), so
interpreter start-up and imports are counted.  With --trace 0 the run
repeats the pipeline for --seconds and reports the median wall time of each
command; with --trace 1 it runs the same pipeline untraced and traced, and
reports per-layer metrics from the traced commands' spans.  After timing,
the outputs are checked against a recomputation from the input CSVs.  The
last line of standard output is the result as one JSON object; a record
with the run context, digests and every operation goes to
.bench_build/results/.  See perfbench/README.md for the metric names.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import check
import layers
import workloads

HERE = Path(__file__).resolve().parent
IMPORTTIME_REPEATS = 3
# Untraced repetitions of the pipeline per run at the least, even past --seconds:
# a median needs more than one sample, and one pipeline takes 13-21 s on a 2-vCPU VM.
MIN_CYCLES = 2
# Children are killed past this many seconds after the start, so the run ends in time.
HARD_LIMIT_S = 165.0
COMMANDS = ("synth", "validate", "analyze_csv", "analyze_json")
PIPELINE = ("synth", "validate", "analyze_csv")
OUTPUTS = {"synth": "round", "analyze_csv": "csv", "analyze_json": "json"}


def python(*args: str) -> list[str]:
    return [sys.executable, *args]


class Runner:
    """Runs commands in child processes, one at a time, and records each as an operation."""

    def __init__(self, root: Path, work: Path, deadline: float) -> None:
        self.root, self.work, self.deadline = root, work, deadline
        self.env = dict(os.environ)
        # Byte-code caching on, as a user gets it by default, but kept inside the
        # checkout; the build step fills the cache.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env["PYTHONPYCACHEPREFIX"] = str(root / ".bench_build" / "pycache")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        )
        self.ops: list[dict] = []
        self.peak_rss_kb = 0

    def run(self, kind: str, argv: list[str]) -> dict:
        out, err = self.work / "stdout.txt", self.work / "stderr.txt"
        with open(out, "wb") as so, open(err, "wb") as se:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=so, stderr=se, env=self.env, cwd=self.root)
            timer = threading.Timer(max(1.0, self.deadline - start), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                seconds = time.perf_counter() - start
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        op = {"kind": kind, "argv": argv[1:], "seconds": seconds, "problems": [],
              "stdout": out.read_text(errors="replace"), "stderr": err.read_text(errors="replace")}
        if proc.returncode != 0:
            op["problems"].append(f"exit {proc.returncode}: {op['stderr'][-300:].strip()}")
        self.ops.append(op)
        return op

    def failed(self) -> int:
        return sum(1 for op in self.ops if op["problems"])


class Bench:
    def __init__(self, root: Path, workload: str, seed: int, work: Path, deadline: float) -> None:
        self.work = work
        self.runner = Runner(root, work, deadline)
        self.config = work / "synth_config.json"
        self.synth_seed = workloads.write_config(workload, root, self.config) + seed
        self.first: dict[str, tuple[str, Path]] = {}
        self.spans: list[dict] = []
        self.sample_counts: dict[str, int] = {}

    def build(self) -> None:
        """Byte-compile the package and warm the file cache; neither is timed."""
        for op in (self.runner.run("build", python("-m", "compileall", "-q", "src/asnqual")),
                   self.runner.run("setup", python("-c", "import asnqual.cli"))):
            if op["problems"]:
                raise RuntimeError(f"{op['kind']} failed: {op['problems'][0]}")
        self.runner.ops.clear()
        self.runner.peak_rss_kb = 0

    def setup_time(self) -> float:
        return self.runner.run("setup", python("-c", "import asnqual.cli"))["seconds"]

    def cycle(self, tag: str, commands: tuple[str, ...], traced: bool = False,
              inputs: Path | None = None) -> dict[str, float]:
        """Run the commands once into work/<tag>; returns each command's wall time.

        validate and analyze read the round in `inputs`, or else the one that
        synth wrote into work/<tag>.
        """
        d = self.work / tag
        inputs = inputs or d / "round"
        apps, meds = str(inputs / "applications.csv"), str(inputs / "medians.csv")
        args = {
            "synth": ["synth", "--config", str(self.config), "--seed", str(self.synth_seed),
                      "--out", str(d / "round")],
            "validate": ["validate", "--applications", apps, "--medians", meds],
            "analyze_csv": ["analyze", "--applications", apps, "--medians", meds,
                            "--out", str(d / "csv"), "--format", "csv"],
            "analyze_json": ["analyze", "--applications", apps, "--medians", meds,
                             "--out", str(d / "json"), "--format", "json"],
        }
        times = {}
        for kind in commands:
            if traced:
                spans_path = d / f"spans-{kind}.json"
                launcher = python(str(HERE / "traced_cli.py"), str(spans_path),
                                       str(len(self.spans)), "--")
            else:
                launcher = python("-m", "asnqual.cli")
            op = self.runner.run(kind, launcher + args[kind])
            times[kind] = op["seconds"]
            if traced and spans_path.is_file():
                record = json.loads(spans_path.read_text(encoding="utf-8"))
                self.spans.append({"id": len(self.spans), "cycle": tag, "command": kind, **record})
            if kind in OUTPUTS:
                self._compare(op, OUTPUTS[kind], d / OUTPUTS[kind])
        kept = {path for _, path in self.first.values()}
        for sub in ("round", "csv", "json"):
            if d / sub not in kept:
                shutil.rmtree(d / sub, ignore_errors=True)
        return times

    def _compare(self, op: dict, output: str, out_dir: Path) -> None:
        files = [p for p in out_dir.rglob("*") if p.is_file()] if out_dir.is_dir() else []
        op["digest"] = check.digest(files, out_dir)
        if output not in self.first:
            self.first[output] = (op["digest"], out_dir)
        elif op["digest"] != self.first[output][0]:
            op["problems"].append(f"{output} output differs from the first repetition")

    def verify(self) -> int:
        """Check the first repetition's outputs; returns the input row count."""
        try:
            data = check.Round(self.first["round"][1])
            csv_dir, json_dir = self.first["csv"][1], self.first["json"][1]
            problems = {
                "analyze_csv": check.check_classified(data, csv_dir) + check.check_pairs(data, csv_dir),
                "analyze_json": check.check_tables(csv_dir, json_dir / "report.json"),
            }
        except (IndexError, KeyError, OSError, ValueError) as exc:
            problems = {kind: [f"output check failed: {exc!r}"] for kind in COMMANDS}
            data = None
        for op in self.runner.ops:
            op["problems"] += problems.get(op["kind"], [])[:5]
            if op["kind"] == "validate" and data is not None:
                if not op["stdout"].startswith(f"ok: {data.n} applications"):
                    op["problems"].append(f"validate printed {op['stdout'][:80]!r}")
        return data.n if data is not None else 0


def cycles(seconds: float, minimum: int):
    """Repetition numbers: `minimum` at least, then more while the next fits in `seconds`."""
    start = time.perf_counter()
    done = 0
    while True:
        yield done
        done += 1
        elapsed = time.perf_counter() - start
        if done >= minimum and elapsed + elapsed / done > seconds:
            return


def measure(bench: Bench, seconds: float) -> dict[str, float]:
    """End-to-end metrics: median wall time of each command over its samples.

    Whole pipelines run first, MIN_CYCLES at the least and more while the next
    one fits in `seconds`.  The time left goes to single commands: each time
    the one with the least measured time so far whose median still fits, so
    that the short commands, whose single timings spread most, get more samples.
    """
    start = time.perf_counter()
    samples: dict[str, list[float]] = {k: [] for k in ("setup",) + COMMANDS}
    for cycle in cycles(seconds, MIN_CYCLES):
        samples["setup"].append(bench.setup_time())
        for kind, t in bench.cycle(f"c{cycle}", COMMANDS).items():
            samples[kind].append(t)
    extra = 0
    while True:
        left = seconds - (time.perf_counter() - start)
        fits = [k for k, v in samples.items() if statistics.median(v) < left]
        if not fits:
            break
        kind = min(fits, key=lambda k: sum(samples[k]))
        if kind == "setup":
            samples[kind].append(bench.setup_time())
        else:
            samples[kind].append(bench.cycle(f"e{extra}", (kind,), inputs=bench.first["round"][1])[kind])
        extra += 1
    bench.sample_counts = {k: len(v) for k, v in samples.items()}
    rows = bench.verify()
    m = {f"{k}_s": statistics.median(v) for k, v in samples.items()}
    pipeline = sum(m[f"{k}_s"] for k in PIPELINE)
    return {
        "setup_s": m["setup_s"],
        "synth_s": m["synth_s"],
        "validate_s": m["validate_s"],
        "analyze_csv_s": m["analyze_csv_s"],
        "analyze_json_s": m["analyze_json_s"],
        "pipeline_s": pipeline,
        "pipeline_rows_per_s": rows / pipeline,
        "peak_rss_mb": bench.runner.peak_rss_kb / 1024,
    }


def trace(bench: Bench, seconds: float) -> dict[str, float]:
    """Per-layer metrics: importtime runs, then untraced and traced pipelines in turn."""
    imports = []
    for _ in range(IMPORTTIME_REPEATS):
        op = bench.runner.run("importtime", python("-X", "importtime", "-c", "import asnqual.cli"))
        imports.append(layers.import_times(op["stderr"]))
    plain, traced, per_cycle = [], [], []
    for cycle in cycles(seconds, 1):
        plain.append(sum(bench.cycle(f"u{cycle}", PIPELINE).values()))
        first_span = len(bench.spans)
        times = bench.cycle(f"t{cycle}", COMMANDS, traced=True)
        traced.append(sum(times[k] for k in PIPELINE))
        by_command = {s["command"]: s for s in bench.spans[first_span:]}
        empty = {"spans": [], "calls": {}}
        name, seconds_in = layers.largest_child(by_command.get("analyze_csv", empty)["spans"],
                                                "report.analyze_round")
        print(f"largest child of report.analyze_round: {name} {seconds_in:.3f} s")
        per_cycle.append(layers.layer_metrics(*(by_command.get(k, empty) for k in
                                                ("synth", "analyze_csv", "analyze_json"))))
    bench.verify()
    metrics = {k: statistics.median(x[k] for x in imports) for k in layers.IMPORTS}
    metrics.update({k: statistics.median(x[k] for x in per_cycle) for k in per_cycle[0]})
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return metrics


def context(root: Path) -> dict:
    """Run context, recorded beside the metrics but never gated."""
    def version(name: str) -> str:
        try:
            return metadata.version(name)
        except metadata.PackageNotFoundError:
            return "absent"

    try:
        import tomllib
        deps = len(tomllib.loads((root / "pyproject.toml").read_text())["project"]["dependencies"])
    except (ImportError, OSError, KeyError):
        deps = None
    revision = "unknown"
    if (root / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
            revision = proc.stdout.strip() or revision
        except OSError:
            pass
    return {
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted((root / "src" / "asnqual").rglob("*.py"))),
        "runtime_dependencies": deps,
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "git_revision": revision,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    start = time.perf_counter()
    root = Path.cwd()
    if not (root / "src" / "asnqual" / "cli.py").is_file():
        print(f"error: {root} holds no asnqual source tree (src/asnqual)", file=sys.stderr)
        return 2
    unit = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer")
            for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())[key]}
    results = root / ".bench_build" / "results"
    work = root / ".bench_build" / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(root, args.workload, args.seed, work, start + HARD_LIMIT_S)
        bench.build()
        metrics = (trace if args.trace else measure)(bench, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    runner = bench.runner
    failed, attempted = runner.failed(), len(runner.ops)
    run_context = context(root)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "synth_seed": bench.synth_seed,
        "seconds": args.seconds, "context": run_context, "metrics": metrics,
        "error_rate": failed / attempted, "samples": bench.sample_counts,
        "digests": {name: digest for name, (digest, _) in bench.first.items()},
        "operations": [{k: op[k] for k in ("kind", "argv", "seconds", "problems")} for op in runner.ops],
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if args.trace:
        (results / f"{stem}-spans.json").write_text(json.dumps(bench.spans) + "\n")

    for name, value in metrics.items():
        print(f"{name:32s} {value:>16.6g} {unit.get(name, '')}")
    print(f"{'error_rate':32s} {failed / attempted:>16.6g} failed/attempted ({failed}/{attempted})")
    for op in runner.ops:
        for problem in op["problems"]:
            print(f"FAILED {op['kind']}: {problem}")
    if bench.sample_counts:
        print("samples per median: " + json.dumps(bench.sample_counts))
    print("digests: " + json.dumps(record["digests"]))
    print("context: " + json.dumps(run_context))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit.get(name, "")} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
