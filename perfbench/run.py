"""The v2vbeam benchmark: one workload per run, timed end to end or traced per layer.

    python3 perfbench/run.py --workload report|eval|generate --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src`` and
never installed. Each measured operation is one ``v2vbeam`` subcommand in a
fresh interpreter (``child.py``), run one at a time. Operations repeat in
whole rounds until ``--seconds`` have passed; every output is checked
against ``reference.py``. The last line of standard output is a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import spans
from workloads import WORKLOADS, CheckError

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# what the benchmark writes, all under the checkout
WORK = ROOT / ".perfbench-work"
RESULTS = ROOT / ".perfbench-results"
# every run ends well inside the 180 s a run is allowed
DEADLINE_S = 160.0
SETUP_PROBES = 5
# one BLAS thread per process: the load is one process at a time on 2 CPUs,
# and OpenBLAS's spinning threads turn any CPU contention into large delays
BLAS_THREADS = "1"

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "model_top1": "fraction",
    "model_power_ratio_m1": "ratio",
    "baseline_top1": "fraction",
}


class SetupError(Exception):
    """An input the workload needs could not be made; the run has no result."""


@dataclass
class Invocation:
    exit_code: int
    log: Path
    setup_s: float = 0.0
    wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    spans_path: Path | None = None


@dataclass
class Runner:
    """Launches child interpreters one at a time, all ending before the run's deadline."""

    work: Path
    deadline: float
    count: int = 0
    env: dict = field(init=False)

    def __post_init__(self):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        self.env["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
        self.env.pop("BEAM_LOG", None)

    def invoke(self, argv: list[str], mode: str = "run") -> Invocation:
        self.count += 1
        record = self.work / f"call{self.count}.json"
        log = self.work / f"call{self.count}.log"
        cmd = [sys.executable, str(HERE / "child.py"), str(record), mode, f"op{self.count}", "--", *argv]
        with log.open("wb") as out:
            launched = time.monotonic()
            proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT, env=self.env, cwd=ROOT)
            try:
                proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                pass
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if proc.returncode != 0 or not record.exists():
            return Invocation(proc.returncode, log)
        rec = json.loads(record.read_text(encoding="utf-8"))
        traced = Path(f"{record}.spans.json")
        return Invocation(
            exit_code=rec["exit_code"],
            log=log,
            setup_s=rec["start"] - launched,
            wall_s=rec["end"] - rec["start"],
            peak_rss_mb=rec["peak_rss_kb"] / 1024.0,
            spans_path=traced if traced.exists() else None,
        )

    def invoke_checked(self, argv: list[str]) -> Invocation:
        """Run a subcommand that makes inputs; it must succeed."""
        result = self.invoke(argv)
        if result.exit_code != 0:
            tail = result.log.read_text(encoding="utf-8", errors="replace")[-2000:]
            raise SetupError(f"v2vbeam {' '.join(argv)} exited {result.exit_code}:\n{tail}")
        return result


def run_record(workload: str, seed: int, trace: bool) -> dict:
    """Machine, toolchain and commit the result was measured with."""
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the layout of numpy's build info is not a stable API
        blas = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(),
    }


def git_commit() -> str | None:
    """The checkout's commit, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref_name = head[5:]
        loose = git / ref_name
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref_name):
                return line.split()[0]
    except OSError:
        pass
    return None


def digest(out: Path) -> str:
    """SHA-256 over the names and bytes of every file under ``out``."""
    h = hashlib.sha256()
    for path in sorted(out.rglob("*")):
        if path.is_file():
            h.update(path.relative_to(out).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def check_outputs(wl, out: Path, reference):
    """Check the first outputs against the reference computations in full.

    Every operation of a run has the same inputs, and the program promises
    byte-identical outputs for identical inputs, so later outputs must match
    the first ones byte for byte. Returns (digest, quality figures).
    """
    found = digest(out)
    if reference is None:
        return found, wl.check(out)
    if found != reference[0]:
        raise CheckError("outputs differ from the first operation's, from the same inputs")
    return reference


def measure(workload_cls, seed: int, seconds: float, trace: bool, work: Path) -> tuple[dict, dict]:
    started = time.monotonic()
    runner = Runner(work, started + DEADLINE_S)
    wl = workload_cls(seed, work)
    wl.prepare(runner.invoke_checked)

    setups = [runner.invoke(wl.argv(work / "probe"), "setup") for _ in range(SETUP_PROBES)]
    if any(s.exit_code != 0 for s in setups):
        raise SetupError("a setup probe failed")

    attempted = failed = 0
    correct = True
    measured: list[Invocation] = []
    untraced: list[Invocation] = []
    reference = None
    last_out = None
    loop_start = time.monotonic()
    while True:
        k = attempted
        out = work / f"out{k}"
        out.mkdir()
        # a traced run first measures one untraced operation, to give the overhead
        mode = "trace" if trace and k > 0 else "run"
        op_start = time.monotonic()
        inv = runner.invoke(wl.argv(out), mode)
        attempted += 1
        if inv.exit_code != 0:
            failed += 1
            print(f"operation {k}: exit {inv.exit_code}", file=sys.stderr)
        else:
            try:
                reference = check_outputs(wl, out, reference)
            except CheckError as exc:
                failed += 1
                correct = False
                print(f"operation {k}: check failed: {exc}", file=sys.stderr)
            else:
                (untraced if trace and mode == "run" else measured).append(inv)
                if last_out is not None:
                    shutil.rmtree(last_out, ignore_errors=True)
                last_out = out
        now = time.monotonic()
        if (now - loop_start >= seconds and (not trace or k >= 1)) or now + 2 * (now - op_start) > runner.deadline:
            break
    if not measured or (trace and not untraced):
        raise SetupError("no operation succeeded")

    extra = {"attempted": attempted, "failed": failed, "correct": correct, "invocations": runner.count, "seconds": time.monotonic() - started}
    if trace:
        per_op = []
        for inv in measured:
            trace_spans = spans.load_spans(inv.spans_path)
            root = next(i for i, s in enumerate(trace_spans) if s[0] == f"cli.{wl.name}" and s[3] == -1)
            m = spans.layer_metrics(trace_spans, root)
            m["trace.overhead_s"] = inv.wall_s - untraced[0].wall_s
            per_op.append(m)
        metrics = {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}
        metrics.update(spans.step_counts())
    else:
        metrics = {
            "setup_s": statistics.median([s.setup_s for s in setups] + [inv.setup_s for inv in measured]),
            "wall_s": statistics.median(inv.wall_s for inv in measured),
            "peak_rss_mb": max(inv.peak_rss_mb for inv in measured),
            **wl.finish(runner.invoke_checked, last_out, reference[1]),
        }
    extra["wall_s_per_operation"] = [inv.wall_s for inv in measured]
    extra["setup_s_per_launch"] = [s.setup_s for s in setups] + [inv.setup_s for inv in measured]
    if getattr(wl, "fallbacks", None) is not None:
        extra["reference_fallbacks"] = wl.fallbacks
    return metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM unwind normally, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "v2vbeam" / "cli.py").is_file():
        print(f"error: program source not found under {SRC}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        metrics, extra = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work)
    except (SetupError, CheckError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = END_TO_END_UNITS if not args.trace else spans.PER_LAYER_UNITS
    result = {
        "correct": extra.pop("correct"),
        "attempted": extra["attempted"],
        "failed": extra["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {**run_record(args.workload, args.seed, bool(args.trace)), **extra, "result": result}
    RESULTS.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (RESULTS / f"{args.workload}-s{args.seed}-t{args.trace}-{stamp}-{os.getpid()}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )
    print("run record: " + json.dumps({k: v for k, v in record.items() if k != "result"}))
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
