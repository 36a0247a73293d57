"""Benchmark of the sumprod CLI on seeded workloads.

    python3 bench/run.py --workload classify-mix --seed 1 --seconds 30 --trace 0

Drives the four subcommands in-process through `sumprod.cli.main(argv)`, one
client in a closed loop: the items of a workload run one after another in a
seeded order, and passes over them repeat until `--seconds` have gone by.
The first pass checks every output against the independent oracle in
`oracle.py`; later passes must reproduce the first pass's output digests
byte for byte. With `--trace 1` the first pass runs untraced and the rest
run under `tracer.Tracer`, and the per-layer metrics are reported instead of
the end-to-end ones.

The last line of stdout is the result as one JSON object. The line before
it holds the context: Python version, CPU count, commit, seed, src line
count and the digest of the workload's outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from functools import partial
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"

import metrics  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

ARTIFACTS = ("records.csv", "summary.json", "histogram.csv")
ITEM_BUDGET_S = 30.0  # wall budget of one CLI call; the slowest takes about 2 s
RUN_DEADLINE_S = 150.0  # items not started by then count as failed
SETUP_PROBES = 9

# Seconds a reference chunk takes at the nominal machine speed. Every time
# reported is scaled by REF_SECONDS / (mean reference chunk measured around
# it): the hosts this runs on change speed by tens of percent within minutes,
# and the chunk, which touches no sumprod code, slows down with them.
REF_SECONDS = 0.01
_REF_POLY = {(1, 0): Fraction(1, 3), (0, 1): Fraction(2, 5), (0, 0): Fraction(7), (2, 1): Fraction(-3, 4)}


class ItemBudgetExceeded(BaseException):
    """Raised by the interval timer; a BaseException so that no handler in
    the program under test can absorb it."""


def _on_alarm(signum, frame):
    raise ItemBudgetExceeded()


@contextlib.contextmanager
def wall_budget(seconds: float):
    """Raise ItemBudgetExceeded in the body once `seconds` have passed."""
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def load_cli():
    """sumprod.cli.main from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import sumprod.cli

    if not Path(sumprod.cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"sumprod imported from {sumprod.cli.__file__}, not from {SRC}")
    return sumprod.cli.main


def reference_chunk() -> float:
    """Wall time of a fixed dict-and-Fraction computation, independent of sumprod."""
    t0 = perf_counter()
    for _ in range(3):
        oracle.power(_REF_POLY, 7)
    return perf_counter() - t0


# ---------------------------------------------------------------------------
# one pass


@dataclass
class ItemResult:
    seconds: float
    rc: int | None
    digest: str = ""
    error: str = ""
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.rc != 0 or bool(self.error) or bool(self.problems)


def run_item(call, item: workloads.Item, outdir: Path) -> tuple[ItemResult, workloads.Output | None]:
    shutil.rmtree(outdir, ignore_errors=True)
    argv = [item.cmd, *item.args, "--json"]
    if item.writes_artifacts:
        argv += ["--out", str(outdir)]
    stdout, stderr = io.StringIO(), io.StringIO()
    rc, error = None, ""
    t0 = perf_counter()
    try:
        with wall_budget(ITEM_BUDGET_S), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = call(argv)
    except ItemBudgetExceeded:
        error = f"over the {ITEM_BUDGET_S:g} s item budget"
    except Exception as exc:  # a crash of one call must not end the run
        error = f"{type(exc).__name__}: {exc}"
    seconds = perf_counter() - t0
    if rc != 0 or error:
        return ItemResult(seconds, rc, error=error or stderr.getvalue().strip()[:200]), None
    files = {}
    for name in ARTIFACTS:
        path = outdir / name
        if path.exists():
            files[name] = path.read_text()
    out = workloads.Output(rc, stdout.getvalue().replace(str(outdir), "<out>"), files)
    h = hashlib.sha256(out.stdout.encode())
    for name in sorted(files):
        h.update(f"\0{name}\0{files[name]}".encode())
    return ItemResult(seconds, rc, digest=h.hexdigest()), out


@dataclass
class PassResult:
    wall_s: float  # measured, without checks and reference chunks
    items: list[ItemResult]
    refs: list[float]  # refs[i] is the reference chunk timed right after item i

    @property
    def speed(self) -> float:
        """Mean reference chunk over REF_SECONDS; 1 at nominal speed."""
        return statistics.mean(self.refs) / REF_SECONDS

    def local_speed(self, i: int) -> float:
        """Speed factor from the five chunks nearest to item i; the host's
        slow spells last seconds, shorter than a pass."""
        return statistics.mean(self.refs[max(i - 2, 0) : i + 3]) / REF_SECONDS

    @property
    def nominal_wall_s(self) -> float:
        return self.wall_s / self.speed


def run_pass(call, items, outdir: Path, reference: PassResult | None, deadline: float) -> PassResult:
    """One pass; checks outputs when there is no reference pass yet.

    A reference chunk runs after every item, so that the pass's speed factor
    samples the machine at the same moments as the items.
    """
    results = []
    refs = []
    check_s = 0.0
    t0 = perf_counter()
    for idx, item in enumerate(items):
        if perf_counter() > deadline:
            res, out = ItemResult(0.0, None, error="not started before the run deadline"), None
        else:
            res, out = run_item(call, item, outdir)
        if out is not None:
            c0 = perf_counter()
            if reference is None:
                try:
                    res.problems = item.check(out)
                except (KeyError, IndexError, TypeError, ValueError) as exc:
                    res.problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
            elif reference.items[idx].digest and res.digest != reference.items[idx].digest:
                res.problems = ["outputs differ from the first pass"]
            check_s += perf_counter() - c0
        results.append(res)
        refs.append(reference_chunk())
    wall = perf_counter() - t0 - check_s - sum(refs)
    return PassResult(wall, results, refs)


def command_seconds(passes: list[PassResult], items, cmd: str) -> float:
    """Summed time of the `cmd` calls of a pass, each call taken at its median
    over the passes, at the nominal speed around it. Per-call medians keep a
    slow spell that hits a different short call in each pass out of the sum."""
    return sum(
        statistics.median(p.items[i].seconds / p.local_speed(i) for p in passes)
        for i, it in enumerate(items)
        if it.cmd == cmd
    )


# ---------------------------------------------------------------------------
# context


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "sumprod").glob("*.py")))


def measure_setup(name: str, seed: int) -> tuple[float, float]:
    """Median wall time of fresh interpreters that import sumprod and build the
    inputs, at nominal speed, and the speed factor it was scaled by."""
    code = (
        f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(BENCH)!r}]; "
        f"import sumprod.cli, workloads; workloads.build({name!r}, {seed})"
    )
    times, refs = [], []
    for _ in range(SETUP_PROBES):
        refs.append(reference_chunk())
        t0 = perf_counter()
        # no timeout= here: with one, the wait polls and rounds up by up to 50 ms
        with wall_budget(60):
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)
        times.append(perf_counter() - t0)
        refs.append(reference_chunk())
    speed = statistics.mean(refs) / REF_SECONDS
    return statistics.median(times) / speed, speed


# ---------------------------------------------------------------------------


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="how long passes keep starting")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="also write context and result to this JSON file")
    return p.parse_args(argv)


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> tuple[dict, dict]:
    """Measure one workload; returns (result, context)."""
    started = perf_counter()
    call = load_cli()
    items = workloads.build(name, seed, tiny)
    WORK.mkdir(exist_ok=True)
    outdir = WORK / f"{name}-{seed}-{os.getpid()}"
    deadline = started + RUN_DEADLINE_S
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    tracer = None
    try:
        setup_s, setup_speed = (None, None) if trace else measure_setup(name, seed)
        t0 = perf_counter()
        first = run_pass(call, items, outdir, None, deadline)
        passes = [first]
        if trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            passes = []
            call = partial(tracer.call, call)
        while not passes or perf_counter() - t0 < seconds:
            passes.append(run_pass(call, items, outdir, first, deadline))
    finally:
        if tracer is not None:
            tracer.uninstall()
        signal.signal(signal.SIGALRM, previous)
        shutil.rmtree(outdir, ignore_errors=True)

    every = [first, *passes] if trace else passes
    attempted = sum(len(p.items) for p in every)
    failed = sum(r.failed for p in every for r in p.items)
    result = {
        "correct": not any(r.problems for p in every for r in p.items),
        "attempted": attempted,
        "failed": failed,
    }
    digest = hashlib.sha256("".join(r.digest for r in first.items).encode()).hexdigest()
    context = {
        "workload": name,
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "src_lines": src_lines(),
        "passes": len(passes),
        "pass_walls_s": [round(p.wall_s, 3) for p in every],
        "pass_speeds": [round(p.speed, 3) for p in every],
        "items_per_pass": len(items),
        "output_digest": digest,
        "failures": sorted({
            f"{it.label()}: {r.error or '; '.join(r.problems) or f'exit {r.rc}'}"
            for p in every for it, r in zip(items, p.items) if r.failed
        }),
    }
    if trace:
        from tracer import layer_metrics

        traced_wall = statistics.median(p.nominal_wall_s for p in passes)
        classify_items = sum(it.cmd == "classify" for it in items) * len(passes)
        speed = statistics.mean(p.speed for p in passes)
        values = {
            k: v / speed if k.endswith("self_s") else v
            for k, v in layer_metrics(tracer, len(passes), classify_items).items()
        }
        values["trace.wall_s"] = traced_wall
        values["trace.overhead_s"] = traced_wall - first.nominal_wall_s
        specs = metrics.PER_LAYER
        trace_file = WORK / f"trace-{name}.jsonl"  # one per workload, so repeated runs do not pile up
        tracer.write(trace_file)
        context["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(p.nominal_wall_s for p in passes),
            **{
                f"{cmd}_s": command_seconds(passes, items, cmd)
                for cmd in workloads.COMMANDS
            },
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_ratio": 1 - failed / attempted,
        }
        specs = metrics.END_TO_END
        context["setup_speed"] = round(setup_speed, 3)
    result["metrics"] = {m.name: {"value": values.get(m.name, 0), "unit": m.unit} for m in specs}
    return result, context


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result, context = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"cannot import sumprod from {SRC}: {exc}", file=sys.stderr)
        return 2
    for m, v in result["metrics"].items():
        print(f"{m:42s} {v['value']:>16.6f} {v['unit']}")
    for line in context["failures"]:
        print(f"failed: {line}")
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    if args.out:
        Path(args.out).write_text(json.dumps({"context": context, **result}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
