"""Run one benchmark workload against the fanram sources of this checkout.

    python3 bench/run.py --workload exact-ladder --seed 1 --seconds 30 --trace 0

Operations go through `fanram.cli.main(argv)` in this process, with stdout
captured, so reports and exit codes are exactly what users get, while the
interpreter start and the import are paid once, in set-up. The last line of
stdout is one JSON object: `correct`, `attempted`, `failed` and `metrics`,
the end-to-end metrics with `--trace 0` and the per-layer ones with
`--trace 1`. See README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(HERE, "_run")
MODULES = ("cli", "search", "patterns", "colorings", "graphs", "graph6", "io", "cache")
SETUPS = 7

sys.path.insert(0, HERE)

from checks import CheckFailed  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402
from workloads import REPLAY_PASSES, WORKLOADS, report_of  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "dfs_nodes": "count",
    "orders_settled": "count",
    "store_s": "s",
    "replay_s": "s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
}


def per_layer_units() -> dict[str, str]:
    units = {
        "search.nodes": "count",
        "search.prune_ratio": "ratio",
        "search.iso_prunes": "count",
        "search.nodes_per_s": "1/s",
        "search.order.calls": "count",
        "search.order.s": "s",
        "search.seed.s": "s",
        "search.extension.calls": "count",
        "search.extension.s": "s",
    }
    for kind in ("clique", "fan", "matching", "other"):
        units[f"patterns.anchored.{kind}.calls"] = "count"
        units[f"patterns.anchored.{kind}.s"] = "s"
        units[f"patterns.anchored.{kind}.hit_ratio"] = "ratio"
    for name in (
        "patterns.contains_target",
        "colorings.check_free",
        "colorings.load_certificate",
        "graphs.validate",
        "graph6.encode",
        "graph6.decode",
        "io.load_coloring",
        "cache.lookup",
    ):
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
    units.update({
        "cache.records_parsed": "count",
        "cache.store.calls": "count",
        "cache.store.s": "s",
        "cache.hit_ratio": "ratio",
        "cli.report_bytes": "bytes",
    })
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


PER_LAYER = per_layer_units()


def drop_fanram() -> None:
    for name in [n for n in sys.modules if n == "fanram" or n.startswith("fanram.")]:
        del sys.modules[name]


def import_fanram() -> dict:
    """A fresh import of the fanram package under src/ of this checkout."""
    drop_fanram()
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    modules = {name: importlib.import_module(f"fanram.{name}") for name in MODULES}
    origin = os.path.dirname(os.path.abspath(modules["cli"].__file__))
    if origin != os.path.join(SRC, "fanram"):
        raise SystemExit(f"error: fanram was imported from {origin}, not from {SRC}")
    return modules


def call(modules: dict, argv: list[str]) -> tuple[int | None, str, str]:
    """(exit code, stdout, stderr) of one CLI operation; the exit code is
    None when an exception escaped `cli.main`."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = modules["cli"].main(argv)
    except Exception as exc:  # noqa: BLE001 - an escaped exception is a failed operation
        return None, out.getvalue(), type(exc).__name__
    return rc, out.getvalue(), err.getvalue()


def setup(workload: str, seed: int, workdir: str):
    """Import fanram, build the inputs and warm up; returns (modules, ops)."""
    modules = import_fanram()
    ops = WORKLOADS[workload](seed, workdir)
    rc, _, err = call(modules, ["ramsey", "--red", "K3", "--blue", "K3", "--lo", "1", "--hi", "8"])
    if rc != 0:
        raise SystemExit(f"error: warm-up operation failed: {err}")
    return modules, ops


# The machine this runs on changes speed by up to a fifth, within fractions
# of a second and over minutes, for reasons outside the process (other
# tenants of the host). An interval timer runs a fixed piece of pure-Python
# work every TICK_S of wall time while the operations run, between their
# bytecodes, and so measures that speed where and when the program ran.
# Times are reported scaled to a machine on which one unit of it takes
# REF_UNIT_S, with the reference's own time taken out of the operation's.
# The reference never calls fanram, so a change to fanram moves the scaled
# times exactly as it moves the raw ones.
REF_UNIT_S = 0.0003
TICK_S = 0.05
WINDOW_S = 1.0


def reference_unit() -> int:
    """Big-integer bit operations, dict inserts and a small JSON dump, the
    mix fanram's operations are made of."""
    x = (1 << 127) - 1
    acc = 0
    table = {}
    for i in range(400):
        y = (x >> (i % 60)) & (x ^ (i * 2654435761))
        acc += y.bit_count()
        table[i] = (i, y & 0xFFFF)
    json.dumps(list(table.values())[:50])
    return acc


class Speed:
    """Reference work done while the operations run: when each tick ran and
    how long its timed units took, by wall clock and by CPU clock.
    `spent_*` is all the time the reference took, to be taken out of the
    operations' times."""

    def __init__(self):
        self.ticks: list[tuple[float, float, float, int]] = []
        self.spent_wall = self.spent_cpu = 0.0

    def sample(self, units: int = 1) -> None:
        # the first unit brings the reference back into the caches the
        # program has just evicted; only the warm ones are timed. The
        # collector is off meanwhile, so the reference never pays for
        # scanning the program's objects and times only itself.
        collecting = gc.isenabled()
        gc.disable()
        try:
            wall0, cpu0 = time.perf_counter(), time.process_time()
            reference_unit()
            wall1, cpu1 = time.perf_counter(), time.process_time()
            for _ in range(units):
                reference_unit()
            wall2, cpu2 = time.perf_counter(), time.process_time()
        finally:
            if collecting:
                gc.enable()
        self.ticks.append((wall0, wall2 - wall1, cpu2 - cpu1, units))
        self.spent_wall += wall2 - wall0
        self.spent_cpu += cpu2 - cpu0

    def _tick(self, signum, frame) -> None:
        try:
            self.sample(2)
        except RecursionError:
            # the tick landed deep in a search at the interpreter's frame
            # limit; skip it rather than raise into the program
            pass

    @contextlib.contextmanager
    def ticking(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scales(self, start: float = float("-inf"), end: float = float("inf")) -> tuple[float, float]:
        """(wall, CPU) slowdown against nominal over the ticks in a window
        of at least WINDOW_S around [start, end], or over all ticks."""
        if end - start < WINDOW_S:
            middle = (start + end) / 2
            start, end = middle - WINDOW_S / 2, middle + WINDOW_S / 2
        times = [t[0] for t in self.ticks]
        chosen = self.ticks[bisect.bisect_left(times, start):bisect.bisect_right(times, end)]
        if len(chosen) < 5:
            chosen = self.ticks
        units = sum(t[3] for t in chosen) * REF_UNIT_S
        return sum(t[1] for t in chosen) / units, sum(t[2] for t in chosen) / units


class Round:
    """One store pass on an empty cache and `replays` replay passes, with the
    wall and CPU time of every operation, each scaled by the machine's speed
    in a window of at least WINDOW_S around it."""

    def __init__(self, modules: dict, ops, cache_path: str, tracer: Tracer | None,
                 replays: int):
        self.outputs: list[tuple] = []
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self.spans: list[tuple[float, float]] = []
        self.traced = tracer is not None
        speed = Speed()
        if os.path.exists(cache_path):
            os.remove(cache_path)
        if tracer is not None:
            tracer.install()
        try:
            with speed.ticking():
                for pass_index in range(1 + replays):
                    for op in ops:
                        self._run(modules, op, cache_path, tracer, speed)
                    if pass_index == 0:
                        self.stored_bytes = _size(cache_path)
        finally:
            if tracer is not None:
                tracer.uninstall()
        if len(speed.ticks) < 5:
            speed.sample(10)
        self.raw_wall_s = sum(self.wall)
        self.wall_scale = speed.scales()[0]
        for i, (start, end) in enumerate(self.spans):
            wall_scale, cpu_scale = speed.scales(start, end)
            self.wall[i] /= wall_scale
            self.cpu[i] /= cpu_scale
        self.replayed_bytes = _size(cache_path)
        self.cache_lines = _lines(cache_path)
        self.attempted = len(self.outputs)
        self.failed = sum(out[0] is None for out in self.outputs)

    def _run(self, modules, op, cache_path, tracer, speed) -> None:
        if tracer is not None:
            tracer.begin_op()
        ref_wall, ref_cpu = speed.spent_wall, speed.spent_cpu
        wall0, cpu0 = time.perf_counter(), time.process_time()
        self.outputs.append(call(modules, op.argv + ["--cache", cache_path]))
        wall1 = time.perf_counter()
        self.spans.append((wall0, wall1))
        self.wall.append(wall1 - wall0 - (speed.spent_wall - ref_wall))
        self.cpu.append(time.process_time() - cpu0 - (speed.spent_cpu - ref_cpu))


def _size(path: str) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def _lines(path: str) -> int:
    if not os.path.exists(path):
        return 0
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip())


def verify(ops, first: Round) -> tuple[int, int, list[str]]:
    """Check the first round; returns (dfs_nodes, orders_settled, problems).
    An operation that raised its `may_raise` exception in both passes is
    failed, not wrong, and is not checked; any other escape is a problem."""
    problems: list[str] = []
    nodes = settled = cacheable = 0
    n = len(ops)
    for start in range(2 * n, len(first.outputs), n):
        if first.outputs[start:start + n] != first.outputs[n:2 * n]:
            problems.append(f"replay pass {start // n} differs from replay pass 1")
    for i, op in enumerate(ops):
        stored, replayed = first.outputs[i], first.outputs[n + i]
        if stored[0] is None or replayed[0] is None:
            raised = {out[2] for out in (stored, replayed) if out[0] is None}
            if stored[0] is None and replayed[0] is None and raised == {op.may_raise}:
                print(f"failed: {op.name}: {op.may_raise}", file=sys.stderr)
            else:
                problems.append(f"{op.name}: {', '.join(sorted(raised))} escaped cli.main")
            continue
        try:
            if replayed != stored:
                raise CheckFailed(f"{op.name}: replayed output differs from the stored one")
            if stored[2]:
                raise CheckFailed(f"{op.name}: unexpected stderr {stored[2]!r}")
            doc = report_of(stored[1], op.name)
            op.check(stored[0], doc)
        except CheckFailed as exc:
            problems.append(str(exc))
            continue
        except (KeyError, TypeError) as exc:
            problems.append(f"{op.name}: malformed report: {exc!r}")
            continue
        if op.search:
            nodes += doc.get("stats", {}).get("nodes", 0)
            settled += doc["status"] in ("exact", "no_value_in_range")
            cacheable += doc["status"] == "exact"
        else:
            cacheable += 1
    if first.cache_lines != cacheable:
        problems.append(f"cache holds {first.cache_lines} records, expected {cacheable}")
    if first.replayed_bytes != first.stored_bytes:
        problems.append("the replay pass wrote to the cache")
    return nodes, settled, problems


def quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(per_round: dict, report_bytes: float, overhead: float) -> dict:
    d = per_round

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    search_s = d.get("search.ramsey_number.s", 0.0) + d.get("search.star_critical.s", 0.0)
    out = {
        "search.nodes": d["search.nodes"],
        "search.prune_ratio": ratio(d["search.prunes"], d["search.nodes"]),
        "search.iso_prunes": d["search.iso_prunes"],
        "search.nodes_per_s": ratio(d["search.nodes"], search_s),
        "cache.hit_ratio": ratio(d.get("cache.lookup.hits", 0), d.get("cache.lookup.calls", 0)),
        "cli.report_bytes": report_bytes,
        "trace.overhead_s": overhead,
    }
    for kind in ("clique", "fan", "matching", "other"):
        name = f"patterns.anchored.{kind}"
        out[f"{name}.hit_ratio"] = ratio(d.get(f"{name}.hits", 0), d.get(f"{name}.calls", 0))
    for name in PER_LAYER:
        if name not in out:
            out[name] = d.get(name, 0)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fanram", "cli.py")):
        print(f"error: no fanram sources under {SRC}", file=sys.stderr)
        return 2

    workdir = os.path.join(RUN_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def op_medians(rounds: list[Round], attr: str, n: int, traced: bool | None = None) -> list[float]:
    """The median time of each of the n operations in the store pass, then of
    each in the replay pass, over the rounds and their replay passes: a
    round's figures are sums and percentiles of these, so a burst of load
    from outside that slows part of one round moves them little."""
    chosen = [getattr(r, attr) for r in rounds if traced is None or r.traced == traced]
    stored = [statistics.median(r[i] for r in chosen) for i in range(n)]
    replayed = [
        statistics.median(r[j] for r in chosen for j in range(n + i, len(r), n))
        for i in range(n)
    ]
    return stored + replayed


def measure(args, workdir: str) -> int:
    # Objects that exist before a set-up or a round are frozen out of the
    # cyclic collector. Most are the benchmark's (networkx, the checks, the
    # operations' descriptions), which a CLI process does not hold; scanning
    # them made each full collection take about 30 ms, landing on whichever
    # short operation was running. The previous set-up's fanram is dropped
    # first, so it is collected rather than frozen.
    setup_times = []
    for _ in range(SETUPS):
        drop_fanram()
        modules = ops = None
        gc.collect()
        gc.freeze()
        start = time.perf_counter()
        modules, ops = setup(args.workload, args.seed, workdir)
        elapsed = time.perf_counter() - start
        speed = Speed()
        for _ in range(25):
            speed.sample(4)
        setup_times.append(elapsed / speed.scales()[0])
    cache_path = os.path.join(workdir, "cache.jsonl")
    gc.collect()
    gc.freeze()

    # with --trace 1, untraced and traced rounds alternate; the untraced ones
    # only give the base for trace.overhead_s
    tracer = Tracer(modules) if args.trace else None
    rounds: list[Round] = []
    first: Round | None = None
    problems: list[str] = []
    measure0 = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        current = Round(modules, ops, cache_path, tracer if traced else None,
                        REPLAY_PASSES[args.workload])
        if first is None:
            first = current
        elif current.outputs != first.outputs:
            problems.append(f"round {len(rounds) + 1} output differs from round 1")
        if current is not first:
            current.outputs = []
        rounds.append(current)
        elapsed = time.perf_counter() - measure0
        enough = len(rounds) >= (2 if tracer else 1)
        if enough and elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
            break

    # the checks below build graphs of their own; they are not the program's
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(
        f"{len(rounds)} rounds; raw wall per round "
        f"{[round(r.raw_wall_s, 3) for r in rounds]}; machine scale "
        f"{[round(r.wall_scale, 3) for r in rounds]}",
        file=sys.stderr,
    )
    nodes, settled, more_problems = verify(ops, first)
    problems = more_problems + problems
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)

    n = len(ops)
    if tracer is None:
        wall = op_medians(rounds, "wall", n)
        values = {
            "wall_s": sum(wall),
            "cpu_s": sum(op_medians(rounds, "cpu", n)),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
            "dfs_nodes": nodes,
            "orders_settled": settled,
            "store_s": sum(wall[:n]),
            "replay_s": sum(wall[n:]),
            "op_p50_ms": 1000 * statistics.median(wall),
            "op_p95_ms": 1000 * quantile(wall, 95),
        }
        units = END_TO_END
    else:
        traced_rounds = sum(r.traced for r in rounds)
        per_round = {k: v / traced_rounds for k, v in tracer.snapshot().items()}
        report_bytes = sum(len(out[1]) for out in first.outputs)
        overhead = (sum(op_medians(rounds, "wall", n, True))
                    - sum(op_medians(rounds, "wall", n, False)))
        values = layer_metrics(per_round, report_bytes, overhead)
        units = PER_LAYER
        tracer.write(os.path.join(RUN_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl"))

    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
