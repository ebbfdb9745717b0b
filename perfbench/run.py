"""Outside-in benchmark of the fracsteer CLI.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every measured run starts ``python -m fracsteer.cli`` (with ``src`` on
the path) in a fresh child process on a config generated from the seed,
one child at a time, writing its CSV into a temporary directory under
``.perfbench/``.  Each run's output is checked.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` is the median
of three fresh set-up probes (interpreter start, ``import fracsteer.cli``
and ``parse_config``), then CLI runs repeat until ``--seconds`` have
passed (at least one), and ``wall_s``, ``cpu_s`` and ``peak_rss_mb`` are
medians over them.  ``--trace 1`` alternates untraced and traced runs
(``traced_cli.py``) for ``--seconds`` and reports the per-layer metrics
of ``layers.py``.  The last line of standard output is one JSON object;
the lines before it give the sample counts, the error rate and the
environment.  Exit status 2 means the benchmark could not run at all.
"""

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")

SETUP_PROBES = 3
# a run must end within 180 s; stop starting children past this budget
BUDGET_S = 165.0

sys.path.insert(0, SRC)

from layers import COUNTS, COVERAGE_GATE, UNITS, aggregate  # noqa: E402
from workloads import WORKLOADS, check_output  # noqa: E402


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout()


@dataclass
class Child:
    wall: float
    cpu: float
    rss_mb: float
    problems: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.problems)


class Bench:
    def __init__(self, workload, seed, work_dir, deadline):
        self.workload = workload
        self.seed = seed
        self.work = work_dir
        self.deadline = deadline
        self.config_path = os.path.join(work_dir, "workload.cfg")
        text = workload.config_text(seed)
        with open(self.config_path, "w") as f:
            f.write(text)
        from fracsteer import config as configmod
        self.config = configmod.parse_config(text)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
        self.serial = 0

    def _spawn(self, argv, tag):
        """Run one child to completion; (Child, stdout text)."""
        self.serial += 1
        log = os.path.join(self.work, f"{self.serial:03d}-{tag}")
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, log + ".out", os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, log + ".err", os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        ]
        remaining = self.deadline - time.perf_counter()
        if remaining <= 1.0:
            return Child(0.0, 0.0, 0.0, ["no time left in the run budget"]), ""
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *argv], self.env,
                             file_actions=actions)
        signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, remaining)
        try:
            _, status, usage = os.wait4(pid, 0)
        except _Timeout:
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
            return Child(time.perf_counter() - start, 0.0, 0.0,
                         ["killed: the run budget ran out"]), ""
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - start
        code = os.waitstatus_to_exitcode(status)
        child = Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)
        if code != 0:
            with open(log + ".err") as f:
                tail = f.read()[-400:].strip()
            child.problems.append(f"exit status {code}: {tail}")
        with open(log + ".out") as f:
            return child, f.read()

    def setup_probe(self):
        start = time.perf_counter()
        child, out = self._spawn([os.path.join(HERE, "setup_probe.py"), self.config_path],
                                 "setup")
        if not child.failed:
            child.wall = float(out.strip()) - start
        return child

    def cli_run(self, traced=False):
        """One checked CLI run; the Child plus its trace record if traced."""
        out_dir = os.path.join(self.work, f"out-{self.serial + 1:03d}")
        os.makedirs(out_dir)
        cli = ["--config", self.config_path, "--out", out_dir, self.workload.command]
        trace_path = os.path.join(self.work, f"trace-{self.serial + 1:03d}.json")
        if traced:
            argv = [os.path.join(HERE, "traced_cli.py"), trace_path, *cli]
        else:
            argv = ["-m", "fracsteer.cli", *cli]
        child, _ = self._spawn(argv, "traced" if traced else "cli")
        if not child.problems:
            try:
                child.problems = check_output(self.workload, self.seed, self.config,
                                              os.path.join(out_dir, self.workload.csv))
            except (ValueError, IndexError, KeyError) as exc:
                child.problems = [f"malformed {self.workload.csv}: {exc!r}"]
        shutil.rmtree(out_dir)
        record = None
        if traced and not child.failed:
            with open(trace_path) as f:
                record = json.load(f)
        return child, record

    def repeat(self, seconds, once):
        """Call ``once`` until ``seconds`` have passed (at least once),
        never starting a call that would likely overrun the run budget."""
        results, start, last = [], time.perf_counter(), 0.0
        while not results or time.perf_counter() - start < seconds:
            begin = time.perf_counter()
            if begin + last > self.deadline:
                break
            results.append(once())
            last = time.perf_counter() - begin
        return results


def code_digest() -> str:
    """sha256 over the library sources and the benchmark's own code."""
    h = hashlib.sha256()
    for top in (os.path.join(SRC, "fracsteer"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if name.endswith((".py", ".pyx", ".cfg", ".json")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()


def check_repeat_counts(workload, seed, counts) -> list:
    """Compare per-layer counts with an earlier traced run of the same
    code and seed in this checkout, or record them for the next one."""
    os.makedirs(os.path.join(STATE, "counts"), exist_ok=True)
    path = os.path.join(STATE, "counts", f"{workload}-{seed}-{code_digest()[:16]}.json")
    if os.path.exists(path):
        with open(path) as f:
            earlier = json.load(f)
        if earlier != counts:
            diff = {k: (earlier.get(k), v) for k, v in counts.items() if earlier.get(k) != v}
            return [f"per-layer counts differ from an earlier traced run: {diff}"]
        return []
    with open(path, "w") as f:
        json.dump(counts, f, indent=1, sort_keys=True)
    return []


def _read(path):
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return ""


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, if it is one."""
    import numpy  # noqa: F401  (loads the BLAS library)

    libs = {line.split()[-1] for line in _read("/proc/self/maps").splitlines()
            if "openblas" in line.lower() and line.split()[-1].startswith("/")}
    for lib in sorted(libs):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def environment() -> dict:
    import fracsteer

    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        level = _read(os.path.join(base, index, "level")).strip()
        if level in ("2", "3"):
            caches[f"L{level}"] = _read(os.path.join(base, index, "size")).strip()
    model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor() or "unknown")
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "mpmath": metadata.version("mpmath"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l2_cache": caches.get("L2", "unknown"),
        "l3_cache": caches.get("L3", "unknown"),
        "blas_threads": _blas_threads(),
        "fracsteer_backend": fracsteer.BACKEND_NAME,
    }


def _summary(name, values, unit):
    def fmt(x):
        return str(x) if isinstance(x, int) else f"{x:.6g}"
    return (f"{name}: median {fmt(statistics.median(values))} {unit} over {len(values)} "
            f"samples (min {fmt(min(values))}, max {fmt(max(values))})")


def end_to_end(bench, seconds):
    probes = [bench.setup_probe() for _ in range(SETUP_PROBES)]
    runs = [child for child, _ in bench.repeat(seconds, bench.cli_run)]
    ok_probes = [p.wall for p in probes if not p.failed] or [0.0]
    samples = {
        "wall_s": ([r.wall for r in runs], "s"),
        "setup_s": (ok_probes, "s"),
        "cpu_s": ([r.cpu for r in runs], "s"),
        "peak_rss_mb": ([r.rss_mb for r in runs], "MB"),
    }
    lines = [_summary(name, values, unit) for name, (values, unit) in samples.items()]
    metrics = {name: {"value": statistics.median(values), "unit": unit}
               for name, (values, unit) in samples.items()}
    return probes + runs, metrics, lines


def per_layer(bench, seconds):
    def pair():
        return bench.cli_run(traced=False)[0], *bench.cli_run(traced=True)

    pairs = bench.repeat(seconds, pair)
    plain = [p for p, _, _ in pairs]
    traced = [(child, record) for _, child, record in pairs]
    layer_runs = []
    for child, record in traced:
        if record is None:
            continue
        values = aggregate(record, child.wall)
        if values["trace.coverage"] < COVERAGE_GATE:
            child.problems.append(
                f"trace coverage {values['trace.coverage']:.3f} < {COVERAGE_GATE}")
        layer_runs.append(values)
    if layer_runs:
        counts = [{k: v[k] for k in COUNTS} for v in layer_runs]
        if any(c != counts[0] for c in counts):
            traced[-1][0].problems.append(f"per-layer counts differ within the run: {counts}")
        else:
            traced[-1][0].problems += check_repeat_counts(bench.workload.name, bench.seed,
                                                          counts[0])
    children = plain + [child for child, _ in traced]
    metrics, lines = {}, []
    for name, unit in UNITS.items():
        if name == "trace.overhead_frac":
            value = (statistics.median(c.wall for c, _ in traced)
                     / statistics.median(c.wall for c in plain) - 1.0)
            lines.append(f"{name}: {value:.6g} ({len(traced)} traced, {len(plain)} untraced runs)")
        else:
            # median_low keeps counts whole: they repeat exactly anyway
            values = [v[name] for v in layer_runs] or [0]
            value = statistics.median_low(values)
            lines.append(_summary(name, values, unit))
        metrics[name] = {"value": value, "unit": unit}
    return children, metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + BUDGET_S
    if not os.path.isfile(os.path.join(SRC, "fracsteer", "cli.py")):
        print(f"perfbench: no fracsteer sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    os.makedirs(STATE, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=STATE)
    try:
        bench = Bench(workload, args.seed, work, deadline)
        env = environment()
        measure = per_layer if args.trace else end_to_end
        children, metrics, lines = measure(bench, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = [c for c in children if c.failed]
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{workload.command} on alpha={workload.alpha} truncation={workload.truncation} "
          f"n_steps={workload.n_steps}, config sha256 {bench.config.digest()[:16]}")
    print("env " + json.dumps(env, sort_keys=True))
    for line in lines:
        print(line)
    print(f"error_rate: {len(failed)}/{len(children)} runs failed")
    for child in failed:
        print(f"FAILED: {'; '.join(child.problems)}", file=sys.stderr)
    print(json.dumps({"correct": not failed, "attempted": len(children),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
