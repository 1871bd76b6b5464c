"""Shared plumbing: paths, pinned data, child processes, statistics.

Everything the benchmark creates lives under ``.perfbench_tmp/`` in the
checkout and is removed when the run ends; detail records go to
``.perfbench_out/``.  Child processes never see ``$REPRO_CACHE_DIR`` or
``PYTHONDONTWRITEBYTECODE``: each run compiles ``src/repro`` into its own
``PYTHONPYCACHEPREFIX`` before timing, because users run with ``.pyc``
files and an inherited ``PYTHONDONTWRITEBYTECODE=1`` would make every
child recompile.
"""

from __future__ import annotations

import compileall
import hashlib
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
DATA = BENCH / "data"
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"
OUT = ROOT / ".perfbench_out"

#: Pinned data files and the manifest that records their digests.
PINNED_FILES = ("pool.json", "expected.json")
MANIFEST = "MANIFEST.json"

#: Pool width of every pooled sweep: the machine this benchmark was
#: written for has two cores, so no workload uses more than two workers.
WORKERS = 2


class BenchError(Exception):
    """A condition under which the run measures nothing (exit code 2):
    no program to measure, pinned data that fails its digest, a child
    that cannot be started."""


# -- digests and canonical bytes --------------------------------------------


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def canonical(obj) -> bytes:
    """Sorted-key, whitespace-free JSON: the daemon's wire form."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def require_program() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program to measure: {SRC / 'repro'} is missing")


def load_pinned() -> tuple[dict, dict]:
    """The pinned program pool and expected answers, digest-checked
    against ``data/MANIFEST.json``."""
    try:
        manifest = json.loads((DATA / MANIFEST).read_text())
        blobs = {name: (DATA / name).read_bytes() for name in PINNED_FILES}
    except (OSError, ValueError) as exc:
        raise BenchError(f"pinned data unreadable: {exc}") from None
    for name, blob in blobs.items():
        if manifest.get(name) != sha256(blob):
            raise BenchError(f"pinned data {name} does not match its digest")
    return json.loads(blobs["pool.json"]), json.loads(blobs["expected.json"])


def write_manifest() -> dict:
    manifest = {
        name: sha256((DATA / name).read_bytes()) for name in PINNED_FILES
    }
    (DATA / MANIFEST).write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    return manifest


# -- seeded choice that does not depend on the interpreter version ----------


class Draw:
    """A seeded stream of choices.  Only ``random.random()`` is used (the
    Mersenne Twister output, stable across Python versions); string seeds
    are hashed with SHA-512 by ``random``, so ``PYTHONHASHSEED`` has no
    effect."""

    def __init__(self, seed: int, stream: str) -> None:
        self._rng = random.Random(f"perfbench:{seed}:{stream}")

    def below(self, n: int) -> int:
        return min(n - 1, int(self._rng.random() * n))

    def pick(self, items):
        return items[self.below(len(items))]

    def shuffled(self, items) -> list:
        out = list(items)
        for i in range(len(out) - 1, 0, -1):
            j = self.below(i + 1)
            out[i], out[j] = out[j], out[i]
        return out

    def sample(self, items, k: int) -> list:
        return self.shuffled(items)[:k]


# -- the run directory and bytecode cache -----------------------------------


class RunDir:
    """A private scratch directory inside the checkout, removed on close."""

    def __init__(self, tag: str) -> None:
        self.path = TMP / f"{tag}-{os.getpid()}-{time.monotonic_ns()}"
        self.path.mkdir(parents=True)
        self._count = 0

    def fresh(self, name: str) -> Path:
        self._count += 1
        path = self.path / f"{name}-{self._count}"
        path.mkdir()
        return path

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            TMP.rmdir()
        except OSError:
            pass  # another run still uses it


def prepare_bytecode(rundir: RunDir) -> tuple[Path, float]:
    """Compile ``src/repro`` into a per-run ``PYTHONPYCACHEPREFIX``, in
    this process, so no child pays compilation and no ``__pycache__``
    lands in the source tree.  Returns the prefix and the seconds spent."""
    prefix = rundir.path / "pycache"
    t0 = time.perf_counter()
    saved = sys.pycache_prefix
    sys.pycache_prefix = str(prefix)
    try:
        ok = compileall.compile_dir(str(SRC / "repro"), quiet=1)
    finally:
        sys.pycache_prefix = saved
    if not ok:
        raise BenchError("src/repro does not compile")
    return prefix, time.perf_counter() - t0


def child_env(prefix: Path) -> dict:
    env = dict(os.environ)
    for name in ("PYTHONDONTWRITEBYTECODE", "REPRO_CACHE_DIR", "PYTHONPATH"):
        env.pop(name, None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(prefix)
    return env


def use_program_in_process(prefix: Path) -> None:
    """Import ``repro`` from the checkout in this process, with the same
    bytecode cache the children use."""
    sys.pycache_prefix = str(prefix)
    sys.dont_write_bytecode = False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# -- child processes ---------------------------------------------------------


class Children:
    """Every process the benchmark starts, so that all of them are reaped
    (and their peak RSS read through ``wait4``) on every exit path."""

    def __init__(self, env: dict, deadline_s: float) -> None:
        self.env = env
        self.live: list[subprocess.Popen] = []
        self.peak_rss_kb = 0
        self._watchdog = threading.Timer(deadline_s, self.terminate_all)
        self._watchdog.daemon = True
        self._watchdog.start()

    def spawn(self, argv: list[str], **kwargs) -> subprocess.Popen:
        kwargs.setdefault("env", self.env)
        try:
            proc = subprocess.Popen(argv, **kwargs)
        except OSError as exc:
            raise BenchError(f"cannot start {argv[0]}: {exc}") from None
        self.live.append(proc)
        return proc

    def reap(self, proc: subprocess.Popen) -> int:
        """Wait for ``proc`` with ``wait4``; records its peak RSS (which
        covers its own reaped children) and returns its exit code."""
        if proc.returncode is None:
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            except ChildProcessError:
                status, usage = 0, None
            proc.returncode = os.waitstatus_to_exitcode(status)
            if usage is not None:
                self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        if proc in self.live:
            self.live.remove(proc)
        for stream in (proc.stdin, proc.stdout, proc.stderr):
            if stream is not None:
                stream.close()
        return proc.returncode

    def terminate_all(self) -> None:
        """Signal every live child (the watchdog's action: whoever is
        blocked reaping a child wakes up)."""
        for proc in list(self.live):
            if proc.returncode is None:
                try:
                    proc.terminate()
                except OSError:
                    pass

    def kill_all(self) -> None:
        self.terminate_all()
        for proc in list(self.live):
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=5)
            self.reap(proc)

    def close(self) -> None:
        self._watchdog.cancel()
        self.kill_all()


def python_argv(*args: str) -> list[str]:
    return [sys.executable, *args]


def exit_on_sigterm() -> None:
    """Turn SIGTERM into SystemExit so ``finally`` blocks clean up."""
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))


# -- statistics ---------------------------------------------------------------


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: list[float]) -> float:
    """The median, or 0.0 for an empty sample (only the smallest
    ``--smoke`` inputs leave a class empty; ``n`` says so)."""
    return statistics.median(values) if values else 0.0


def timing(values_ms: list[float], tail: float | None = None) -> dict:
    """Median plus a named tail of a latency sample, with its count."""
    out = {"n": len(values_ms), "p50_ms": median(values_ms)}
    if tail is not None:
        key = f"p{tail:g}_ms"
        out[key] = percentile(values_ms, tail) if values_ms else 0.0
        out["beyond_tail"] = sum(1 for v in values_ms if v > out[key])
    return out


def geometric_mean(values: list[float]) -> float:
    """Geometric mean of the non-empty (positive) class medians."""
    present = [v for v in values if v > 0]
    return math.exp(sum(math.log(v) for v in present) / len(present))


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


class Context:
    """One run: pinned data, seed, scratch space, children, and the tally
    of checked answers behind ``attempted``/``failed``."""

    def __init__(self, pool, expected, seed, seconds, smoke, rundir,
                 children) -> None:
        self.pool = pool
        self.expected = expected
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.rundir = rundir
        self.children = children
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def write_programs(self, labels) -> Path:
        """A fresh directory holding ``LABEL.dfg`` for each label."""
        directory = self.rundir.fresh("inputs")
        for label in labels:
            (directory / f"{label}.dfg").write_text(
                self.pool["programs"][label]
            )
        return directory
