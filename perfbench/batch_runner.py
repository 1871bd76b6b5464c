"""Pooled sweep runner of the batch-sweep workload (run as a script).

    python perfbench/batch_runner.py SPECS.json WORKERS

Importing ``repro.cli`` at module level matches ``python -m repro``:
spawned pool workers re-run this file as ``__mp_main__``, so each pays
the same start-up as a ``repro batch`` worker.  Nothing else is imported
at module level for the same reason.

After printing ``{"ready": true}`` it reads one JSON command per stdin
line -- ``{"cmd": "sweep", "kind": "suite"|"corpus", "trace": bool}`` or
``{"cmd": "quit"}`` -- and answers each sweep with one JSON line.  With
``trace`` set, ``SupervisedPool.run`` is wrapped to report its counters
and to measure the pickled size of the payload it ships to workers.
"""

import json
import sys

import repro.cli  # noqa: F401


def _sweep(specs: list, workers: int, trace: bool) -> dict:
    import pickle
    import time

    from repro.perf.batch import run_batch
    from repro.robust.pool import SupervisedPool

    pool: dict = {}
    original = SupervisedPool.run
    if trace:
        def run(self, payload):
            t0 = time.perf_counter()
            pool["ipc_bytes"] = sum(len(pickle.dumps(spec)) for spec in payload)
            t1 = time.perf_counter()
            try:
                return original(self, payload)
            finally:
                pool.update(self.stats)
                pool["ipc_serialize_ms"] = (t1 - t0) * 1000.0
                pool["run_ms"] = (time.perf_counter() - t1) * 1000.0

        SupervisedPool.run = run
    try:
        t0 = time.perf_counter()
        result = run_batch(specs, workers=workers)
        wall = time.perf_counter() - t0
    finally:
        SupervisedPool.run = original
    return {
        "wall_s": wall,
        "programs": result["programs"],
        "errors": result.get("errors", 0),
        "quarantined": result.get("quarantined", 0),
        "rows": [
            [row.get("label"), row.get("nodes"), row.get("edges"),
             "error" in row]
            for row in result["rows"]
        ],
        "pool": pool,
    }


def main() -> int:
    with open(sys.argv[1]) as fh:
        specs = json.load(fh)
    workers = int(sys.argv[2])
    from repro.perf.batch import run_batch  # noqa: F401  (as `repro batch` does)

    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        command = json.loads(line)
        if command["cmd"] == "quit":
            break
        reply = _sweep(specs[command["kind"]], workers, command.get("trace", False))
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
