"""The repository's benchmark: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload corpus|trickle|burst \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (see ``BENCHMARK.json``):

* ``corpus``  -- ``CorpusEngine.run_texts`` on 16-document DNA jobs, no
  HTTP (:mod:`workload_corpus`);
* ``trickle`` -- 1-document requests through ``route --upstream`` to two
  ``serve --calibrate`` shards, one connection (:mod:`workload_http`);
* ``burst``   -- 2-8 document requests to ``serve --workers 2
  --calibrate`` over two connections (:mod:`workload_http`).

Each run generates its inputs from ``--seed`` and computes the
reference outputs, then sets the program up three times from cold
(``setup_s`` is the median); each set-up runs a closed loop for a third
of ``--seconds``, so the timed window is spread over the whole run
rather than caught in one stretch of a noisy host.  The program runs
with its defaults: no ``--backend`` and no ``REPRO_BACKEND`` are set,
every set-up gets a fresh calibration cache, and the native kernels are
compiled into ``.bench_build/perfbench/native`` before anything is
timed, so a later native default never compiles inside ``setup_s``.
Caches, temporary files (``TMPDIR``) and traces stay under
``.bench_build/perfbench/``.

``--trace 1`` repeats the measurement with the benchmark's spans on and
prints the per-layer metrics instead, plus the tracing overhead.  The
spans are written to ``.bench_build/perfbench/traces/``.

The last line of standard output is ``{"correct", "attempted",
"failed", "metrics"}``; the line before it records the resolved
backend, the host and the versions.  Without ``src/repro`` next to
``perfbench/`` the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("corpus", "trickle", "burst")


@dataclass
class Context:
    """What a workload needs to know about this run."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    env: dict
    tmp: Path
    _ids: itertools.count = field(default_factory=itertools.count)

    def next_id(self) -> int:
        """A fresh number for per-run file and directory names."""
        return next(self._ids)


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: inputs.DEFAULT_SEED)")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="length of the timed window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'repro'} is missing; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_NATIVE_CACHE"] = str(OUT / "native")
    os.environ["TMPDIR"] = str(OUT / "tmp")
    pythonpath = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = (
        f"{SRC}{os.pathsep}{pythonpath}" if pythonpath else str(SRC)
    )
    sys.path.insert(0, str(SRC))

    import numpy

    import inputs
    import measure
    import workload_corpus
    import workload_http
    from repro.kernels import get_backend
    from spans import write_jsonl

    # Compile (or load) the native kernels now, never inside set-up.
    native = get_backend("native").resolved_name
    seed = inputs.DEFAULT_SEED if args.seed is None else args.seed
    ctx = Context(
        workload=args.workload,
        seed=seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        env=dict(os.environ),
        tmp=Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT / "tmp")),
    )
    module = workload_corpus if args.workload == "corpus" else workload_http
    try:
        report = module.run(ctx)
    finally:
        shutil.rmtree(ctx.tmp, ignore_errors=True)

    info = {
        "workload": args.workload,
        "seed": seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        **report["info"],
        "native_available": native == "native",
        "tail_percentile": measure.TAIL_PERCENTILE[args.workload],
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if args.trace:
        metrics = measure.render(report["layers"], measure.PER_LAYER)
        write_jsonl(
            OUT / "traces" / f"{args.workload}-seed{seed}.jsonl",
            [{"info": info}, *report["spans"]],
        )
    else:
        metrics = measure.render(report["e2e"], measure.END_TO_END)
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    print(json.dumps({"info": info}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
