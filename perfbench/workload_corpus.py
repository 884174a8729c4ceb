"""``corpus``: ``CorpusEngine.run_texts`` on 16-document DNA jobs.

Kernels and the engine do almost all the work and no service or router
code runs, so kernel and engine changes show here and HTTP changes must
show nothing.  The program runs in its own process
(``corpus_program.py``), once per set-up repetition, and each process
runs one segment of the timed window.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import inputs
import measure
from fleet import metric_total, parse_metrics
from spans import KERNEL_SCANS, SpanRecorder

HERE = Path(__file__).resolve().parent


def _rep(ctx, spec: dict) -> dict:
    """One ``corpus_program.py`` process: its result dict."""
    tag = f"corpus-{ctx.next_id()}"
    spec_path = ctx.tmp / f"{tag}-spec.json"
    result_path = ctx.tmp / f"{tag}-result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    subprocess.run(
        [sys.executable, str(HERE / "corpus_program.py"),
         str(spec_path), str(result_path)],
        env=ctx.env, stdout=subprocess.DEVNULL, check=True, timeout=170,
    )
    return json.loads(result_path.read_text(encoding="utf-8"))


def _measure(ctx, spec: dict, expected, trace: bool) -> dict:
    """Set up ``SETUP_REPS`` times; each set-up runs one window segment,
    starting a third of the way further into the job pool."""
    jobs = len(spec["jobs"])
    reps = [
        _rep(ctx, {**spec, "seconds": ctx.seconds / measure.SETUP_REPS,
                   "trace": trace, "offset": rep * jobs // measure.SETUP_REPS})
        for rep in range(measure.SETUP_REPS)
    ]
    failed = attempted = 0
    for i, rep in enumerate(reps):
        for span in rep.get("spans", ()):
            span["op"] = f"{i}/{span['op']}"
        for op, got in zip(rep["ops"], rep["outcomes"]):
            op["ok"] = op["error"] is None and got == expected[op["job"]]
            failed += not op["ok"]
            attempted += 1
    ok = [op for rep in reps for op in rep["ops"] if op["ok"]]
    return {
        "reps": reps,
        "attempted": attempted,
        "failed": failed,
        "e2e": measure.end_to_end(
            "corpus",
            [rep["setup_s"] for rep in reps],
            [op["seconds"] for op in ok],
            sum(op["docs"] for op in ok),
            sum(rep["window_s"] for rep in reps),
            measure.median(rep["peak_rss_kib"] for rep in reps),
        ),
    }


def _layers(reps: list[dict], keys: int) -> dict:
    """Per-layer values from the traced processes' own spans."""
    recorder = SpanRecorder()
    recorder.spans = [span for rep in reps for span in rep["spans"]]
    ops, docs, latencies, outcomes = set(), 0, [], []
    for i, rep in enumerate(reps):
        for j, (op, got) in enumerate(zip(rep["ops"], rep["outcomes"])):
            if op["ok"]:
                ops.add(f"{i}/op-{j}")
                docs += op["docs"]
                latencies.append(op["seconds"])
                outcomes.append(got)
    evaluated = sum(o["evaluated"] for o in outcomes)
    pairs = sum(d["n"] * (d["n"] + 1) // 2 for o in outcomes for d in o["results"])
    kernel_s = recorder.seconds("kernels", KERNEL_SCANS, ops)
    mine_s = recorder.seconds("engine", ("mine_documents",), ops)
    finalize = recorder.per_op("engine", "finalize")
    mine_per_op = recorder.per_op("engine", "mine_documents")
    setup_ops = {f"{i}/setup" for i in range(len(reps))}

    def per_setup(layer, names, top_level=True, **notes) -> float:
        return measure.median(
            recorder.seconds(layer, names, {op}, top_level, **notes)
            for op in setup_ops
        )

    return {
        "kernels.mine_ms_per_doc": 1000.0 * measure.ratio(kernel_s, docs),
        "kernels.evals_per_doc": measure.ratio(evaluated, docs),
        "kernels.prune_ratio": measure.ratio(evaluated, pairs),
        "kernels.ns_per_eval": 1e9 * measure.ratio(kernel_s, evaluated),
        "kernels.simulate_s": per_setup("kernels", ("simulate_x2max",)),
        "engine.mine_ms_per_doc": 1000.0 * measure.ratio(mine_s, docs),
        "engine.dispatch_ms_per_doc": 1000.0 * measure.ratio(mine_s - kernel_s, docs),
        "engine.finalize_ms": 1000.0 * measure.median(
            seconds for op, seconds in finalize.items() if op in ops
        ),
        "engine.calibrate_s": per_setup(
            "engine", ("distribution_for",), top_level=False, cold=True
        ),
        "engine.calib_simulations": measure.median(
            metric_total(parse_metrics(rep["metrics"]),
                         "repro_calibration_events_total", event="simulate")
            for rep in reps
        ),
        "engine.calib_keys": keys,
        "obs.split_ratio": measure.ratio(
            measure.median(v for op, v in mine_per_op.items() if op in ops)
            + measure.median(v for op, v in finalize.items() if op in ops),
            measure.median(latencies),
        ),
    }


def run(ctx) -> dict:
    data = inputs.corpus_inputs(ctx.seed)
    reference = inputs.Reference()
    spec_ref = inputs.JobSpec(backend=inputs.REFERENCE_BACKEND)
    expected = [
        reference.outcome(job, data["model"], spec_ref) for job in data["jobs"]
    ]
    spec = {
        "alphabet": inputs.DNA_ALPHABET,
        "probs": list(inputs.DNA_PROBS),
        "trials": inputs.TRIALS,
        "calib_seed": inputs.CALIB_SEED,
        "warmup": data["warmup"],
        "jobs": data["jobs"],
    }
    untraced = _measure(ctx, spec, expected, False)
    report = {
        "attempted": untraced["attempted"],
        "failed": untraced["failed"],
        "e2e": untraced["e2e"],
        "info": {
            "backend_resolved": untraced["reps"][-1]["backend_resolved"],
            "operations": untraced["attempted"],
        },
    }
    if ctx.trace:
        traced = _measure(ctx, spec, expected, True)
        report["attempted"] += traced["attempted"]
        report["failed"] += traced["failed"]
        keys = inputs.calibration_keys(
            (text, data["model"])
            for texts in (*data["jobs"], data["warmup"]) for text in texts
        )
        report["layers"] = measure.per_layer(
            _layers(traced["reps"], keys), traced["e2e"], untraced["e2e"]
        )
        report["spans"] = [span for rep in traced["reps"] for span in rep["spans"]]
    return report
