#!/usr/bin/env python
"""Prometheus exposition gate: validate a scraped ``GET /metrics`` body.

Run from the repository root against a saved scrape (CI's bench-smoke
job does, on the text the service benchmark captured)::

    PYTHONPATH=src python tools/check_metrics.py benchmarks/results/metrics_smoke.txt

or pipe the body on stdin (``... | python tools/check_metrics.py -``).
``tests/service/test_observability.py`` imports :func:`check_exposition`
directly, so the same validator gates tier-1.

This is a deliberately small parser for the text exposition format
(version 0.0.4) -- not a Prometheus client.  It enforces what a real
scraper would choke on, all hard failures:

1. every non-comment line is ``name[{labels}] value`` with a float
   value and a legal metric name;
2. every sample belongs to a family announced by a ``# TYPE`` line
   (histogram samples may use the ``_bucket``/``_sum``/``_count``
   suffixes), and no family is announced twice;
3. every histogram series has a ``+Inf`` bucket, its cumulative bucket
   counts are non-decreasing, and the ``+Inf`` count equals the
   series' ``_count`` sample;
4. the families the dashboards are built on actually exist (see
   ``REQUIRED_FAMILIES``; pass ``--no-require`` to validate foreign
   expositions);
5. with ``--sharded`` (the router's merged exposition): ``shard=``
   labels exist at all, and every required family carries a sample for
   *every* shard value seen anywhere in the scrape -- a shard whose
   SLO gauges silently fell out of the merge fails here, not on a
   dashboard.
"""

from __future__ import annotations

import argparse
import math
import re
import sys

#: Families the service must always expose (the README/ARCHITECTURE
#: dashboard contract); checked by default.
REQUIRED_FAMILIES = (
    "repro_http_requests_total",
    "repro_http_request_seconds",
    "repro_batcher_docs_total",
    "repro_service_uptime_seconds",
    "repro_slo_burn_rate",
    "repro_slo_fast_burn_degraded",
    "repro_backend_fallback_total",
    "repro_kernel_x2_evaluations_total",
)

_NAME = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")
_TYPE_LINE = re.compile(
    r"^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram|summary|untyped)$"
)
_SAMPLE_LINE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$"
)
_LABELS = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')

#: Sample suffixes a histogram family legitimately emits.
_HISTOGRAM_SUFFIXES = ("_bucket", "_sum", "_count")


def _family_of(sample_name: str, types: dict) -> str | None:
    """The announced family a sample line belongs to, or ``None``."""
    if sample_name in types:
        return sample_name
    for suffix in _HISTOGRAM_SUFFIXES:
        if sample_name.endswith(suffix):
            base = sample_name[: -len(suffix)]
            if types.get(base) == "histogram":
                return base
    return None


def _parse_value(raw: str) -> float:
    """A sample value: float syntax plus the ``+Inf``/``-Inf``/``NaN``
    spellings the exposition format allows."""
    if raw == "+Inf":
        return math.inf
    if raw == "-Inf":
        return -math.inf
    if raw == "NaN":
        return math.nan
    return float(raw)


def check_exposition(
    text: str, *, require=REQUIRED_FAMILIES, sharded: bool = False
) -> list[str]:
    """Validate one exposition body; returns one string per violation.

    ``sharded=True`` additionally validates a router-merged scrape:
    ``shard=`` labels must be present, and every required family must
    carry at least one sample for every shard value the scrape names.
    """
    errors: list[str] = []
    types: dict[str, str] = {}
    seen_families: set[str] = set()
    shard_values: set[str] = set()
    family_shards: dict[str, set] = {}
    # (family, labels-without-le) -> {le-bound: cumulative count}
    buckets: dict[tuple, dict[float, float]] = {}
    counts: dict[tuple, float] = {}

    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            if line.startswith("# TYPE "):
                match = _TYPE_LINE.match(line)
                if match is None:
                    errors.append(f"line {number}: malformed TYPE line: {line!r}")
                    continue
                name = match.group(1)
                if name in types:
                    errors.append(f"line {number}: duplicate TYPE for {name}")
                types[name] = match.group(2)
            continue  # HELP and other comments are free-form
        match = _SAMPLE_LINE.match(line)
        if match is None:
            errors.append(f"line {number}: unparseable sample: {line!r}")
            continue
        name, label_blob, raw_value = match.groups()
        try:
            value = _parse_value(raw_value)
        except ValueError:
            errors.append(f"line {number}: non-numeric value: {line!r}")
            continue
        labels = dict(_LABELS.findall(label_blob or ""))
        family = _family_of(name, types)
        if family is None:
            errors.append(
                f"line {number}: sample {name!r} has no # TYPE declaration"
            )
            continue
        seen_families.add(family)
        shard = labels.get("shard")
        if shard is not None:
            shard_values.add(shard)
            family_shards.setdefault(family, set()).add(shard)
        if types[family] == "histogram" and name.endswith("_bucket"):
            if "le" not in labels:
                errors.append(f"line {number}: histogram bucket without le=")
                continue
            key = (
                family,
                tuple(sorted((k, v) for k, v in labels.items() if k != "le")),
            )
            buckets.setdefault(key, {})[_parse_value(labels["le"])] = value
        elif types[family] == "histogram" and name.endswith("_count"):
            key = (family, tuple(sorted(labels.items())))
            counts[key] = value

    for (family, labels), series in sorted(buckets.items()):
        bounds = sorted(series)
        if not bounds or bounds[-1] != math.inf:
            errors.append(f"{family}{dict(labels)}: no +Inf bucket")
            continue
        cumulative = [series[bound] for bound in bounds]
        if any(b > a for a, b in zip(cumulative[1:], cumulative)):
            errors.append(
                f"{family}{dict(labels)}: bucket counts are not cumulative"
            )
        total = counts.get((family, labels))
        if total is None:
            errors.append(f"{family}{dict(labels)}: missing _count sample")
        elif series[math.inf] != total:
            errors.append(
                f"{family}{dict(labels)}: +Inf bucket {series[math.inf]} "
                f"!= _count {total}"
            )

    for name in require:
        if name not in seen_families:
            errors.append(f"required family {name} is absent")
    if sharded:
        if not shard_values:
            errors.append("sharded exposition carries no shard= labels")
        for name in require:
            if name not in seen_families:
                continue  # already reported absent above
            for shard in sorted(shard_values - family_shards.get(name, set())):
                errors.append(
                    f"required family {name} has no sample for "
                    f'shard="{shard}"'
                )
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "path", help="exposition file to validate, or - for stdin"
    )
    parser.add_argument(
        "--no-require",
        action="store_true",
        help="skip the required-family presence check",
    )
    parser.add_argument(
        "--sharded",
        action="store_true",
        help="validate a router-merged exposition: every required "
             "family must have a sample for every shard= label seen",
    )
    args = parser.parse_args(argv)
    if args.path == "-":
        text = sys.stdin.read()
    else:
        with open(args.path, encoding="utf-8") as handle:
            text = handle.read()
    require = () if args.no_require else REQUIRED_FAMILIES
    errors = check_exposition(text, require=require, sharded=args.sharded)
    for error in errors:
        print(f"FAIL: {error}")
    families = len(re.findall(r"^# TYPE ", text, flags=re.MULTILINE))
    print(
        f"check_metrics: {len(text.splitlines())} lines, "
        f"{families} families, {len(errors)} errors"
    )
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
