"""The ``serve``/``route`` flag surface and the ``route --shards``
pass-through to every spawned ``serve`` child."""

import pytest

from repro.cli import _shard_serve_args, build_parser

#: Every ``serve`` option and its default (``--alphabet`` is required).
SERVE_DEFAULTS = {
    "host": "127.0.0.1",
    "port": 8765,
    "alphabet": "ab",
    "probs": None,
    "workers": 1,
    "batch_docs": 32,
    "max_pending": 1024,
    "tenant_fair_share": 1.0,
    "default_timeout_ms": None,
    "drain_timeout": 10.0,
    "correction": "bh",
    "alpha": 0.05,
    "calibrate": False,
    "trials": 100,
    "seed": 0,
    "cache_dir": None,
    "calib_cache_entries": None,
    "log_format": "text",
    "log_level": "info",
    "trace_sample": 1.0,
    "trace_log": None,
    "slo": None,
    "backend": None,
}

#: Every ``route`` option and its default (one of ``--shards`` and
#: ``--upstream`` is required).
ROUTE_DEFAULTS = {
    **SERVE_DEFAULTS,
    "port": 8799,
    "alphabet": None,
    "shards": None,
    "upstream": "127.0.0.1:1",
    "replicas": 128,
    "health_interval_ms": 500.0,
    "fail_after": 2,
}

#: A non-default value for every flag ``route --shards`` forwards.
FORWARDED = {
    "--alphabet": "abc",
    "--probs": "0.2,0.3,0.5",
    "--workers": "3",
    "--batch-docs": "7",
    "--max-pending": "99",
    "--tenant-fair-share": "0.25",
    "--default-timeout-ms": "1500",
    "--correction": "bonferroni",
    "--alpha": "0.01",
    "--trials": "37",
    "--seed": "5",
    "--cache-dir": "/tmp/calibration-store",
    "--calib-cache-entries": "8",
    "--log-format": "json",
    "--log-level": "warning",
    "--trace-sample": "0.125",
    "--slo": "p99:250ms,errors:0.1%",
    "--backend": "numpy",
}

#: Flags that stay with the router.
ROUTER_ONLY = {
    "--host": "127.0.0.2",
    "--port": "0",
    "--drain-timeout": "3.5",
    "--trace-log": "/tmp/router-traces.jsonl",
}


def _options(argv):
    args = vars(build_parser().parse_args(argv))
    del args["command"], args["json"]
    return args


def test_serve_options_and_defaults():
    assert _options(["serve", "--alphabet", "ab"]) == SERVE_DEFAULTS


def test_route_options_and_defaults():
    assert _options(["route", "--upstream", "127.0.0.1:1"]) == ROUTE_DEFAULTS


def test_serve_requires_an_alphabet():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["serve"])


def _route_args():
    argv = ["route", "--shards", "2", "--calibrate"]
    for flag, value in {**FORWARDED, **ROUTER_ONLY}.items():
        argv += [flag, value]
    return build_parser().parse_args(argv)


def test_shards_get_every_forwarded_flag_back():
    route = _route_args()
    serve = build_parser().parse_args(["serve", *_shard_serve_args(route)])
    dests = [flag[2:].replace("-", "_") for flag in FORWARDED] + ["calibrate"]
    for dest in dests:
        assert getattr(route, dest) != SERVE_DEFAULTS.get(dest), dest
        assert getattr(serve, dest) == getattr(route, dest), dest


def test_router_only_flags_are_not_forwarded():
    shard_args = _shard_serve_args(_route_args())
    for flag in ROUTER_ONLY:
        assert not any(
            arg == flag or arg.startswith(flag + "=") for arg in shard_args
        ), flag
    serve = build_parser().parse_args(["serve", *shard_args])
    for flag in ROUTER_ONLY:
        dest = flag[2:].replace("-", "_")
        assert getattr(serve, dest) == SERVE_DEFAULTS[dest], dest
