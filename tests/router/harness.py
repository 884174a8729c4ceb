"""Multiprocess router test harness: real shards, real sockets.

:class:`RouterHarness` is what every router test runs on: it spawns N
genuine ``repro-mss serve`` child processes on ephemeral ports
(:class:`~repro.router.manager.ShardProcess`), fronts them with an
in-process :class:`~repro.router.app.RouterService` on its own
ephemeral port (via the same
:class:`~repro.service.app.ServiceThread` the service tests use), and
scripts the failure scenarios the suite needs:

* :meth:`kill_shard` -- SIGKILL one shard mid-run (failover tests);
* :meth:`restart_shard` -- respawn a dead shard, optionally with a
  different environment (chaos recovery: restart *without*
  ``REPRO_FAULTS``);
* :meth:`wait_status` / :meth:`wait_healthy` / :meth:`wait_probed` --
  poll the router's ``/healthz`` until ejection/rejoin (or a first
  health sweep) has been observed, bounded.

Teardown is unconditional: exiting the context stops the router
(whose ordered drain SIGTERMs every owned shard) and then SIGKILLs
anything still alive, so a failing test never leaks child processes
into the rest of the session.
"""

from __future__ import annotations

import os
import time

from repro.router import RouterService, ShardProcess
from repro.service import ServiceClient
from repro.service.app import ServiceThread

__all__ = ["RouterHarness", "alive", "descendants"]

#: Serve arguments every harness shard gets unless overridden: a tiny
#: alphabet-ab service, tuned for test latency.
DEFAULT_SERVE_ARGS = [
    "--alphabet", "ab",
    "--batch-docs", "8",
]


def descendants(pid: int) -> list[int]:
    """Every live descendant of ``pid``, from ``/proc/<pid>/stat``."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                ppid = int(handle.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        children.setdefault(ppid, []).append(int(entry))
    found, frontier = [], [pid]
    while frontier:
        frontier = [c for p in frontier for c in children.get(p, [])]
        found.extend(frontier)
    return found


def alive(pid: int) -> bool:
    """Whether ``pid`` names a running (not zombie) process."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (OSError, IndexError):
        return False


class RouterHarness:
    """Spawn router + N shards on ephemeral ports; script their demise.

    Parameters
    ----------
    shards:
        How many ``serve`` child processes to spawn.
    serve_args:
        Arguments for every shard (default :data:`DEFAULT_SERVE_ARGS`).
    shard_env:
        ``{index: {env}}`` extra environment per shard -- the chaos
        tests scope ``REPRO_FAULTS`` to a single shard with this.
    health_interval / fail_after / replicas / drain_timeout:
        Forwarded to :class:`RouterService`; the defaults here are
        test-fast (ejection within ~0.3s of a death).

    Examples
    --------
    ::

        with RouterHarness(shards=2) as harness:
            response = harness.client().mine(text="ab" * 40)
            harness.kill_shard(0)
            harness.wait_status("degraded")
    """

    def __init__(
        self,
        shards: int = 2,
        *,
        serve_args: list[str] | None = None,
        shard_env: dict[int, dict[str, str]] | None = None,
        health_interval: float = 0.1,
        fail_after: int = 2,
        replicas: int = 128,
        drain_timeout: float = 10.0,
        startup_timeout: float = 60.0,
    ) -> None:
        self.n_shards = shards
        self.serve_args = (
            list(serve_args) if serve_args is not None else DEFAULT_SERVE_ARGS
        )
        self.shard_env = shard_env or {}
        self.health_interval = health_interval
        self.fail_after = fail_after
        self.replicas = replicas
        self.drain_timeout = drain_timeout
        self.startup_timeout = startup_timeout
        self.shards: list[ShardProcess] = []
        self.router: RouterService | None = None
        self._thread: ServiceThread | None = None
        self.address: tuple[str, int] | None = None

    def __enter__(self) -> "RouterHarness":
        try:
            for index in range(self.n_shards):
                shard = ShardProcess(
                    self.serve_args,
                    name=f"shard-{index}",
                    env=self.shard_env.get(index),
                    startup_timeout=self.startup_timeout,
                )
                shard.start()
                self.shards.append(shard)
            self.router = RouterService(
                processes=self.shards,
                replicas=self.replicas,
                health_interval=self.health_interval,
                fail_after=self.fail_after,
                drain_timeout=self.drain_timeout,
            )
            self._thread = ServiceThread(
                self.router, startup_timeout=self.startup_timeout
            )
            self._thread.__enter__()
            self.address = self._thread.address
        except BaseException:
            self._reap()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        try:
            if self._thread is not None:
                # Router stop performs the ordered drain: each owned
                # shard is SIGTERMed and waited on, shard by shard.
                self._thread.__exit__(*exc_info)
        finally:
            self._reap()

    def _reap(self) -> None:
        """Unconditional cleanup: no child outlives the harness."""
        for shard in self.shards:
            if shard.alive:
                shard.kill()

    def client(self, timeout: float = 60.0) -> ServiceClient:
        """A fresh client bound to the router's front door."""
        assert self.address is not None, "harness not entered"
        return ServiceClient(*self.address, timeout=timeout)

    def kill_shard(self, index: int) -> None:
        """SIGKILL one shard -- no drain, no goodbye."""
        self.shards[index].kill()

    def restart_shard(
        self, index: int, *, env: dict[str, str] | None = None
    ) -> tuple[str, int]:
        """Respawn one (dead or alive) shard under the same logical name.

        ``env`` replaces the shard's extra environment for the new
        child (pass ``{}`` to clear a previous fault injection).  The
        fresh process binds a new ephemeral port; the router follows
        it automatically through the shared :class:`ShardProcess`.
        """
        shard = self.shards[index]
        if env is not None:
            shard.extra_env = dict(env)
        return shard.restart()

    def wait_status(self, status: str, timeout: float = 15.0) -> dict:
        """Poll router ``/healthz`` until its status equals ``status``."""
        return self._wait(
            lambda health: health["status"] == status,
            f"router never reported status {status!r}",
            timeout,
        )

    def wait_healthy(self, count: int, timeout: float = 15.0) -> dict:
        """Poll router ``/healthz`` until ``count`` shards own arcs."""
        return self._wait(
            lambda health: health["shards_healthy"] == count,
            f"router never reported {count} healthy shards",
            timeout,
        )

    def wait_probed(self, timeout: float = 15.0) -> dict:
        """Poll router ``/healthz`` until every shard has been probed
        at least once (its status is no longer ``"unknown"``)."""
        return self._wait(
            lambda health: all(
                shard["status"] != "unknown"
                for shard in health["shards"].values()
            ),
            "router never probed every shard",
            timeout,
        )

    def _wait(self, predicate, message: str, timeout: float) -> dict:
        deadline = time.monotonic() + timeout
        with self.client() as client:
            while True:
                health = client.healthz()
                if predicate(health):
                    return health
                if time.monotonic() > deadline:
                    raise TimeoutError(f"{message}; last: {health}")
                time.sleep(self.health_interval / 2)

    def __repr__(self) -> str:
        return (
            f"RouterHarness(shards={self.n_shards}, "
            f"address={self.address!r})"
        )
