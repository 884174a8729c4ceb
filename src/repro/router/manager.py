"""Shard lifecycle: spawn, watch, signal and reap ``serve`` processes.

``repro-mss route --shards N`` owns its fleet: each shard is one
``repro-mss serve --port 0`` child process.  :class:`ShardProcess`
wraps exactly that -- it spawns the child with the current
interpreter, learns the ephemeral port from the serve banner (the
``repro-mss serve: http://host:port ...`` line that
:func:`repro.cli._run_serve` prints *after* the socket is bound, so
there is no bind race to poll around), and exposes the two signals the
router's lifecycle needs: SIGTERM for the shard's own graceful drain
(``serve`` installs a handler that answers in-flight requests before
exiting) and SIGKILL for the chaos tests' unceremonious deaths.

The child's environment is inherited (so ``REPRO_FAULTS`` reaches a
shard naturally) plus a ``PYTHONPATH`` entry for the ``repro`` package
actually imported here -- a checkout run with ``PYTHONPATH=src`` and
an installed package both spawn children that import the same code.

Used by the ``route`` CLI and by ``tests/router/harness.py``; routers
fronting externally managed shards (``--upstream``) never touch this
module.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.obs.log import get_logger

__all__ = ["ShardProcess", "ShardStartupError"]

_LOG = get_logger("repro.router.manager")

#: The serve banner whose port we parse.  Anchored to the prefix the
#: CLI prints once bound; everything after host:port is free-form.
_BANNER = re.compile(
    r"^repro-mss serve: http://(?P<host>[^:\s]+):(?P<port>\d+)\b"
)


class ShardStartupError(RuntimeError):
    """A shard child exited (or went silent) before announcing its port."""


def _drain(stream) -> None:
    """Consume one child pipe until EOF (daemon thread)."""
    try:
        for _ in stream:
            pass
    except ValueError:  # stream closed during interpreter exit
        pass


class ShardProcess:
    """One owned ``repro-mss serve`` child process.

    Parameters
    ----------
    serve_args:
        Arguments appended after ``serve`` (``--alphabet ab --workers 2
        ...``).  ``--host``/``--port`` are supplied here -- port ``0``
        always, so shards never fight over a port number.
    name:
        Stable shard name (``"shard-3"``); this is the ring node name,
        so it must survive restarts of the same logical shard.
    env:
        Extra environment variables layered over the inherited ones
        (the chaos harness scopes ``REPRO_FAULTS`` to one shard with
        this).
    startup_timeout:
        Seconds to wait for the banner before declaring the spawn dead.

    Examples
    --------
    >>> shard = ShardProcess(["--alphabet", "ab"], name="shard-0")
    >>> shard.address is None  # not started yet
    True
    """

    def __init__(
        self,
        serve_args: list[str],
        *,
        name: str = "shard",
        host: str = "127.0.0.1",
        env: dict[str, str] | None = None,
        startup_timeout: float = 30.0,
    ) -> None:
        self.serve_args = list(serve_args)
        self.name = name
        self.host = host
        self.extra_env = dict(env) if env else {}
        self.startup_timeout = startup_timeout
        self.address: tuple[str, int] | None = None
        self.process: subprocess.Popen | None = None
        #: Completed spawns (1 after :meth:`start`, +1 per restart).
        self.spawns = 0

    @property
    def alive(self) -> bool:
        """Whether the child process is currently running."""
        return self.process is not None and self.process.poll() is None

    @property
    def pid(self) -> int | None:
        """The child's pid, or ``None`` before the first spawn."""
        return self.process.pid if self.process is not None else None

    def start(self) -> tuple[str, int]:
        """Spawn the child and block until its port is known.

        Returns the bound ``(host, port)``.  Raises
        :class:`ShardStartupError` if the child dies or stays silent
        past ``startup_timeout`` -- with the child's stderr tail in the
        message, because "shard-2 failed" without the SystemExit text
        is undebuggable.
        """
        if self.alive:
            raise RuntimeError(f"{self.name} is already running")
        command = [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--host",
            self.host,
            "--port",
            "0",
            *self.serve_args,
        ]
        env = dict(os.environ)
        # Make `import repro` in the child resolve to the package this
        # process imported, whether or not it is pip-installed.
        package_root = str(Path(__file__).resolve().parent.parent.parent)
        existing = env.get("PYTHONPATH", "")
        if package_root not in existing.split(os.pathsep):
            env["PYTHONPATH"] = (
                f"{package_root}{os.pathsep}{existing}"
                if existing
                else package_root
            )
        env.update(self.extra_env)
        self.process = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        self.spawns += 1
        self.address = self._await_banner()
        # Keep draining both pipes so a chatty child never blocks on a
        # full pipe buffer mid-request.  One thread per pipe: stdout
        # stays open for the child's whole life, so a single reader
        # would never get past it to the access log on stderr.
        for label, stream in (
            ("stdout", self.process.stdout),
            ("stderr", self.process.stderr),
        ):
            threading.Thread(
                target=_drain,
                args=(stream,),
                name=f"{self.name}-drain-{label}",
                daemon=True,
            ).start()
        _LOG.info(
            "shard_started",
            shard=self.name,
            pid=self.process.pid,
            address=f"{self.address[0]}:{self.address[1]}",
        )
        return self.address

    def _await_banner(self) -> tuple[str, int]:
        """Read child stdout until the serve banner reveals the port."""
        deadline = time.monotonic() + self.startup_timeout
        assert self.process is not None and self.process.stdout is not None
        while True:
            if time.monotonic() > deadline:
                self.kill()
                raise ShardStartupError(
                    f"{self.name} did not announce a port within "
                    f"{self.startup_timeout}s"
                )
            line = self.process.stdout.readline()
            if line:
                match = _BANNER.match(line.strip())
                if match:
                    return (match.group("host"), int(match.group("port")))
                continue
            if self.process.poll() is not None:
                stderr = ""
                if self.process.stderr is not None:
                    stderr = self.process.stderr.read()[-2000:]
                raise ShardStartupError(
                    f"{self.name} exited with code "
                    f"{self.process.returncode} before binding"
                    + (f"; stderr tail:\n{stderr}" if stderr else "")
                )

    def terminate(self, timeout: float = 15.0) -> int | None:
        """SIGTERM the child and wait for its graceful drain to finish.

        Returns the exit code (``None`` if there was no child).
        Escalates to SIGKILL if the drain outlives ``timeout`` -- a
        router shutdown must not hang on one wedged shard.
        """
        if self.process is None:
            return None
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout)
            except subprocess.TimeoutExpired:
                _LOG.warning(
                    "shard_drain_timeout", shard=self.name, timeout=timeout
                )
                self.kill()
        _LOG.info(
            "shard_stopped", shard=self.name, code=self.process.returncode
        )
        return self.process.returncode

    def kill(self) -> None:
        """SIGKILL the child (the chaos tests' mid-run shard death)."""
        if self.process is not None and self.process.poll() is None:
            self.process.kill()
            self.process.wait(10.0)

    def restart(self) -> tuple[str, int]:
        """Replace a dead (or killed) child with a fresh spawn.

        The new child binds a fresh ephemeral port; callers re-read
        :attr:`address`.  The shard *name* is stable, so the ring
        placement of the logical shard does not move.
        """
        if self.alive:
            self.terminate()
        return self.start()

    def __repr__(self) -> str:
        state = "alive" if self.alive else "down"
        return (
            f"ShardProcess(name={self.name!r}, address={self.address!r}, "
            f"{state})"
        )
