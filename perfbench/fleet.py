"""Program processes, their memory, and the HTTP client of the load
generator.

:class:`Program` spawns one ``repro-mss`` process the way users run it
(``python3 -m repro.cli serve|route ...``), learns its port from the
banner the CLI prints once the socket is bound, and drains its stdout
and stderr on one thread each for its whole life.  Draining both
streams at once matters: at the default log level ``serve`` writes an
access-log line per request to stderr, and a reader that consumed
stdout to EOF before touching stderr would let that pipe fill and block
the server mid-request.  ``route --shards N`` does exactly that today
(``ShardProcess._drain_pipes``), which is why its shards stop answering
after a few hundred requests each; ``trickle`` therefore spawns its
shards here and fronts them with ``route --upstream``.
"""

from __future__ import annotations

import collections
import http.client
import json
import os
import queue
import re
import signal
import subprocess
import sys
import threading
import time

_BANNER = re.compile(
    r"^repro-mss (?:serve|route): http://(?P<host>[^:\s]+):(?P<port>\d+)"
)
_LABEL = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')


def _parent_map() -> dict[int, list[int]]:
    """Child pids by parent pid, from ``/proc/<pid>/stat``."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                stat = handle.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    return children


def process_tree(pid: int) -> list[int]:
    """``pid`` and every live descendant (pool workers, trackers)."""
    children = _parent_map()
    tree, frontier = [pid], [pid]
    while frontier:
        frontier = [c for p in frontier for c in children.get(p, [])]
        tree.extend(frontier)
    return tree


def peak_rss_kib(pid: int) -> int:
    """``VmHWM`` of one process in KiB (0 once it has exited)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


class Program:
    """One spawned ``repro-mss`` process, drained until it exits."""

    def __init__(self, args: list[str], env: dict[str, str]) -> None:
        self.args = args
        self.stopped = False
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *args],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        self._banner: queue.Queue = queue.Queue()
        #: Last lines of output, for the error message if it dies.
        self.tail: collections.deque = collections.deque(maxlen=30)
        self._threads = [
            threading.Thread(target=self._drain, args=(stream, watch), daemon=True)
            for stream, watch in ((self.proc.stdout, True), (self.proc.stderr, False))
        ]
        for thread in self._threads:
            thread.start()

    def _drain(self, stream, watch_banner: bool) -> None:
        for line in stream:
            self.tail.append(line.rstrip("\n"))
            if watch_banner:
                match = _BANNER.match(line)
                if match:
                    self._banner.put((match["host"], int(match["port"])))

    def address(self, timeout: float = 60.0) -> tuple[str, int]:
        """The bound ``(host, port)`` from the banner."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                return self._banner.get(timeout=0.05)
            except queue.Empty:
                if self.proc.poll() is not None:
                    break
        raise RuntimeError(
            f"{' '.join(self.args[:1])} exited or stayed silent "
            f"(code {self.proc.poll()}):\n" + "\n".join(self.tail)
        )

    def peak_rss_kib(self) -> int:
        """Peak RSS summed over the process and its descendants."""
        return sum(peak_rss_kib(pid) for pid in process_tree(self.proc.pid))

    def stop(self, timeout: float = 20.0) -> None:
        """SIGTERM (graceful drain), SIGKILL past ``timeout``; waits for
        the process and every descendant to end.  Idempotent."""
        if self.stopped:
            return
        self.stopped = True
        pids = process_tree(self.proc.pid)[1:]
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        deadline = time.monotonic() + 5.0
        for pid in pids:
            while _alive(pid):
                if time.monotonic() > deadline:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except OSError:
                        pass
                time.sleep(0.01)
        for thread in self._threads:
            thread.join(5.0)


class Client:
    """One keep-alive HTTP/1.1 connection to the program."""

    def __init__(self, address: tuple[str, int], timeout: float = 60.0) -> None:
        self.address = address
        self.conn = http.client.HTTPConnection(*address, timeout=timeout)
        #: HTTP exchanges made, of any kind.
        self.calls = 0

    def request(self, method: str, path: str, body: bytes | None = None):
        """One exchange: ``(status, headers, body bytes)``.  Transport
        errors close the connection (the next call reconnects) and
        propagate."""
        headers = {"Content-Type": "application/json"} if body else {}
        self.calls += 1
        try:
            self.conn.request(method, path, body=body, headers=headers)
            response = self.conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException):
            self.conn.close()
            raise
        return response.status, response.headers, data

    def get_json(self, path: str):
        status, _, data = self.request("GET", path)
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}: {data[:200]!r}")
        return json.loads(data)

    def get_text(self, path: str) -> str:
        status, _, data = self.request("GET", path)
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}")
        return data.decode("utf-8")

    def close(self) -> None:
        self.conn.close()


def parse_metrics(text: str) -> dict[str, list[tuple[dict, float]]]:
    """Prometheus text exposition -> ``{name: [(labels, value)]}``."""
    samples: dict[str, list[tuple[dict, float]]] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        head, _, value = line.rpartition(" ")
        name, _, labels = head.partition("{")
        samples.setdefault(name, []).append(
            (dict(_LABEL.findall(labels)), float(value))
        )
    return samples


def metric_total(samples: dict, name: str, **match: str) -> float:
    """Sum of every sample of ``name`` whose labels include ``match``."""
    return sum(
        value
        for labels, value in samples.get(name, ())
        if all(labels.get(key) == want for key, want in match.items())
    )


def metric_by(samples: dict, name: str, label: str) -> dict[str, float]:
    """Samples of ``name`` summed per value of ``label``."""
    totals: dict[str, float] = {}
    for labels, value in samples.get(name, ()):
        key = labels.get(label, "")
        totals[key] = totals.get(key, 0.0) + value
    return totals
