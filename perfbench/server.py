"""The ``serve`` process under test and the HTTP client that drives it."""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, List, Optional, Tuple
from urllib.parse import quote, urlencode

clock = time.monotonic

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent

# The port must be followed by a space: a read that catches the line half
# written must not take a prefix of the port for the port.
_LISTENING = re.compile(r"on http://[^:\s]+:(\d+)\s")


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a wrong answer)."""


class Client:
    """One keep-alive HTTP connection; every call returns its latency."""

    def __init__(self, port: int) -> None:
        self._connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)

    def call(self, method: str, path: str, body: Optional[dict] = None) -> Tuple[int, Any, float, float]:
        """Send one request; returns ``(status, payload, start, end)``.

        ``status`` is 0 when the connection failed.  The interval covers
        sending the request and reading the whole body, not JSON decoding.
        """
        data = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"} if data is not None else {}
        start = clock()
        try:
            self._connection.request(method, path, body=data, headers=headers)
            response = self._connection.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException):
            self._connection.close()
            return 0, None, start, clock()
        end = clock()
        return response.status, (json.loads(raw) if raw else None), start, end

    def search(self, query: Optional[str] = None, cursor: Optional[str] = None):
        params = {"cursor": cursor} if cursor is not None else {"q": query}
        return self.call("GET", "/search?" + urlencode(params))

    def compare(self, query: str, top: int, algorithm: str):
        return self.call("POST", "/compare", {"query": query, "top": top, "algorithm": algorithm})

    def ingest(self, doc_id: str, xml: str):
        return self.call("POST", "/documents", {"doc_id": doc_id, "xml": xml})

    def delete(self, doc_id: str):
        return self.call("DELETE", "/documents/" + quote(doc_id, safe=""))

    def close(self) -> None:
        self._connection.close()


class Server:
    """A running ``serve`` process, booted and probed by :meth:`boot`."""

    def __init__(self, process: subprocess.Popen, port: int) -> None:
        self.process = process
        self.port = port

    @classmethod
    def boot(
        cls,
        serve_args: List[str],
        log_path: Path,
        probe_query: str,
        spans_path: Optional[Path] = None,
        timeout: float = 120.0,
    ) -> Tuple["Server", float]:
        """Launch ``serve``; return it with its first-query-ready time in s.

        With ``spans_path`` the server runs under the span recorder
        (``traced_serve.py``), which writes its spans there at shutdown.
        """
        if spans_path is None:
            command = [sys.executable, "-m", "repro.cli", "serve"]
        else:
            command = [sys.executable, str(BENCH_DIR / "traced_serve.py"), str(spans_path), "serve"]
        command += serve_args + ["--host", "127.0.0.1", "--port", "0"]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
        with open(log_path, "wb") as log:
            start = clock()
            process = subprocess.Popen(
                command, stdout=log, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
                env=env, cwd=str(ROOT),
            )
        server = None
        try:
            port = _wait_for_port(process, log_path, start + timeout)
            server = cls(process, port)
            client = Client(port)
            status = client.search(probe_query)[0]
            client.close()
            ready = clock() - start
            if status != 200:
                raise BenchError(f"first /search answered {status}")
            return server, ready
        except BaseException:
            if server is None:
                _stop_process(process)
            else:
                server.stop()
            raise

    def peak_rss_mb(self) -> float:
        """The server's peak resident set size (``VmHWM``) in MiB."""
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """Interrupt the server (it then writes any spans) and wait for it."""
        _stop_process(self.process)

    def kill(self) -> None:
        """End a server whose shutdown output is not needed, and wait for it."""
        self.process.kill()
        self.process.wait()


def _wait_for_port(process: subprocess.Popen, log_path: Path, deadline: float) -> int:
    while clock() < deadline:
        text = log_path.read_text(encoding="utf-8", errors="replace")
        found = _LISTENING.search(text)
        if found:
            return int(found.group(1))
        if process.poll() is not None:
            raise BenchError(f"serve exited with {process.returncode}:\n{text[-2000:]}")
        time.sleep(0.002)
    raise BenchError("serve did not start listening in time")


def _stop_process(process: subprocess.Popen) -> None:
    if process.poll() is None:
        process.send_signal(signal.SIGINT)
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
