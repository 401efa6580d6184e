"""A ``python -m repro serve`` daemon in a subprocess, and a blocking client."""

from __future__ import annotations

import http.client
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from typing import Dict, Optional, Tuple

from paths import SRC


class ServiceError(RuntimeError):
    """A non-2xx reply or a daemon that would not start."""


class Daemon:
    """One daemon on an ephemeral loopback port; stop it with :meth:`stop`."""

    def __init__(self, state_dir: str, timeout: float = 60.0) -> None:
        # A fresh state directory: a reused one would reload its job table.
        shutil.rmtree(state_dir, ignore_errors=True)
        os.makedirs(state_dir)
        port_file = os.path.join(state_dir, "port")
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        self._log = open(os.path.join(state_dir, "daemon.log"), "wb")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "-q", "--port", "0",
             "--state-dir", state_dir, "--port-file", port_file],
            env=env, stdout=self._log, stderr=subprocess.STDOUT,
        )
        deadline = time.monotonic() + timeout
        try:
            while not (os.path.exists(port_file) and open(port_file).read().strip()):
                if self.process.poll() is not None:
                    code = self.process.returncode
                    raise ServiceError(f"daemon exited at start-up (code {code})")
                if time.monotonic() > deadline:
                    raise ServiceError("daemon did not bind in time")
                time.sleep(0.01)
            self.port = int(open(port_file).read())
            self.request("GET", "/status")
        except BaseException:
            self.stop()
            raise

    def request(self, method: str, path: str, payload: Optional[dict] = None) -> Dict:
        """One JSON request; raises :class:`ServiceError` on a non-2xx reply."""
        status, body = self.raw(method, path, payload)
        if not 200 <= status < 300:
            raise ServiceError(f"{method} {path} -> {status}: {body[:200]!r}")
        return json.loads(body)

    def raw(self, method: str, path: str, payload: Optional[dict] = None) -> Tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=170)
        try:
            body = json.dumps(payload).encode() if payload is not None else None
            headers = {"Content-Type": "application/json"} if body else {}
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def run_job(self, spec: Dict) -> Tuple[Dict, Dict, float, float]:
        """Submit, follow the event stream to EOF, fetch the result.

        Returns ``(job, result payload, submitted, received)`` with client
        :func:`time.time` stamps, comparable to the job's own timestamps.
        """
        submitted = time.time()
        job_id = self.request("POST", "/jobs", spec)["job"]["id"]
        status, _ = self.raw("GET", f"/jobs/{job_id}/events?stream=1")
        if status != 200:
            raise ServiceError(f"event stream of {job_id} -> {status}")
        result = self.request("GET", f"/jobs/{job_id}/result")
        received = time.time()
        job = self.request("GET", f"/jobs/{job_id}")["job"]
        return job, result, submitted, received

    def stop(self) -> None:
        """SIGTERM, wait for the graceful exit; kill if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)
        self._log.close()
