"""The service workload's daemon, wire client and memory probe.

:class:`Daemon` starts ``python -m repro.service serve`` on a Unix socket
inside the benchmark's output directory and always stops it again: a
``shutdown`` request first, then a kill if the daemon does not exit.
:meth:`Daemon.run` is a minimal JSON-lines client written against
:mod:`repro.service.protocol`; unlike ``ServiceClient`` it keeps the raw
lines, so it can count wire bytes and time its own JSON decoding.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import time
from typing import Dict, List, Optional

from repro.service import protocol
from repro.service.client import ServiceClient, ServiceError

clock = time.perf_counter

#: seconds to wait for the daemon to answer its first ping.
START_TIMEOUT_S = 60.0
#: seconds to wait for the daemon to exit after ``shutdown``.
STOP_TIMEOUT_S = 30.0
#: per-socket-operation timeout of the benchmark's client.
SOCKET_TIMEOUT_S = 170.0


class WireRun:
    """What one streamed ``run`` request delivered, timed by the client."""

    def __init__(self):
        #: ``case`` payloads of the ``TestCaseFound`` events.
        self.cases: List[Dict] = []
        #: the ``PathCompleted`` wire events themselves.
        self.completed: List[Dict] = []
        self.gaps: List[float] = []
        self.first_event_s = 0.0
        self.first_case_s = 0.0
        self.wall_s = 0.0
        self.events = 0
        self.wire_bytes = 0
        self.decode_s = 0.0
        #: metrics of the last ``MetricsUpdated`` event (the run totals).
        self.metrics: Dict = {}
        self.result: Dict = {}


class Daemon:
    """One ``repro.service`` daemon process and its worker pool."""

    def __init__(self, out_dir: str, workers: int, trace: bool):
        self.out_dir = out_dir
        self.socket_path = os.path.relpath(
            os.path.join(out_dir, f"svc-{os.getpid()}.sock")
        )
        self.workers = workers
        self.trace = trace
        self.proc: Optional[subprocess.Popen] = None
        self._log = None

    def __enter__(self) -> "Daemon":
        command = [
            sys.executable, "-m", "repro.service", "serve",
            "--socket", self.socket_path,
            "--workers", str(self.workers),
            "--max-time-budget", "160",
        ]
        if self.trace:
            command.append("--trace")
        self._log = open(os.path.join(self.out_dir, f"svc-{os.getpid()}.log"), "wb")
        try:
            self.proc = subprocess.Popen(
                command, stdout=subprocess.DEVNULL, stderr=self._log
            )
        except OSError:
            self._log.close()
            raise
        try:
            ServiceClient(
                self.socket_path,
                timeout=5.0,
                retries=10_000,
                backoff=0.01,
                backoff_max=0.05,
                deadline=START_TIMEOUT_S,
            ).ping()
        except BaseException:
            self._stop()
            raise
        return self

    def __exit__(self, *_exc) -> bool:
        self._stop()
        return False

    def _stop(self) -> None:
        proc = self.proc
        if proc is None:
            return
        try:
            if proc.poll() is None:
                try:
                    ServiceClient(self.socket_path, timeout=5.0).shutdown()
                except (OSError, ServiceError):
                    pass  # already gone or wedged: the wait below decides
                try:
                    proc.wait(timeout=STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    for pid in _descendants(proc.pid):
                        _kill(pid)
                    proc.kill()
                    proc.wait()
        finally:
            self.proc = None
            self._log.close()
            if proc.returncode == 0:
                os.unlink(self._log.name)
            if os.path.exists(self.socket_path):
                os.unlink(self.socket_path)

    # -- requests ----------------------------------------------------------------

    def warm_up(self, clay: str, config: Dict) -> None:
        """Run a small different program so the worker pool is spawned."""
        ServiceClient(self.socket_path, timeout=SOCKET_TIMEOUT_S).run(
            clay=clay, config=dict(config, max_ll_paths=0)
        )

    def stats(self) -> Dict:
        return ServiceClient(self.socket_path, timeout=SOCKET_TIMEOUT_S).stats()

    def run(self, clay: str, config: Dict) -> WireRun:
        """Submit one session and consume its event stream to the end."""
        run = WireRun()
        request = {"op": "run", "clay": clay, "config": config}
        start = clock()
        last_case = None
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(SOCKET_TIMEOUT_S)
        with sock:
            sock.connect(self.socket_path)
            with sock.makefile("rwb") as fh:
                protocol.write_message(fh, request)
                while True:
                    line = fh.readline()
                    now = clock()
                    if not line:
                        raise RuntimeError("daemon closed the stream before RunFinished")
                    if not run.events:
                        run.first_event_s = now - start
                    run.events += 1
                    run.wire_bytes += len(line)
                    message = json.loads(line)
                    run.decode_s += clock() - now
                    if "error" in message:
                        raise RuntimeError(f"daemon error: {message['error']}")
                    kind = message.get("event")
                    if kind == "TestCaseFound":
                        if last_case is None:
                            run.first_case_s = now - start
                        else:
                            run.gaps.append(now - last_case)
                        last_case = now
                        run.cases.append(message["case"])
                    elif kind == "PathCompleted":
                        run.completed.append(message)
                    elif kind == "MetricsUpdated":
                        run.metrics = message["metrics"]
                    elif kind == "RunFinished":
                        run.result = message["result"]
                        break
        run.wall_s = clock() - start
        return run

    # -- memory ----------------------------------------------------------------

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the daemon plus every descendant."""
        pids = [self.proc.pid] + _descendants(self.proc.pid)
        return sum(_vm_hwm_kb(pid) for pid in pids) / 1024.0


def _children_map() -> Dict[int, List[int]]:
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                stat = fh.read().decode("ascii", "replace")
        except OSError:
            continue
        # The command name may hold spaces; fields resume after ")".
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    return children


def _descendants(pid: int) -> List[int]:
    children = _children_map()
    found, todo = [], [pid]
    while todo:
        for child in children.get(todo.pop(), []):
            found.append(child)
            todo.append(child)
    return found


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", "r") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _kill(pid: int) -> None:
    try:
        os.kill(pid, 9)
    except OSError:
        pass


def _span_sum(metrics: Dict, name: str) -> float:
    value = metrics.get("span." + name)
    return float(value.get("sum", 0.0)) if isinstance(value, dict) else 0.0


def _span_count(metrics: Dict, name: str) -> int:
    value = metrics.get("span." + name)
    return int(value.get("count", 0)) if isinstance(value, dict) else 0


def layer_report(
    run: WireRun, metrics: Dict, stats: Dict, stats_before: Dict
) -> Dict[str, float]:
    """Per-layer numbers of one traced service run.

    ``metrics`` is the run's last ``MetricsUpdated`` payload, which folds
    in the spans the daemon's workers record under ``--trace``; ``stats``
    and ``stats_before`` are the daemon's ``stats`` replies after and
    before the run (pool counters, the daemon's session span).
    Worker-side spans (decode, run_path, encode, solver) overlap the
    coordinator's wait for each round, so they are reported but kept out
    of the wall-time accounting.  That accounting follows the blocking
    chain of the session: the coordinator's round waits, merges and
    selections; the rest of the client-side wall is ``unattributed_s``.
    """
    encode = _span_sum(metrics, "snapshot.encode")
    decode = _span_sum(metrics, "snapshot.decode")
    run_path = _span_sum(metrics, "engine.run_path")
    ship_wait = _span_sum(metrics, "parallel.ship")
    merge = _span_sum(metrics, "parallel.merge")
    select = _span_sum(metrics, "chef.select")
    return {
        "chef.select_s": select,
        "chef.select_calls": _span_count(metrics, "chef.select"),
        "chef.add_s": _span_sum(metrics, "chef.classify"),
        "solver.check_s": _span_sum(metrics, "solver.check"),
        "parallel.encode_s": encode,
        "parallel.decode_s": decode,
        "parallel.worker_run_path_s": run_path,
        "parallel.ship_wait_s": ship_wait,
        "parallel.merge_s": merge,
        "parallel.transport_ratio": (encode + decode) / run_path if run_path else 0.0,
        "parallel.classify_steps": metrics.get("coordinator.classify_steps", 0),
        "parallel.rounds": _span_count(metrics, "parallel.ship"),
        "parallel.pool_spawns": stats["pool"]["spawns"],
        "parallel.program_ships": stats["pool"]["program_ships"],
        "service.session_s": _span_sum(stats["metrics"], "service.session")
        - _span_sum(stats_before["metrics"], "service.session"),
        "service.first_event_s": run.first_event_s,
        "service.events": run.events,
        "service.wire_bytes": run.wire_bytes,
        "service.client_decode_s": run.decode_s,
        "traced_wall_s": run.wall_s,
        "unattributed_s": run.wall_s - (ship_wait + merge + select),
    }
