"""HTTP client and load generators for the serving part.

All serving load comes from the benchmark process, over at most two
connections and two threads (the host it was sized for has two CPUs):

* :func:`open_loop` — two pipelined HTTP/1.1 connections, one for
  reads and job polls and one for commits.  A writer thread sends each
  operation when it is due (Poisson arrivals, drawn in advance from the
  seed) and polls submitted jobs; a reader thread takes the replies of
  both connections.  Reads are sent with ``wait: false`` so the
  server's own queue, batching and coalescing see the offered load, and
  a slow request never delays the sending of later ones.
* :func:`closed_loop` — two clients, one connection each, sending the
  next operation as soon as the previous reply arrives.

A read is timed from its due time to the job's server-side
``finished_at`` (client and server share the host clock); a commit is
timed from its due time to the arrival of its reply.
"""

from __future__ import annotations

import heapq
import itertools
import json
import selectors
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = [
    "CLIENTS", "Connection", "FAILED_LATENCY_S", "Op", "closed_loop",
    "open_loop",
]

CLIENTS = 2
"""Closed-loop clients, one connection each."""
SOCKET_TIMEOUT_S = 120.0
POLL_DELAY_S = 0.025
"""Delay from a read's 202 reply to its first job poll."""
REPOLL_S = 0.05
"""Delay before polling again a job that has not finished."""
FAILED_LATENCY_S = 30.0
"""An op unsettled this long after its due time is timed out; a failed
or timed-out read is charged this latency, so it misses any limit."""


class Connection:
    """One persistent HTTP/1.1 connection that allows pipelining."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self.sock = socket.create_connection((host, port),
                                             timeout=SOCKET_TIMEOUT_S)
        # Send each request in one segment without waiting for the
        # server's ACK of the previous one, as HTTP client libraries do.
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buf = bytearray()

    def send(self, method: str, path: str, body: Any = None) -> None:
        if body is None:
            data = b""
        elif isinstance(body, bytes):
            data = body
        else:
            data = json.dumps(body).encode("utf-8")
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n\r\n"
        ).encode("ascii")
        self.sock.sendall(head + data)

    def _parse(self) -> tuple[int, dict[str, Any]] | None:
        """One complete response from the receive buffer, if any."""
        end = self._buf.find(b"\r\n\r\n")
        if end < 0:
            return None
        lines = bytes(self._buf[:end]).decode("latin-1").split("\r\n")
        length = 0
        for line in lines[1:]:
            key, _, value = line.partition(":")
            if key.strip().lower() == "content-length":
                length = int(value.strip())
        total = end + 4 + length
        if len(self._buf) < total:
            return None
        raw = bytes(self._buf[end + 4:total])
        del self._buf[:total]
        return int(lines[0].split()[1]), (json.loads(raw) if raw else {})

    def _recv(self) -> None:
        data = self.sock.recv(65536)
        if not data:
            raise ConnectionError("server closed the connection")
        self._buf += data

    def read(self) -> tuple[int, dict[str, Any]]:
        """Block until the next response has arrived."""
        while True:
            response = self._parse()
            if response is not None:
                return response
            self._recv()

    def read_ready(self) -> list[tuple[int, dict[str, Any]]]:
        """Every response complete after one receive (the socket must be
        readable)."""
        self._recv()
        out = []
        while (response := self._parse()) is not None:
            out.append(response)
        return out

    def call(self, method: str, path: str, body: Any = None
             ) -> tuple[int, dict[str, Any]]:
        self.send(method, path, body)
        return self.read()

    def close(self) -> None:
        self.sock.close()


@dataclass
class Op:
    """One serving operation and what became of it."""

    due: float
    kind: str                    # "read" | "commit"
    path: str
    body: dict[str, Any]
    graph: str = ""              # graph name the op targets
    shape: str = ""              # base query shape (reads)
    fresh: bool = False          # a never-seen relabeling (reads)
    version: str | None = None   # fingerprint the read must resolve to
    expect_fp: str | None = None  # commit: fingerprint of the local replay
    sent: float = 0.0
    status: int = 0
    job_id: str | None = None
    job: dict[str, Any] | None = None
    reply: dict[str, Any] | None = None
    settled: float = 0.0
    error: str | None = None
    encoded: bytes = field(default=b"", repr=False)

    def __post_init__(self) -> None:
        # Encoded once when the schedule is drawn, so the sender does no
        # work between an op's due time and its send.
        self.encoded = json.dumps(self.body).encode("utf-8")

    @property
    def ok(self) -> bool:
        if self.error is not None:
            return False
        if self.kind == "commit":
            return self.status == 200
        return self.job is not None and self.job.get("state") == "done"

    @property
    def latency_s(self) -> float:
        return self.settled - self.due


def open_loop(reads: Connection, writes: Connection, ops: list[Op]) -> None:
    """Send ``ops`` (sorted by ``due``) on schedule; reads and job polls
    are pipelined on ``reads``, commits on ``writes``, so a slow commit
    never holds up the reads behind it.  Returns when every op has
    settled or timed out."""
    cond = threading.Condition()
    pending: dict[Connection, deque[tuple[str, Op | None]]] = {
        reads: deque(), writes: deque(),
    }
    polls: list[tuple[float, int, Op]] = []
    seq = itertools.count()
    state = {"next": 0, "outstanding": len(ops), "broken": None}

    def settle(op: Op, when: float, error: str | None = None) -> None:
        op.settled = when
        op.error = error
        state["outstanding"] -= 1

    def writer() -> None:
        while True:
            with cond:
                while True:
                    if state["broken"] is not None:
                        return
                    now = time.time()
                    if state["outstanding"] == 0:
                        kind, op = "end", None
                        for queue in pending.values():
                            queue.append(("end", None))
                        break
                    i = state["next"]
                    t_op = ops[i].due if i < len(ops) else float("inf")
                    t_poll = polls[0][0] if polls else float("inf")
                    t = min(t_op, t_poll)
                    if t <= now:
                        if t_poll <= t_op:
                            op = heapq.heappop(polls)[2]
                            if now - op.due > FAILED_LATENCY_S:
                                settle(op, now, "timeout")
                                continue
                            kind = "poll"
                        else:
                            op = ops[i]
                            state["next"] = i + 1
                            kind = "op"
                        conn = writes if op.kind == "commit" else reads
                        pending[conn].append((kind, op))
                        break
                    cond.wait(timeout=min(t - now, 0.2))
            try:
                if kind == "end":
                    for conn in pending:
                        conn.send("GET", "/healthz")
                    return
                assert op is not None
                if kind == "op":
                    op.sent = time.time()
                    conn.send("POST", op.path, op.encoded)
                else:
                    conn.send("GET", f"/jobs/{op.job_id}")
            except OSError as exc:
                with cond:
                    state["broken"] = f"send failed: {exc}"
                    cond.notify_all()
                return

    def handle(kind: str, op: Op, status: int, body: dict, now: float) -> None:
        if kind == "op":
            op.status = status
            if op.kind == "commit":
                op.reply = body
                settle(op, now, None if status == 200 else
                       f"HTTP {status}: {body.get('error')}")
            elif status == 202:
                op.job_id = body["job_id"]
                heapq.heappush(polls, (now + POLL_DELAY_S, next(seq), op))
            else:
                settle(op, now, f"HTTP {status}: "
                       f"{body.get('reason') or body.get('error')}")
        elif status == 200 and body.get("finished_at"):
            op.job = body
            settle(op, float(body["finished_at"]),
                   None if body.get("state") == "done"
                   else f"job {body.get('state')}: {body.get('error')}")
        elif status == 200:
            heapq.heappush(polls, (now + REPOLL_S, next(seq), op))
        else:
            settle(op, now, f"poll HTTP {status}")

    def reader() -> None:
        selector = selectors.DefaultSelector()
        for conn in pending:
            selector.register(conn.sock, selectors.EVENT_READ, conn)
        open_conns = len(pending)
        try:
            while open_conns:
                ready = selector.select(timeout=FAILED_LATENCY_S + 60.0)
                for key, _ in ready:
                    conn = key.data
                    responses = conn.read_ready()
                    now = time.time()
                    with cond:
                        for status, body in responses:
                            kind, op = pending[conn].popleft()
                            if kind == "end":
                                open_conns -= 1
                                continue
                            assert op is not None
                            handle(kind, op, status, body, now)
                        cond.notify_all()
        except (OSError, ValueError) as exc:
            with cond:
                state["broken"] = f"read failed: {exc}"
                cond.notify_all()
        finally:
            selector.close()

    threads = [
        threading.Thread(target=writer, name="loadgen-writer", daemon=True),
        threading.Thread(target=reader, name="loadgen-reader", daemon=True),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=FAILED_LATENCY_S + 120.0)
    if state["broken"] is not None or any(t.is_alive() for t in threads):
        raise ConnectionError(
            f"open-loop connection failed: {state['broken'] or 'stalled'}"
        )


def closed_loop(
    host: str,
    port: int,
    make_op: Callable[[int, float], Op],
    seconds: float,
) -> list[Op]:
    """``CLIENTS`` clients with no think time for ``seconds``; each
    asks ``make_op(client, now)`` for its next operation."""
    deadline = time.time() + seconds
    done: list[list[Op]] = [[] for _ in range(CLIENTS)]
    errors: list[str] = []

    def client(index: int) -> None:
        conn = Connection(host, port)
        try:
            while True:
                now = time.time()
                if now >= deadline:
                    return
                op = make_op(index, now)
                op.sent = now
                status, body = conn.call("POST", op.path, op.body)
                op.status = status
                arrived = time.time()
                if op.kind == "commit":
                    op.reply = body
                    op.settled = arrived
                    if status != 200:
                        op.error = f"HTTP {status}: {body.get('error')}"
                else:
                    if status == 200:
                        op.job = body
                        op.settled = float(body.get("finished_at") or arrived)
                        if body.get("state") != "done":
                            op.error = f"job {body.get('state')}"
                    else:
                        op.settled = arrived
                        op.error = (f"HTTP {status}: "
                                    f"{body.get('reason') or body.get('error')}")
                done[index].append(op)
        except (OSError, ValueError) as exc:
            errors.append(str(exc))
        finally:
            conn.close()

    threads = [
        threading.Thread(target=client, args=(i,), name=f"closed-{i}",
                         daemon=True)
        for i in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 120.0)
    if errors or any(t.is_alive() for t in threads):
        raise ConnectionError(f"closed-loop client failed: {errors}")
    return [op for ops in done for op in ops]
