"""A single-process load generator speaking the daemon's framed protocol.

One asyncio loop drives at most ``nproc`` TCP connections.  The daemon
answers every submission of a connection concurrently and tags replies
with the request id, so the open loop can send on schedule without waiting
for earlier replies; a stalled daemon shows up as latency, not as fewer
requests sent.
"""

from __future__ import annotations

import asyncio
import json
import socket
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.crypto.transport import _LEN_PREFIX, decode_array, encode_array

_JSON = b"J"
_ARRAY = b"A"
_HEARTBEAT = b"H"


@dataclass
class Outcome:
    """One request as the client saw it (times in ``perf_counter_ns``)."""

    rid: int
    queries: np.ndarray
    phase: str
    due: int
    sent: int
    done: int = 0
    #: "result", "backpressure" or "error"
    kind: str = ""
    logits: Optional[np.ndarray] = None
    job_seeds: Optional[List[int]] = None
    retry_after_ms: float = 0.0
    codec_ns: int = 0

    @property
    def ok(self) -> bool:
        return self.kind == "result"

    @property
    def latency_ms(self) -> Optional[float]:
        """From the time the request was due to the decoded reply."""
        return (self.done - self.due) / 1e6 if self.ok else None


class Connection:
    """One framed connection; replies resolve futures by request id."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer
        self.pending: Dict[int, Tuple[Outcome, asyncio.Future]] = {}
        self._reading = asyncio.get_running_loop().create_task(self._read_loop())

    @classmethod
    async def open(cls, host: str, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(host, port)
        writer.get_extra_info("socket").setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return cls(reader, writer)

    def submit(self, outcome: Outcome, model: str) -> asyncio.Future:
        started = time.perf_counter_ns()
        header = json.dumps({"kind": "submit", "id": outcome.rid, "model": model}).encode()
        body = encode_array(outcome.queries)
        outcome.codec_ns += time.perf_counter_ns() - started
        frames = b"".join(
            _LEN_PREFIX.pack(1 + len(payload)) + kind + payload
            for kind, payload in ((_JSON, header), (_ARRAY, body))
        )
        future = asyncio.get_running_loop().create_future()
        self.pending[outcome.rid] = (outcome, future)
        self.writer.write(frames)
        return future

    async def _frame(self) -> Tuple[bytes, bytes]:
        (length,) = _LEN_PREFIX.unpack(await self.reader.readexactly(4))
        body = await self.reader.readexactly(length)
        return body[:1], body[1:]

    async def _read_loop(self) -> None:
        try:
            while True:
                kind, body = await self._frame()
                if kind == _HEARTBEAT:
                    continue
                reply = json.loads(body)
                outcome, future = self.pending.pop(reply["id"])
                outcome.kind = reply["kind"]
                if outcome.kind == "result":
                    kind, body = await self._frame()
                    started = time.perf_counter_ns()
                    outcome.logits, _ = decode_array(body)
                    outcome.done = time.perf_counter_ns()
                    outcome.codec_ns += outcome.done - started
                    outcome.job_seeds = list(reply["job_seeds"])
                else:
                    outcome.done = time.perf_counter_ns()
                    outcome.retry_after_ms = float(reply.get("retry_after_ms", 0.0))
                future.set_result(outcome)
        except (asyncio.IncompleteReadError, ConnectionError) as exc:
            for _, future in self.pending.values():
                if not future.done():
                    future.set_exception(exc)

    async def close(self) -> None:
        self._reading.cancel()
        try:
            await self._reading
        except asyncio.CancelledError:
            pass
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass


class LoadGenerator:
    """Open- and closed-loop phases over a fixed set of connections."""

    def __init__(self, host: str, port: int, model: str, connections: int) -> None:
        self.host = host
        self.port = port
        self.model = model
        self.connection_count = connections
        self.outcomes: List[Outcome] = []
        self._next_rid = 1_000_000  # clear of ids the setup client uses

    def _rid(self) -> int:
        self._next_rid += 1
        return self._next_rid

    async def _connect(self) -> List[Connection]:
        return [
            await Connection.open(self.host, self.port)
            for _ in range(self.connection_count)
        ]

    async def open_loop(
        self, schedule: Sequence[Tuple[float, np.ndarray]], phase: str, timeout: float
    ) -> None:
        """Send each request at its offset from the phase start, then await all."""
        connections = await self._connect()
        try:
            start = time.perf_counter_ns() + 5_000_000
            futures = []
            for index, (offset, queries) in enumerate(schedule):
                due = start + int(offset * 1e9)
                delay = (due - time.perf_counter_ns()) / 1e9
                if delay > 0:
                    await asyncio.sleep(delay)
                outcome = Outcome(self._rid(), queries, phase, due, time.perf_counter_ns())
                self.outcomes.append(outcome)
                futures.append(
                    connections[index % len(connections)].submit(outcome, self.model)
                )
            await asyncio.wait_for(asyncio.gather(*futures), timeout)
        finally:
            for connection in connections:
                await connection.close()

    async def closed_loop(
        self, requests: Sequence[np.ndarray], seconds: float, phase: str
    ) -> float:
        """Each connection sends its next request when the last one returns."""
        connections = await self._connect()
        start = time.perf_counter_ns()
        end = start + int(seconds * 1e9)
        cursor = [0]

        async def client(connection: Connection) -> None:
            while time.perf_counter_ns() < end:
                queries = requests[cursor[0] % len(requests)]
                cursor[0] += 1
                now = time.perf_counter_ns()
                outcome = Outcome(self._rid(), queries, phase, now, now)
                self.outcomes.append(outcome)
                await connection.submit(outcome, self.model)
                if outcome.kind == "backpressure":
                    # a well-behaved client honours the daemon's hint
                    await asyncio.sleep(outcome.retry_after_ms / 1e3)

        try:
            await asyncio.wait_for(
                asyncio.gather(*(client(c) for c in connections)), seconds + 120.0
            )
            return (time.perf_counter_ns() - start) / 1e9
        finally:
            for connection in connections:
                await connection.close()
