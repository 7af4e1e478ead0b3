"""UDP load generators for a running ``repro serve``: closed and open loop.

Both run in ONE thread of the benchmark process (a serve workload keeps
itself and its server on one CPU), send pre-encoded packets so the timed region
holds no codec work, and keep every reply's bytes so each answer can be
checked against the reference *after* the clock has stopped.

* **Closed loop** (:func:`run_closed`) — ``clients`` sockets, each with
  exactly one query in flight: the next goes out when the reply comes
  in.  The wire protocol is :func:`repro.serve.driver.run_load`'s (an A
  question per packet, replies matched by message id); a slow server
  receives less load, so this measures service time, not queueing.
* **Open loop** (:func:`run_open`) — one socket, a seeded Poisson
  schedule (``random.expovariate``), after *Modeling and Predicting DNS
  Server Load*: independent stubs do not wait for each other.  Latency
  is timed from each query's **due** time, so a stall is charged to
  every query it delayed, and how late the generator itself ran is
  reported next to it.  A message id is never reused while its query is
  in flight.
"""

from __future__ import annotations

import random
import select
import socket
import struct
import time
from dataclasses import dataclass, field

_ID = struct.Struct("!H")
_RECV_SIZE = 4096


@dataclass
class LoadResult:
    """What one load run saw; verification happens on ``replies`` later."""

    sent: int = 0
    timeouts: int = 0
    wall_s: float = 0.0
    replies: list[tuple[int, bytes]] = field(default_factory=list)
    """(index into the packet list, reply bytes) per answered query."""
    latency_s: list[float] = field(default_factory=list)
    late_s: list[float] = field(default_factory=list)
    """Open loop only: send time minus due time, per query sent."""


def with_id(packet: bytes, message_id: int) -> bytes:
    """``packet`` with its 16-bit message id replaced."""
    return _ID.pack(message_id) + packet[2:]


def _socket_to(address: tuple[str, int]) -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.setblocking(False)
    sock.connect(address)
    return sock


def run_closed(
    address: tuple[str, int],
    packets: list[bytes],
    clients: int,
    first: int = 0,
    count: int | None = None,
    seconds: float | None = None,
    timeout: float = 2.0,
) -> LoadResult:
    """Drive ``clients`` closed-loop clients over ``packets``.

    The clients share one cursor: whichever is idle sends packet
    ``first``, ``first + 1``, ... (cycling), until ``count`` have been
    sent or ``seconds`` have passed, whichever comes first; with neither,
    one pass over the list.  Packets within 65535 of each other must not
    share a message id.
    """
    if not packets or clients < 1:
        raise ValueError("run_closed needs packets and at least one client")
    if count is None and seconds is None:
        count = len(packets)
    result = LoadResult()
    socks = [_socket_to(address) for _ in range(clients)]
    try:
        in_flight = [-1] * clients
        started = [0.0] * clients
        poller = select.poll()
        by_fd = {}
        for w, sock in enumerate(socks):
            poller.register(sock.fileno(), select.POLLIN)
            by_fd[sock.fileno()] = w
        now = time.perf_counter
        begin = now()
        deadline = None if seconds is None else begin + seconds

        def send_next(w: int) -> bool:
            """Client ``w`` is idle: send the next packet unless the run is over."""
            in_flight[w] = -1
            if count is not None and result.sent >= count:
                return False
            if deadline is not None and now() >= deadline:
                return False
            index = (first + result.sent) % len(packets)
            in_flight[w] = index
            started[w] = now()
            try:
                socks[w].send(packets[index])
            except (BlockingIOError, ConnectionError):
                pass  # counted as a timeout when it never comes back
            result.sent += 1
            return True

        live = sum(send_next(w) for w in range(clients))
        while live:
            ready = poller.poll(100)
            arrived = now()
            for fd, _event in ready:
                w = by_fd[fd]
                try:
                    data = socks[w].recv(_RECV_SIZE)
                except (BlockingIOError, ConnectionError):
                    continue
                index = in_flight[w]
                if index < 0 or data[:2] != packets[index][:2]:
                    continue  # a reply that outlived its timeout
                result.replies.append((index, data))
                result.latency_s.append(arrived - started[w])
                live -= not send_next(w)
            for w in range(clients):
                if in_flight[w] >= 0 and arrived - started[w] > timeout:
                    result.timeouts += 1
                    live -= not send_next(w)
        result.wall_s = now() - begin
    finally:
        for sock in socks:
            sock.close()
    return result


def poisson_schedule(rate: float, seconds: float, seed: int) -> list[float]:
    """Due times (seconds from the start) of a seeded Poisson process."""
    rng = random.Random(seed)
    due: list[float] = []
    at = rng.expovariate(rate)
    while at < seconds:
        due.append(at)
        at += rng.expovariate(rate)
    return due


def run_open(
    address: tuple[str, int],
    packets: list[bytes],
    rate: float,
    seconds: float,
    seed: int,
    first: int = 0,
    timeout: float = 2.0,
) -> LoadResult:
    """Send ``packets`` (cycled from ``first``) on a Poisson schedule.

    Query ``i`` is due at ``schedule[i]`` whether or not earlier ones
    were answered; its latency runs from that due time to its reply.
    The call returns once every query is answered or timed out.
    """
    if not packets:
        raise ValueError("run_open needs packets")
    due = poisson_schedule(rate, seconds, seed)
    result = LoadResult()
    sock = _socket_to(address)
    # message id -> (query number, due time); insertion order is send
    # order, so the first entry is always the oldest in flight.
    in_flight: dict[int, tuple[int, float]] = {}
    next_id = 1
    now = time.perf_counter
    try:
        begin = now()
        sent = 0
        total = len(due)
        while sent < total or in_flight:
            clock = now() - begin
            while sent < total and due[sent] <= clock:
                while next_id in in_flight:
                    next_id = next_id % 0xFFFF + 1
                in_flight[next_id] = (sent, due[sent])
                result.late_s.append(clock - due[sent])
                try:
                    sock.send(with_id(packets[(first + sent) % len(packets)], next_id))
                except (BlockingIOError, ConnectionError):
                    pass  # counted as a timeout when it never comes back
                next_id = next_id % 0xFFFF + 1
                sent += 1
                clock = now() - begin
            while in_flight:
                oldest = next(iter(in_flight))
                if clock - in_flight[oldest][1] <= timeout:
                    break
                del in_flight[oldest]
                result.timeouts += 1
            if sent < total:
                wait = max(0.0, due[sent] - clock)
            elif in_flight:
                wait = 0.05
            else:
                break
            readable, _, _ = select.select([sock], [], [], wait)
            if not readable:
                continue
            while True:
                try:
                    data = sock.recv(_RECV_SIZE)
                except BlockingIOError:
                    break
                except ConnectionError:
                    continue
                arrived = now() - begin
                if len(data) < _ID.size:
                    continue
                entry = in_flight.pop(_ID.unpack_from(data)[0], None)
                if entry is None:
                    continue  # a reply that outlived its timeout
                number, due_at = entry
                result.replies.append(((first + number) % len(packets), data))
                result.latency_s.append(arrived - due_at)
        result.sent = sent
        result.wall_s = now() - begin
    finally:
        sock.close()
    return result
