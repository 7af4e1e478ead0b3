#!/usr/bin/env python3
"""CI smoke: a real ``repro serve`` process answers raw-socket queries.

Launches the CLI server on loopback over the TINY tree, then — using
only the standard library, with the query built and the answer parsed
by the classic raw ``struct`` layout rather than the server's own
codec — resolves three of its sample names over UDP, repeats one query
over TCP (the truncation-fallback transport, RFC 1035 §4.2.2 framing),
sends three malformed datagrams (a 5-octet runt must get no reply, a
two-question header and a query name ending in a compression pointer
must get FORMERR) each followed by a good query that must still be
answered, and scrapes the metrics endpoint for nonzero query counters.
Last it stops the server and reads the rest of its log: a resolution
that raises is answered SERVFAIL and only logged, so a traceback or an
unhandled callback error in the log fails the smoke too.

Exit status 0 means every check passed; any failure raises.
"""

from __future__ import annotations

import os
import re
import socket
import struct
import subprocess
import sys
import time
import urllib.request

HOST = "127.0.0.1"
DNS_PORT = int(os.environ.get("SMOKE_DNS_PORT", "5355"))
METRICS_PORT = int(os.environ.get("SMOKE_METRICS_PORT", "9155"))
STARTUP_SECONDS = 90.0

_DIG_LINE = re.compile(r"dig @\S+ -p \d+ (\S+) A$")
_LOG_ERROR = re.compile(r"Traceback|never retrieved|Exception in callback")


def build_query(tid: int, domain: str, qdcount: int = 1) -> bytes:
    header = struct.pack("!HHHHHH", tid, 0x0100, qdcount, 0, 0, 0)
    qname = b"".join(
        bytes([len(part)]) + part.encode()
        for part in domain.rstrip(".").split(".")
    ) + b"\x00"
    return header + (qname + struct.pack("!HH", 1, 1)) * qdcount


def read_name(data: bytes, offset: int) -> tuple[str, int]:
    labels = []
    end = None
    while True:
        length = data[offset]
        if length & 0xC0 == 0xC0:
            pointer = struct.unpack("!H", data[offset:offset + 2])[0] & 0x3FFF
            if end is None:
                end = offset + 2
            offset = pointer
            continue
        offset += 1
        if length == 0:
            return ".".join(labels), (end if end is not None else offset)
        labels.append(data[offset:offset + length].decode())
        offset += length


def parse_reply(data: bytes, tid: int) -> list[tuple[str, int, str]]:
    """Header checks + the answer section as (owner, ttl, dotted-quad)."""
    got_tid, flags, qdcount, ancount, _ns, _ar = struct.unpack(
        "!HHHHHH", data[:12]
    )
    assert got_tid == tid, f"transaction id {got_tid:#x} != {tid:#x}"
    assert flags & 0x8000, "QR bit clear on a response"
    rcode = flags & 0xF
    assert rcode == 0, f"rcode {rcode}"
    offset = 12
    for _ in range(qdcount):
        _, offset = read_name(data, offset)
        offset += 4
    answers = []
    for _ in range(ancount):
        owner, offset = read_name(data, offset)
        rtype, _rclass, ttl, rdlength = struct.unpack(
            "!HHIH", data[offset:offset + 10]
        )
        offset += 10
        if rtype == 1 and rdlength == 4:
            answers.append(
                (owner, ttl,
                 ".".join(str(b) for b in data[offset:offset + 4]))
            )
        offset += rdlength
    return answers


def udp_query(domain: str, tid: int, timeout: float = 3.0) -> bytes:
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
        sock.settimeout(timeout)
        sock.sendto(build_query(tid, domain), (HOST, DNS_PORT))
        while True:
            data, _ = sock.recvfrom(4096)
            if len(data) >= 2 and struct.unpack("!H", data[:2])[0] == tid:
                return data


def udp_exchange(packet: bytes, timeout: float) -> bytes | None:
    """Send one raw datagram; the first reply, or None after ``timeout``."""
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
        sock.settimeout(timeout)
        sock.sendto(packet, (HOST, DNS_PORT))
        try:
            return sock.recvfrom(4096)[0]
        except socket.timeout:
            return None


def expect_formerr(packet: bytes, tid: int, what: str) -> None:
    reply = udp_exchange(packet, timeout=3.0)
    assert reply is not None, f"no reply to {what}"
    got_tid, flags = struct.unpack("!HH", reply[:4])
    assert got_tid == tid, f"FORMERR id {got_tid:#x} != {tid:#x}"
    assert flags & 0x8000, "QR bit clear on the FORMERR"
    assert flags & 0xF == 1, f"rcode {flags & 0xF} for {what}, not FORMERR"


def check_malformed(domain: str) -> None:
    """A runt datagram gets no reply; a two-question header and a query
    name with a compression pointer get FORMERR with their ids; after
    each, a good query is still answered."""
    runt = udp_exchange(b"\x70\x01\x01\x00\x00", timeout=0.5)
    assert runt is None, f"a 5-octet datagram was answered: {runt!r}"
    assert parse_reply(udp_query(domain, tid=0x7011), tid=0x7011)
    print("malformed ok: 5-octet datagram dropped, next query answered")

    expect_formerr(build_query(0x7002, domain, qdcount=2), 0x7002,
                   "a two-question query")
    assert parse_reply(udp_query(domain, tid=0x7012), tid=0x7012)
    print("malformed ok: QDCOUNT=2 got FORMERR, next query answered")

    # The first label, then a pointer back at it (offset 12): a name only
    # a response may compress.
    first = domain.split(".")[0].encode()
    pointer = (
        struct.pack("!HHHHHH", 0x7003, 0x0100, 1, 0, 0, 0)
        + bytes([len(first)]) + first + b"\xc0\x0c" + struct.pack("!HH", 1, 1)
    )
    expect_formerr(pointer, 0x7003, "a compressed query name")
    assert parse_reply(udp_query(domain, tid=0x7013), tid=0x7013)
    print("malformed ok: pointer in the qname got FORMERR, next query answered")


def tcp_query(domain: str, tid: int, timeout: float = 5.0) -> bytes:
    packet = build_query(tid, domain)
    with socket.create_connection((HOST, DNS_PORT), timeout=timeout) as sock:
        sock.sendall(struct.pack("!H", len(packet)) + packet)
        header = _recv_exact(sock, 2)
        (length,) = struct.unpack("!H", header)
        return _recv_exact(sock, length)


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = b""
    while len(chunks) < count:
        chunk = sock.recv(count - len(chunks))
        if not chunk:
            raise AssertionError("TCP connection closed mid-message")
        chunks += chunk
    return chunks


def wait_for_names(proc: subprocess.Popen) -> list[str]:
    """Read the server's startup banner until three sample names print."""
    names: list[str] = []
    deadline = time.time() + STARTUP_SECONDS
    assert proc.stdout is not None
    while len(names) < 3:
        if time.time() > deadline:
            raise AssertionError(
                f"server printed {len(names)} sample names "
                f"within {STARTUP_SECONDS}s"
            )
        line = proc.stdout.readline()
        if not line:
            raise AssertionError(
                f"server exited early with status {proc.poll()}"
            )
        print(f"[server] {line.rstrip()}")
        match = _DIG_LINE.search(line.strip())
        if match:
            names.append(match.group(1))
    return names


def main() -> None:
    proc = subprocess.Popen(
        [
            sys.executable, "-u", "-m", "repro", "serve",
            "--scale", "tiny", "--seed", "7",
            "--host", HOST,
            "--port", str(DNS_PORT),
            "--metrics-port", str(METRICS_PORT),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        names = wait_for_names(proc)

        for index, domain in enumerate(names):
            reply = udp_query(domain, tid=0x5000 + index)
            answers = parse_reply(reply, tid=0x5000 + index)
            assert answers, f"no A answers for {domain} over UDP"
            print(f"udp ok: {domain} -> "
                  + ", ".join(f"{quad} (ttl {ttl})" for _o, ttl, quad in answers))

        tcp_reply = tcp_query(names[0], tid=0x6000)
        tcp_answers = parse_reply(tcp_reply, tid=0x6000)
        assert tcp_answers, f"no A answers for {names[0]} over TCP"
        udp_answers = parse_reply(udp_query(names[0], tid=0x6001), tid=0x6001)
        assert {quad for _o, _t, quad in tcp_answers} == {
            quad for _o, _t, quad in udp_answers
        }, "TCP and UDP answers disagree"
        print(f"tcp ok: {names[0]} matches the UDP answer")

        check_malformed(names[0])

        body = urllib.request.urlopen(
            f"http://{HOST}:{METRICS_PORT}/metrics", timeout=10
        ).read().decode("utf-8")
        counts = {
            transport: int(value)
            for transport, value in re.findall(
                r'repro_serve_queries_total\{transport="(\w+)"\} (\d+)', body
            )
        }
        assert counts.get("udp", 0) >= 7, f"udp counter too low: {counts}"
        assert counts.get("tcp", 0) >= 1, f"tcp counter missing: {counts}"
        assert "repro_events_total" in body, "obs sink block missing"
        print(f"metrics ok: {counts}")
    finally:
        proc.terminate()
        try:
            log = proc.communicate(timeout=15)[0]
        except subprocess.TimeoutExpired:
            proc.kill()
            log = proc.communicate()[0]
    assert not _LOG_ERROR.search(log), f"server logged an error:\n{log}"
    print("log ok: no traceback or unhandled callback error")
    print("serve smoke passed")


if __name__ == "__main__":
    main()
