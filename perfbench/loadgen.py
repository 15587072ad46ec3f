"""HTTP load generator, run in its own process so that client work does
not compete with the service for the interpreter lock.

Two modes:

* ``open`` — an open loop: request ``i`` is due at ``start + i / rate``
  whatever happened before it, and goes out on whichever of the
  connections is free. Latency is timed from the due time, so a stall
  is charged to every request it delays; the generator's own lateness
  (send time minus due time) is returned too.
* ``seq`` — one connection, each body once, in order: the round trips
  the per-layer ledger subtracts layer times from.

Run as ``python3 -m perfbench.loadgen <fd>`` from the checkout root,
``<fd>`` being an inherited end of a ``multiprocessing.Pipe``; it
imports no NumPy.
"""

from __future__ import annotations

import http.client
import sys
import threading
import time
from multiprocessing.connection import Connection

from perfbench.harness import due_time


def post(host: str, port: int, body: bytes) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request(
            "POST", "/query", body, {"Content-Type": "application/json"}
        )
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def open_loop(host, port, bodies, *, rate, count, connections):
    """Send ``count`` requests (cycling ``bodies``) at ``rate`` per
    second over ``connections`` client threads.

    Returns one ``(index, due, sent, done, status, body)`` tuple per
    request, times in ``perf_counter`` seconds.
    """
    results = [None] * count
    lock = threading.Lock()
    next_index = [0]
    start = time.perf_counter() + 0.05

    def client() -> None:
        while True:
            with lock:
                i = next_index[0]
                if i >= count:
                    return
                next_index[0] += 1
            due = due_time(start, rate, i)
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            try:
                status, payload = post(host, port, bodies[i % len(bodies)])
            except OSError as exc:
                status, payload = 0, repr(exc).encode()
            results[i] = (i, due, sent, time.perf_counter(), status, payload)

    threads = [threading.Thread(target=client) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results


def sequential(host, port, bodies):
    """Each body once, one at a time: ``(seconds, status, body)`` each."""
    out = []
    for body in bodies:
        start = time.perf_counter()
        try:
            status, payload = post(host, port, body)
        except OSError as exc:
            status, payload = 0, repr(exc).encode()
        out.append((time.perf_counter() - start, status, payload))
    return out


def serve(conn) -> None:
    """Process entry: answer ``(mode, kwargs)`` commands on a pipe until
    ``None`` arrives."""
    while True:
        command = conn.recv()
        if command is None:
            conn.close()
            return
        mode, kwargs = command
        if mode == "open":
            conn.send(open_loop(**kwargs))
        else:
            conn.send(sequential(**kwargs))


if __name__ == "__main__":
    serve(Connection(int(sys.argv[1])))
