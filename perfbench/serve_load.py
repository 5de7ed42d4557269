"""Client side of the serve workloads.

Each operation chain seals a payload (the server assigns the counter),
verifies the ciphertext (a seeded share carries one flipped byte) and
unseals it.  Chains run as a closed loop: every connection has ``depth``
chains in flight and starts the next one only when one finishes.
"""

from __future__ import annotations

import asyncio
import json
import random
import signal
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
LINE = 128
#: One chain in this many carries a flipped ciphertext byte to verify.
TAMPER_EVERY = 8


@dataclass
class Chain:
    """One seal -> verify -> unseal chain and what the server answered."""

    base: int
    payload: bytes
    tamper_offset: int | None
    lifetime: int
    tag_line: int  # the line whose tag the reference recomputes
    sealed: dict | None = None
    verify: dict | None = None
    plain: bytes | None = None
    failed_ops: int = 0

    @property
    def lines(self) -> int:
        return -(-len(self.payload) // LINE)


def make_chains(rng: random.Random, region: int, sizes: list[int], lifetime: int) -> list[Chain]:
    """One chain per entry of ``sizes`` (lines per payload), in seeded order.

    Payload ``i`` starts at ``region + i * stride`` with a stride that fits
    the largest payload; its last line is partly filled.  Exactly one chain
    in :data:`TAMPER_EVERY` (rounded down) gets a flipped byte to verify.
    """
    sizes = rng.sample(sizes, len(sizes))
    tampered = set(rng.sample(range(len(sizes)), len(sizes) // TAMPER_EVERY))
    stride = max(sizes) * LINE
    chains = []
    for index, lines in enumerate(sizes):
        length = (lines - 1) * LINE + rng.randint(1, LINE)
        chains.append(
            Chain(
                base=region + index * stride,
                payload=rng.randbytes(length),
                tamper_offset=rng.randrange(length) if index in tampered else None,
                lifetime=lifetime,
                tag_line=rng.randrange(lines),
            )
        )
    return chains


def reseal_chains(rng: random.Random, earlier: list[Chain], lifetime: int) -> list[Chain]:
    """The same regions, sizes and order as ``earlier``, with fresh bytes."""
    return [
        Chain(
            base=chain.base,
            payload=rng.randbytes(len(chain.payload)),
            tamper_offset=chain.tamper_offset,
            lifetime=lifetime,
            tag_line=chain.tag_line,
        )
        for chain in earlier
    ]


class ServerProcess:
    """A ``serve_main.py`` process; ``ready_s`` is spawn -> accepting."""

    def __init__(self, env: dict, key: bytes, trace: bool) -> None:
        command = [sys.executable, str(HERE / "serve_main.py"), "--key", key.hex()]
        if trace:
            command.append("--trace")
        start = time.perf_counter()
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=env)
        self.port = None
        for line in self.proc.stdout:
            if "listening on" in line:
                self.port = int(line.split("listening on ", 1)[1].split()[0].rsplit(":", 1)[1])
                break
        if self.port is None:
            self.proc.wait()
            raise RuntimeError(f"server exited with code {self.proc.returncode} before listening")
        self.ready_s = time.perf_counter() - start

    def stop(self) -> dict:
        """Drain with SIGTERM and return the server's ``PERFBENCH`` report."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise
        for line in out.splitlines():
            if line.startswith("PERFBENCH "):
                return json.loads(line[len("PERFBENCH "):])
        raise RuntimeError(f"server exited with code {self.proc.returncode} without a report")


class LoadResult:
    """Per-op client latencies and per-request round trips by tenant."""

    def __init__(self) -> None:
        self.latency: dict[str, list[float]] = {"seal": [], "verify": [], "unseal": []}
        self.round_trip: dict[str, float] = {}


def _flip(data: bytes, offset: int) -> bytes:
    return data[:offset] + bytes([data[offset] ^ 0x01]) + data[offset + 1:]


async def _drive(port: int, queues: list[deque], depth: int, result: LoadResult, tag: str) -> None:
    from repro.serve.client import RetryPolicy, ServeClient, ServeError

    clients = [
        await ServeClient.connect("127.0.0.1", port, retry=RetryPolicy(max_attempts=1))
        for _ in queues
    ]
    sequence = 0

    async def timed(op, call, **kwargs):
        nonlocal sequence
        sequence += 1
        tenant = f"{tag}-{sequence}"
        start = time.perf_counter()
        answer = await call(tenant=tenant, **kwargs)
        seconds = time.perf_counter() - start
        result.latency[op].append(seconds)
        result.round_trip[tenant] = seconds
        return answer

    async def run(client, chain: Chain) -> None:
        try:
            sealed = await timed("seal", client.seal, payload=chain.payload, base_address=chain.base)
        except ServeError:
            chain.failed_ops += 3
            return
        chain.sealed = sealed
        where = {"base_address": sealed["base_address"], "counter": sealed["counter"]}
        shown = sealed["ciphertext"]
        if chain.tamper_offset is not None:
            shown = _flip(shown, chain.tamper_offset)
        try:
            chain.verify = await timed("verify", client.verify, ciphertext=shown, tags=sealed["tags"], **where)
        except ServeError:
            chain.failed_ops += 1
        try:
            chain.plain = await timed(
                "unseal", client.unseal, ciphertext=sealed["ciphertext"], tags=sealed["tags"],
                length=sealed["length"], **where,
            )
        except ServeError:
            chain.failed_ops += 1

    async def worker(client, queue: deque) -> None:
        while queue:
            await run(client, queue.popleft())

    try:
        await asyncio.gather(
            *(worker(client, queue) for client, queue in zip(clients, queues) for _ in range(depth))
        )
    finally:
        for client in clients:
            await client.close()


def drive(port: int, chains: list[Chain], *, connections: int, depth: int, result: LoadResult, tag: str) -> float:
    """Run ``chains`` round-robin over ``connections``; returns wall seconds."""
    queues = [deque(chains[i::connections]) for i in range(connections)]
    start = time.perf_counter()
    asyncio.run(_drive(port, queues, depth, result, tag))
    return time.perf_counter() - start


def check_chain(chain: Chain, reference, tag_bytes: int) -> list[str]:
    """Every property of one answered chain; returns the violations."""
    problems = []
    sealed = chain.sealed
    if sealed["base_address"] != chain.base or sealed["length"] != len(chain.payload):
        problems.append("seal echoed the wrong base address or length")
    ciphertext = sealed["ciphertext"]
    padded = chain.payload + bytes(-len(chain.payload) % LINE)
    if len(ciphertext) != len(padded) or len(sealed["tags"]) != chain.lines:
        return problems + ["ciphertext or tag count has the wrong size"]
    for index in range(chain.lines):
        span = slice(index * LINE, (index + 1) * LINE)
        expected = reference.ctr_line(chain.base + index * LINE, sealed["counter"], padded[span])
        if ciphertext[span] != expected:
            problems.append(f"line {index} ciphertext differs from the reference")
            break
    line = chain.tag_line
    want = reference.tag(
        chain.base + line * LINE, sealed["counter"], ciphertext[line * LINE:(line + 1) * LINE], tag_bytes
    )
    if sealed["tags"][line] != want:
        problems.append(f"line {line} tag differs from the reference")
    if chain.verify is not None:
        expected_ok = [True] * chain.lines
        if chain.tamper_offset is not None:
            expected_ok[chain.tamper_offset // LINE] = False
        if chain.verify.get("line_ok") != expected_ok:
            problems.append("verify verdicts do not name exactly the flipped line")
    if chain.plain is not None and chain.plain != chain.payload:
        problems.append("unseal did not return the original payload")
    return problems


def reused_seals(chains: list[Chain]) -> tuple[int, list[str]]:
    """Seals whose (line address, counter) pairs an earlier lifetime used.

    Also confirms the leak on each such seal's first reused line: the XOR
    of the two ciphertexts equals the XOR of the two plaintexts.
    """
    used: dict[tuple[int, int], tuple[int, bytes, bytes]] = {}
    reused = 0
    problems = []
    for chain in chains:
        if chain.sealed is None:
            continue
        counter = chain.sealed["counter"]
        padded = chain.payload + bytes(-len(chain.payload) % LINE)
        ciphertext = chain.sealed["ciphertext"]
        first = None
        for index in range(chain.lines):
            pair = (chain.base + index * LINE, counter)
            span = slice(index * LINE, (index + 1) * LINE)
            earlier = used.get(pair)
            if earlier is not None and earlier[0] != chain.lifetime and first is None:
                first = (earlier, padded[span], ciphertext[span])
            used[pair] = (chain.lifetime, padded[span], ciphertext[span])
        if first is not None:
            reused += 1
            (_, plain_1, cipher_1), plain_2, cipher_2 = first
            if bytes(a ^ b for a, b in zip(cipher_1, cipher_2)) != bytes(
                a ^ b for a, b in zip(plain_1, plain_2)
            ):
                problems.append("a reused (address, counter) pair did not reuse the pad")
    return reused, problems
