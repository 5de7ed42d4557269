"""Per-layer timing for the traced runs.

The program is not changed: :class:`LayerTimer` swaps a timing wrapper
in for a layer's public function (at the name its caller looks up) and
puts the original back on :meth:`LayerTimer.restore`.  Each wrapped call
adds its wall time, a call count and an item count (lines, blocks, ...)
to a named :class:`Probe`.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from collections import defaultdict


class Probe:
    """Calls, wall seconds and items of one wrapped function."""

    __slots__ = ("calls", "seconds", "items", "samples")

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0
        self.items = 0
        self.samples: list[float] = []

    def as_dict(self) -> dict:
        return {
            "calls": self.calls,
            "seconds": self.seconds,
            "items": self.items,
            "samples": self.samples,
        }

    def merge(self, other: dict) -> None:
        self.calls += other["calls"]
        self.seconds += other["seconds"]
        self.items += other["items"]
        self.samples.extend(other["samples"])


class LayerTimer:
    """Installs timing wrappers and collects :class:`Probe` totals.

    ``items(args, result)`` gives the work a call did; ``keep`` stores
    every call's duration; ``keyed(args)`` stores durations by key; a
    ``group`` times only the outermost call of that group per thread, so
    a sealer method that calls another sealer method is counted once.
    """

    def __init__(self) -> None:
        self.probes: defaultdict[str, Probe] = defaultdict(Probe)
        self.keyed: dict[str, dict[str, float]] = defaultdict(dict)
        self.last: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def _record(self, probe, seconds, args, result, items, keep, keyed):
        with self._lock:
            target = self.probes[probe]
            target.calls += 1
            target.seconds += seconds
            if items is not None:
                target.items += items(args, result)
            if keep:
                target.samples.append(seconds)
            if keyed is not None:
                self.keyed[probe][keyed(args)] = seconds
            self.last[probe] = seconds

    def add(self, probe: str, *, seconds: float = 0.0, items: int = 0, sample: float) -> None:
        """Count one call of ``probe`` timed by hand."""
        with self._lock:
            target = self.probes[probe]
            target.calls += 1
            target.seconds += seconds
            target.items += items
            target.samples.append(sample)

    def patch(self, owner, name: str, replacement) -> None:
        """Set ``owner.name`` to ``replacement`` until :meth:`restore`."""
        self._undo.append((owner, name, inspect.getattr_static(owner, name)))
        setattr(owner, name, replacement)

    def wrap(self, owner, name, probe, *, items=None, keep=False, keyed=None, group=None):
        """Time every call of ``owner.name`` into probe ``probe``."""
        static = inspect.getattr_static(owner, name)
        is_classmethod = isinstance(static, classmethod)
        func = static.__func__ if is_classmethod else getattr(owner, name)
        local = self._local

        if inspect.iscoroutinefunction(func):

            @functools.wraps(func)
            async def timed(*args, **kwargs):
                start = time.perf_counter()
                result = await func(*args, **kwargs)
                self._record(probe, time.perf_counter() - start, args, result, items, keep, keyed)
                return result

        else:

            @functools.wraps(func)
            def timed(*args, **kwargs):
                if group is not None:
                    if getattr(local, group, False):
                        return func(*args, **kwargs)
                    setattr(local, group, True)
                try:
                    start = time.perf_counter()
                    result = func(*args, **kwargs)
                    seconds = time.perf_counter() - start
                finally:
                    if group is not None:
                        setattr(local, group, False)
                self._record(probe, seconds, args, result, items, keep, keyed)
                return result

        self.patch(owner, name, classmethod(timed) if is_classmethod else timed)

    def restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def dump(self) -> dict:
        return {
            "probes": {name: probe.as_dict() for name, probe in self.probes.items()},
            "keyed": dict(self.keyed),
        }


def _first_len(position):
    return lambda args, result: len(args[position])


def instrument_sim(timer: LayerTimer) -> None:
    """Model build, plan, lowering, compile, kernel and unit dispatch of the figure."""
    from repro.core.plan import ModelEncryptionPlan
    from repro.eval import experiments
    from repro.sim import engine, gpu, parallel, runner

    timer.wrap(experiments, "build_model", "model")
    timer.wrap(ModelEncryptionPlan, "build", "plan")
    timer.wrap(parallel, "layer_streams", "lower")
    timer.wrap(engine, "compile_streams", "compile", items=lambda a, r: r.num_requests)
    timer.wrap(gpu.GpuSimulator, "run", "run", items=lambda a, r: r.instructions)
    timer.wrap(parallel, "simulate_unit", "unit")
    timer.wrap(runner, "run_units", "run_units", items=_first_len(0))


def instrument_crypto(timer: LayerTimer) -> None:
    """Sealer entry points, the cipher modes, the MAC, fast-path AES and GHASH."""
    from repro.core.seal import LineSealer
    from repro.crypto.fastpath import GF128Table, VectorAES
    from repro.crypto.mac import LineAuthenticator
    from repro.crypto.modes import CounterModeEncryptor, DirectEncryptor

    for method in ("seal_lines", "verify_lines", "open_lines"):
        timer.wrap(LineSealer, method, method, items=_first_len(3), group="sealer")
    for method in ("encrypt_lines", "decrypt_lines"):
        timer.wrap(CounterModeEncryptor, method, "ctr", items=_first_len(3))
    for method in ("encrypt_line", "decrypt_line"):
        timer.wrap(DirectEncryptor, method, "xex", items=lambda a, r: 1)
    timer.wrap(LineAuthenticator, "tag_lines", "mac", items=_first_len(3))
    timer.wrap(VectorAES, "encrypt_blocks", "aes", items=lambda a, r: len(a[1]))
    timer.wrap(GF128Table, "ghash_many", "ghash", items=lambda a, r: len(a[1]))


#: Sealer method that serves each batched op.
SEALER_METHOD = {"seal": "seal_lines", "verify": "verify_lines", "unseal": "open_lines"}


def instrument_serve(timer: LayerTimer) -> None:
    """Server-side layers: wire codec, request handler, batcher, metrics.

    The batcher's queue time is its ``submit`` time minus the sealer time
    of the batch the item rode in.  A batcher drains one batch at a time,
    so the sealer probe's last reading for the op, taken when the batch's
    ``execute`` returns, belongs to that batch.
    """
    from repro.obs.metrics import MetricsRegistry
    from repro.serve import batcher, server

    instrument_crypto(timer)
    timer.wrap(server, "decode_request", "decode")
    timer.wrap(server, "encode_response", "encode")
    timer.wrap(
        server.ModelServer, "handle_request", "handle",
        keyed=lambda args: args[1].tenant,
    )
    # Kept per call: a call from a crypto thread can wait out a GIL switch
    # interval, which would swamp a mean.
    timer.wrap(MetricsRegistry, "observe", "observe", keep=True)

    sealer_time: dict[int, float] = {}
    original_init = batcher.MicroBatcher.__init__

    def init(self, execute, **kwargs):
        async def timed_execute(items):
            results = await execute(items)
            method = SEALER_METHOD[items[0].request.op]
            seconds = timer.last.get(method, 0.0)
            timer.add("batch", items=len(items), sample=sum(item.n_lines for item in items))
            for item in items:
                sealer_time[id(item)] = seconds
            return results

        original_init(self, timed_execute, **kwargs)

    original_submit = batcher.MicroBatcher.submit

    async def submit(self, item):
        start = time.perf_counter()
        try:
            return await original_submit(self, item)
        finally:
            waited = time.perf_counter() - start - sealer_time.pop(id(item), 0.0)
            timer.add("queue", seconds=waited, sample=waited)

    timer.patch(batcher.MicroBatcher, "__init__", init)
    timer.patch(batcher.MicroBatcher, "submit", submit)
