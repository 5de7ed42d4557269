"""End-to-end benchmark: Fig 7 regeneration, serve round trips and
model-image sealing, with a per-layer breakdown.

    python3 perfbench/run.py --workload fig7 --seed 1 --seconds 20 --trace 0

Workloads (see README.md for why each exists):

``fig7``         regenerate Fig 7 (VGG-16, ResNet-18, ResNet-34, five schemes)
``serve-small``  1 connection, 1 request in flight, 1/4/16-line payloads,
                 server restarted once per round
``serve-bulk``   2 connections, 4 requests in flight each, 64-256 lines
``seal-image``   seal/verify/unseal one model weight image per scheme

A run repeats whole rounds of fixed work, made from ``--seed``, until
``--seconds`` have passed (serve workloads also until 1000 requests are
timed).  The serve and seal-image workloads run one more round first to
warm up: it is checked and counted, but not timed.  A run checks every
output, prints each metric by name and unit, and ends with one JSON
line: ``correct``, ``attempted``, ``failed`` and the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``).
The program under test is ``src/`` of the checkout this file sits in; the
native simulator kernel is cached under ``.bench_build/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fig7", "serve-small", "serve-bulk", "seal-image")
#: Set-ups timed per run; setup_s is their median.
SETUP_SAMPLES = 9
#: Serve runs go on until this many requests, so op_p99_ms has ten above it.
MIN_REQUESTS = 1000
SCHEMES = ("seal-se", "direct", "counter-gmac", "seculator")
#: Tag bytes of the ``seal-se`` scheme the serve workloads run.
SERVE_TAG_BYTES = 8
#: Lines per payload in one serve-small lifetime: 18 each of 1, 4 and 16
#: (long enough that timed chains, not the restarts, fill most of a run).
SMALL_SIZES = [1, 4, 16] * 18
#: Lines per payload in one serve-bulk round: 16 sizes spread over 64..256.
BULK_SIZES = [64 + round(i * 192 / 15) for i in range(16)]


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """Nearest-rank percentile (the largest value for q=1)."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def bench_key(seed: int) -> bytes:
    """The run's AES key: derived from the seed, never the demo key."""
    return hashlib.sha256(f"perfbench-key-{seed}".encode()).digest()[:16]


def environment() -> dict:
    """Point the program, its kernel cache and temp files into the checkout."""
    build = ROOT / ".bench_build"
    (build / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["PYTHONPATH"] = str(ROOT / "src")
    os.environ["REPRO_SIMKERNEL_CACHE"] = str(build / "simkernel")
    os.environ["TMPDIR"] = str(build / "tmp")
    for name in ("REPRO_SIM_BACKEND", "REPRO_CRYPTO_BACKEND", "REPRO_SIM_NATIVE", "REPRO_TRACE", "REPRO_CHAOS"):
        os.environ.pop(name, None)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    return dict(os.environ)


class Outcome:
    """What one workload run measured and found."""

    def __init__(self) -> None:
        self.setup: list[float] = []
        self.rounds: list[float] = []
        #: Leading rounds that warm up: checked and counted, not timed.
        self.warmup = 0
        self.ops: list[float] = []  # timed rounds only
        self.peak_rss_mb = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.layers: dict[str, float] = {}
        self.info: list[tuple[str, float, str]] = []

    @property
    def timed(self) -> list[float]:
        return self.rounds[self.warmup:]

    def end_to_end(self) -> dict[str, float]:
        # round_s is a mean: the host's speed flips between modes within
        # seconds, and a mean over the run averages them where a median of
        # rounds would jump from one mode to the other.
        return {
            "setup_s": statistics.median(self.setup),
            "peak_rss_mb": self.peak_rss_mb,
            "round_s": statistics.fmean(self.timed),
            "op_p50_ms": statistics.median(self.ops) * 1e3,
        }


def keep_going(outcome: Outcome, started: float, seconds: float, min_ops: int = 0) -> bool:
    """Start another round unless it would end over half a round past
    ``seconds`` (so long rounds do not add a round by a hair's breadth),
    while no round is timed yet or fewer than ``min_ops`` operations are."""
    if not outcome.timed or len(outcome.ops) < min_ops:
        return True
    return time.perf_counter() - started + outcome.rounds[-1] / 2 < seconds


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def probe_setup(workload: str, seed: int, env: dict) -> float:
    """Spawn -> ready of a fresh process doing ``workload``'s set-up."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--probe"],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    proc.stdout.read()
    if proc.wait() != 0 or line.strip() != "ready":
        raise RuntimeError(f"{workload} set-up probe failed")
    return ready


def probe(probes: dict, name: str):
    """The named probe, or an empty one when the layer never ran."""
    from layers import Probe

    return probes.get(name) or Probe()


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ----------------------------------------------------------------------
# fig7
# ----------------------------------------------------------------------
def fig7_setup():
    from repro.eval import experiments
    from repro.sim import _native

    _native.load()
    return experiments


def check_fig7(sweep) -> list[str]:
    """Properties Fig 7 must have, per model and per simulated unit."""
    problems = []
    for index, model in enumerate(sweep.models):
        ipc = {scheme: values[index] for scheme, values in sweep.normalized_ipc.items()}
        if ipc["Baseline"] != 1.0:
            problems.append(f"{model}: Baseline normalized IPC is {ipc['Baseline']}")
        if not (ipc["Direct"] < 0.8 and ipc["Counter"] < 0.8):
            problems.append(f"{model}: Direct/Counter IPC not below 0.8")
        if not (ipc["SEAL-D"] > ipc["Direct"] and ipc["SEAL-C"] > ipc["Counter"]):
            problems.append(f"{model}: SEAL does not beat full encryption")
        per = sweep.results[model]
        layers = list(zip(*(per[scheme].layer_results for scheme in sweep.normalized_ipc)))
        for units in layers:
            unit = dict(zip(sweep.normalized_ipc, units))
            data = unit["Baseline"].data_bytes
            if any(result.data_bytes != data for result in units):
                problems.append(f"{unit['Baseline'].label}: data bytes differ across schemes")
            if unit["Baseline"].encrypted_bytes != 0:
                problems.append(f"{unit['Baseline'].label}: Baseline encrypts bytes")
            if any(unit[s].encrypted_bytes != data for s in ("Direct", "Counter")):
                problems.append(f"{unit['Direct'].label}: full encryption misses bytes")
            if any(not 0 < unit[s].encrypted_bytes <= data for s in ("SEAL-D", "SEAL-C")):
                problems.append(f"{unit['SEAL-D'].label}: SEAL encrypts none or too many bytes")
    for mode in ("D", "C"):
        speedup = sweep.seal_speedup(mode)
        if not 1.15 <= speedup <= 1.8:
            problems.append(f"mean SEAL-{mode} ratio {speedup:.3f} outside [1.15, 1.8]")
    return problems


def scalar_matches(captured, rng: random.Random, samples: int = 3) -> list[str]:
    """Re-simulate a seeded sample of units on the scalar engine."""
    from repro.core.memory import SecureHeap
    from repro.sim.gpu import GpuSimulator
    from repro.sim.workloads import layer_streams

    pairs = [pair for units, results in captured for pair in zip(units, results)]
    problems = []
    for unit, result in rng.sample(pairs, samples):
        streams = layer_streams(unit.config, unit.traffic, tile=unit.tile, heap=SecureHeap())
        scalar = GpuSimulator(unit.config, backend="scalar").run(streams, label=unit.label)
        if (scalar.cycles, scalar.instructions) != (result.cycles, result.instructions):
            problems.append(f"{unit.label}: scalar engine disagrees with the figure")
    return problems


def run_fig7(args, env, timer) -> Outcome:
    out = Outcome()
    out.setup = [probe_setup("fig7", args.seed, env) for _ in range(SETUP_SAMPLES)]
    experiments = fig7_setup()
    from repro.nn.layers import set_init_rng
    from repro.sim import runner
    from repro.sim.parallel import SimulationCache

    captured = []
    run_units = runner.run_units

    def capture(units, **kwargs):
        results = run_units(units, **kwargs)
        captured.append((list(units), results))
        return results

    runner.run_units = capture
    if timer is not None:
        from layers import instrument_sim

        instrument_sim(timer)
    sweeps = []
    started = time.perf_counter()
    try:
        while keep_going(out, started, args.seconds):
            captured.clear()
            set_init_rng(0)  # the weights a fresh process builds the figure from
            start = time.perf_counter()
            sweep = experiments.fig7_overall_ipc(jobs=1, cache=SimulationCache())
            out.rounds.append(time.perf_counter() - start)
            out.ops.append(out.rounds[-1])
            sweeps.append(sweep)
    finally:
        if timer is not None:
            timer.restore()
        runner.run_units = run_units
    out.peak_rss_mb = peak_rss_mb()
    out.attempted = len(sweeps)
    for sweep in sweeps:
        out.problems += check_fig7(sweep)
    out.problems += scalar_matches(captured, random.Random(f"fig7-{args.seed}"))
    units = sum(len(units) for units, _ in captured)
    cycles = sum(r.cycles for _, results in captured for r in results)
    instructions = sum(r.instructions for _, results in captured for r in results)
    out.info += [("figure_s", statistics.fmean(out.rounds), "s"), ("units", units, "count")]
    if timer is not None:
        n = len(sweeps)
        model, plan, lower, compile_, run, unit, dispatch = (
            probe(timer.probes, name)
            for name in ("model", "plan", "lower", "compile", "run", "unit", "run_units")
        )
        kernel = run.seconds - compile_.seconds
        out.layers.update({
            "nn.models.build_s": model.seconds / n,
            "core.plan.build_s": plan.seconds / n,
            "sim.workloads.layer_streams_s": lower.seconds / n,
            "sim.engine.compile_streams_s": compile_.seconds / n,
            "sim.engine.kernel_s": kernel / n,
            "sim.engine.kernel_cycles_per_s": ratio(cycles * n, kernel),
            "sim.parallel.units": dispatch.items / n,
            "sim.parallel.cache_misses": unit.calls / n,
            "sim.workloads.requests": compile_.items / n,
            "sim.cycles": cycles,
            "sim.instructions": instructions,
            "trace.stage_share": (plan.seconds + lower.seconds + run.seconds) / sum(out.rounds),
        })
    return out


# ----------------------------------------------------------------------
# serve-small / serve-bulk
# ----------------------------------------------------------------------
def merge_server(report: dict, probes: dict, keyed: dict) -> None:
    from layers import Probe

    layers = report["layers"]
    if layers is None:
        return
    for name, data in layers["probes"].items():
        probes.setdefault(name, Probe()).merge(data)
    for name, values in layers["keyed"].items():
        keyed.setdefault(name, {}).update(values)


def median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def crypto_layers(probes: dict, lines: int) -> dict[str, float]:
    """Sealer and fast-path figures; ``lines`` is every line the ops handled."""
    seal, verify, open_, ctr, xex, mac, aes, ghash = (
        probe(probes, name)
        for name in ("seal_lines", "verify_lines", "open_lines", "ctr", "xex", "mac", "aes", "ghash")
    )
    return {
        "crypto.seal_lines_us_per_line": ratio(seal.seconds, seal.items) * 1e6,
        "crypto.verify_lines_us_per_line": ratio(verify.seconds, verify.items) * 1e6,
        "crypto.open_lines_us_per_line": ratio(open_.seconds, open_.items) * 1e6,
        "crypto.modes.ctr_us_per_line": ratio(ctr.seconds, ctr.items) * 1e6,
        "crypto.modes.xex_us_per_line": ratio(xex.seconds, xex.items) * 1e6,
        "crypto.mac.tag_us_per_line": ratio(mac.seconds, mac.items) * 1e6,
        "crypto.fastpath.aes_blocks_per_s": ratio(aes.items, aes.seconds),
        "crypto.fastpath.aes_calls_per_line": ratio(aes.calls, lines),
        "crypto.fastpath.ghash_us_per_line": ratio(ghash.seconds, ghash.items) * 1e6,
    }


def serve_layers(probes: dict, keyed: dict, round_trip: dict, restarts: list[float], lines: int) -> dict:
    decode, encode, observe, queue, batch = (
        probe(probes, name) for name in ("decode", "encode", "observe", "queue", "batch")
    )
    handle = keyed.get("handle", {})
    return {
        "serve.protocol.decode_us": ratio(decode.seconds, decode.calls) * 1e6,
        "serve.protocol.encode_us": ratio(encode.seconds, encode.calls) * 1e6,
        "serve.server.handle_ms": median_or_zero(handle.values()) * 1e3,
        "serve.wire_ms": median_or_zero(round_trip[t] - handle[t] for t in handle if t in round_trip) * 1e3,
        "serve.batcher.queue_ms": median_or_zero(queue.samples) * 1e3,
        "serve.batcher.requests_per_batch": ratio(batch.items, batch.calls),
        "serve.batcher.lines_per_batch": ratio(sum(batch.samples), batch.calls),
        "serve.server.restart_s": median_or_zero(restarts),
        **crypto_layers(probes, lines),
        "obs.metrics.observe_us": median_or_zero(observe.samples) * 1e6,
        "obs.metrics.observes_per_request": ratio(observe.calls, len(handle)),
    }


def pin_to_one_cpu() -> None:
    """Run this process and the servers it starts on one CPU.

    Closed-loop requests wake the other side for every message.  Across
    the vCPUs of a shared host such a wake-up can cost more than the
    request itself while the host is busy (serve-small rounds took 3.0 s
    unpinned against 1.4 s pinned), so unpinned timings measure the
    hypervisor rather than the server.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_serve(args, env, timer, *, small: bool) -> Outcome:
    import serve_load
    from refcheck import Reference

    pin_to_one_cpu()
    out = Outcome()
    trace = timer is not None
    key = bench_key(args.seed)
    out.warmup = 1
    result = serve_load.LoadResult()
    probes: dict = {}
    keyed: dict = {}
    restarts: list[float] = []
    chains: list = []
    rss: list[float] = []
    timed_from = 0  # index in chains of the first timed round's first chain
    started = time.perf_counter()

    def round_done() -> None:
        """After the warm-up round, start the latencies afresh."""
        nonlocal result, timed_from
        if len(out.rounds) == out.warmup:
            result = serve_load.LoadResult()
            timed_from = len(chains)
        out.ops = [s for ops in result.latency.values() for s in ops]

    def lifetime_done(server) -> None:
        report = server.stop()
        rss.append(report["peak_rss_mb"])
        merge_server(report, probes, keyed)

    if small:
        while keep_going(out, started, args.seconds, MIN_REQUESTS):
            rng = random.Random(f"serve-small-{args.seed}-{len(out.rounds)}")
            region = (len(out.rounds) + 1) << 36
            first = None
            wall = 0.0
            stopped = None
            for lifetime in (0, 1):
                server = serve_load.ServerProcess(env, key, trace)
                out.setup.append(server.ready_s)
                if stopped is not None:
                    restarts.append(time.perf_counter() - stopped)
                # The second lifetime re-seals the first one's regions (same
                # sizes, same order, fresh bytes), as a redeploy would.
                number = 2 * len(out.rounds) + lifetime
                if first is None:
                    batch = first = serve_load.make_chains(rng, region, SMALL_SIZES, number)
                else:
                    batch = serve_load.reseal_chains(rng, first, number)
                try:
                    wall += serve_load.drive(
                        server.port, batch, connections=1, depth=1, result=result,
                        tag=f"r{len(out.rounds)}l{lifetime}",
                    )
                finally:
                    stopped = time.perf_counter()
                    lifetime_done(server)
                chains += batch
            out.rounds.append(wall)
            round_done()
    else:
        server = serve_load.ServerProcess(env, key, trace)
        out.setup.append(server.ready_s)
        try:
            while keep_going(out, started, args.seconds, MIN_REQUESTS):
                rng = random.Random(f"serve-bulk-{args.seed}-{len(out.rounds)}")
                region = (len(out.rounds) + 1) << 36
                batch = serve_load.make_chains(rng, region, BULK_SIZES, 0)
                out.rounds.append(
                    serve_load.drive(
                        server.port, batch, connections=2, depth=4, result=result,
                        tag=f"r{len(out.rounds)}",
                    )
                )
                chains += batch
                round_done()
        finally:
            lifetime_done(server)
    while len(out.setup) < SETUP_SAMPLES:
        server = serve_load.ServerProcess(env, key, False)
        out.setup.append(server.ready_s)
        server.stop()
    out.peak_rss_mb = max(rss)

    reference = Reference(key)
    for chain in chains:
        if chain.sealed is not None:
            out.problems += serve_load.check_chain(chain, reference, SERVE_TAG_BYTES)
    reused, problems = serve_load.reused_seals(chains)
    out.problems += problems
    out.attempted = 3 * len(chains)
    out.failed = reused + sum(chain.failed_ops for chain in chains)

    wall = sum(out.timed)
    lines = sum(chain.lines for chain in chains[timed_from:])
    seals = result.latency["seal"]
    out.info += [
        ("seal_p50_ms", statistics.median(seals) * 1e3, "ms"),
        ("seal_p99_ms", percentile(seals, 0.99) * 1e3, "ms"),
        ("verify_p50_ms", statistics.median(result.latency["verify"]) * 1e3, "ms"),
        ("unseal_p50_ms", statistics.median(result.latency["unseal"]) * 1e3, "ms"),
        ("requests_per_s", len(out.ops) / wall, "1/s"),
        ("lines_per_s", 3 * lines / wall, "lines/s"),
        ("seals", sum(chain.sealed is not None for chain in chains), "count"),
        ("seals_reusing_a_pad", reused, "count"),
    ]
    if trace:
        every_line = 3 * sum(chain.lines for chain in chains)
        out.layers.update(serve_layers(probes, keyed, result.round_trip, restarts, every_line))
    return out


# ----------------------------------------------------------------------
# seal-image
# ----------------------------------------------------------------------
def image_setup(seed: int):
    import numpy as np

    from repro.nn.layers import set_init_rng
    from repro.nn.models import build_model
    from repro.schemes import get_scheme

    set_init_rng(seed)
    model = build_model("vgg16", width_scale=1 / 64)
    image = b"".join(np.asarray(p.data, dtype=np.float32).tobytes() for p in model.parameters())
    key = bench_key(seed)
    schemes = {name: get_scheme(name) for name in SCHEMES}
    sealers = {name: scheme.make_sealer(key) for name, scheme in schemes.items()}
    return image, key, schemes, sealers


def check_image(scheme, sealer, sealed, verdicts, plain, image, reference, rng) -> list[str]:
    from dataclasses import replace

    from repro.sim.config import EncryptionMode

    name = scheme.name
    problems = []
    if plain != image:
        problems.append(f"{name}: unseal did not return the image")
    if not all(verdicts) or len(verdicts) != sealed.n_lines:
        problems.append(f"{name}: untampered image failed verification")
    padded = image + bytes(-len(image) % sealer.line_bytes)
    step = sealer.line_bytes
    for index in range(sealed.n_lines):
        address = sealed.base_address + index * step
        line = padded[index * step:(index + 1) * step]
        if scheme.mode is EncryptionMode.COUNTER:
            expected = reference.ctr_line(address, sealed.counter, line)
        else:
            expected = reference.xex_line(address, line)
        if sealed.ciphertext[index * step:(index + 1) * step] != expected:
            problems.append(f"{name}: line {index} ciphertext differs from the reference")
            break
    for index in rng.sample(range(sealed.n_lines), 16):
        line = sealed.ciphertext[index * step:(index + 1) * step]
        want = (
            reference.tag(sealed.base_address + index * step, sealed.counter, line, sealer.tag_bytes)
            if scheme.authenticated else b""
        )
        if sealed.tags[index] != want:
            problems.append(f"{name}: line {index} tag differs from the reference")
            break
    offset = rng.randrange(len(image))
    flipped = bytearray(sealed.ciphertext)
    flipped[offset] ^= 0x01
    verdicts = sealer.verify(replace(sealed, ciphertext=bytes(flipped)))
    expected = [True] * sealed.n_lines
    if scheme.detects("bit-flip"):
        expected[offset // step] = False
    if verdicts != expected:
        problems.append(f"{name}: a flipped byte was not reported exactly as detects() says")
    return problems


def run_image(args, env, timer) -> Outcome:
    from refcheck import Reference

    out = Outcome()
    out.warmup = 1
    out.setup = [probe_setup("seal-image", args.seed, env) for _ in range(SETUP_SAMPLES)]
    image, key, schemes, sealers = image_setup(args.seed)
    if timer is not None:
        from layers import instrument_crypto

        instrument_crypto(timer)
    spent = {(name, op): 0.0 for name in SCHEMES for op in ("seal", "verify", "unseal")}
    outputs = []
    started = time.perf_counter()
    try:
        while keep_going(out, started, args.seconds):
            base, counter = (len(out.rounds) + 1) << 36, len(out.rounds) + 1
            round_start = time.perf_counter()
            for name, sealer in sealers.items():
                t0 = time.perf_counter()
                sealed = sealer.seal(image, base_address=base, counter=counter)
                t1 = time.perf_counter()
                verdicts = sealer.verify(sealed)
                t2 = time.perf_counter()
                plain = sealer.unseal(sealed)
                t3 = time.perf_counter()
                for op, seconds in (("seal", t1 - t0), ("verify", t2 - t1), ("unseal", t3 - t2)):
                    spent[name, op] += seconds
                if len(out.rounds) >= out.warmup:
                    out.ops.append(t3 - t0)
                outputs.append((name, sealed, verdicts, plain))
            out.rounds.append(time.perf_counter() - round_start)
    finally:
        if timer is not None:
            timer.restore()
    out.peak_rss_mb = peak_rss_mb()
    reference = Reference(key)
    rng = random.Random(f"seal-image-{args.seed}")
    for name, sealed, verdicts, plain in outputs:
        out.problems += check_image(schemes[name], sealers[name], sealed, verdicts, plain, image, reference, rng)
    out.attempted = 3 * len(outputs)
    lines = outputs[0][1].n_lines
    total_lines = 3 * lines * len(outputs)
    out.info += [
        ("image_lines", lines, "count"),
        ("lines_per_s", 3 * lines * len(SCHEMES) * len(out.timed) / sum(out.timed), "lines/s"),
    ]
    if timer is not None:
        rounds = len(out.rounds)
        for (name, op), seconds in spent.items():
            out.layers[f"schemes.{name}.{op}_us_per_line"] = seconds / (rounds * lines) * 1e6
        out.layers.update(crypto_layers(timer.probes, total_lines))
    return out


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help="do the workload's set-up, print 'ready', exit")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no program to measure under {ROOT} (need src/repro and BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    env = environment()

    if args.probe:
        if args.workload == "fig7":
            fig7_setup()
        elif args.workload == "seal-image":
            image_setup(args.seed)
        else:
            parser.error("--probe times the fig7 and seal-image set-ups only")
        print("ready", flush=True)
        return 0

    timer = None
    if args.trace:
        from layers import LayerTimer

        timer = LayerTimer()
    if args.workload == "fig7":
        out = run_fig7(args, env, timer)
    elif args.workload == "seal-image":
        out = run_image(args, env, timer)
    else:
        out = run_serve(args, env, timer, small=args.workload == "serve-small")

    for problem in out.problems:
        print(f"check failed: {problem}")
    out.info += [("op_p99_ms", percentile(out.ops, 0.99) * 1e3, "ms"), ("ops_timed", len(out.ops), "count")]
    for name, value, unit in out.info:
        print(f"info {name} = {value:.6g} {unit}")
    if args.trace:
        declared = spec["per_layer"]
        values = dict.fromkeys((m["name"] for m in declared), 0.0)
        values.update(out.layers)
        values["trace.round_s"] = statistics.fmean(out.timed)
    else:
        declared = spec["end_to_end"]
        values = out.end_to_end()
    unknown = set(values) - {m["name"] for m in declared}
    if unknown:
        raise SystemExit(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    metrics = {}
    for metric in declared:
        metrics[metric["name"]] = {"value": values[metric["name"]], "unit": metric["unit"]}
        print(f"metric {metric['name']} = {values[metric['name']]:.6g} {metric['unit']}")
    print(f"operations attempted {out.attempted}, failed {out.failed}")
    print(json.dumps({
        "correct": not out.problems,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
