"""Life-cycle benchmark: insert / reconstruct / repair / degraded reconstruct.

Runs one seeded, closed-loop workload (one client, one operation in
flight, one process) against a live 66-daemon ``LocalCluster`` built from
the checkout's ``src/``, checks every output, and prints as its last line
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

    python3 perfbench/run.py --workload paper_rc40 --seed 1 --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` wraps each layer's entry points (see ``tracing.py``),
traces every other timed round, reports the per-layer metrics, prints
the per-class self time of each layer and the tracing overhead, and
writes the spans to ``.perfbench_out/``.  Exits non-zero when an output
check fails or when the program's source is not there.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import asyncio  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def load_program():
    """Import the program from the checkout's ``src/``, with users' defaults."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no program source at {src / 'repro'}; run from a checkout")
    sys.path.insert(0, str(src))
    for variable in ("REPRO_OBS", "REPRO_GF_BACKEND", "REPRO_GF_WORKERS", "REPRO_NET_POOL_SIZE"):
        os.environ.pop(variable, None)
    from types import SimpleNamespace

    import repro
    from repro.core.params import RCParams
    from repro.net.client import RetryPolicy
    from repro.net.cluster import LocalCluster
    from repro.net.coordinator import Coordinator
    from repro.net.errors import NetError

    if pathlib.Path(repro.__file__).resolve().parent != src / "repro":
        sys.exit(f"error: imported repro from {repro.__file__}, not from {src}")
    return SimpleNamespace(
        LocalCluster=LocalCluster,
        Coordinator=Coordinator,
        RCParams=RCParams,
        RetryPolicy=RetryPolicy,
        NetError=NetError,
    )


def spec_names(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


async def drive(args, repro, lifecycle, tracer):
    import numpy as np

    workload = lifecycle.WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    setups = np.random.SeedSequence(args.seed).spawn(lifecycle.SETUP_REPEATS)
    untimed: list = []
    setup_s = []
    life = None
    try:
        # Each set-up: a fresh cluster and coordinator, then the first
        # call of each operation class.  The last one is kept for the
        # timed phase.
        for number, seed_seq in enumerate(setups):
            if life is not None:
                await life.close()
            began = time.perf_counter()
            life = lifecycle.LifeCycle(repro, workload, seed_seq, work / f"setup-{number}")
            if tracer is not None:
                tracer.daemons = life.cluster.daemons
            await life.start()
            await life.round(untimed)
            setup_s.append(time.perf_counter() - began)
        for _ in range(workload.warmup_rounds):
            await life.round(untimed)

        timed: list = []
        rounds = []  # (traced, wall ns, completed ops)
        start = time.perf_counter_ns()
        deadline = start + int(args.seconds * 1e9)
        while not rounds or time.perf_counter_ns() < deadline:
            traced = tracer is not None and len(rounds) % 2 == 0
            if tracer is not None:
                tracer.enabled = traced
            began, first = time.perf_counter_ns(), len(timed)
            await life.round(timed, tracer if traced else None)
            done = sum(record.ok for record in timed[first:])
            rounds.append((traced, time.perf_counter_ns() - began, done))
        elapsed = time.perf_counter_ns() - start
        if tracer is not None:
            tracer.enabled = False
        return life.sizes, setup_s, untimed, timed, rounds, elapsed
    finally:
        if life is not None:
            await life.close()
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()


def tail(values) -> tuple[int, float] | None:
    """The highest percentile with at least ten samples beyond it."""
    for pct in (99, 95, 90, 75):
        if len(values) * (100 - pct) / 100 >= 10:
            return pct, statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
    return None


def print_counts(untimed, timed, lifecycle) -> None:
    for phase, records in (("set-up+warm-up", untimed), ("timed", timed)):
        cells = []
        for op in lifecycle.OP_CLASSES:
            mine = [r for r in records if r.op == op]
            failed = sum(not r.ok for r in mine)
            cells.append(f"{op} {len(mine)}/{failed}")
        print(f"{phase:>15} attempted/failed: " + ", ".join(cells))


def end_to_end(args, lifecycle, sizes, setup_s, timed, elapsed, import_s):
    workload = lifecycle.WORKLOADS[args.workload]
    metrics = {
        "setup_s": import_s + statistics.median(setup_s),
        "ops_per_s": sum(r.ok for r in timed) / (elapsed / 1e9),
        "repair_traffic_bytes": sizes.repair_traffic,
        "restore_traffic_bytes": sizes.restore_traffic,
        "stored_bytes_per_user_byte": sizes.stored / workload.file_size,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"setup_s: imports {import_s:.4f} s + median of {len(setup_s)} set-ups "
          f"{[round(s, 4) for s in setup_s]}")
    for op in lifecycle.OP_CLASSES:
        values = [record.wall_s for record in timed if record.op == op and record.ok]
        if not values:
            continue
        metrics[f"{op}_s"] = statistics.median(values)
        line = f"{op}_s: median {metrics[f'{op}_s']:.4f} s of {len(values)} samples"
        cut = tail(values)
        if cut is not None:
            line += f", p{cut[0]} {cut[1]:.4f} s"
        if len(values) >= 4:
            half = len(values) // 2
            line += (f" (drift: first half {statistics.median(values[:half]):.4f} s, "
                     f"second half {statistics.median(values[half:]):.4f} s)")
        print(line)
    return metrics


def per_layer(args, lifecycle, tracing, tracer, timed, rounds):
    per_op, dump = tracing.analyse(tracer, timed)
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({"workload": args.workload, "seed": args.seed, "spans": dump}))
    print(f"spans: {len(dump)} written to {path.relative_to(ROOT)}")

    def rate(traced):
        wall = sum(ns for flag, ns, _ in rounds if flag == traced)
        return sum(done for flag, _, done in rounds if flag == traced) / (wall / 1e9)

    metrics = {}
    if any(not flag for flag, _, _ in rounds):
        untraced = rate(False)
        metrics["trace.untraced_ops_per_s"] = untraced
    traced = rate(True)
    metrics["trace.traced_ops_per_s"] = traced
    if "trace.untraced_ops_per_s" in metrics:
        print(f"tracing overhead: traced {traced:.4f} ops/s against untraced "
              f"{untraced:.4f} ops/s ({100 * (untraced / traced - 1):+.1f}% time)")
    header = f"{'self time (s)':<22}" + "".join(f"{layer:>12}" for layer in tracing.LAYERS)
    print(header + f"{'unattrib.':>12}{'wall':>10}{'covered':>9}")
    for op, samples in per_op.items():
        medians = tracing.class_medians(samples)
        wall = medians["wall_s"]
        row = f"{op:<22}" + "".join(
            f"{medians[f'self.{layer}_s']:>12.4f}" for layer in tracing.LAYERS
        )
        unattributed = medians["self.coordinator_s"]
        print(row + f"{unattributed:>12.4f}{wall:>10.4f}{1 - unattributed / wall:>9.1%}")
        for what in ("rpcs", "handler_s"):
            by_opcode = {}
            for sample in samples:
                for opcode, value in sample["by_opcode"][what].items():
                    by_opcode.setdefault(opcode, []).append(value)
            print(f"{'':<22}{what} per opcode: " + ", ".join(
                f"{opcode} {statistics.median(values):.4g}"
                for opcode, values in sorted(by_opcode.items())
            ))
        for key, value in medians.items():
            if not key.startswith("self.") and key != "wall_s":
                metrics[f"{op}.{key}"] = value
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    repro = load_program()
    import lifecycle
    import tracing

    if args.workload not in lifecycle.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(lifecycle.WORKLOADS)}")
    wanted = spec_names("per_layer" if args.trace else "end_to_end")
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    import_s = time.perf_counter() - PROCESS_START

    try:
        sizes, setup_s, untimed, timed, rounds, elapsed = asyncio.run(
            drive(args, repro, lifecycle, tracer)
        )
    except lifecycle.CheckFailed as exc:
        print(f"error: output check failed: {exc}", file=sys.stderr)
        return 1
    print(f"workload {args.workload}, seed {args.seed}: {len(rounds)} timed rounds "
          f"in {elapsed / 1e9:.2f} s")
    print_counts(untimed, timed, lifecycle)
    if args.trace:
        metrics = per_layer(args, lifecycle, tracing, tracer, timed, rounds)
    else:
        metrics = end_to_end(args, lifecycle, sizes, setup_s, timed, elapsed, import_s)
    missing = sorted(set(wanted) - set(metrics))
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    records = untimed + timed
    print(json.dumps({
        "correct": True,
        "attempted": len(records),
        "failed": sum(not record.ok for record in records),
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in wanted.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
