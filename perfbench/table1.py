"""Table 1 bottleneck bandwidths recomputed from a traced run's spans.

    python3 perfbench/run.py --workload paper_rc40 --seed 1 --seconds 25 --trace 1
    python3 perfbench/table1.py .perfbench_out/trace-paper_rc40-seed1.json

Section 5.2 defines an operation's bottleneck bandwidth as the bytes it
moves divided by its computation time.  Computation times come from the
spans (median over the traced operations); byte counts follow the
paper's definitions for a 1 MiB file, with the coefficient overhead of
each fragment (n_file elements) included where the paper includes it.
"""

from __future__ import annotations

import json
import statistics
import sys

import lifecycle

#: The paper's Table 1 (1 MB, optimized C, Core 2 Duo 2.66 GHz), Mbps.
PAPER = {
    (32, 0): {"encoding": 31.2, "participant": None, "newcomer": 777.3,
              "inversion": 7.8, "decoding": 24.6},
    (40, 1): {"encoding": 3.1, "participant": 70.5, "newcomer": 76.8,
              "inversion": 1.5, "decoding": 2.5},
}


def computation_times(spans) -> dict[str, list[float]]:
    """Per-operation computation seconds, one entry per traced operation."""
    by_id = {span["id"]: span for span in spans}

    def under(span, name):
        while span["parent"] is not None:
            span = by_id[span["parent"]]
            if span["name"] == name:
                return True
        return False

    times: dict[str, list[float]] = {}
    per_op: dict[int, dict[str, float]] = {}
    for span in spans:
        if span["op"] is None or span["id"] == span["op"]:
            continue
        seconds = (span["end_ns"] - span["start_ns"]) / 1e9
        op_name = by_id[span["op"]]["name"]
        slot = per_op.setdefault(span["op"], {})
        if span["name"] == "core.encode":
            slot["encoding"] = slot.get("encoding", 0) + seconds
        elif span["name"] == "core.newcomer_repair":
            slot["newcomer"] = slot.get("newcomer", 0) + seconds
        elif span["name"] == "gf.invert" and op_name == "reconstruct":
            slot["inversion"] = slot.get("inversion", 0) + seconds
        elif span["name"] == "gf.matmul" and op_name == "repair" and under(span, "daemon.handler"):
            # Each helper combines its data and its coefficient rows.
            slot["participant"] = slot.get("participant", 0) + seconds
            slot["helpers"] = slot.get("helpers", 0) + 0.5
        elif (span["name"] == "gf.matmul" and op_name == "reconstruct"
              and by_id[span["parent"]]["name"] == "reconstruct"):
            slot["decoding"] = slot.get("decoding", 0) + seconds
    for slot in per_op.values():
        if "participant" in slot:
            slot["participant"] /= slot.pop("helpers")
        for name, seconds in slot.items():
            times.setdefault(name, []).append(seconds)
    return times


def main(path: str) -> int:
    trace = json.loads(open(path).read())
    workload = lifecycle.WORKLOADS[trace["workload"]]
    k, h, d, i = workload.k, workload.h, workload.d, workload.i
    sizes = lifecycle.closed_forms(k, h, d, i, workload.file_size)
    fragment = workload.file_size / sizes.n_file
    coefficients = sizes.n_file * lifecycle.ELEMENT_BYTES
    data = {
        "encoding": (k + h) * sizes.n_piece * fragment,
        "participant": fragment + coefficients,
        "newcomer": d * (fragment + coefficients),
        "inversion": k * sizes.n_piece * coefficients,
        "decoding": workload.file_size,
    }
    paper = PAPER.get((d, i), {})
    print(f"RC({k},{h},{d},{i}), {workload.file_size} B file: bottleneck bandwidth, Mbps")
    print(f"{'operation':<13}{'time s':>10}{'samples':>9}{'this run':>11}{'paper':>9}")
    for name, seconds in computation_times(trace["spans"]).items():
        median = statistics.median(seconds)
        reference = paper.get(name)
        print(f"{name:<13}{median:>10.4f}{len(seconds):>9}"
              f"{data[name] * 8 / median / 1e6:>11.1f}"
              f"{'--' if reference is None else reference:>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
