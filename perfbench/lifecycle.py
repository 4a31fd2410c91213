"""Workloads, closed-form sizes and the closed-loop life cycle they run.

One client keeps one operation in flight against a 66-daemon
``LocalCluster`` (one piece per peer, as in the paper).  A round is:

1. insert a fresh seeded file;
2. reconstruct it with every peer up;
3. twice: take down the holder of a piece and repair that piece onto
   a peer holding no piece of the file (there are two such peers);
4. take down the down set (8 peers holding low-index pieces, which the
   coordinator reads first) and reconstruct again; the collected pieces
   include the regenerated ones;
5. bring every peer back for the next round.

Every output is checked: SHA-256 of each reconstruction against the
generator's input, and the repair, restore and storage byte counts
against closed forms computed here from k, h, d, i and the padded file
size (paper eqs. E2-E4), never through the program's own ``RCParams``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pathlib
import shutil
import time

import numpy as np

#: Operation classes, and the operations of one round in order.
OP_CLASSES = ("insert", "reconstruct", "repair", "degraded_reconstruct")
ROUND_OPS = ("insert", "reconstruct", "repair", "repair", "degraded_reconstruct")

PEERS = 66
DOWN_PEERS = 8
#: The down set and the repaired pieces are pieces [0, LOW_INDEX) in a
#: seeded order.  The coordinator reads coefficients from the k lowest-index
#: pieces first, so every degraded reconstruct meets all eight down peers
#: and collects the regenerated pieces.  Using all ten one-digit indices
#: keeps the set of keys on the wire, and so every byte count, the same for
#: every seed.  A repair is short, so each round repairs twice (onto each
#: of the two peers that hold no piece) for twice the samples.
LOW_INDEX = 10
#: Independent set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Size of a serialized piece header, format v2: magic (4), version,
#: kind, q, reserved (1 each), index, rows, n_file, l_frag, crc32 (4 each).
PIECE_HEADER_BYTES = 28
ELEMENT_BYTES = 2  # GF(2^16)


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    k: int
    h: int
    d: int
    i: int
    file_size: int
    #: Untimed full rounds after set-up: early drift stays out of the
    #: timed phase (sized with ``steadiness.py``).
    warmup_rounds: int


WORKLOADS = {
    workload.name: workload
    for workload in (
        # Table 1 row 4: the GF kernel is most of insert and reconstruct.
        Workload("paper_rc40", 32, 32, 40, 1, 1 << 20, warmup_rounds=0),
        # Erasure baseline: a wide kernel shape, wire-bound repair,
        # backoff-bound degraded reconstruct.
        Workload("erasure_rc32", 32, 32, 32, 0, 1 << 20, warmup_rounds=2),
        # RPC, daemon and blockstore bound insert/repair; inversion-bound
        # reconstruct (its cost does not depend on file size).
        Workload("small_files", 32, 32, 40, 1, 16 << 10, warmup_rounds=2),
    )
}


@dataclasses.dataclass(frozen=True)
class Sizes:
    """Closed-form byte counts of one file under RC(k, h, d, i)."""

    n_file: int
    n_piece: int
    padded: int
    l_frag: int
    piece_blob: int
    stored: int
    repair_payload: int
    repair_coefficients: int
    restore_payload: int
    restore_coefficients: int

    @property
    def repair_traffic(self) -> int:
        return self.repair_payload + self.repair_coefficients

    @property
    def restore_traffic(self) -> int:
        return self.restore_payload + self.restore_coefficients


def closed_forms(k: int, h: int, d: int, i: int, file_size: int) -> Sizes:
    """Eqs. E2-E4 with n_repair = 1, for a file padded to whole rows."""
    denominator = 2 * k * (d - k + 1) + i * (2 * k - i - 1)
    n_file = denominator // 2
    n_piece = d - k + i + 1
    row = n_file * ELEMENT_BYTES
    padded = max(row, -(-file_size // row) * row)
    l_frag = padded // row
    piece_blob = PIECE_HEADER_BYTES + n_piece * (n_file + l_frag) * ELEMENT_BYTES
    return Sizes(
        n_file=n_file,
        n_piece=n_piece,
        padded=padded,
        l_frag=l_frag,
        piece_blob=piece_blob,
        stored=(k + h) * piece_blob,
        repair_payload=d * l_frag * ELEMENT_BYTES,
        repair_coefficients=d * n_file * ELEMENT_BYTES,
        restore_payload=padded,
        restore_coefficients=k
        * (PIECE_HEADER_BYTES + n_piece * n_file * ELEMENT_BYTES),
    )


def table1_reference(k: int, h: int, d: int, i: int, file_size: int) -> tuple[float, float]:
    """Table 1's unpadded (repair payload KB, storage MB) for a file."""
    denominator = 2 * k * (d - k + 1) + i * (2 * k - i - 1)
    repair = d * 2 * file_size / denominator
    storage = (k + h) * 2 * (d - k + i + 1) * file_size / denominator
    return repair / 1024, storage / (1 << 20)


def _check_closed_forms() -> None:
    """The paper's own figures for RC(32,32,40,1) at 1 MB (Table 1)."""
    sizes = closed_forms(32, 32, 40, 1, 1 << 20)
    repair_kb, storage_mb = table1_reference(32, 32, 40, 1, 1 << 20)
    if (sizes.n_file, sizes.n_piece) != (319, 10):
        raise AssertionError(f"n_file/n_piece {sizes.n_file}/{sizes.n_piece} != 319/10")
    if (round(repair_kb, 2), round(storage_mb, 3)) != (128.40, 2.006):
        raise AssertionError(f"Table 1 row: {repair_kb:.2f} KB, {storage_mb:.3f} MB")


_check_closed_forms()


class CheckFailed(Exception):
    """A program output disagreed with the generator's input or a closed form."""


def expect(what: str, got, want) -> None:
    if got != want:
        raise CheckFailed(f"{what}: got {got!r}, expected {want!r}")


@dataclasses.dataclass
class OpRecord:
    op: str
    start_ns: int
    end_ns: int
    cpu_s: float
    ok: bool
    traced: bool = False
    stats: object = None

    @property
    def wall_s(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


@dataclasses.dataclass(frozen=True)
class Layout:
    """The seeded peer roles of a run (fixed for all its rounds)."""

    down: tuple[int, ...]   # peers (== piece indices) down in degraded reconstruct
    lost: tuple[int, ...]       # pieces repaired each round; their holders go down
    newcomers: tuple[int, ...]  # the peers holding no piece of the file


def make_layout(rng: np.random.Generator, pieces: int) -> Layout:
    low = rng.permutation(LOW_INDEX)
    spare = range(pieces, PEERS)
    return Layout(
        down=tuple(sorted(int(p) for p in low[:DOWN_PEERS])),
        lost=tuple(int(p) for p in low[DOWN_PEERS : DOWN_PEERS + len(spare)]),
        newcomers=tuple(int(p) for p in rng.permutation(spare)),
    )


class LifeCycle:
    """A cluster, a coordinator and the seeded streams of one set-up."""

    def __init__(self, repro, workload: Workload, seed_seq: np.random.SeedSequence, root):
        self.repro = repro
        self.workload = workload
        self.sizes = closed_forms(
            workload.k, workload.h, workload.d, workload.i, workload.file_size
        )
        files, coordinator, cluster, retry, layout = seed_seq.spawn(5)
        self.files = np.random.default_rng(files)
        self.root = pathlib.Path(root)
        self.cluster = repro.LocalCluster(
            PEERS,
            self.root,
            seed=int(cluster.generate_state(1)[0]),
            fsync=True,  # the daemons write as `repro serve` does
        )
        self.coordinator = repro.Coordinator(
            repro.RCParams(k=workload.k, h=workload.h, d=workload.d, i=workload.i),
            rng=np.random.default_rng(coordinator),
            retry=repro.RetryPolicy(seed=int(retry.generate_state(1)[0])),
        )
        self.layout = make_layout(np.random.default_rng(layout), workload.k + workload.h)
        self.rounds = 0

    async def start(self) -> None:
        await self.cluster.start()

    async def close(self) -> None:
        await self.coordinator.aclose()
        await self.cluster.stop()
        shutil.rmtree(self.root, ignore_errors=True)

    async def _timed(self, records, op, awaitable, tracer):
        span = tracer.op_begin(op) if tracer is not None else None
        cpu, start = time.process_time(), time.perf_counter_ns()
        record = OpRecord(op, start, start, 0.0, False, traced=span is not None)
        records.append(record)
        try:
            result = await awaitable
            record.ok = True
            record.stats = result[1] if isinstance(result, tuple) else result
            return result
        finally:
            record.end_ns = time.perf_counter_ns()
            record.cpu_s = time.process_time() - cpu
            if span is not None:
                tracer.op_end(span)

    async def round(self, records: list, tracer=None) -> None:
        """One life-cycle round; appends one record per operation.

        A failed operation ends the round early and the operations it
        skipped are recorded as failed, so every round attempts all of
        :data:`ROUND_OPS`.
        """
        round_no = self.rounds
        self.rounds += 1
        first = len(records)
        try:
            await self._round(round_no, records, tracer)
        except self.repro.NetError:
            now = time.perf_counter_ns()
            for op in ROUND_OPS[len(records) - first :]:
                records.append(OpRecord(op, now, now, 0.0, False))
        finally:
            for peer in range(PEERS):
                if not self.cluster.is_running(peer):
                    await self.cluster.restart(peer)

    async def _round(self, round_no: int, records: list, tracer) -> None:
        wl, sizes, layout = self.workload, self.sizes, self.layout
        data = self.files.bytes(wl.file_size)
        digest = hashlib.sha256(data).hexdigest()
        addresses = self.cluster.addresses
        expect("peers up before insert", len(addresses), PEERS)

        inserted = await self._timed(
            records, "insert",
            self.coordinator.insert(data, addresses, f"round-{round_no:06d}"), tracer,
        )
        manifest = inserted.manifest
        expect("stored bytes", inserted.bytes_uploaded, sizes.stored)
        expect(
            "one piece per peer",
            {index: str(loc) for index, loc in manifest.pieces.items()},
            {index: str(addresses[index]) for index in range(wl.k + wl.h)},
        )

        restored, stats = await self._timed(
            records, "reconstruct", self.coordinator.reconstruct(manifest), tracer
        )
        expect("healthy reconstruct sha256", hashlib.sha256(restored).hexdigest(), digest)
        self._check_restore("healthy reconstruct", stats, probed=wl.k)

        for lost, newcomer in zip(layout.lost, layout.newcomers):
            await self.cluster.kill(lost)
            address = self.cluster.address_of(newcomer)
            repaired = await self._timed(
                records, "repair",
                self.coordinator.repair(manifest, lost, address), tracer,
            )
            expect("repair payload bytes", repaired.payload_bytes, sizes.repair_payload)
            expect("repair coefficient bytes", repaired.coefficient_bytes,
                   sizes.repair_coefficients)
            expect("repair helpers substituted", repaired.helpers_failed, ())
            expect("repaired piece location", str(manifest.pieces[lost]), str(address))

        for peer in layout.down:
            await self.cluster.kill(peer)
        live = [index for index in sorted(manifest.pieces) if index not in layout.down]
        expect("regenerated pieces among the k read", set(layout.lost) <= set(live[: wl.k]), True)
        restored, stats = await self._timed(
            records, "degraded_reconstruct",
            self.coordinator.reconstruct(manifest), tracer,
        )
        expect("degraded reconstruct sha256", hashlib.sha256(restored).hexdigest(), digest)
        self._check_restore("degraded reconstruct", stats, probed=wl.k + DOWN_PEERS)

    def _check_restore(self, what: str, stats, probed: int) -> None:
        sizes = self.sizes
        expect(f"{what} fragments", stats.fragments_downloaded, sizes.n_file)
        expect(f"{what} payload bytes", stats.payload_bytes, sizes.restore_payload)
        expect(f"{what} coefficient bytes", stats.coefficient_bytes, sizes.restore_coefficients)
        expect(f"{what} pieces probed", stats.pieces_probed, probed)
