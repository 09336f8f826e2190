"""The benchmark's workloads.

Each workload is a fixed sequence of operations. Operation ``i`` of a run
with seed ``s`` gets its inputs from ``op_seed(workload, s, i)`` alone, so a
seed fixes every input and two runs of one seed can compare outputs op by
op. ``setup`` does what a user pays before the first call (import, plan,
config files); ``run`` is the timed call; ``verify`` checks the outputs
outside the timed region and returns their SHA-256.

Import this module only after the BLAS thread count is pinned: it imports
numpy and gaussprg.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os

import numpy as np

import gaussprg.cli
import gaussprg.generator
from gaussprg._bits import derive_key, stream_bytes
from gaussprg.designs import build_sampler
from gaussprg.generator import plan, sample, total_seed_bits


class VerificationError(Exception):
    """An operation's outputs are wrong."""


def op_seed(workload: str, seed: int, index: int) -> str:
    """Hex master seed of operation ``index`` of a run."""
    return hashlib.sha256(f"{workload}/{seed}/{index}".encode()).hexdigest()[:16]


def _write_json(path: str, obj: dict) -> str:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True)
    return path


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _digest_files(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _generator_key(config, seed_hex: str) -> int:
    # The label tuple sample_batch derives its Philox key from.
    return derive_key(
        seed_hex, "generator", config.n, config.d, config.k, config.epsilon, config.ell
    )


def _check_spot_rows(config, seed_hex: str, rows: np.ndarray, indices) -> None:
    """Rows of ``sample_batch`` must equal the scalar ``sample`` fed the
    byte stream of the same index, bit for bit."""
    key = _generator_key(config, seed_hex)
    nbytes = -(-total_seed_bits(config) // 8)
    for idx in indices:
        ref = sample(config, stream_bytes(key, idx, 1, nbytes)[0].tobytes())
        if ref.tobytes() != np.ascontiguousarray(rows[idx]).tobytes():
            raise VerificationError(f"row {idx} differs from sample() on the byte stream")


def _spot_indices(count: int) -> tuple[int, ...]:
    return tuple(sorted({0, count // 2, count - 1}))


class Workload:
    name = ""
    samples_per_op = 0

    def __init__(self, seed: int, work_dir: str, jobs: int):
        self.seed = seed
        self.work_dir = work_dir
        self.jobs = jobs

    def seed_hex(self, index: int) -> str:
        return op_seed(self.name, self.seed, index)

    def path(self, name: str) -> str:
        return os.path.join(self.work_dir, name)

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, index: int):
        raise NotImplementedError

    def verify(self, index: int, outputs) -> str:
        raise NotImplementedError

    def _cli(self, argv: list[str]) -> int:
        # Looked up at call time so the tracer's wrapper is the one called.
        return gaussprg.cli.main(argv)


class SampleJsonl(Workload):
    """``gaussprg sample`` in-process: generator slab plus JSONL writer."""

    name = "sample-jsonl"
    ROWS = 16384
    samples_per_op = ROWS

    def setup(self) -> None:
        params = {"n": 8, "d": 1, "k": 2, "epsilon": 0.25, "ell_cap": 200}
        self.config = plan(**params)
        self.cfg = _write_json(self.path("sample.json"), {"generator": params})

    def run(self, index: int):
        out = self.path(f"sample-{index}.jsonl")
        rc = self._cli([
            "sample", "--config", self.cfg, "--seed", self.seed_hex(index),
            "--samples", str(self.ROWS), "--out", out, "--jobs", "1",
        ])
        return rc, out

    def verify(self, index: int, outputs) -> str:
        rc, out = outputs
        if rc != 0:
            raise VerificationError(f"sample exited {rc}")
        with open(out, "rb") as fh:
            data = fh.read()
        os.remove(out)
        lines = data.decode().splitlines()
        if len(lines) != self.ROWS + 1:
            raise VerificationError(f"{len(lines) - 1} rows, expected {self.ROWS}")
        spots = _spot_indices(self.ROWS)
        rows = np.empty((self.ROWS, self.config.n))
        for idx in spots:
            obj = json.loads(lines[idx + 1])
            if obj["seed_index"] != idx:
                raise VerificationError(f"line {idx + 1} has seed_index {obj['seed_index']}")
            rows[idx] = obj["y"]
        _check_spot_rows(self.config, self.seed_hex(index), rows, spots)
        return hashlib.sha256(data).hexdigest()


class FoolHalfspace(Workload):
    """``gaussprg fool`` with a thread pool on a degree-1 ensemble."""

    name = "fool-halfspace"
    PTFS = 2
    EPSILONS = (0.5, 0.2)
    N_GEN = 25000  # one full harness work unit
    samples_per_op = PTFS * len(EPSILONS) * N_GEN

    def setup(self) -> None:
        self.ells = {e: plan(8, 1, 2, e, ell_cap=200).ell for e in self.EPSILONS}
        self.cfg = _write_json(self.path("fool.json"), {
            "ensemble": {"count": self.PTFS, "num_vars": 8, "degree": 1},
            "generator": {"k": 2, "epsilons": list(self.EPSILONS), "ell_cap": 200},
            "samples": {
                "n_gen": self.N_GEN, "baseline": "analytic",
                "max_gap_stderr": 3, "max_gap_slack": 0.02,
            },
        })

    def run(self, index: int):
        out = self.path(f"fool-{index}.csv")
        rc = self._cli([
            "fool", "--config", self.cfg, "--seed", self.seed_hex(index),
            "--out", out, "--jobs", str(self.jobs),
        ])
        return rc, out

    def verify(self, index: int, outputs) -> str:
        rc, out = outputs
        if rc != 0:
            raise VerificationError(f"fool exited {rc}")
        rows = _read_csv(out)
        if len(rows) != self.PTFS * len(self.EPSILONS):
            raise VerificationError(f"{len(rows)} rows, expected {self.PTFS * len(self.EPSILONS)}")
        for row in rows:
            eps = float(row["epsilon"])
            if int(row["ell"]) != self.ells[eps] or int(row["n_samples_gen"]) != self.N_GEN:
                raise VerificationError(f"row does not match the plan: {row}")
        digest = _digest_files([out, out + ".spec.json"])
        os.remove(out)
        os.remove(out + ".spec.json")
        return digest


class ChecksGauss(Workload):
    """The Gaussian verification suites and the design-moment checks."""

    name = "checks-gauss"
    N = 200_000
    POLYS = 2
    DEGREES = (2, 3)
    ELLS = (1, 2)
    # Monte-Carlo Gaussian draws per operation: cw and tail draw N per
    # polynomial, deriv draws N per polynomial and derivative order.
    samples_per_op = (2 + len(ELLS)) * len(DEGREES) * POLYS * N
    MOMENT_ROWS = 10  # 2 coordinates x orders 1..4, cross (1,1) and (2,2)

    def setup(self) -> None:
        # q = 53 keeps the 53^4 seed space under the exhaustive cap; q = 211
        # exceeds it and takes the Monte-Carlo branch.
        moments = {"exhaustive": 0.06, "mc": 3 / 211}
        for mode, budget in moments.items():
            q = build_sampler(3, 4, 2, budget).q
            if (mode == "exhaustive") != (q**4 <= 10**7):
                raise VerificationError(f"moments {mode} config has q={q}")
        ens = {"degrees": list(self.DEGREES), "count": self.POLYS, "num_vars": 3}
        self.calls = [
            ("check", "cw", {"ensemble": ens, "samples": {
                "epsilons": [0.01, 0.001], "n_samples": self.N}},
             len(self.DEGREES) * self.POLYS * 2),
            ("check", "tail", {"ensemble": ens, "samples": {
                "N_list": [2.0, 4.0, 6.0], "n_samples": self.N}},
             len(self.DEGREES) * self.POLYS * 3),
        ]
        for d in self.DEGREES:
            self.calls.append(("check", "deriv", {
                "ensemble": {"count": self.POLYS, "num_vars": 3, "degree": d},
                "samples": {"ells": list(self.ELLS), "n_samples": self.N, "tol": 0.05},
            }, self.POLYS * len(self.ELLS)))
        for mode, budget in moments.items():
            self.calls.append(("moments", None, {
                "generator": {"M": 3, "K": 4, "n": 2, "tv_budget": budget},
                "samples": {"mode": mode, "max_order": 4, "n_samples": self.N},
            }, self.MOMENT_ROWS))
        self.cfgs = [
            _write_json(self.path(f"checks-{j}.json"), cfg)
            for j, (_, _, cfg, _) in enumerate(self.calls)
        ]

    def run(self, index: int):
        results = []
        for j, ((command, sub, _, _), cfg) in enumerate(zip(self.calls, self.cfgs)):
            out = self.path(f"checks-{index}-{j}.csv")
            argv = [command] + ([sub] if sub else []) + [
                "--config", cfg, "--seed", self.seed_hex(index), "--out", out, "--jobs", "1",
            ]
            results.append((self._cli(argv), out))
        return results

    def verify(self, index: int, outputs) -> str:
        paths = []
        for (command, sub, _, expected), (rc, out) in zip(self.calls, outputs):
            label = sub or command
            if rc != 0:
                raise VerificationError(f"{label} exited {rc}")
            if len(_read_csv(out)) != expected:
                raise VerificationError(f"{label} wrote the wrong number of rows")
            paths += [out, out + ".spec.json"]
        digest = _digest_files(paths)
        for path in paths:
            os.remove(path)
        return digest


class WideQ(Workload):
    """``sample_batch`` on the exact-integer paths for large q."""

    name = "wide-q"
    # (plan arguments, rows per operation)
    PLANS = (((4, 1, 3, 0.01, 2), 24000), ((4, 1, 3, 1e-4, 2), 1200))
    samples_per_op = sum(rows for _, rows in PLANS)

    def setup(self) -> None:
        self.configs = [plan(*args) for args, _ in self.PLANS]
        words, wide = self.configs
        fam = words.sampler.family
        # First plan: <= 57-bit blocks read from words, q too large for the
        # float64 contraction. Second: blocks wider than 57 bits.
        if not (words.block_bits <= 57 and fam.k * (fam.q - 1) ** 2 >= 2**53):
            raise VerificationError("wide-q: first plan misses the int64 words path")
        if wide.block_bits <= 57:
            raise VerificationError("wide-q: second plan misses the wide-block path")

    def run(self, index: int):
        seed_hex = self.seed_hex(index)
        return [
            gaussprg.generator.sample_batch(config, seed_hex, rows)
            for config, (_, rows) in zip(self.configs, self.PLANS)
        ]

    def verify(self, index: int, outputs) -> str:
        h = hashlib.sha256()
        for config, (_, rows), out in zip(self.configs, self.PLANS, outputs):
            if out.shape != (rows, config.n) or not np.all(np.isfinite(out)):
                raise VerificationError(f"bad output shape {out.shape}")
            _check_spot_rows(config, self.seed_hex(index), out, _spot_indices(rows))
            h.update(out.tobytes())
        return h.hexdigest()


WORKLOADS = {w.name: w for w in (SampleJsonl, FoolHalfspace, ChecksGauss, WideQ)}
