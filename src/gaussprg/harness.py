"""Experiment engine: fooling-gap estimation and empirical verification of
the anticoncentration, tail, derivative-moment, and 1-D smooth-expectation
properties that the generator's analysis rests on.

Every experiment is split into fixed-size work units indexed
deterministically from the master seed; workers may run units in parallel
but aggregation always happens in unit order with integer tallies or
per-unit partial sums, so results are independent of the worker count.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import itertools
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, asdict
from typing import Callable, Sequence

import numpy as np

from ._bits import derive_key, subseed
from .designs import build_sampler, verify_moments
from .generator import GeneratorConfig, config_to_json, plan, sample_batch
from .hermite import SparsePolynomial, derivative_moment_rhs, poly_from_json
from .ptf import (
    PTF,
    RandomPolyConfig,
    eval_ptf_batch,
    halfspace_expectation,
    linear_threshold_params,
    ptf_to_json,
    random_ptf,
)

__all__ = [
    "GapEstimate",
    "ExperimentSpec",
    "ExperimentResult",
    "Report",
    "estimate_gap",
    "check_carbery_wright",
    "check_tail_bound",
    "check_derivative_identity",
    "check_prop4_1d",
    "run_experiment",
]

_UNIT = 25_000  # fixed Monte-Carlo work-unit size (samples per unit)


_unit_fn: Callable[[int], object] | None = None  # set in each pool worker


def _install(fn: Callable[[int], object]) -> None:
    """Pool-worker initializer: the unit function this worker runs."""
    global _unit_fn
    _unit_fn = fn


def _call(u: int) -> object:
    return _unit_fn(u)


def _run_units(
    count: int,
    fn: Callable[[int], object],
    jobs: int,
    order: Sequence[int] | None = None,
    *,
    processes: bool = False,
) -> list:
    """``[fn(u) for u in range(count)]``.

    With ``jobs > 1``, at most ``min(jobs, count, os.cpu_count())`` workers
    start the units in ``order`` (default index order), so the longest
    units can go first. The workers are threads, or, with ``processes``
    where the ``fork`` start method exists, forked processes, which
    inherit ``fn`` (often a closure) without pickling it; only unit
    indices and results cross the pipes. Set ``processes`` for units that
    run ``sample_batch``, whose tile loop holds the GIL. Other units are
    large numpy calls that release it, and a fork pool costs about 7 ms
    to start and stop, more than processes would gain on them.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    workers = min(jobs, count, os.cpu_count() or 1)
    if workers < 2:
        return [fn(u) for u in range(count)]
    import multiprocessing

    order = range(count) if order is None else order
    if processes and "fork" in multiprocessing.get_all_start_methods():
        from concurrent.futures.process import ProcessPoolExecutor

        pool = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_install,
            initargs=(fn,),
        )
        call = _call
    else:
        pool, call = ThreadPoolExecutor(max_workers=workers), fn
    with pool:
        done = dict(zip(order, pool.map(call, order)))
    return [done[u] for u in range(count)]


def _content_id(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _unit_rng(seed_hex: str, *labels: object) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=derive_key(seed_hex, *labels)))


@dataclass(frozen=True)
class GapEstimate:
    """Fooling-gap measurement |E[f(gen)] - E[f(baseline)]| with its noise."""

    ptf_id: str
    generator_id: str
    n_samples_gen: int
    n_samples_baseline: int
    e_gen: float
    e_baseline: float
    gap: float
    stderr: float
    ci95: tuple[float, float]


def _sign_mean_stderr(pos: int, total: int) -> tuple[float, float]:
    e = 2.0 * pos / total - 1.0
    return e, math.sqrt(max(1.0 - e * e, 0.0) / total)


def _count_positive_gaussian(
    f: PTF, n_samples: int, seed_hex: str, label: str, jobs: int
) -> int:
    n = f.poly.num_vars
    units = -(-n_samples // _UNIT)

    def unit(u: int) -> int:
        cnt = min(_UNIT, n_samples - u * _UNIT)
        X = _unit_rng(seed_hex, label, u).standard_normal((cnt, n))
        return int(np.count_nonzero(eval_ptf_batch(f, X) > 0))

    return sum(_run_units(units, unit, jobs))


def _count_positive_generator(
    f: PTF, gen: GeneratorConfig, n_samples: int, seed_hex: str, jobs: int
) -> int:
    units = -(-n_samples // _UNIT)

    def unit(u: int) -> int:
        cnt = min(_UNIT, n_samples - u * _UNIT)
        Y = sample_batch(gen, seed_hex, cnt, start=u * _UNIT)
        return int(np.count_nonzero(eval_ptf_batch(f, Y) > 0))

    return sum(_run_units(units, unit, jobs, processes=True))


def estimate_gap(
    f: PTF,
    gen: GeneratorConfig | str,
    n_gen: int,
    baseline: str = "analytic",
    *,
    n_baseline: int | None = None,
    master_seed: str = "00",
    ptf_id: str | None = None,
    generator_id: str | None = None,
    gen_stream: str = "gen",
    baseline_stream: str = "baseline",
    jobs: int = 1,
) -> GapEstimate:
    """Estimate E[f(Y)] - E[f(X)] for generator output Y against a baseline.

    gen is a planned GeneratorConfig, or the string "gaussian" for a
    true-Gaussian control stream (calibration runs). baseline is
    "analytic" (degree-1 only, exact normal-CDF value) or "mc"
    (n_baseline true-Gaussian samples, default 10x n_gen so baseline noise
    is subdominant).
    """
    if ptf_id is None:
        ptf_id = _content_id(ptf_to_json(f))
    if generator_id is None:
        generator_id = "gaussian" if gen == "gaussian" else _content_id(config_to_json(gen))
    if gen == "gaussian":
        pos = _count_positive_gaussian(f, n_gen, master_seed, gen_stream, jobs)
    else:
        pos = _count_positive_generator(f, gen, n_gen, subseed(master_seed, gen_stream), jobs)
    e_gen, se_gen = _sign_mean_stderr(pos, n_gen)
    if baseline == "analytic":
        w, theta = linear_threshold_params(f)
        e_base, se_base, n_base = halfspace_expectation(w, theta), 0.0, 0
    elif baseline == "mc":
        n_base = n_baseline if n_baseline is not None else 10 * n_gen
        bpos = _count_positive_gaussian(f, n_base, master_seed, baseline_stream, jobs)
        e_base, se_base = _sign_mean_stderr(bpos, n_base)
    else:
        raise ValueError(f"unknown baseline {baseline!r}")
    gap = e_gen - e_base
    stderr = math.hypot(se_gen, se_base)
    return GapEstimate(
        ptf_id=ptf_id,
        generator_id=generator_id,
        n_samples_gen=n_gen,
        n_samples_baseline=n_base,
        e_gen=e_gen,
        e_baseline=e_base,
        gap=gap,
        stderr=stderr,
        ci95=(gap - 1.96 * stderr, gap + 1.96 * stderr),
    )


@dataclass(frozen=True)
class Report:
    """Generic check result: fixed columns, one dict per row."""

    kind: str
    columns: tuple[str, ...]
    rows: tuple[dict, ...]
    passed: bool
    meta: dict


def _ensemble_ptf(num_vars: int, degree: int, seed_hex: str, index: int) -> PTF:
    rng_seed = derive_key(seed_hex, "poly", degree, index) % 2**63
    return random_ptf(RandomPolyConfig(num_vars, degree, rng_seed))


def check_carbery_wright(
    d: int,
    eps_list: Sequence[float],
    n_polys: int,
    n_samples: int,
    *,
    num_vars: int = 3,
    const: float = 3.0,
    master_seed: str = "00",
    polys: Sequence[PTF] | None = None,
    jobs: int = 1,
) -> Report:
    """Empirical small-ball probabilities Pr(|p(X)| <= eps) for unit-norm
    polynomials, compared with the anticoncentration envelope
    const * d * eps^(1/d). Instances come from the random Hermite-coefficient
    ensemble unless explicit polys are supplied."""
    eps_arr = np.asarray(sorted(eps_list), dtype=np.float64)
    units = -(-n_samples // _UNIT)
    if polys is not None:
        n_polys = len(polys)

    def poly_counts(pi: int) -> np.ndarray:
        f = polys[pi] if polys is not None else _ensemble_ptf(num_vars, d, master_seed, pi)
        nv = f.poly.num_vars

        def unit(u: int) -> np.ndarray:
            cnt = min(_UNIT, n_samples - u * _UNIT)
            X = _unit_rng(master_seed, "cw", d, pi, u).standard_normal((cnt, nv))
            a = np.abs(f.poly.evaluate_batch(X))
            return np.array([np.count_nonzero(a <= e) for e in eps_arr], dtype=np.int64)

        return sum(_run_units(units, unit, jobs))

    rows = []
    ok = True
    for pi in range(n_polys):
        counts = poly_counts(pi)
        for e, c in zip(eps_arr, counts):
            envelope = d * e ** (1.0 / d)
            empirical = c / n_samples
            ratio = empirical / envelope if envelope > 0 else 0.0
            passed = ratio <= const
            ok &= passed
            rows.append(
                {
                    "poly": pi,
                    "degree": d,
                    "epsilon": float(e),
                    "n_samples": n_samples,
                    "empirical": empirical,
                    "envelope": envelope,
                    "ratio": ratio,
                    "passed": int(passed),
                }
            )
    cols = ("poly", "degree", "epsilon", "n_samples", "empirical", "envelope", "ratio", "passed")
    return Report("cw", cols, tuple(rows), ok, {"const": const, "num_vars": num_vars})


def check_tail_bound(
    d: int,
    N_list: Sequence[float],
    n_polys: int,
    n_samples: int,
    *,
    num_vars: int = 3,
    const: float = 10.0,
    master_seed: str = "00",
    polys: Sequence[PTF] | None = None,
    jobs: int = 1,
) -> Report:
    """Empirical tails Pr(|p(X)| > N) vs const * 2^(-(N/2)^(2/d))."""
    N_arr = np.asarray(sorted(N_list), dtype=np.float64)
    units = -(-n_samples // _UNIT)
    if polys is not None:
        n_polys = len(polys)

    def poly_counts(pi: int) -> np.ndarray:
        f = polys[pi] if polys is not None else _ensemble_ptf(num_vars, d, master_seed, pi)
        nv = f.poly.num_vars

        def unit(u: int) -> np.ndarray:
            cnt = min(_UNIT, n_samples - u * _UNIT)
            X = _unit_rng(master_seed, "tail", d, pi, u).standard_normal((cnt, nv))
            a = np.abs(f.poly.evaluate_batch(X))
            return np.array([np.count_nonzero(a > N) for N in N_arr], dtype=np.int64)

        return sum(_run_units(units, unit, jobs))

    rows = []
    ok = True
    for pi in range(n_polys):
        counts = poly_counts(pi)
        for N, c in zip(N_arr, counts):
            bound = const * 2.0 ** (-((N / 2.0) ** (2.0 / d))) if N > 0 else const
            empirical = c / n_samples
            passed = empirical <= bound
            ok &= passed
            rows.append(
                {
                    "poly": pi,
                    "degree": d,
                    "N": float(N),
                    "n_samples": n_samples,
                    "empirical": empirical,
                    "bound": bound,
                    "passed": int(passed),
                }
            )
    cols = ("poly", "degree", "N", "n_samples", "empirical", "bound", "passed")
    return Report("tail", cols, tuple(rows), ok, {"const": const, "num_vars": num_vars})


def _mixed_partials(p: SparsePolynomial, ell: int) -> dict[tuple[int, ...], SparsePolynomial]:
    """Iterated partial derivatives keyed by sorted variable tuple (partials
    commute, so one representative per multiset suffices)."""
    out: dict[tuple[int, ...], SparsePolynomial] = {(): p}
    frontier = {(): p}
    for _ in range(ell):
        nxt: dict[tuple[int, ...], SparsePolynomial] = {}
        for key, poly in frontier.items():
            for i in range(p.num_vars):
                nk = tuple(sorted(key + (i,)))
                if nk not in nxt:
                    nxt[nk] = poly.partial_derivative(i)
        out.update(nxt)
        frontier = nxt
    return out


def check_derivative_identity(
    p: SparsePolynomial,
    ells: Sequence[int] | int,
    n_samples: int,
    *,
    tol: float = 0.05,
    master_seed: str = "00",
    jobs: int = 1,
) -> Report:
    """Monte-Carlo E[|D_{V_1}..D_{V_ell} p(X)|^2] (fresh Gaussian argument
    and directions each sample, derivatives taken exactly) against the
    exact falling-factorial value from the Hermite decomposition."""
    if isinstance(ells, int):
        ells = [ells]
    n = p.num_vars
    rows = []
    ok = True
    for ell in ells:
        partials = _mixed_partials(p, ell)
        ordered = [tuple(sorted(t)) for t in _var_tuples(n, ell)]
        uniq = sorted(set(ordered))
        units = -(-n_samples // _UNIT)

        def unit(u: int, ell=ell, ordered=ordered, uniq=uniq, partials=partials):
            cnt = min(_UNIT, n_samples - u * _UNIT)
            rng = _unit_rng(master_seed, "deriv", ell, u)
            X = rng.standard_normal((cnt, n))
            V = rng.standard_normal((ell, cnt, n))
            evals = {t: partials[t].evaluate_batch(X) for t in uniq}
            D = np.zeros(cnt)
            for t_ord, t_sorted in zip(_var_tuples(n, ell), ordered):
                term = evals[t_sorted].copy()
                for j, var in enumerate(t_ord):
                    term *= V[j, :, var]
                D += term
            sq = D * D
            return float(sq.sum()), float((sq * sq).sum()), cnt

        parts = _run_units(units, unit, jobs)
        s1 = sum(pt[0] for pt in parts)
        s2 = sum(pt[1] for pt in parts)
        mean = s1 / n_samples
        var = max(s2 / n_samples - mean * mean, 0.0)
        stderr = math.sqrt(var / n_samples)
        exact = derivative_moment_rhs(p, ell)
        if exact == 0.0:
            rel = 0.0 if mean == 0.0 else math.inf
        else:
            rel = abs(mean - exact) / exact
        passed = rel <= tol
        ok &= passed
        rows.append(
            {
                "ell": ell,
                "n_samples": n_samples,
                "estimate": mean,
                "exact": exact,
                "rel_error": rel,
                "stderr": stderr,
                "passed": int(passed),
            }
        )
    cols = ("ell", "n_samples", "estimate", "exact", "rel_error", "stderr", "passed")
    return Report("deriv", cols, tuple(rows), ok, {"tol": tol})


def _var_tuples(n: int, ell: int):
    return itertools.product(range(n), repeat=ell)


def _smooth_expectation(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """E[sgn((1+a) X + b)] = 1 - 2*Phi(-b/(1+a)) for scalar Gaussian X."""
    # Imported here: nothing else needs scipy.special, and importing it
    # after scipy.linalg takes another 50-70 ms.
    from scipy.special import erf

    t = -b / (1.0 + a)
    return 1.0 - 2.0 * (0.5 * (1.0 + erf(t / math.sqrt(2.0))))


def _square_shell(r: float, m: int) -> np.ndarray:
    """m points walking the square max(|a|,|b|) = r."""
    pts = np.empty((m, 2))
    for j in range(m):
        s = 8.0 * r * j / m
        if s < 2 * r:
            pts[j] = (-r + s, -r)
        elif s < 4 * r:
            pts[j] = (r, -r + (s - 2 * r))
        elif s < 6 * r:
            pts[j] = (r - (s - 4 * r), r)
        else:
            pts[j] = (-r, r - (s - 6 * r))
    return pts


def check_prop4_1d(
    k: int,
    shells: Sequence[float] = (0.2, 0.1, 0.05),
    *,
    fit_grid: int = 15,
    shell_points: int = 64,
    inner_scale: float = 0.5,
) -> Report:
    """Residual-scaling test for the degree-(k-1) polynomial surrogate of the
    smooth map (a, b) -> E[sgn((1+a)X + b)].

    A least-squares fit on an inner grid (half the smallest shell radius by
    default) should leave residuals shrinking like radius^k across nested
    shells, i.e. a log-log slope of at least k - 0.5.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    shells = sorted(float(r) for r in shells)
    if not shells or shells[0] <= 0 or shells[-1] >= 0.5:
        raise ValueError("shell radii must lie in (0, 0.5)")
    h = inner_scale * shells[0]
    grid = np.linspace(-h, h, fit_grid)
    A, B = np.meshgrid(grid, grid)
    a = A.ravel()
    b = B.ravel()
    exps = [(i, j) for t in range(k) for i in range(t + 1) for j in [t - i]]
    design = np.stack([(a / h) ** i * (b / h) ** j for i, j in exps], axis=1)
    target = _smooth_expectation(a, b)
    coefs, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    if rank < len(exps):
        raise ValueError("singular fit matrix (degenerate grid)")

    def fitted(pts: np.ndarray) -> np.ndarray:
        cols = np.stack([(pts[:, 0] / h) ** i * (pts[:, 1] / h) ** j for i, j in exps], axis=1)
        return cols @ coefs

    rows = []
    max_res = []
    for r in shells:
        pts = _square_shell(r, shell_points)
        res = np.abs(_smooth_expectation(pts[:, 0], pts[:, 1]) - fitted(pts))
        max_res.append(float(res.max()))
        rows.append({"radius": r, "max_residual": max_res[-1]})
    slope = float(np.polyfit(np.log(shells), np.log(max_res), 1)[0])
    origin = float(_smooth_expectation(np.array([0.0]), np.array([0.0]))[0])
    passed = slope >= k - 0.5
    for row in rows:
        row.update({"slope": slope, "origin_value": origin, "passed": int(passed)})
    cols = ("radius", "max_residual", "slope", "origin_value", "passed")
    return Report(
        "prop4",
        cols,
        tuple(rows),
        passed,
        {"k": k, "slope": slope, "origin_value": origin, "fit_radius": h},
    )


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to reproduce a run bit-for-bit."""

    kind: str
    ensemble: dict
    generator: dict
    samples: dict
    seed: str
    out: str
    jobs: int = 1

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    def echo_json(self) -> str:
        """Result-determining fields only: jobs and the output path never
        change the numbers, so they stay out of the reproducibility echo."""
        obj = asdict(self)
        obj.pop("out")
        obj.pop("jobs")
        return json.dumps(obj, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        obj = json.loads(text)
        return cls(**obj)


@dataclass(frozen=True)
class ExperimentResult:
    passed: bool
    rows: tuple[dict, ...]
    paths: tuple[str, ...]


def _fmt_cell(v) -> str:
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


@contextlib.contextmanager
def _atomic_open(path: str, newline: str | None = None):
    """A text file that appears at ``path`` only once it is complete: it is
    written to a temporary file in the same directory, then renamed onto
    ``path``. A write that fails leaves ``path`` as it was."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _write_csv(path: str, columns: Sequence[str], rows: Sequence[dict]) -> None:
    with _atomic_open(path, newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(columns)
        for row in rows:
            w.writerow([_fmt_cell(row[c]) for c in columns])


def _write_spec_sidecar(spec: ExperimentSpec) -> str:
    path = spec.out + ".spec.json"
    with _atomic_open(path) as fh:
        fh.write(spec.echo_json())
        fh.write("\n")
    return path


def _need(section: dict, path: str):
    """The config value at the dotted ``path``, read from ``section``; a
    missing key raises ValueError naming ``path``."""
    key = path.rpartition(".")[2]
    if key not in section:
        raise ValueError(f"config is missing {path}")
    return section[key]


def _plan_from_params(params: dict, prefix: str = "generator.") -> GeneratorConfig:
    return plan(
        n=int(_need(params, prefix + "n")),
        d=int(_need(params, prefix + "d")),
        k=int(_need(params, prefix + "k")),
        epsilon=float(_need(params, prefix + "epsilon")),
        ell_cap=params.get("ell_cap"),
    )


def _run_sample(spec: ExperimentSpec) -> ExperimentResult:
    config = _plan_from_params(spec.generator)
    count = int(_need(spec.samples, "samples.count"))
    if count < 1:
        raise ValueError(f"samples.count must be >= 1, got {count}")
    block = 4096
    units = -(-count // block)

    def unit(u: int) -> np.ndarray:
        lo = u * block
        return sample_batch(config, spec.seed, min(block, count - lo), start=lo)

    chunks = _run_units(units, unit, spec.jobs, processes=True)
    with _atomic_open(spec.out) as fh:
        fh.write(json.dumps({"spec": json.loads(spec.echo_json())}, sort_keys=True))
        fh.write("\n")
        # The bytes json.dumps(..., sort_keys=True) would write: float repr
        # and ", " separators.
        idx = 0
        for chunk in chunks:
            rows = chunk.tolist()
            fh.writelines('{"seed_index": %d, "y": %r}\n' % row for row in enumerate(rows, idx))
            idx += len(rows)
    return ExperimentResult(True, (), (spec.out,))


def _run_moments(spec: ExperimentSpec) -> ExperimentResult:
    g = spec.generator
    sampler = build_sampler(
        int(_need(g, "generator.M")),
        int(_need(g, "generator.K")),
        int(_need(g, "generator.n")),
        float(_need(g, "generator.tv_budget")),
    )
    mode = spec.samples.get("mode", "exhaustive")
    report = verify_moments(
        sampler,
        int(spec.samples.get("max_order", 4)),
        mode=mode,
        n_samples=int(spec.samples.get("n_samples", 10**6)),
        rng_seed=derive_key(spec.seed, "moments"),
    )
    rows = report.rows()
    cols = ("scope", "orders", "empirical", "target", "tolerance", "passed")
    _write_csv(spec.out, cols, rows)
    side = _write_spec_sidecar(spec)
    return ExperimentResult(report.passed, tuple(rows), (spec.out, side))


def _run_fool(spec: ExperimentSpec) -> ExperimentResult:
    count = int(spec.ensemble.get("count", 0))
    num_vars = int(_need(spec.ensemble, "ensemble.num_vars")) if count else 0
    degree = int(spec.ensemble.get("degree", 1))
    epsilons = [float(e) for e in _need(spec.generator, "generator.epsilons")]
    n_gen = int(_need(spec.samples, "samples.n_gen"))
    baseline = spec.samples.get("baseline", "analytic" if degree == 1 else "mc")
    max_stderr = spec.samples.get("max_gap_stderr")
    slack = float(spec.samples.get("max_gap_slack", 0.0))
    configs = {}
    if count:
        k = int(_need(spec.generator, "generator.k"))
        configs = {e: plan(num_vars, degree, k, e, spec.generator.get("ell_cap")) for e in epsilons}

    def unit(idx: int) -> list[dict]:
        pi, ei = divmod(idx, len(epsilons))
        eps = epsilons[ei]
        f = _ensemble_ptf(num_vars, degree, spec.seed, pi)
        est = estimate_gap(
            f,
            configs[eps],
            n_gen,
            baseline,
            n_baseline=spec.samples.get("n_baseline"),
            master_seed=subseed(spec.seed, "fool", pi, eps),
            jobs=1,
        )
        row = {
            "ptf_index": pi,
            "ptf_id": est.ptf_id,
            "generator_id": est.generator_id,
            "epsilon": eps,
            "ell": configs[eps].ell,
            "truncated": int(configs[eps].truncated),
            "n_samples_gen": est.n_samples_gen,
            "n_samples_baseline": est.n_samples_baseline,
            "e_gen": est.e_gen,
            "e_baseline": est.e_baseline,
            "gap": est.gap,
            "stderr": est.stderr,
            "ci_lo": est.ci95[0],
            "ci_hi": est.ci95[1],
        }
        if max_stderr is not None:
            row["passed"] = int(abs(est.gap) <= float(max_stderr) * est.stderr + slack)
        return [row]

    units = count * len(epsilons) if count else 0
    # Sampling time grows with ell: start the longest chains first.
    heavy_first = sorted(range(units), key=lambda idx: -configs[epsilons[idx % len(epsilons)]].ell)
    results = _run_units(units, unit, spec.jobs, heavy_first, processes=True)
    rows = [r for part in results for r in part]
    cols = [
        "ptf_index", "ptf_id", "generator_id", "epsilon", "ell", "truncated",
        "n_samples_gen", "n_samples_baseline", "e_gen", "e_baseline",
        "gap", "stderr", "ci_lo", "ci_hi",
    ]
    if max_stderr is not None:
        cols.append("passed")
    _write_csv(spec.out, cols, rows)
    side = _write_spec_sidecar(spec)
    passed = all(r.get("passed", 1) for r in rows)
    return ExperimentResult(passed, tuple(rows), (spec.out, side))


def _run_cw(spec: ExperimentSpec) -> ExperimentResult:
    degrees = spec.ensemble.get("degrees", [spec.ensemble.get("degree", 2)])
    all_rows: list[dict] = []
    ok = True
    cols: tuple[str, ...] = ()
    for d in degrees:
        rep = check_carbery_wright(
            int(d),
            [float(e) for e in _need(spec.samples, "samples.epsilons")],
            int(spec.ensemble.get("count", 0)),
            int(_need(spec.samples, "samples.n_samples")),
            num_vars=int(spec.ensemble.get("num_vars", 3)),
            const=float(spec.samples.get("const", 3.0)),
            master_seed=spec.seed,
            jobs=spec.jobs,
        )
        all_rows.extend(rep.rows)
        ok &= rep.passed
        cols = rep.columns
    _write_csv(spec.out, cols, all_rows)
    side = _write_spec_sidecar(spec)
    return ExperimentResult(ok, tuple(all_rows), (spec.out, side))


def _run_tail(spec: ExperimentSpec) -> ExperimentResult:
    degrees = spec.ensemble.get("degrees", [spec.ensemble.get("degree", 2)])
    all_rows: list[dict] = []
    ok = True
    cols: tuple[str, ...] = ()
    for d in degrees:
        rep = check_tail_bound(
            int(d),
            [float(N) for N in _need(spec.samples, "samples.N_list")],
            int(spec.ensemble.get("count", 0)),
            int(_need(spec.samples, "samples.n_samples")),
            num_vars=int(spec.ensemble.get("num_vars", 3)),
            const=float(spec.samples.get("const", 10.0)),
            master_seed=spec.seed,
            jobs=spec.jobs,
        )
        all_rows.extend(rep.rows)
        ok &= rep.passed
        cols = rep.columns
    _write_csv(spec.out, cols, all_rows)
    side = _write_spec_sidecar(spec)
    return ExperimentResult(ok, tuple(all_rows), (spec.out, side))


def _run_deriv(spec: ExperimentSpec) -> ExperimentResult:
    if "poly" in spec.ensemble:
        # explicit polynomial in the shared JSON format
        polys = [poly_from_json(json.dumps(spec.ensemble["poly"]))]
    else:
        polys = [
            _ensemble_ptf(
                int(_need(spec.ensemble, "ensemble.num_vars")),
                int(_need(spec.ensemble, "ensemble.degree")),
                spec.seed,
                pi,
            ).poly
            for pi in range(int(spec.ensemble.get("count", 0)))
        ]
    rows: list[dict] = []
    ok = True
    for pi, poly in enumerate(polys):
        rep = check_derivative_identity(
            poly,
            [int(e) for e in _need(spec.samples, "samples.ells")],
            int(_need(spec.samples, "samples.n_samples")),
            tol=float(spec.samples.get("tol", 0.05)),
            master_seed=subseed(spec.seed, "deriv-poly", pi),
            jobs=spec.jobs,
        )
        for r in rep.rows:
            rows.append({"poly": pi, **r})
        ok &= rep.passed
    cols = ("poly", "ell", "n_samples", "estimate", "exact", "rel_error", "stderr", "passed")
    _write_csv(spec.out, cols, rows)
    side = _write_spec_sidecar(spec)
    return ExperimentResult(ok, tuple(rows), (spec.out, side))


def _run_prop4(spec: ExperimentSpec) -> ExperimentResult:
    rep = check_prop4_1d(
        int(_need(spec.samples, "samples.k")),
        [float(r) for r in spec.samples.get("shells", (0.2, 0.1, 0.05))],
        fit_grid=int(spec.samples.get("fit_grid", 15)),
        shell_points=int(spec.samples.get("shell_points", 64)),
        inner_scale=float(spec.samples.get("inner_scale", 0.5)),
    )
    _write_csv(spec.out, rep.columns, rep.rows)
    side = _write_spec_sidecar(spec)
    return ExperimentResult(rep.passed, rep.rows, (spec.out, side))


_RUNNERS = {
    "sample": _run_sample,
    "moments": _run_moments,
    "fool": _run_fool,
    "cw": _run_cw,
    "tail": _run_tail,
    "deriv": _run_deriv,
    "prop4": _run_prop4,
}


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Execute a named experiment and persist its outputs.

    Re-running an identical spec reproduces the output files byte for byte,
    whatever the jobs value.
    """
    if spec.kind not in _RUNNERS:
        raise ValueError(f"unknown experiment kind {spec.kind!r}")
    if spec.jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {spec.jobs}")
    return _RUNNERS[spec.kind](spec)
