"""Experiment engine: fooling-gap estimation and empirical verification of
the anticoncentration, tail, derivative-moment, and 1-D smooth-expectation
properties that the generator's analysis rests on.

Every experiment is split into fixed-size work units indexed
deterministically from the master seed; workers may run units in parallel
but aggregation always happens in unit order with integer tallies or
per-unit partial sums, so results are independent of the worker count.

The fooling gap and the small-ball and tail checks all count the rows on
which a score crosses a threshold, through one kernel (``_count_hits``).
A ``Report`` passes iff each of its rows does. ``run_experiment`` opens
its output file before any work and writes the result through it.
"""

from __future__ import annotations

import collections
import contextlib
import csv
import hashlib
import itertools
import json
import math
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, asdict
from typing import Callable, Iterator, Sequence

import numpy as np

from ._bits import derive_key, subseed
from .designs import _MAX_QUAD_POINTS, _UNIT, _check_mode, _check_n, build_sampler, verify_moments
from .generator import GeneratorConfig, _design_size, config_to_json, plan, sample_batch
from .hermite import _MAX_DEGREE, SparsePolynomial, derivative_moment_rhs, poly_from_json
from .ptf import (
    PTF,
    RandomPolyConfig,
    halfspace_expectation,
    linear_threshold_params,
    normal_cdf,
    ptf_to_json,
    random_ptf,
)

__all__ = [
    "GapEstimate",
    "ExperimentSpec",
    "Report",
    "estimate_gap",
    "check_carbery_wright",
    "check_tail_bound",
    "check_derivative_identity",
    "check_prop4_1d",
    "run_experiment",
]


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
) -> Iterator:
    """``fn(u)`` for ``u`` in ``range(count)``, each yielded once it and
    every earlier unit are done. Raises ValueError if ``jobs < 1``.

    With ``jobs > 1``, at most ``min(jobs, count, os.cpu_count())`` workers
    start the units in ``order`` (default index order), so the longest
    units can go first. At most two units per worker are submitted and not
    yet collected, so a finished unit waits in memory only for the units
    before it. The workers are threads, or, with ``processes`` where the
    ``fork`` start method exists, forked processes, which inherit ``fn``
    (often a closure) without pickling it; only unit indices and results
    cross the pipes. Set ``processes`` for units that run ``sample_batch``,
    whose tile loop holds the GIL: in 8 alternating pairs of the
    ``fool-halfspace`` benchmark, threads ran 13% slower than forked
    workers (median 88.6k against 101.8k samples/s) and raised peak RSS
    from 41.0 to 50.6 MiB, as threads' memory counts in the parent's
    ``ru_maxrss``. Other units are large numpy calls that release the GIL,
    and a fork pool costs about 7 ms to start and stop, more than
    processes would gain on them.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    workers = min(jobs, count, os.cpu_count() or 1)
    if workers < 2:
        yield from map(fn, range(count))
        return
    import multiprocessing

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
    todo = iter(range(count) if order is None else order)
    ahead, done = collections.deque(), {}
    with pool:
        for u in range(count):
            while u not in done:
                for v in itertools.islice(todo, 2 * workers - len(ahead)):
                    ahead.append((v, pool.submit(call, v)))
                v, future = ahead.popleft()
                done[v] = future.result()
            yield done.pop(u)


def _sum_units(
    n_samples: int, unit: Callable[[int, int], object], jobs: int, *, processes: bool = False
):
    """``unit(u, cnt)`` summed in unit order over the ``_UNIT``-sample units
    of an ``n_samples`` run, ``cnt`` being unit ``u``'s sample count (the
    last unit may be partial). ``jobs`` and ``processes`` are as in
    ``_run_units``."""
    if n_samples < 1:
        raise ValueError(f"sample count must be >= 1, got {n_samples}")

    def counted(u: int):
        return unit(u, min(_UNIT, n_samples - u * _UNIT))

    return sum(_run_units(-(-n_samples // _UNIT), counted, jobs, processes=processes))


def _content_id(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _unit_rng(seed_hex: str, *labels: object) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=derive_key(seed_hex, *labels)))


def _gaussian_rows(seed_hex: str, num_vars: int, *labels: object) -> Callable[[int, int], np.ndarray]:
    """Row source of the Gaussian stream ``labels``: unit ``u``'s ``cnt``
    rows of ``num_vars`` standard normals."""
    return lambda u, cnt: _unit_rng(seed_hex, *labels, u).standard_normal((cnt, num_vars))


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
    ci_lo: float  # the 95% interval gap -+ 1.96 * stderr
    ci_hi: float


def _count_hits(
    n_samples: int,
    rows: Callable[[int, int], np.ndarray],
    score: Callable[[np.ndarray], np.ndarray],
    hit: Callable[[np.ndarray, float], np.ndarray],
    thresholds: Sequence[float],
    jobs: int,
    processes: bool = False,
) -> np.ndarray:
    """For each of ``thresholds``, how many of the ``n_samples`` rows that
    ``rows(u, cnt)`` yields unit by unit have ``hit(score(row), t)``. Each
    unit's scores are computed once, for all thresholds. ``jobs`` and
    ``processes`` are as in ``_run_units``."""

    def unit(u: int, cnt: int) -> np.ndarray:
        s = score(rows(u, cnt))
        return np.array([np.count_nonzero(hit(s, t)) for t in thresholds], dtype=np.int64)

    return _sum_units(n_samples, unit, jobs, processes=processes)


def estimate_gap(
    f: PTF,
    gen: GeneratorConfig | str,
    n_gen: int,
    baseline: str = "analytic",
    *,
    n_baseline: int | None = None,
    master_seed: str = "00",
    jobs: int = 1,
) -> GapEstimate:
    """Estimate E[f(Y)] - E[f(X)] for generator output Y against a baseline.

    gen is a planned GeneratorConfig, or the string "gaussian" for a
    true-Gaussian control stream (calibration runs). baseline is
    "analytic" (degree-1 only, exact normal-CDF value) or "mc"
    (n_baseline true-Gaussian samples, default 10x n_gen so baseline noise
    is subdominant). Y is read from the stream labelled "gen" and X from
    the one labelled "baseline". Any other gen or baseline, and a plan
    whose n is not f's variable count, raise ValueError before a row is
    drawn.
    """
    n = f.poly.num_vars
    if gen == "gaussian":
        gen_rows, processes = _gaussian_rows(master_seed, n, "gen"), False
    elif not isinstance(gen, GeneratorConfig):
        raise ValueError(f"gen must be a GeneratorConfig or 'gaussian', got {gen!r}")
    elif gen.n != n:
        raise ValueError(f"the PTF has {n} variables but the plan has n={gen.n}")
    else:
        seed_hex = subseed(master_seed, "gen")

        def gen_rows(u: int, cnt: int) -> np.ndarray:
            return sample_batch(gen, seed_hex, cnt, start=u * _UNIT)

        processes = True

    def sign_mean_stderr(total: int, rows: Callable[[int, int], np.ndarray], processes: bool = False):
        # f = +1 where p >= 0: sgn(0) = +1.
        pos = int(_count_hits(total, rows, f.poly.evaluate_batch, operator.ge, (0.0,), jobs, processes)[0])
        e = 2.0 * pos / total - 1.0
        return e, math.sqrt(max(1.0 - e * e, 0.0) / total)

    if baseline == "analytic":
        w, theta = linear_threshold_params(f)
        e_base, se_base, n_base = halfspace_expectation(w, theta), 0.0, 0
    elif baseline == "mc":
        n_base = n_baseline if n_baseline is not None else 10 * n_gen
        e_base, se_base = sign_mean_stderr(n_base, _gaussian_rows(master_seed, n, "baseline"))
    else:
        raise ValueError(f"unknown baseline {baseline!r}")
    e_gen, se_gen = sign_mean_stderr(n_gen, gen_rows, processes)
    gap = e_gen - e_base
    stderr = math.hypot(se_gen, se_base)
    return GapEstimate(
        ptf_id=_content_id(ptf_to_json(f)),
        generator_id="gaussian" if gen == "gaussian" else _content_id(config_to_json(gen)),
        n_samples_gen=n_gen,
        n_samples_baseline=n_base,
        e_gen=e_gen,
        e_baseline=e_base,
        gap=gap,
        stderr=stderr,
        ci_lo=gap - 1.96 * stderr,
        ci_hi=gap + 1.96 * stderr,
    )


@dataclass(frozen=True)
class Report:
    """Generic check result: fixed columns, one dict per row."""

    columns: tuple[str, ...]
    rows: tuple[dict, ...]

    @property
    def passed(self) -> bool:
        """True iff every row's ``passed`` is 1; a row without that column
        passes, and so does a report without rows."""
        return all(row.get("passed", 1) == 1 for row in self.rows)


def _ensemble_ptfs(ens: dict, degree: int, seed_hex: str) -> list[PTF]:
    """An ensemble section's ``count`` random PTFs of ``degree`` in ``num_vars``
    variables, PTF ``i`` drawn from the key ``(seed_hex, "poly", degree, i)``.
    With the schema checked, every error of RandomPolyConfig is about the
    ensemble's size, which its ``num_vars`` and its degree key set together."""
    key = "ensemble.num_vars and ensemble." + ("degrees" if "degrees" in ens else "degree")
    seeds = [derive_key(seed_hex, "poly", degree, i) % 2**63 for i in range(ens["count"])]
    return [random_ptf(_keyed(key, RandomPolyConfig, ens["num_vars"], degree, s)) for s in seeds]


def _threshold_check(
    kind: str,
    columns: tuple[str, ...],
    hit: Callable[[np.ndarray, np.float64], np.ndarray],
    judge: Callable[[int, np.float64, float], dict],
    polys: Sequence[PTF],
    thresholds: Sequence[float],
    n_samples: int,
    *,
    master_seed: str,
    jobs: int,
) -> Report:
    """Count, for the ``pi``-th polynomial p, of degree d, and each sorted
    threshold t, the Gaussian draws (stream ``(kind, d, pi)``) with
    ``hit(|p(X)|, t)``; ``judge(d, t, empirical)`` gives the rest of that
    row: the threshold column, the bound and ``passed``. Raises ValueError
    for no polynomials, no thresholds or a polynomial of degree 0."""
    t_arr = np.asarray(sorted(thresholds), dtype=np.float64)
    if not polys or not t_arr.size:
        raise ValueError(f"{kind} check needs at least one polynomial and one threshold")
    if any(f.poly.degree < 1 for f in polys):
        raise ValueError(f"{kind} check needs polynomials of degree >= 1")
    rows = []
    for pi, f in enumerate(polys):
        d = f.poly.degree
        draw = _gaussian_rows(master_seed, f.poly.num_vars, kind, d, pi)
        counts = _count_hits(n_samples, draw, lambda X: np.abs(f.poly.evaluate_batch(X)), hit, t_arr, jobs)
        for t, c in zip(t_arr, counts):
            empirical = c / n_samples
            row = {"poly": pi, "degree": d, "n_samples": n_samples, "empirical": empirical}
            rows.append({**row, **judge(d, t, empirical)})
    return Report(columns, tuple(rows))


def check_carbery_wright(
    polys: Sequence[PTF],
    eps_list: Sequence[float],
    n_samples: int,
    *,
    const: float = 3.0,
    master_seed: str = "00",
    jobs: int = 1,
) -> Report:
    """Empirical small-ball probabilities Pr(|p(X)| <= eps) for the unit-norm
    polynomials of ``polys``, compared with the anticoncentration envelope
    const * d * eps^(1/d), d being each polynomial's degree."""
    if not all(e >= 0 for e in eps_list):
        raise ValueError(f"epsilons must be >= 0, got {list(eps_list)}")

    def judge(d: int, e: np.float64, empirical: float) -> dict:
        envelope = d * e ** (1.0 / d)
        ratio = empirical / envelope if envelope > 0 else 0.0
        return {"epsilon": float(e), "envelope": envelope, "ratio": ratio, "passed": int(ratio <= const)}

    cols = ("poly", "degree", "epsilon", "n_samples", "empirical", "envelope", "ratio", "passed")
    return _threshold_check(
        "cw", cols, operator.le, judge, polys, eps_list, n_samples, master_seed=master_seed, jobs=jobs
    )


def check_tail_bound(
    polys: Sequence[PTF],
    N_list: Sequence[float],
    n_samples: int,
    *,
    const: float = 10.0,
    master_seed: str = "00",
    jobs: int = 1,
) -> Report:
    """Empirical tails Pr(|p(X)| > N) for the polynomials of ``polys`` vs
    const * 2^(-(N/2)^(2/d)), d being each polynomial's degree."""

    def judge(d: int, N: np.float64, empirical: float) -> dict:
        bound = const * 2.0 ** (-((N / 2.0) ** (2.0 / d))) if N > 0 else const
        return {"N": float(N), "bound": bound, "passed": int(empirical <= bound)}

    cols = ("poly", "degree", "N", "n_samples", "empirical", "bound", "passed")
    return _threshold_check(
        "tail", cols, operator.gt, judge, polys, N_list, n_samples, master_seed=master_seed, jobs=jobs
    )


def _mixed_partials(p: SparsePolynomial, ell: int) -> dict[tuple[int, ...], SparsePolynomial]:
    """The ell-th order partial derivatives keyed by sorted variable tuple
    (partials commute, so one representative per multiset suffices)."""
    frontier = {(): p}
    for _ in range(ell):
        nxt: dict[tuple[int, ...], SparsePolynomial] = {}
        for key, poly in frontier.items():
            for i in range(p.num_vars):
                nk = tuple(sorted(key + (i,)))
                if nk not in nxt:
                    nxt[nk] = poly.partial_derivative(i)
        frontier = nxt
    return frontier


# The most ordered variable tuples, num_vars**ell, that one order of
# check_derivative_identity sums over: each sample of a unit walks them all,
# and each distinct sorted tuple keeps one evaluation of the unit's rows
# (200 KB in a full 25,000-sample unit) beside the unit's Gaussian and
# direction draws (200 KB per variable each). Ell 1 costs the most memory
# per tuple: on a 2-vCPU VM a full unit peaks at 623 MiB in 1,024
# variables and at 1,209 MiB in 2,048, the bound (3.3 s and 9.8 s); ell 2
# peaks at 260 MiB in 45.
# Every order draws num_vars normals a sample, ell 0 too, so num_vars is
# held to the bound as num_vars**max(ell, 1).
_MAX_VAR_TUPLES = 2**11


def _check_deriv_poly(p: SparsePolynomial) -> None:
    """ValueError for a polynomial that check_derivative_identity does not
    take: more than ``_MAX_VAR_TUPLES`` variables or a degree above
    ``_MAX_DEGREE``."""
    if p.num_vars > _MAX_VAR_TUPLES:
        raise ValueError(f"num_vars must be <= {_MAX_VAR_TUPLES}, got {p.num_vars}")
    if p.degree > _MAX_DEGREE:
        raise ValueError(f"degree must be <= {_MAX_DEGREE}, got {p.degree}")


def check_derivative_identity(
    p: SparsePolynomial,
    ells: Sequence[int],
    n_samples: int,
    *,
    tol: float = 0.05,
    master_seed: str = "00",
    jobs: int = 1,
) -> Report:
    """Monte-Carlo E[|D_{V_1}..D_{V_ell} p(X)|^2] (fresh Gaussian argument
    and directions each sample, derivatives taken exactly) against the
    exact falling-factorial value from the Hermite decomposition. Raises
    ValueError for a polynomial that ``_check_deriv_poly`` rejects, and for
    an ell above ``_MAX_DEGREE``, with ``num_vars**ell`` above
    ``_MAX_VAR_TUPLES`` or whose exact value squared is beyond the float
    range, before any row is drawn."""
    if len(ells) == 0:
        raise ValueError("ells must not be empty")
    if any(ell < 0 for ell in ells):
        raise ValueError(f"ells must be >= 0, got {list(ells)}")
    _check_deriv_poly(p)
    n = p.num_vars
    exact = {}
    for ell in ells:
        # 2**bit_length exceeds the bound, so n**ell does iff n**min(ell, bit_length) does.
        if n ** min(ell, _MAX_VAR_TUPLES.bit_length()) > _MAX_VAR_TUPLES:
            raise ValueError(f"num_vars**ell must be <= {_MAX_VAR_TUPLES}, got {n}**{ell}")
        if ell > _MAX_DEGREE:
            raise ValueError(f"ells must be <= {_MAX_DEGREE}, got {ell}")
        # The stderr sums D^4, whose mean is at least exact^2.
        exact[ell] = derivative_moment_rhs(p, ell)
        if not math.isfinite(exact[ell] * exact[ell]):
            raise ValueError(f"exact value {exact[ell]:.3g} at ell {ell} squares beyond the float range")
    rows = []
    for ell in ells:
        partials = _mixed_partials(p, ell)
        ordered = [tuple(sorted(t)) for t in _var_tuples(n, ell)]

        def unit(u: int, cnt: int) -> np.ndarray:
            rng = _unit_rng(master_seed, "deriv", ell, u)
            # Fortran order: evaluate_batch reads X.T, which is then
            # contiguous, so no partial copies the draw.
            X = np.asfortranarray(rng.standard_normal((cnt, n)))
            # (ell, n, cnt): the direction columns V[j, :, var] made contiguous
            V = np.ascontiguousarray(rng.standard_normal((ell, cnt, n)).transpose(0, 2, 1))
            evals = {t: q.evaluate_batch(X) for t, q in partials.items()}
            D = np.zeros(cnt)
            buf = np.empty(cnt)
            for t_ord, t_sorted in zip(_var_tuples(n, ell), ordered):
                term = evals[t_sorted]
                for j, var in enumerate(t_ord):
                    term = np.multiply(term, V[j, var], out=buf)
                D += term
            sq = D * D
            return np.array([sq.sum(), (sq * sq).sum()])

        s1, s2 = _sum_units(n_samples, unit, jobs).tolist()
        mean = s1 / n_samples
        var = max(s2 / n_samples - mean * mean, 0.0)
        stderr = math.sqrt(var / n_samples)
        if exact[ell] == 0.0:
            rel = 0.0 if mean == 0.0 else math.inf
        else:
            rel = abs(mean - exact[ell]) / exact[ell]
        rows.append(
            {
                "ell": ell,
                "n_samples": n_samples,
                "estimate": mean,
                "exact": exact[ell],
                "rel_error": rel,
                "stderr": stderr,
                "passed": int(rel <= tol),
            }
        )
    cols = ("ell", "n_samples", "estimate", "exact", "rel_error", "stderr", "passed")
    return Report(cols, tuple(rows))


def _var_tuples(n: int, ell: int):
    return itertools.product(range(n), repeat=ell)


def _smooth_expectation(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """E[sgn((1+a) X + b)] = 1 - 2*Phi(-b/(1+a)) for scalar Gaussian X."""
    return 1.0 - 2.0 * np.vectorize(normal_cdf, otypes=[float])(-b / (1.0 + a))


def _square_shell(r: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates a and b of m points walking the square max(|a|,|b|) = r."""
    s = 8.0 * r * np.arange(m) / m
    sides = [s < 2 * r, s < 4 * r, s < 6 * r]
    a = np.select(sides, [-r + s, r, r - (s - 4 * r)], -r)
    b = np.select(sides, [-r, -r + (s - 2 * r), r], r - (s - 6 * r))
    return a, b


def _sorted_shells(shells: Sequence[float]) -> list[float]:
    """The radii in increasing order: each in (0, 0.5), at least two distinct
    ones, as the log-log slope needs two points."""
    shells = sorted(float(r) for r in shells)
    if not all(0 < r < 0.5 for r in shells):
        raise ValueError("shell radii must lie in (0, 0.5)")
    if len(set(shells)) < 2:
        raise ValueError(f"need at least two distinct shell radii, got {shells}")
    return shells


# check prop4's fit: _FIT_GRID points a side over +-_INNER_SCALE times the
# smallest shell radius, and _SHELL_POINTS points on each shell.
_FIT_GRID = 15
_INNER_SCALE = 0.5
_SHELL_POINTS = 64


def check_prop4_1d(k: int, shells: Sequence[float] = (0.2, 0.1, 0.05)) -> Report:
    """Residual-scaling test for the degree-(k-1) polynomial surrogate of the
    smooth map (a, b) -> E[sgn((1+a)X + b)].

    A least-squares fit on an inner grid (half the smallest shell radius)
    should leave residuals shrinking like radius^k across nested shells,
    i.e. a log-log slope of at least k - 0.5.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    shells = _sorted_shells(shells)
    h = _INNER_SCALE * shells[0]
    grid = np.linspace(-h, h, _FIT_GRID)
    A, B = np.meshgrid(grid, grid)
    a = A.ravel()
    b = B.ravel()
    exps = [(i, j) for t in range(k) for i in range(t + 1) for j in [t - i]]

    def monomials(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.stack([(a / h) ** i * (b / h) ** j for i, j in exps], axis=1)

    coefs, _, rank, _ = np.linalg.lstsq(monomials(a, b), _smooth_expectation(a, b), rcond=None)
    if rank < len(exps):
        raise ValueError("singular fit matrix (degenerate grid)")
    rows = []
    max_res = []
    for r in shells:
        a, b = _square_shell(r, _SHELL_POINTS)
        res = np.abs(_smooth_expectation(a, b) - monomials(a, b) @ coefs)
        max_res.append(float(res.max()))
        rows.append({"radius": r, "max_residual": max_res[-1]})
    slope = float(np.polyfit(np.log(shells), np.log(max_res), 1)[0])
    origin = float(_smooth_expectation(np.array([0.0]), np.array([0.0]))[0])
    for row in rows:
        row.update({"slope": slope, "origin_value": origin, "passed": int(slope >= k - 0.5)})
    cols = ("radius", "max_residual", "slope", "origin_value", "passed")
    return Report(cols, tuple(rows))


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

    def echo_json(self) -> str:
        """Result-determining fields only: jobs and the output path never
        change the numbers, so they stay out of the reproducibility echo."""
        obj = asdict(self)
        obj.pop("out")
        obj.pop("jobs")
        return json.dumps(obj, sort_keys=True)


def _fmt_cell(v) -> str:
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


@contextlib.contextmanager
def _atomic_open(path: str, newline: str | None = None):
    """A text file that appears at ``path`` only once it is complete: it is
    written to a temporary file in the same directory, then renamed onto
    ``path``. A write that fails leaves ``path`` as it was. A ``path``
    that cannot be written at all raises ValueError: on entry if it is a
    directory or its directory or the temporary file cannot be made, at
    the end if the temporary file cannot replace it."""
    if os.path.isdir(path):
        raise ValueError(f"cannot write {path}: it is a directory")
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        fh = open(tmp, "w", newline=newline)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from exc
    try:
        with fh:
            yield fh
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise ValueError(f"cannot write {path}: {exc}") from exc
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _write_csv(fh, columns: Sequence[str], rows: Sequence[dict]) -> None:
    """The header and ``rows`` to ``fh``, a file opened with ``newline=""``."""
    w = csv.writer(fh, lineterminator="\n")
    w.writerow(columns)
    for row in rows:
        w.writerow([_fmt_cell(row[c]) for c in columns])


_REQ = "required"
_COUNT = "sample count"  # an int whose range error says "sample count"
_PLAN_KEYS = {
    "n": (int, 1, _REQ), "d": (int, 1, _REQ), "k": (int, 1, _REQ), "epsilon": (float, None, _REQ),
    "ell_cap": (int, 1, None),
}
_N_SAMPLES = (_COUNT, 1, _REQ)
_THRESHOLDS = {"count": (int, 1, 1), "num_vars": (int, 1, 3), "degrees": ([int], 1, (2,))}
# _SCHEMA[kind][section][key] = (type, lowest value, default): every config
# key each command reads. [t] is a non-empty list of t, each item at least
# the lowest value. A default of None makes a key optional, and null counts
# as absent. --samples sets the first sample count of samples. plan reads
# top-level keys (section "").
_SCHEMA = {
    "plan": {"": _PLAN_KEYS},
    "sample": {"generator": _PLAN_KEYS, "samples": {"count": (_COUNT, 1, _REQ)}},
    "moments": {
        "generator": {
            "M": (int, 1, _REQ), "K": (int, 1, _REQ), "n": (int, 1, _REQ),
            "tv_budget": (float, None, _REQ),
        },
        # Only "mc" mode reads n_samples; verify_moments checks its range.
        "samples": {
            "mode": (str, None, "exhaustive"), "max_order": (int, 1, 4),
            "n_samples": (_COUNT, None, 10**6),
        },
    },
    "fool": {
        "ensemble": {"count": (int, 1, 1), "num_vars": (int, 1, _REQ), "degree": (int, 1, 1)},
        "generator": {
            "k": (int, 1, _REQ), "epsilons": ([float], None, _REQ), "ell_cap": (int, 1, None),
        },
        "samples": {
            "n_gen": (_COUNT, 1, _REQ), "n_baseline": (_COUNT, 1, None), "baseline": (str, None, None),
            "max_gap_stderr": (float, 0, None), "max_gap_slack": (float, 0, 0.0),
        },
    },
    "cw": {"ensemble": _THRESHOLDS, "samples": {"epsilons": ([float], 0, _REQ), "n_samples": _N_SAMPLES}},
    "tail": {"ensemble": _THRESHOLDS, "samples": {"N_list": ([float], None, _REQ), "n_samples": _N_SAMPLES}},
    "deriv": {
        "ensemble": {
            "count": (int, 1, 1), "num_vars": (int, 1, 3), "degree": (int, 1, 2), "poly": (dict, None, None),
        },
        "samples": {"ells": ([int], 0, _REQ), "n_samples": _N_SAMPLES, "tol": (float, 0, 0.05)},
    },
    "prop4": {"samples": {"k": (int, 1, _REQ), "shells": ([float], None, (0.2, 0.1, 0.05))}},
}
# Pairs of dotted keys that one config may not both give.
_CONFLICTS = {
    "deriv": [("ensemble.poly", f"ensemble.{key}") for key in ("count", "num_vars", "degree")],
}
_TYPE_NAMES = {
    int: "an integer", _COUNT: "an integer", float: "a number", str: "a string", dict: "an object",
}


def _samples_key(kind: str) -> str | None:
    """The ``samples`` key that ``--samples`` sets for ``kind``, if any."""
    return next((key for key, e in _SCHEMA[kind].get("samples", {}).items() if e[0] is _COUNT), None)


def _typed(path: str, value, typ, lowest):
    """``value`` of the config key ``path`` as a ``typ`` of at least ``lowest``. No number
    is read from a bool or a string, no integer from a non-integral number, and no
    float is NaN or infinite. A list may not be empty."""
    if isinstance(typ, list):
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"config {path} must be a list, got {type(value).__name__}")
        if not value:
            raise ValueError(f"config {path} must not be empty")
        return [_typed(path, v, typ[0], lowest) for v in value]
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if typ is float and number:
        try:
            value = float(value)
        except OverflowError:  # an integer beyond the float range
            value = math.inf
        if not math.isfinite(value):
            raise ValueError(f"config {path} must be a finite number, got {value!r}")
    elif typ in (int, _COUNT) and number and (isinstance(value, int) or value.is_integer()):
        value = int(value)
    elif typ in (str, dict) and isinstance(value, typ):
        return value
    else:
        raise ValueError(f"config {path} must be {_TYPE_NAMES[typ]}, got {value!r}")
    if lowest is not None and not value >= lowest:
        what = f"{path}: sample count" if typ is _COUNT else path
        raise ValueError(f"config {what} must be >= {lowest}, got {value}")
    return value


def _read_config(kind: str, sections: dict[str, dict]) -> dict[str, dict]:
    """``{section: {key: value}}`` for every key in ``_SCHEMA[kind]``, read
    from the config ``sections`` (typed, defaults for absent keys). An
    unknown, conflicting or missing key, a value of the wrong type or below
    its lowest value, or an empty list raises ValueError naming the dotted
    key."""
    for s, obj in sections.items():
        if not isinstance(obj, dict):
            raise ValueError(f"config section {s} must be a dict, got {type(obj).__name__}")
    schema = _SCHEMA[kind]
    given = [f"{s}.{key}".lstrip(".") for s, obj in sections.items() for key in obj]
    known = {f"{s}.{key}".lstrip(".") for s, table in schema.items() for key in table}
    for path in sorted(set(given) - known):
        raise ValueError(f"config has unknown key {path}")
    for a, b in _CONFLICTS.get(kind, ()):
        if a in given and b in given:
            raise ValueError(f"config gives both {a} and {b}; give one")
    cfg: dict[str, dict] = {}
    for s, table in schema.items():
        obj, cfg[s] = sections.get(s, {}), {}
        for key, (typ, lowest, default) in table.items():
            path = f"{s}.{key}".lstrip(".")
            if key in obj and not (obj[key] is None and default is None):
                cfg[s][key] = _typed(path, obj[key], typ, lowest)
            elif default is _REQ:
                raise ValueError(f"config is missing {path}")
            else:
                cfg[s][key] = default
    return cfg


def _keyed(path: str, fn: Callable, *args, **kwargs):
    """``fn(*args, **kwargs)``, whose ValueError is about the config key
    ``path``: the library's message, prefixed with the key."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"config {path}: {exc}") from None


def _run_sample(spec: ExperimentSpec, cfg: dict, fh) -> Report:
    """Write ``count`` generator rows to ``fh`` as JSONL, after a header
    line with the spec echo."""
    _keyed("generator.n", _check_n, cfg["generator"]["n"])
    _keyed("generator.d and generator.k", _design_size, cfg["generator"]["d"], cfg["generator"]["k"])
    # With the schema, n and (d, k) checked, every error of plan is about epsilon: its
    # range, a chain that overflows without ell_cap, or a budget that needs a prime beyond 2^62.
    config = _keyed("generator.epsilon", plan, **cfg["generator"])
    count = cfg["samples"]["count"]
    block = 4096
    units = -(-count // block)

    def unit(u: int) -> np.ndarray:
        lo = u * block
        return sample_batch(config, spec.seed, min(block, count - lo), start=lo)

    chunks = _run_units(units, unit, spec.jobs, processes=True)
    with contextlib.closing(chunks):
        fh.write(json.dumps({"spec": json.loads(spec.echo_json())}, sort_keys=True))
        fh.write("\n")
        # Each unit is written, in unit order, as soon as it and every
        # earlier unit are done, so no more than a few units are held at
        # once. The bytes json.dumps(..., sort_keys=True) would write:
        # float repr and ", " separators.
        for u, chunk in enumerate(chunks):
            rows = enumerate(chunk.tolist(), u * block)
            fh.writelines('{"seed_index": %d, "y": %r}\n' % row for row in rows)
            fh.flush()
    return Report((), ())


def _run_moments(spec: ExperimentSpec, cfg: dict) -> Report:
    M = cfg["generator"]["M"]
    if M > _MAX_QUAD_POINTS:
        raise ValueError(f"config generator.M must be <= {_MAX_QUAD_POINTS}, got {M}")
    _keyed("generator.n", _check_n, cfg["generator"]["n"])
    _keyed("samples.mode", _check_mode, cfg["samples"]["mode"])
    # With M and n in range, every error of build_sampler is about the budget.
    sampler = _keyed("generator.tv_budget", build_sampler, **cfg["generator"])
    # With the mode and max_order checked, every error of verify_moments is
    # about the Monte-Carlo sample count.
    rows = _keyed(
        "samples.n_samples", verify_moments, sampler, **cfg["samples"], rng_seed=derive_key(spec.seed, "moments")
    )
    return Report(("scope", "orders", "empirical", "target", "tolerance", "passed"), rows)


def _run_fool(spec: ExperimentSpec, cfg: dict) -> Report:
    ens, gen, smp = cfg["ensemble"], cfg["generator"], cfg["samples"]
    num_vars, degree, epsilons = ens["num_vars"], ens["degree"], gen["epsilons"]
    baseline = smp["baseline"] if smp["baseline"] is not None else "analytic" if degree == 1 else "mc"
    max_stderr = smp["max_gap_stderr"]
    _keyed("ensemble.num_vars", _check_n, num_vars)
    _keyed("ensemble.degree and generator.k", _design_size, degree, gen["k"])
    # As in _run_sample, every error of plan here is about the epsilon.
    configs = {e: _keyed("generator.epsilons", plan, num_vars, degree, gen["k"], e, gen["ell_cap"]) for e in epsilons}
    ptfs = _ensemble_ptfs(ens, degree, spec.seed)

    def unit(idx: int) -> dict:
        pi, ei = divmod(idx, len(epsilons))
        eps = epsilons[ei]
        config = configs[eps]
        # With the schema and the plans checked, every error of estimate_gap is about the baseline.
        est = _keyed(
            "samples.baseline", estimate_gap, ptfs[pi], config, smp["n_gen"], baseline,
            n_baseline=smp["n_baseline"], master_seed=subseed(spec.seed, "fool", pi, eps), jobs=1,
        )
        row = {"ptf_index": pi, "epsilon": eps, "ell": config.ell, "truncated": int(config.truncated)}
        row.update(asdict(est))
        if max_stderr is not None:
            row["passed"] = int(abs(est.gap) <= max_stderr * est.stderr + smp["max_gap_slack"])
        return row

    units = len(ptfs) * len(epsilons)
    # Sampling time grows with ell: start the longest chains first.
    heavy_first = sorted(range(units), key=lambda idx: -configs[epsilons[idx % len(epsilons)]].ell)
    rows = tuple(_run_units(units, unit, spec.jobs, heavy_first, processes=True))
    cols = (
        "ptf_index", "ptf_id", "generator_id", "epsilon", "ell", "truncated",
        "n_samples_gen", "n_samples_baseline", "e_gen", "e_baseline",
        "gap", "stderr", "ci_lo", "ci_hi",
    ) + (("passed",) if max_stderr is not None else ())
    return Report(cols, rows)


def _run_threshold_check(spec: ExperimentSpec, cfg: dict) -> Report:
    """``check cw`` or ``check tail``: the per-degree reports in one."""
    check, key = (check_carbery_wright, "epsilons") if spec.kind == "cw" else (check_tail_bound, "N_list")
    ens, smp = cfg["ensemble"], cfg["samples"]
    reports = [
        check(_ensemble_ptfs(ens, d, spec.seed), smp[key], smp["n_samples"], master_seed=spec.seed, jobs=spec.jobs)
        for d in ens["degrees"]
    ]
    rows = tuple(row for rep in reports for row in rep.rows)
    cols = reports[-1].columns
    return Report(cols, rows)


def _run_deriv(spec: ExperimentSpec, cfg: dict) -> Report:
    ens, smp = cfg["ensemble"], cfg["samples"]
    if ens["poly"] is not None:
        # explicit polynomial in the shared JSON format
        polys = [_keyed("ensemble.poly", poly_from_json, ens["poly"])]
        _keyed("ensemble.poly", _check_deriv_poly, polys[0])
    else:
        polys = [f.poly for f in _ensemble_ptfs(ens, ens["degree"], spec.seed)]
    rows: list[dict] = []
    for pi, poly in enumerate(polys):
        # With the schema and the polynomial checked (a random ensemble is
        # within both of _check_deriv_poly's bounds), every error of
        # check_derivative_identity is about the orders.
        rep = _keyed(
            "samples.ells",
            check_derivative_identity,
            poly,
            smp["ells"],
            smp["n_samples"],
            tol=smp["tol"],
            master_seed=subseed(spec.seed, "deriv-poly", pi),
            jobs=spec.jobs,
        )
        for r in rep.rows:
            rows.append({"poly": pi, **r})
    cols = ("poly", "ell", "n_samples", "estimate", "exact", "rel_error", "stderr", "passed")
    return Report(cols, tuple(rows))


def _run_prop4(spec: ExperimentSpec, cfg: dict) -> Report:
    _keyed("samples.shells", _sorted_shells, cfg["samples"]["shells"])
    # With k >= 1 and the shells checked, the only error left is a singular
    # fit, which a large k gives.
    return _keyed("samples.k", check_prop4_1d, **cfg["samples"])


# The CSV kinds; ``sample`` writes its JSONL as it runs.
_RUNNERS = {
    "moments": _run_moments,
    "fool": _run_fool,
    "cw": _run_threshold_check,
    "tail": _run_threshold_check,
    "deriv": _run_deriv,
    "prop4": _run_prop4,
}


def run_experiment(spec: ExperimentSpec) -> Report:
    """Execute a named experiment and persist its outputs: the JSONL of
    ``sample``, or for every other kind the report's CSV at ``spec.out``
    and the spec echo at ``spec.out + ".spec.json"``.

    The config sections are checked against ``_SCHEMA``, and ``spec.out``
    is opened through ``_atomic_open``, before any work; a run that raises
    leaves ``spec.out`` as it was. Re-running an identical spec reproduces
    the output files byte for byte, whatever the jobs value.
    """
    if spec.kind != "sample" and spec.kind not in _RUNNERS:
        raise ValueError(f"unknown experiment kind {spec.kind!r}")
    if spec.jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {spec.jobs}")
    cfg = _read_config(spec.kind, {s: getattr(spec, s) for s in ("ensemble", "generator", "samples")})
    with _atomic_open(spec.out, newline=None if spec.kind == "sample" else "") as fh:
        if spec.kind == "sample":
            return _run_sample(spec, cfg, fh)
        report = _RUNNERS[spec.kind](spec, cfg)
        _write_csv(fh, report.columns, report.rows)
    with _atomic_open(spec.out + ".spec.json") as fh:
        fh.write(spec.echo_json() + "\n")
    return report
