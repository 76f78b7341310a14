"""Approximating Gibbs measures and their sampling machinery.

The level-N measure reweights the free field by

    weight(phi) = exp( - integral of exp(alpha P_N phi - alpha^2 C_N / 2) ),

so plain importance sampling from the free field is unbiased for every
expectation and for the partition function.  It is also numerically
useless here: the integrand is dominated by the constant mode, the log
weight has mean about -4 pi^2 and standard deviation of several units,
and the effective sample size saturates at a handful of draws no matter
how many are taken.

``sample_ensemble`` therefore tilts the constant mode of the proposal to
the mode of its marginal under the target (a one-dimensional fixed point
solved by Newton) and compensates exactly in the weights.  The tilt does
not bias anything: weights remain exact Radon-Nikodym ratios against the
proposal, the partition estimate stays unbiased, and at alpha = 0 the
tilt vanishes and every weight equals exp(-4 pi^2) identically.

Both the ensemble and the invariance test evaluate fields in blocks: a
stack (n, M, M) goes through sampling, weighting or stepping in one call
instead of n.  A block (``spectral.blocks``) holds about BLOCK_BYTES
per complex array (16 fields at M = 32), a fixed budget, so the
temporaries stay near 1 MB whatever the sample and replica counts.
Every proposal and replica still draws from its own stream, and blocks
only batch arithmetic that is elementwise or per field, so results are
replica-for-replica bit-identical to evaluating one field at a time,
overflow errors included.

An ensemble stores no proposal fields.  Each proposal is a pure function
of its stream, so the ensemble keeps what rebuilds them (grid, proposal
stream, tilt) next to its log-weights, and resampling rebuilds only the
ancestors it picks, a block at a time.  Memory is O(count) in
log-weights, 8 bytes a proposal, plus one block.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import numpy as np

from .dynamics import SqeConfig, evolve_projected
from .randomfields import gff_sample
from .rng import RngStream
from .spectral import SpectralField, TorusGrid, TWO_PI, blocks, grid_quadrature, sobolev_norm
from .wick import CutoffProfile, WickParams, wick_exp_values

__all__ = [
    "DegenerateEnsembleError",
    "WeightedEnsemble",
    "PartitionEstimate",
    "StationaryDraws",
    "ObservableStat",
    "InvarianceReport",
    "rn_log_weight",
    "mode0_tilt_mean",
    "sample_ensemble",
    "estimate_partition",
    "resample_stationary",
    "standard_observables",
    "invariance_test",
]

AREA = TWO_PI**2

# exp underflows to 0.0 below roughly -745; track such weights explicitly
UNDERFLOW_LOG = -745.0

MIN_RESAMPLE_ESS = 50.0

# invariance_test passes when every observable's |z| stays at or below this
INVARIANCE_THRESHOLD = 3.0


class DegenerateEnsembleError(ValueError):
    """Raised when an ensemble's ESS is too low to resample from."""


def rn_log_weight(field: SpectralField, params: WickParams, psi: CutoffProfile):
    """log of the unnormalized density of the level-N measure against the
    free field: minus the integral of the Wick exponential over the torus.
    A stack of fields gives the array of their log-weights."""
    return -grid_quadrature(wick_exp_values(field, params, psi), field.grid)


@dataclass(frozen=True)
class WeightedEnsemble:
    """Weighted sample of the level-N measure.

    The proposal fields are not stored: ``take(indices)`` rebuilds the
    stack of the chosen proposals through ``proposals``, a callable from
    a sequence of proposal indices to their stack (n, M, M) on ``grid``.
    ``sample_ensemble`` passes one that redraws them from their streams,
    bit for bit as first drawn, so the ensemble holds O(count) floats.

    log_weights are exact log Radon-Nikodym ratios of target over
    proposal, kept in log form; ``weights`` rescales them to a max of 1
    for resampling.  tilt_mean records the constant-mode proposal shift
    (0 means the proposal was the plain free field, in which case every
    weight is at most 1 in absolute normalization too).
    """

    grid: TorusGrid
    proposals: Callable[[np.ndarray], SpectralField]
    log_weights: np.ndarray
    tilt_mean: float = 0.0
    n_underflow: int = 0

    def __post_init__(self):
        lw = np.asarray(self.log_weights, dtype=np.float64)
        object.__setattr__(self, "log_weights", lw)
        if lw.ndim != 1 or len(lw) == 0:
            raise ValueError("need a 1-d array of at least one log-weight")
        if not np.all(np.isfinite(lw)):
            raise ValueError("log-weights must be finite")
        if self.tilt_mean == 0.0 and lw.max() > 1e-9:
            raise ValueError("untilted weights must not exceed 1")

    def __len__(self) -> int:
        return len(self.log_weights)

    def take(self, indices) -> SpectralField:
        """The stack of proposals ``indices`` (repeats and any order
        allowed), row j proposal ``indices[j]``."""
        idx = np.asarray(indices, dtype=np.int64)
        if idx.ndim != 1 or idx.size == 0:
            raise ValueError("need a non-empty 1-d sequence of proposal indices")
        if idx.min() < 0 or idx.max() >= len(self):
            raise IndexError(f"proposal indices must lie in [0, {len(self)})")
        return self.proposals(idx)

    @property
    def weights(self) -> np.ndarray:
        return np.exp(self.log_weights - self.log_weights.max())

    def ess(self) -> float:
        w = self.weights
        return float(w.sum() ** 2 / np.square(w).sum())


def _tilted_proposals(grid: TorusGrid, base: RngStream, m: float, indices) -> SpectralField:
    """Proposals ``indices`` in one stack: proposal i is the free-field
    draw of ``base``'s replica-i substream with its constant mode shifted
    by ``m``."""
    block = gff_sample(grid, [base.for_replica(int(i)) for i in indices])
    if m != 0.0:
        coeffs = block.copy_coeffs()
        coeffs[:, 0, 0] += m
        block = SpectralField(grid, coeffs)
    return block


def mode0_tilt_mean(alpha: float) -> float:
    """Newton solve for the constant-mode tilt: the mode of the marginal
    target density of the k = 0 coefficient u, approximating the rest of
    the field by its mean,

        u = -(alpha / 2 pi) * A * exp(alpha u / 2 pi),
        A = 4 pi^2 * exp(-alpha^2 / (8 pi^2)).

    Returns 0 at alpha = 0.  The map is strictly monotone, so Newton from
    0 converges quadratically.
    """
    if alpha == 0.0:
        return 0.0
    a_const = AREA * math.exp(-(alpha**2) / (2 * AREA))
    scale = alpha / TWO_PI
    u = 0.0
    for _ in range(100):
        e = a_const * math.exp(scale * u)
        f = u + scale * e
        fp = 1.0 + scale**2 * e
        step = f / fp
        u -= step
        if abs(step) < 1e-14:
            break
    return u


def sample_ensemble(
    grid: TorusGrid,
    params: WickParams,
    psi: CutoffProfile,
    count: int,
    stream: RngStream,
    tilt: float | str = "auto",
) -> WeightedEnsemble:
    """Draw ``count`` weighted samples of the level-N measure.

    tilt='auto' applies the constant-mode proposal shift from
    ``mode0_tilt_mean``; tilt='none' (or 0.0) uses the plain free field;
    a float uses that shift directly.  Weights compensate the shift
    exactly, so all choices estimate the same measure.

    Proposal i draws its white noise from ``stream.child("proposal")``'s
    replica-i substream.  Proposals are sampled and weighted in blocks of
    BLOCK_BYTES per field stack and then dropped: the ensemble rebuilds
    them from their streams on ``take``.  Proposals and log-weights are
    bit-identical to one proposal at a time, and an overflow raises the
    exponent of the lowest-index failing proposal, as that loop would.
    """
    if count < 1:
        raise ValueError("count must be positive")
    if tilt == "auto":
        m = mode0_tilt_mean(params.alpha)
    elif tilt == "none":
        m = 0.0
    elif isinstance(tilt, str):
        raise ValueError(f"tilt must be 'auto', 'none' or a float, got {tilt!r}")
    else:
        m = float(tilt)

    proposals = partial(_tilted_proposals, grid, stream.child("proposal"), m)
    log_w = np.empty(count)
    for rows in blocks(count, grid):
        block = proposals(rows)
        u0 = np.real(block.coeffs[:, 0, 0])
        log_w[rows.start : rows.stop] = rn_log_weight(block, params, psi) - m * u0 + 0.5 * m * m

    return WeightedEnsemble(
        grid=grid,
        proposals=proposals,
        log_weights=log_w,
        tilt_mean=m,
        n_underflow=int((log_w < UNDERFLOW_LOG).sum()),
    )


@dataclass(frozen=True)
class PartitionEstimate:
    value: float
    std_error: float
    log_value: float


def estimate_partition(ensemble: WeightedEnsemble) -> PartitionEstimate:
    """Unbiased partition-function estimate: the plain mean of the
    unnormalized weights, computed in shifted log form to dodge
    underflow.  The standard error is the iid one; it is honest only
    when the ESS is a reasonable fraction of n, which is what the tilt
    is for."""
    lw = ensemble.log_weights
    shift = float(lw.max())
    r = np.exp(lw - shift)
    n = len(lw)
    mean_r = float(r.mean())
    se_r = float(r.std(ddof=1) / math.sqrt(n)) if n > 1 else float("inf")
    return PartitionEstimate(
        value=math.exp(shift) * mean_r,
        std_error=math.exp(shift) * se_r,
        log_value=shift + math.log(mean_r),
    )


@dataclass(frozen=True)
class StationaryDraws:
    """Equal-weight draws obtained by multinomial resampling; ancestors
    index into the source ensemble so downstream inference can cluster
    replicas sharing a parent."""

    fields: tuple
    ancestors: np.ndarray
    source_ess: float


def _resample_ancestors(ensemble: WeightedEnsemble, count: int, stream: RngStream):
    """(ancestors, source ESS) of multinomial resampling, refusing a
    degenerate ensemble."""
    if count < 1:
        raise ValueError("count must be positive")
    ess = ensemble.ess()
    if ess < MIN_RESAMPLE_ESS:
        raise DegenerateEnsembleError(
            f"ensemble ESS {ess:.1f} below {MIN_RESAMPLE_ESS}; refusing to resample a "
            "degenerate ensemble (use the tilted proposal or more draws)"
        )
    w = ensemble.weights
    p = w / w.sum()
    g = stream.child("resample").generator()
    return g.choice(len(ensemble), size=count, p=p), ess


def resample_stationary(ensemble: WeightedEnsemble, count: int, stream: RngStream) -> StationaryDraws:
    """Multinomial resampling to an unweighted ensemble.  Refuses to
    resample when the source ESS is below MIN_RESAMPLE_ESS: the output
    would be near-duplicates of a handful of draws.

    Only the picked ancestors are rebuilt, one block of BLOCK_BYTES at a
    time, so memory is the ``count`` output fields plus O(len(ensemble))
    in weights, never the ensemble's proposals."""
    ancestors, ess = _resample_ancestors(ensemble, count, stream)
    fields = []
    for rows in blocks(count, ensemble.grid):
        fields.extend(ensemble.take(ancestors[rows.start : rows.stop]).unstack())
    return StationaryDraws(fields=tuple(fields), ancestors=ancestors, source_ess=ess)


def standard_observables(params: WickParams, psi: CutoffProfile, eps: float = 0.125) -> dict:
    """Default observable battery for invariance runs: negative-order
    Sobolev norm and its square, the constant-mode coefficient and its
    square, and the spatial mean of the Wick exponential."""

    def u0(f: SpectralField) -> float:
        return float(np.real(f.coeffs[0, 0]))

    return {
        "hneg_norm": lambda f: sobolev_norm(f, -eps),
        "hneg_norm_sq": lambda f: sobolev_norm(f, -eps) ** 2,
        "mode0": u0,
        "mode0_sq": lambda f: u0(f) ** 2,
        "wick_mean": lambda f: float(
            grid_quadrature(wick_exp_values(f, params, psi), f.grid) / AREA
        ),
    }


@dataclass(frozen=True)
class ObservableStat:
    name: str
    mean_initial: float
    mean_final: float
    mean_diff: float
    std_error: float
    z: float


@dataclass(frozen=True)
class InvarianceReport:
    stats: dict
    replicas: int
    clusters: int
    max_abs_z: float

    @property
    def passed(self) -> bool:
        return self.max_abs_z <= INVARIANCE_THRESHOLD


def _cluster_se(diffs: np.ndarray, ancestors: np.ndarray) -> float:
    """Cluster-robust standard error of the mean of ``diffs``, clustering
    replicas that share a resampling ancestor (their initial data are
    identical, so their differences are correlated)."""
    n = len(diffs)
    mean = diffs.mean()
    var = 0.0
    for a in np.unique(ancestors):
        var += float(((diffs[ancestors == a] - mean).sum()) ** 2)
    return math.sqrt(var) / n


def invariance_test(
    initial_ensemble: WeightedEnsemble,
    config: SqeConfig,
    observables: dict,
    stream: RngStream,
    replicas: int = 200,
) -> InvarianceReport:
    """Evolve resampled stationary draws through the projected dynamics
    and z-test each observable's paired start-to-end change against zero.

    The paired design cancels the (large) cross-replica variance of the
    observables themselves; the standard error clusters on resampling
    ancestors since duplicated draws share their t = 0 value.  Under a
    correctly renormalized drift every |z| stays below
    INVARIANCE_THRESHOLD up to the usual multiple-testing caveat; a
    mis-scaled renormalization constant in ``config.params`` shifts the
    constant mode and fails loudly.

    Replica i starts from the draw ``resample_stationary`` gives it and
    evolves under ``stream.for_replica(i).child("dyn")``.  The replicas
    are stepped together in blocks of BLOCK_BYTES per field stack, each
    block's initial data rebuilt by ``initial_ensemble.take`` from its
    ancestors, so memory holds one block of fields and O(count) floats.
    Final states, observables and statistics are bit-identical to solving
    one replica at a time, and an overflow raises the exponent of the
    lowest failing replica at its first overflowing step, as that loop
    would.
    """
    ancestors, _ = _resample_ancestors(initial_ensemble, replicas, stream)
    grid = initial_ensemble.grid
    names = list(observables)
    start = {k: np.empty(replicas) for k in names}
    end = {k: np.empty(replicas) for k in names}
    for rows in blocks(replicas, grid):
        phi0 = initial_ensemble.take(ancestors[rows.start : rows.stop])
        streams = [stream.for_replica(i).child("dyn") for i in rows]
        for finals in evolve_projected(phi0, config, streams):
            pass
        for i, field, final in zip(rows, phi0.unstack(), SpectralField(grid, finals).unstack()):
            for k in names:
                start[k][i] = observables[k](field)
                end[k][i] = observables[k](final)

    stats = {}
    max_abs_z = 0.0
    for k in names:
        d = end[k] - start[k]
        se = _cluster_se(d, ancestors)
        mean_d = float(d.mean())
        if se == 0.0:
            z = 0.0 if mean_d == 0.0 else math.inf
        else:
            z = mean_d / se
        stats[k] = ObservableStat(
            name=k,
            mean_initial=float(start[k].mean()),
            mean_final=float(end[k].mean()),
            mean_diff=mean_d,
            std_error=se,
            z=z,
        )
        max_abs_z = max(max_abs_z, abs(z))

    return InvarianceReport(
        stats=stats,
        replicas=replicas,
        clusters=int(len(np.unique(ancestors))),
        max_abs_z=max_abs_z,
    )
