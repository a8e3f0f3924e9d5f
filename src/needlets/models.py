"""Sequence-space white-noise inverse models.

An SvdModel packages the singular values b_k of a compact operator with
the orthonormal bases diagonalizing it: observations live on the
coefficients, Y_k = b_k f_k + eps xi_k, while e_k / g_k map coefficient
sequences back to the natural domain. power_model gives the operators with
b_k = scale (1+k)^(-nu) on the Jacobi(0,1) basis; the Wicksell unfolding
operator and the identity are its two cases in POWER_LAWS. All act on the
domain [0, 1] with measure dx/(4x).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import UnresolvedIntegrandError, require_entries
from .jacobi import JacobiBasis, _orthonormal, _recurrence, gauss_legendre_panels, jacobi_basis, jacobi_eval_all
from .losses import grid_points

__all__ = [
    "SvdModel",
    "SequenceObservation",
    "POWER_LAWS",
    "power_model",
    "wicksell_model",
    "direct_model",
    "eval_e",
    "eval_g",
    "coeffs_from_function",
    "forward",
    "sample_observation",
    "calibrate_epsilon",
    "derive_seed",
]

# (nu, scale) of each power-law operator by kind; the kind keys the rate
# study's run seeds and the model column of rates.csv
POWER_LAWS = {"wicksell": (0.5, math.pi / 16.0), "direct": (0.0, 1.0)}


def _check_noise_level(epsilon: float, what: str = "epsilon", zero: bool = True) -> None:
    """Refuse a noise level outside [smallest normal float, 1), naming what; 0 passes if zero."""
    lo = sys.float_info.min  # below it 1/epsilon overflows in the estimators; NaN fails too
    if not ((zero and epsilon == 0.0) or lo <= epsilon < 1.0):
        raise ValueError(f"{what} must be {'0 or ' if zero else ''}in [{lo}, 1), got {epsilon}")


def _check_rsnr(rsnr) -> None:
    """Refuse any root signal-to-noise ratio that is not finite and > 0, naming the first."""
    # a NaN passes r <= 0, and an infinite rsnr silently means epsilon 0
    if bad := [r for r in np.ravel(rsnr).tolist() if not (math.isfinite(r) and r > 0)]:
        raise ValueError(f"every rsnr level must be finite and > 0, got {bad[0]}")


@dataclass(frozen=True)
class SvdModel:
    """Singular values, ill-posedness degree, and basis evaluators of one operator.

    kind names the operator; basis is the sequence-space family needlet
    frames are built on. Every singular value must be finite and strictly
    positive.
    """

    kind: str
    b: np.ndarray
    nu: float
    basis: JacobiBasis

    def __post_init__(self) -> None:
        b = np.asarray(self.b)
        require_entries(b, np.isfinite(b) & (b > 0.0), "singular value b", "finite and > 0")

    @property
    def kmax(self) -> int:
        return self.b.shape[0] - 1


@dataclass(frozen=True)
class SequenceObservation:
    """Observed Y_i = b_i f_i + eps xi_i of one run (K,) or a stack of runs (R, K), with eps."""

    y: np.ndarray
    epsilon: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ValueError(f"epsilon must be finite and >= 0, got {self.epsilon}")
        if np.ndim(self.y) not in (1, 2):
            raise ValueError(f"observation must have shape (K,) or (R, K), got {np.shape(self.y)}")
        require_entries(self.y, np.isfinite(self.y), "observation y", "finite")

    @property
    def kmax(self) -> int:
        return self.y.shape[-1] - 1


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    arr.setflags(write=False)
    return arr


def power_model(kind: str, nu: float, scale: float, kmax: int = 512) -> SvdModel:
    """Operator kind of ill-posedness degree nu: b_k = scale (1+k)^(-nu) for k = 0..kmax,
    on the Jacobi(0,1) SVD basis."""
    if kmax < 1:
        raise ValueError(f"kmax must be >= 1, got {kmax}")
    k = np.arange(kmax + 1, dtype=float)
    return SvdModel(kind, _freeze(scale / (1.0 + k) ** nu), float(nu), jacobi_basis(0.0, 1.0))


def wicksell_model(kmax: int = 512) -> SvdModel:
    """Wicksell operator: b_k = (pi/16)(1+k)^(-1/2), nu = 1/2."""
    return power_model("wicksell", *POWER_LAWS["wicksell"], kmax)


def direct_model(kmax: int = 512) -> SvdModel:
    """Identity operator on the Wicksell basis (b_k = 1, nu = 0), for rate comparisons."""
    return power_model("direct", *POWER_LAWS["direct"], kmax)


def eval_e(model: SvdModel, kmax: int, x) -> np.ndarray:
    """Values e_0(x)..e_kmax(x) of the natural-domain SVD basis, shape (kmax+1, ...)."""
    xs = np.asarray(x, dtype=float)
    require_entries(xs, (xs >= 0.0) & (xs <= 1.0), "point x", "in the Wicksell domain [0, 1]")
    table = jacobi_eval_all(model.basis, kmax, 2.0 * xs * xs - 1.0)
    table *= 4.0 * xs * xs
    return table


def eval_g(model: SvdModel, kmax: int, y) -> np.ndarray:
    """Values g_0(y)..g_kmax(y) of the image-side basis, shape (kmax+1, ...).

    Wicksell: g_k = 2 U_{2k+1} (odd Chebyshev, second kind), the unit-norm
    family under pi^{-1} sqrt(1-y^2) dy on [0,1]. The factor 2 is what makes
    K e_k = b_k g_k hold exactly for the kernel and singular values above;
    it is verified in closed form for k = 0, 1 in the tests. The table is
    the one array formed at its size: the recurrence writes its rows and
    the factor 2, exact in floating point, scales it in place.
    """
    ys = np.asarray(y, dtype=float)
    require_entries(ys, np.abs(ys) <= 1.0, "image point y", "in [-1, 1]")
    m_top = 2 * kmax + 1
    u_prev = np.ones_like(ys)
    u = 2.0 * ys
    out = np.empty((kmax + 1,) + ys.shape)
    out[0] = u
    for m in range(1, m_top):
        u_prev, u = u, 2.0 * ys * u - u_prev
        if m % 2 == 0:
            out[(m + 1) // 2] = u
    out *= 2.0
    return out


def _piece_nodes(breakpoints, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x and weights w on [0,1] with sum w g(x) ~ integral g(x) dx.

    Built as composite 32-point Gauss-Legendre in the angle phi = arccos(x),
    split at the breakpoints. The angle substitution is what makes
    high-degree polynomials in 2x^2-1 integrable with equal panels: their
    oscillations cluster toward x = 1 in x but are evenly spaced in phi.
    The quarter circle [0, pi/2] would take ceil(order/32) panels; each
    piece takes that count in proportion to its width in phi, rounded up
    and at least one, so no panel is wider than on the unsplit interval and
    a narrow piece costs one panel instead of a full set.
    """
    inner = sorted({float(b) for b in breakpoints if 0.0 < float(b) < 1.0})
    cuts = [0.0, *(math.acos(b) for b in reversed(inner)), math.pi / 2.0]
    quarter_panels = max(1, math.ceil(order / 32))
    xs, ws = [], []
    for a, b in zip(cuts[:-1], cuts[1:]):
        n_panels = max(1, math.ceil(quarter_panels * (b - a) / (math.pi / 2.0)))
        phi, v = gauss_legendre_panels(a, b, n_panels, 32)
        xs.append(np.cos(phi))
        ws.append(np.sin(phi) * v)
    return np.concatenate(xs), np.concatenate(ws)


def coeffs_from_function(model: SvdModel, f, kmax: int, breakpoints=()) -> np.ndarray:
    """Coefficients f_k = <f, e_k> under the model's natural measure.

    The integrals are computed in the x-domain, where
    integral f e_k dmu = integral_0^1 f(x) Pi_k(2x^2-1) x dx has a smooth
    integrand; pass breakpoints at known jumps/kinks of f. The rule is
    _piece_nodes' composite Gauss-Legendre in arccos(x) at a coarse order
    and at twice it. One Jacobi recurrence sweep runs over both rules'
    nodes, and each degree is summed on each rule's own contiguous slice;
    no basis table is formed.

    f is one callable, giving the (K,) coefficients, or a sequence of T
    callables, giving a (T, K) stack: the functions share the one rule,
    split at breakpoints (pass the union of theirs), and each degree takes
    one product per rule against the (nodes, T) value matrix. A stack's row
    is as accurate as a call for its function alone on its own breakpoints,
    but not of the same bits; one callable keeps the vector path. Each
    function is verified stable under order doubling (1e-6 relative), and
    UnresolvedIntegrandError, naming the first that is not, is raised
    otherwise.
    """
    if kmax < 0 or kmax > model.kmax:
        raise ValueError(f"kmax must be in 0..{model.kmax}, got {kmax}")
    fs = (f,) if callable(f) else tuple(f)
    order = max(4 * kmax, 256)
    rules = [_piece_nodes(breakpoints, o) for o in (order, 2 * order)]
    x = np.concatenate([x for x, _ in rules])
    v = np.empty((x.shape[0], len(fs)))
    for t, g in enumerate(fs):
        v[:, t] = g(x)
    v *= x[:, None]
    v *= np.concatenate([w for _, w in rules])[:, None]
    if callable(f):
        v = v[:, 0]
    n_coarse = rules[0][0].shape[0]
    halves = (slice(None, n_coarse), slice(n_coarse, None))
    sums = np.empty((2,) + v.shape[1:] + (kmax + 1,))
    degrees = _orthonormal(*_recurrence(model.basis, kmax + 1), kmax, 2.0 * x * x - 1.0)
    next(degrees)  # Pi_0 = 1 sums to the values' own sum
    sums[..., 0] = [v[h].sum(axis=0) for h in halves]
    for k, p in enumerate(degrees, 1):
        sums[..., k] = [p[h] @ v[h] for h in halves]
    coarse, fine = sums
    for g, c, cf in zip(fs, np.atleast_2d(coarse), np.atleast_2d(fine)):
        scale = max(float(np.max(np.abs(cf))), 1.0)
        drift = float(np.max(np.abs(cf - c)))
        if drift > 1e-6 * scale:
            raise UnresolvedIntegrandError(
                f"coefficient integrals of {getattr(g, '__qualname__', repr(g))} moved "
                f"{drift:.3e} (x{scale:.3g}) under order doubling; pass the integrand's "
                "breakpoints or a smoother f"
            )
    return fine


def forward(model: SvdModel, f_coeffs, y=None):
    """Apply the operator: g_k = b_k f_k, plus Kf values at y when requested.

    f_coeffs is one coefficient vector (K,) or a stack of them (T, K).
    Returns the coefficient array, or a (coefficients, samples) pair if y is
    given; samples are synthesized through the g_k basis.
    """
    c = np.asarray(f_coeffs, dtype=float)
    if c.shape[-1] > model.kmax + 1:
        raise ValueError(f"got {c.shape[-1]} coefficients, model holds {model.kmax + 1}")
    g = model.b[: c.shape[-1]] * c
    if y is None:
        return g
    return g, g @ eval_g(model, c.shape[-1] - 1, y)


def sample_observation(
    model: SvdModel, f_coeffs, epsilon: float, rng: np.random.Generator
) -> SequenceObservation:
    """Draw Y_i = b_i f_i + eps xi_i with iid standard normal xi from rng."""
    g = forward(model, f_coeffs)
    y = g + epsilon * rng.standard_normal(g.shape[0]) if epsilon > 0 else g.copy()
    return SequenceObservation(_freeze(y), float(epsilon))


def calibrate_epsilon(model: SvdModel, f_coeffs, rsnr, n: int) -> float | np.ndarray:
    """Noise amplitude from a root signal-to-noise ratio on the n-point grid.

    sigma = sd(Kf on grid)/rsnr with equal grid weights, then eps = sigma/sqrt(n)
    (the regression/white-noise calibration). f_coeffs is one target (K,) or
    a stack (T, K), rsnr one ratio or an array; the result has shape
    f_coeffs.shape[:-1] + shape(rsnr). The table g_k(grid) is built once and
    each target's Kf is its own vector-matrix product with it, so each entry
    equals the call for one target and one ratio bit for bit.
    """
    _check_rsnr(rsnr)
    if n < 1:
        raise ValueError(f"grid resolution must be >= 1, got {n}")
    g = forward(model, f_coeffs)
    table = eval_g(model, g.shape[-1] - 1, grid_points(n))
    sds = []
    for row in g.reshape(-1, g.shape[-1]):
        kf = row @ table
        sds.append(float(np.std(kf)))
        if sds[-1] <= 1e-13 * max(1.0, float(np.max(np.abs(kf)))):
            raise ValueError("Kf is constant on the grid; rsnr calibration undefined")
    sd = sds[0] if g.ndim == 1 else np.reshape(sds, g.shape[:-1] + (1,) * np.ndim(rsnr))
    return sd / rsnr / math.sqrt(n)


def derive_seed(master_seed: int, run_index: int, target_id: str, noise_id: str) -> int:
    """Per-run stream seed: master XOR blake2b-64 of "run|target|noise".

    The hash is keyed on the decimal run index and the two id strings, so
    reports are bit-reproducible across processes and platforms.
    """
    import hashlib  # on first use: it loads OpenSSL, which no frame command needs

    key = f"{run_index}|{target_id}|{noise_id}".encode()
    digest = hashlib.blake2b(key, digest_size=8).digest()
    return (int(master_seed) ^ int.from_bytes(digest, "little")) & 0xFFFFFFFFFFFFFFFF
