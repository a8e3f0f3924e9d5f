"""Sequence-space white-noise inverse models.

An SvdModel packages the singular values b_k of a compact operator with
the orthonormal bases diagonalizing it: observations live on the
coefficients, Y_k = b_k f_k + eps xi_k, while e_k / g_k map coefficient
sequences back to the natural domain. The Wicksell unfolding operator and
the identity on its Jacobi(0,1) basis are provided; both act on the domain
[0, 1] with measure dx/(4x).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import UnresolvedIntegrandError, require_entries
from .jacobi import JacobiBasis, gauss_legendre_panels, jacobi_basis, jacobi_eval_all, jacobi_weighted_sums

__all__ = [
    "SvdModel",
    "SequenceObservation",
    "wicksell_model",
    "direct_model",
    "eval_e",
    "eval_g",
    "coeffs_from_function",
    "function_from_coeffs",
    "forward",
    "sample_observation",
    "calibrate_epsilon",
    "derive_seed",
]

_WICKSELL_SCALE = math.pi / 16.0


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


def wicksell_model(kmax: int = 512) -> SvdModel:
    """Wicksell operator: b_k = (pi/16)(1+k)^(-1/2), Jacobi(0,1) SVD basis, nu = 1/2."""
    if kmax < 1:
        raise ValueError(f"kmax must be >= 1, got {kmax}")
    k = np.arange(kmax + 1, dtype=float)
    b = _WICKSELL_SCALE / np.sqrt(1.0 + k)
    return SvdModel("wicksell", _freeze(b), 0.5, jacobi_basis(0.0, 1.0))


def direct_model(kmax: int = 512) -> SvdModel:
    """Identity operator on the Wicksell basis (b_k = 1, nu = 0), for rate comparisons."""
    if kmax < 1:
        raise ValueError(f"kmax must be >= 1, got {kmax}")
    return SvdModel("direct", _freeze(np.ones(kmax + 1)), 0.0, jacobi_basis(0.0, 1.0))


def eval_e(model: SvdModel, kmax: int, x) -> np.ndarray:
    """Values e_0(x)..e_kmax(x) of the natural-domain SVD basis, shape (kmax+1, ...)."""
    xs = np.asarray(x, dtype=float)
    if np.any((xs < 0.0) | (xs > 1.0)):
        raise ValueError("Wicksell domain is [0, 1]")
    t = 2.0 * xs * xs - 1.0
    return 4.0 * xs * xs * jacobi_eval_all(model.basis, kmax, t)


def eval_g(model: SvdModel, kmax: int, y) -> np.ndarray:
    """Values g_0(y)..g_kmax(y) of the image-side basis, shape (kmax+1, ...).

    Wicksell: g_k = 2 U_{2k+1} (odd Chebyshev, second kind), the unit-norm
    family under pi^{-1} sqrt(1-y^2) dy on [0,1]. The factor 2 is what makes
    K e_k = b_k g_k hold exactly for the kernel and singular values above;
    it is verified in closed form for k = 0, 1 in the tests.
    """
    ys = np.asarray(y, dtype=float)
    if np.any((ys < -1.0) | (ys > 1.0)):
        raise ValueError("image domain is [-1, 1]")
    m_top = 2 * kmax + 1
    u_prev = np.ones_like(ys)
    u = 2.0 * ys
    out = np.empty((kmax + 1,) + ys.shape)
    out[0] = u
    for m in range(1, m_top):
        u_prev, u = u, 2.0 * ys * u - u_prev
        if m % 2 == 0:
            out[(m + 1) // 2] = u
    return 2.0 * out


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
    _piece_nodes' composite Gauss-Legendre in arccos(x), and the sums over
    its nodes are taken degree by degree along the Jacobi recurrence
    (jacobi_weighted_sums), so no basis table is formed. The result is
    verified stable under order doubling (1e-6 relative), and
    UnresolvedIntegrandError is raised otherwise.
    """
    if kmax < 0 or kmax > model.kmax:
        raise ValueError(f"kmax must be in 0..{model.kmax}, got {kmax}")

    def one_pass(order: int) -> np.ndarray:
        x, w = _piece_nodes(breakpoints, order)
        v = np.asarray(f(x), dtype=float) * x * w
        return jacobi_weighted_sums(model.basis, kmax, 2.0 * x * x - 1.0, v)

    order = max(4 * kmax, 256)
    coarse = one_pass(order)
    fine = one_pass(2 * order)
    scale = max(float(np.max(np.abs(fine))), 1.0)
    drift = float(np.max(np.abs(fine - coarse)))
    if drift > 1e-6 * scale:
        raise UnresolvedIntegrandError(
            f"coefficient integrals moved {drift:.3e} (x{scale:.3g}) under order "
            "doubling; pass the integrand's breakpoints or a smoother f"
        )
    return fine


def function_from_coeffs(model: SvdModel, f_coeffs, x) -> np.ndarray:
    """Evaluate sum_k f_k e_k(x) on the natural domain."""
    c = np.asarray(f_coeffs, dtype=float)
    return c @ eval_e(model, c.shape[0] - 1, x)


def forward(model: SvdModel, f_coeffs, y=None):
    """Apply the operator: g_k = b_k f_k, plus Kf values at y when requested.

    Returns the coefficient array, or a (coefficients, samples) pair if y is
    given; samples are synthesized through the g_k basis.
    """
    c = np.asarray(f_coeffs, dtype=float)
    if c.shape[0] > model.kmax + 1:
        raise ValueError(f"got {c.shape[0]} coefficients, model holds {model.kmax + 1}")
    g = model.b[: c.shape[0]] * c
    if y is None:
        return g
    return g, g @ eval_g(model, c.shape[0] - 1, y)


def sample_observation(
    model: SvdModel, f_coeffs, epsilon: float, rng: np.random.Generator
) -> SequenceObservation:
    """Draw Y_i = b_i f_i + eps xi_i with iid standard normal xi from rng."""
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    g = forward(model, f_coeffs)
    y = g + epsilon * rng.standard_normal(g.shape[0]) if epsilon > 0 else g.copy()
    return SequenceObservation(_freeze(y), float(epsilon))


def calibrate_epsilon(model: SvdModel, f_coeffs, rsnr, n: int) -> float | np.ndarray:
    """Noise amplitude from a root signal-to-noise ratio on the n-point grid.

    sigma = sd(Kf on grid)/rsnr with equal grid weights, then eps = sigma/sqrt(n)
    (the regression/white-noise calibration). rsnr may be one ratio or an
    array of them; the result has its shape, and sd(Kf) is computed once,
    so each entry equals the scalar call's bit for bit.
    """
    if np.any(np.asarray(rsnr) <= 0):
        raise ValueError(f"rsnr must be positive, got {rsnr}")
    if n < 1:
        raise ValueError(f"grid resolution must be >= 1, got {n}")
    grid = np.arange(1, n + 1) / n
    _, kf = forward(model, f_coeffs, grid)
    sd = float(np.std(kf))
    if sd <= 1e-13 * max(1.0, float(np.max(np.abs(kf)))):
        raise ValueError("Kf is constant on the grid; rsnr calibration undefined")
    return sd / rsnr / math.sqrt(n)


def derive_seed(master_seed: int, run_index: int, target_id: str, noise_id: str) -> int:
    """Per-run stream seed: master XOR blake2b-64 of "run|target|noise".

    The hash is keyed on the decimal run index and the two id strings, so
    reports are bit-reproducible across processes and platforms.
    """
    key = f"{run_index}|{target_id}|{noise_id}".encode()
    digest = hashlib.blake2b(key, digest_size=8).digest()
    return (int(master_seed) ^ int.from_bytes(digest, "little")) & 0xFFFFFFFFFFFFFFFF
