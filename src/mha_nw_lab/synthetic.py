"""Synthetic regression tasks with known ground truth.

Each task family is analytic, so the mean function, its gradient, its
Hessian trace and its linear skeleton E[X m(X)] under either input law are
available in closed form; the decomposition module needs the derivatives
for the theoretical bias formula and for bias measurement against the true
estimand, and the architecture sweep the skeleton as its value direction.
``sample_dataset`` and ``sample_queries`` are the only Monte-Carlo draws.

Seed discipline: experiment layers derive all sampling seeds through
``derive_seed(master, domain, index)``.  Domains keep dataset replicates,
query points and projection draws statistically independent of one another
while remaining bit-reproducible.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeMismatch, UnsupportedFamily

__all__ = [
    "FAMILIES",
    "INPUT_LAWS",
    "RegressionTask",
    "Dataset",
    "derive_seed",
    "make_task",
    "sample_dataset",
    "sample_queries",
]

FAMILIES = ("linear", "quadratic", "sine_mixture", "radial")
INPUT_LAWS = ("gaussian", "uniform")


def derive_seed(master_seed: int, domain: str, index: int | None = None) -> int:
    """Stable 63-bit seed for (master, domain[, index]).

    Uses SHA-256 so the derivation is identical across platforms, Python
    versions and thread counts.
    """
    tag = f"{int(master_seed)}|{domain}" if index is None else f"{int(master_seed)}|{domain}|{int(index)}"
    digest = hashlib.sha256(tag.encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _sample_law(law: str, count: int, p: int, rng: np.random.Generator) -> np.ndarray:
    if law == "uniform":
        return rng.uniform(-1.0, 1.0, size=(count, p))
    if law == "gaussian":
        return rng.standard_normal((count, p))
    raise UnsupportedFamily(f"unknown input law {law!r}; expected one of {INPUT_LAWS}")


@dataclass(frozen=True)
class RegressionTask:
    """Ground-truth regression problem: mean function, noise, input law."""

    family: str
    p: int
    sigma: float
    input_law: str
    param_seed: int
    heteroscedastic: bool
    params: dict = field(repr=False)

    # -- mean function and derivatives ------------------------------------

    def mean(self, x: np.ndarray) -> np.ndarray:
        """m evaluated at one point (p,) or a batch (N, p)."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != self.p:
            raise ShapeMismatch(f"task expects points in R^{self.p}, got {x.shape}")
        if self.family == "linear":
            out = x @ self.params["beta"]
        elif self.family == "quadratic":
            out = np.einsum("ni,ij,nj->n", x, self.params["A"], x)
        elif self.family == "sine_mixture":
            out = np.sin(x @ self.params["omega"].T).sum(axis=1)
        else:  # radial
            a, s = self.params["amplitude"], self.params["scale"]
            out = a * np.exp(-0.5 * (x * x).sum(axis=1) / s**2)
        return out

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """grad m, same batch convention as mean(); shape (N, p)."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if self.family == "linear":
            return np.broadcast_to(self.params["beta"], x.shape).copy()
        if self.family == "quadratic":
            return 2.0 * x @ self.params["A"]
        if self.family == "sine_mixture":
            omega = self.params["omega"]
            return np.cos(x @ omega.T) @ omega
        a, s = self.params["amplitude"], self.params["scale"]
        g = a * np.exp(-0.5 * (x * x).sum(axis=1) / s**2)
        return -(g / s**2)[:, None] * x

    def hessian(self, x: np.ndarray) -> np.ndarray:
        """Hessian of m at a single point x, shape (p, p)."""
        x = np.asarray(x, dtype=np.float64).reshape(self.p)
        if self.family == "linear":
            return np.zeros((self.p, self.p))
        if self.family == "quadratic":
            return 2.0 * self.params["A"]
        if self.family == "sine_mixture":
            omega = self.params["omega"]
            sins = np.sin(omega @ x)
            return -np.einsum("j,ji,jk->ik", sins, omega, omega)
        a, s = self.params["amplitude"], self.params["scale"]
        g = a * np.exp(-0.5 * float(x @ x) / s**2)
        return (g / s**4) * np.outer(x, x) - (g / s**2) * np.eye(self.p)

    def hessian_trace(self, x: np.ndarray) -> float:
        return float(np.trace(self.hessian(x)))

    # -- noise -------------------------------------------------------------

    def noise_sd(self, x: np.ndarray) -> np.ndarray:
        """Pointwise noise standard deviation.

        Homoscedastic by default; the heteroscedastic profile is
        sigma0 * (1 + ||x||^2 / p).
        """
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if not self.heteroscedastic:
            return np.full(x.shape[0], self.sigma)
        return self.sigma * (1.0 + (x * x).sum(axis=1) / self.p)

    # -- helpers consumed by experiment builders ---------------------------

    def linear_skeleton(self) -> np.ndarray:
        """E[X m(X)]: the L2-optimal linear value direction for this task.

        Exact under both laws.  Both are symmetric, so the even families
        (quadratic, radial) give exact zeros.  Under U[-1,1]^p a coordinate
        has E[U^2] = 1/3, E[e^{iaU}] = sin(a)/a and E[U sin(aU)] =
        (sin a - a cos a)/a^2, so each sine row omega adds, at coordinate i,
        the last of these at a = omega_i times the product over k != i of
        sin(omega_k)/omega_k.
        """
        if self.family == "quadratic" or self.family == "radial":
            return np.zeros(self.p)  # even mean function, odd integrand
        gaussian = self.input_law == "gaussian"
        if self.family == "linear":
            beta = self.params["beta"]
            return beta.copy() if gaussian else beta / 3.0
        omega = self.params["omega"]
        if gaussian:
            damp = np.exp(-0.5 * (omega * omega).sum(axis=1))
            return (damp[:, None] * omega).sum(axis=0)
        sinc = np.sinc(omega / np.pi)   # sin(a)/a, 1 at a = 0
        # (sin a - a cos a)/a^2 cancels for small a; its series a/3 - a^3/30 is 0 at a = 0
        small = np.abs(omega) < 1e-2
        a = np.where(small, 1.0, omega)
        odd = np.where(small, omega / 3.0 - omega**3 / 30.0, (np.sin(a) - a * np.cos(a)) / a**2)
        # others[j, i] = prod over k != i of sinc[j, k], taken directly, not as a
        # quotient: sinc vanishes at multiples of pi
        others = np.where(np.eye(self.p, dtype=bool), 1.0, sinc[:, None, :]).prod(axis=2)
        return (odd * others).sum(axis=0)


@dataclass(frozen=True)
class Dataset:
    """n i.i.d. draws (x_i, y_i) with the noise realisation recorded."""

    xs: np.ndarray
    ys: np.ndarray
    eps: np.ndarray
    seed: int
    task_id: str = ""   # caller's label; nothing in the lab reads it

    def __post_init__(self):
        for name in ("xs", "ys", "eps"):
            arr = np.array(getattr(self, name), dtype=np.float64, order="C", copy=True)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if self.xs.ndim != 2 or self.xs.shape[0] < 1:
            raise ShapeMismatch(f"Dataset needs n >= 1 points, got xs shape {self.xs.shape}")
        if self.ys.shape != (self.xs.shape[0],) or self.eps.shape != self.ys.shape:
            raise ShapeMismatch(
                f"Dataset field shapes disagree: xs {self.xs.shape}, "
                f"ys {self.ys.shape}, eps {self.eps.shape}"
            )

    @property
    def n(self) -> int:
        return self.xs.shape[0]

    @property
    def p(self) -> int:
        return self.xs.shape[1]


def make_task(
    family: str,
    p: int,
    sigma: float,
    input_law: str,
    param_seed: int = 0,
    heteroscedastic: bool = False,
) -> RegressionTask:
    """Construct a task with analytically known m, grad m, Hessian.

    Family parameters are drawn deterministically from ``param_seed``.
    """
    if family not in FAMILIES:
        raise UnsupportedFamily(f"unknown family {family!r}; expected one of {FAMILIES}")
    if input_law not in INPUT_LAWS:
        raise UnsupportedFamily(f"unknown input law {input_law!r}; expected one of {INPUT_LAWS}")
    if p < 1:
        raise ShapeMismatch(f"input dimension must be >= 1, got {p}")
    if sigma < 0:
        raise ShapeMismatch(f"noise sd must be >= 0, got {sigma}")

    rng = np.random.default_rng(derive_seed(param_seed, f"task-{family}-{p}"))
    if family == "linear":
        beta = rng.standard_normal(p)
        beta /= np.linalg.norm(beta)
        params = {"beta": beta}
    elif family == "quadratic":
        b = rng.standard_normal((p, p))
        A = (b + b.T) / (2.0 * np.sqrt(p))
        params = {"A": A}
    elif family == "sine_mixture":
        j = min(p, 3)
        dirs = rng.standard_normal((j, p))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        omega = dirs * np.linspace(0.8, 1.6, j)[:, None]
        params = {"omega": omega}
    else:  # radial
        params = {"amplitude": 2.0, "scale": 1.5}

    return RegressionTask(
        family=family,
        p=p,
        sigma=float(sigma),
        input_law=input_law,
        param_seed=int(param_seed),
        heteroscedastic=bool(heteroscedastic),
        params=params,
    )


def sample_dataset(task: RegressionTask, n: int, seed: int) -> Dataset:
    """n i.i.d. draws from the task; bit-identical for equal (task, n, seed)."""
    if n < 1:
        raise ShapeMismatch(f"sample_dataset needs n >= 1, got {n}")
    rng = np.random.default_rng(int(seed))
    xs = _sample_law(task.input_law, n, task.p, rng)
    eps = rng.standard_normal(n) * task.noise_sd(xs)
    ys = task.mean(xs) + eps
    return Dataset(xs=xs, ys=ys, eps=eps, seed=int(seed))


def sample_queries(task: RegressionTask, q: int, seed: int) -> np.ndarray:
    """q i.i.d. query points from the input law, shape (q, p)."""
    if q < 1:
        raise ShapeMismatch(f"sample_queries needs q >= 1, got {q}")
    rng = np.random.default_rng(int(seed))
    return _sample_law(task.input_law, q, task.p, rng)

