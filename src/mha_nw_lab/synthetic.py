"""Synthetic regression tasks with known ground truth.

Each task family is analytic, so the mean function and its linear skeleton
E[X m(X)] under either input law are available in closed form; the
decomposition module measures bias against the mean at the queries, and the
architecture sweep takes the skeleton as its value direction.  The
Monte-Carlo draws are ``sample_dataset`` (inputs only: heads read no
responses), ``sample_queries`` and, for a library caller that wants
responses, ``sample_labels``.

Seed discipline: experiment layers derive all sampling seeds through
``derive_seed(master, domain, index)``.  Domains keep dataset replicates,
query points and projection draws statistically independent of one another
while remaining bit-reproducible.  A dataset's inputs come from its seed's
stream and its noise from the stream ``derive_seed(seed, "noise")``, so the
first n inputs and the first n labels of a draw at any N >= n are those of
the draw at n.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

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
    "sample_labels",
    "sample_queries",
]

FAMILIES = ("linear", "quadratic", "sine_mixture", "radial")
INPUT_LAWS = ("gaussian", "uniform")


def derive_seed(master_seed: int, domain: str, index: int | None = None) -> int:
    """Stable 63-bit seed for (master, domain[, index]).

    Uses SHA-256 so the derivation is identical across platforms, Python
    versions and worker counts.
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

    # -- mean function ---------------------------------------------------

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
    """n i.i.d. inputs x_i, and the responses y_i with their noise
    realisation when labelled (``sample_labels``)."""

    xs: np.ndarray
    ys: np.ndarray | None = None
    eps: np.ndarray | None = None
    seed: int = 0
    task_id: str = ""   # caller's label; nothing in the lab reads it

    def __post_init__(self):
        given = ["xs"] + [name for name in ("ys", "eps") if getattr(self, name) is not None]
        for name in given:
            arr = np.array(getattr(self, name), dtype=np.float64, order="C", copy=True)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if self.xs.ndim != 2 or self.xs.shape[0] < 1:
            raise ShapeMismatch(f"Dataset needs n >= 1 points, got xs shape {self.xs.shape}")
        for name in given[1:]:
            if getattr(self, name).shape != (self.n,):
                raise ShapeMismatch(f"Dataset field shapes disagree: xs {self.xs.shape}, "
                                    f"{name} {getattr(self, name).shape}")

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
    """Construct a task with an analytically known mean function m.

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
    """n i.i.d. inputs from the task's law, unlabelled; bit-identical for
    equal (task, n, seed), and the first n of a draw at any larger n."""
    if n < 1:
        raise ShapeMismatch(f"sample_dataset needs n >= 1, got {n}")
    rng = np.random.default_rng(int(seed))
    return Dataset(xs=_sample_law(task.input_law, n, task.p, rng), seed=int(seed))


def sample_labels(task: RegressionTask, data: Dataset) -> Dataset:
    """``data`` with responses y = m(x) + eps, the noise drawn from the stream
    ``derive_seed(data.seed, "noise")``, so labels nest across n as inputs do."""
    rng = np.random.default_rng(derive_seed(data.seed, "noise"))
    eps = rng.standard_normal(data.n) * task.noise_sd(data.xs)
    return replace(data, ys=task.mean(data.xs) + eps, eps=eps)


def sample_queries(task: RegressionTask, q: int, seed: int) -> np.ndarray:
    """q i.i.d. query points from the input law, shape (q, p)."""
    if q < 1:
        raise ShapeMismatch(f"sample_queries needs q >= 1, got {q}")
    rng = np.random.default_rng(int(seed))
    return _sample_law(task.input_law, q, task.p, rng)

