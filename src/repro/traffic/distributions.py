"""Typed, samplable distributions for the traffic model.

Every hard-coded ``rng.lognormal(...)`` draw scattered through
:mod:`repro.traffic.workload` / :mod:`repro.traffic.services` is an
instance of one of the distributions below. Each is a frozen dataclass
with three capabilities:

* ``sample(rng, n)`` — draw ``n`` variates from ``rng``. For the
  distributions the generator was already using the expressions are
  kept *bit-identical* to the legacy inline draws (same RNG stream
  consumption, same float expression structure), so migrating a call
  site never moves a capture digest.
* ``params()`` — a JSON-ready payload for scenario digests.
* ``spec()`` / :func:`parse_spec` — a compact round-trippable string
  form (``lognormal(12.4,1.8)``) so scenarios can override any draw
  from TOML or ``--set``.

Bit-identity rules the implementations rely on (and tests pin):
``1.0 * x`` is a bitwise identity for every float ``x``, and IEEE
elementwise multiplication is commutative — but NOT associative, so
``sample`` bodies preserve the exact grouping of the legacy
expressions they replace.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple, Union

import numpy as np


class DistributionError(ValueError):
    """A distribution spec failed to parse or validate."""


def _fmt(x: float) -> str:
    """Shortest float form that round-trips through ``float()``."""
    return repr(float(x))


@dataclass(frozen=True)
class LogNormal:
    """``median * exp(sigma * N(0,1))`` — the generator's workhorse.

    ``sample`` is expression-identical to the legacy
    ``median * rng.lognormal(0.0, sigma, n)`` inline draws, so any
    call site migrated onto it keeps its capture bit-identical.
    """

    median: float
    sigma: float

    def __post_init__(self) -> None:
        if not self.median > 0:
            raise DistributionError(f"lognormal median must be > 0, got {self.median}")
        if not self.sigma >= 0:
            raise DistributionError(f"lognormal sigma must be >= 0, got {self.sigma}")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.median * rng.lognormal(0.0, self.sigma, n)

    def mean(self) -> float:
        return float(self.median * np.exp(self.sigma**2 / 2.0))

    def params(self) -> Dict[str, object]:
        return {"kind": "lognormal", "median": float(self.median), "sigma": float(self.sigma)}

    def spec(self) -> str:
        return f"lognormal({_fmt(self.median)},{_fmt(self.sigma)})"


@dataclass(frozen=True)
class Pareto:
    """Lomax-style heavy tail: ``scale * (1 + Pareto(alpha))``."""

    scale: float
    alpha: float

    def __post_init__(self) -> None:
        if not self.scale > 0:
            raise DistributionError(f"pareto scale must be > 0, got {self.scale}")
        if not self.alpha > 0:
            raise DistributionError(f"pareto alpha must be > 0, got {self.alpha}")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.scale * (1.0 + rng.pareto(self.alpha, n))

    def mean(self) -> float:
        if self.alpha <= 1.0:
            return float("inf")
        return float(self.scale * self.alpha / (self.alpha - 1.0))

    def params(self) -> Dict[str, object]:
        return {"kind": "pareto", "scale": float(self.scale), "alpha": float(self.alpha)}

    def spec(self) -> str:
        return f"pareto({_fmt(self.scale)},{_fmt(self.alpha)})"


@dataclass(frozen=True)
class Weibull:
    """``scale * Weibull(shape)`` — session-duration shaped."""

    scale: float
    shape: float

    def __post_init__(self) -> None:
        if not self.scale > 0:
            raise DistributionError(f"weibull scale must be > 0, got {self.scale}")
        if not self.shape > 0:
            raise DistributionError(f"weibull shape must be > 0, got {self.shape}")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.scale * rng.weibull(self.shape, n)

    def mean(self) -> float:
        from math import gamma

        return float(self.scale * gamma(1.0 + 1.0 / self.shape))

    def params(self) -> Dict[str, object]:
        return {"kind": "weibull", "scale": float(self.scale), "shape": float(self.shape)}

    def spec(self) -> str:
        return f"weibull({_fmt(self.scale)},{_fmt(self.shape)})"


@dataclass(frozen=True)
class EmpiricalCDF:
    """Inverse-CDF sampling from tabulated (value, cdf) breakpoints.

    Generalizes the CDF→PDF ``np.random.choice`` sampler pattern:
    the PDF is the successive difference of the CDF column and draws
    pick among the tabulated values with those probabilities.
    ``cdf`` must be non-decreasing and end at 1.0 (the first entry's
    probability is its own CDF value).
    """

    values: Tuple[float, ...]
    cdf: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.values) != len(self.cdf) or not self.values:
            raise DistributionError("empirical needs equal, nonzero values/cdf lengths")
        c = np.asarray(self.cdf, dtype=np.float64)
        if np.any(np.diff(c) < 0) or not (0.0 <= c[0] <= 1.0):
            raise DistributionError("empirical cdf must be non-decreasing in [0, 1]")
        if abs(c[-1] - 1.0) > 1e-9:
            raise DistributionError(f"empirical cdf must end at 1.0, got {c[-1]}")

    def _pdf(self) -> np.ndarray:
        c = np.asarray(self.cdf, dtype=np.float64)
        pdf = np.diff(c, prepend=0.0)
        pdf = np.maximum(pdf, 0.0)
        return pdf / pdf.sum()

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        vals = np.asarray(self.values, dtype=np.float64)
        return vals[rng.choice(len(vals), size=n, p=self._pdf())]

    def mean(self) -> float:
        vals = np.asarray(self.values, dtype=np.float64)
        return float(np.sum(vals * self._pdf()))

    def cdf_at(self, x: np.ndarray) -> np.ndarray:
        """P(X <= x) of the discrete distribution (for KS tests)."""
        vals = np.asarray(self.values, dtype=np.float64)
        c = np.asarray(self.cdf, dtype=np.float64)
        idx = np.searchsorted(vals, np.asarray(x, dtype=np.float64), side="right")
        out = np.zeros(np.shape(x), dtype=np.float64)
        nz = idx > 0
        out[nz] = c[idx[nz] - 1]
        return out

    def params(self) -> Dict[str, object]:
        return {
            "kind": "empirical",
            "values": [float(v) for v in self.values],
            "cdf": [float(c) for c in self.cdf],
        }

    def spec(self) -> str:
        pairs = ",".join(f"{_fmt(v)}:{_fmt(c)}" for v, c in zip(self.values, self.cdf))
        return f"empirical({pairs})"


@dataclass(frozen=True)
class Mixture:
    """Weighted mixture of component distributions.

    ``sample`` draws one uniform per variate to pick the component,
    *then* draws the component variates — matching the legacy binge
    draw order (``rng.random`` before ``rng.lognormal``). When every
    component is a :class:`LogNormal` with one common sigma, a single
    shared ``rng.lognormal(0, sigma, n)`` base draw is scaled by the
    selected component's median — bitwise-equal to the legacy
    ``base * np.where(binge, 8.0, 1.0)`` expression (elementwise IEEE
    multiply is commutative). Heterogeneous mixtures draw one batch
    per component and select, which consumes ``k * n`` variates.

    ``first_weight`` lets a two-component mixture override the first
    component's selection probability per element — how the workload
    threads the per-subscriber-type binge probability through.
    """

    components: Tuple[object, ...]
    weights: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.components) != len(self.weights) or len(self.components) < 2:
            raise DistributionError("mixture needs >= 2 components with matching weights")
        if any(not w > 0 for w in self.weights):
            raise DistributionError(f"mixture weights must be > 0, got {self.weights}")
        if abs(sum(self.weights) - 1.0) > 1e-9:
            raise DistributionError(f"mixture weights must sum to 1, got {sum(self.weights)}")

    @cached_property
    def _shared_lognormal(self) -> Optional[Tuple[float, np.ndarray]]:
        """(sigma, component medians) when every component is a
        :class:`LogNormal` of one common sigma, else None."""
        if all(isinstance(c, LogNormal) for c in self.components):
            sigmas = {c.sigma for c in self.components}
            if len(sigmas) == 1:
                medians = np.array([c.median for c in self.components], dtype=np.float64)
                return self.components[0].sigma, medians
        return None

    def sample(
        self,
        rng: np.random.Generator,
        n: int,
        first_weight: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        u = rng.random(n)
        if first_weight is not None:
            if len(self.components) != 2:
                raise DistributionError("first_weight override needs exactly 2 components")
            idx = np.where(u < first_weight, 0, 1)
        else:
            idx = np.searchsorted(np.cumsum(self.weights), u, side="right")
            idx = np.minimum(idx, len(self.components) - 1)
        shared = self._shared_lognormal
        if shared is not None:
            sigma, medians = shared
            base = rng.lognormal(0.0, sigma, n)
            return base * medians[idx]
        draws = np.stack([c.sample(rng, n) for c in self.components])
        return draws[idx, np.arange(n)]

    def mean(self) -> float:
        return float(sum(w * c.mean() for w, c in zip(self.weights, self.components)))

    def params(self) -> Dict[str, object]:
        return {
            "kind": "mixture",
            "weights": [float(w) for w in self.weights],
            "components": [c.params() for c in self.components],
        }

    def spec(self) -> str:
        parts = ",".join(
            f"{_fmt(w)}*{c.spec()}" for w, c in zip(self.weights, self.components)
        )
        return f"mixture({parts})"


Distribution = Union[LogNormal, Pareto, Weibull, EmpiricalCDF, Mixture]


_SIMPLE_SPEC = re.compile(r"^([a-z]+)\((.*)\)$")


def _split_args(body: str) -> List[str]:
    """Split on top-level commas (mixture components nest parens)."""
    parts: List[str] = []
    depth = 0
    start = 0
    for i, ch in enumerate(body):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise DistributionError(f"unbalanced parens in {body!r}")
        elif ch == "," and depth == 0:
            parts.append(body[start:i])
            start = i + 1
    if depth != 0:
        raise DistributionError(f"unbalanced parens in {body!r}")
    parts.append(body[start:])
    return [p.strip() for p in parts if p.strip()]


def _float(token: str, spec: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise DistributionError(f"bad number {token!r} in spec {spec!r}") from None


def parse_spec(spec: str) -> Distribution:
    """Parse a spec string (``lognormal(12.4,1.8)``) to a distribution.

    Inverse of each distribution's ``spec()``: for every supported
    family ``parse_spec(d.spec()) == d`` and re-serializing yields the
    same canonical string.
    """
    text = spec.strip().replace(" ", "")
    m = _SIMPLE_SPEC.match(text)
    if not m:
        raise DistributionError(f"unparseable distribution spec {spec!r}")
    kind, body = m.group(1), m.group(2)
    args = _split_args(body)
    try:
        if kind == "lognormal":
            if len(args) != 2:
                raise DistributionError(f"lognormal takes 2 args, got {len(args)}")
            return LogNormal(_float(args[0], spec), _float(args[1], spec))
        if kind == "pareto":
            if len(args) != 2:
                raise DistributionError(f"pareto takes 2 args, got {len(args)}")
            return Pareto(_float(args[0], spec), _float(args[1], spec))
        if kind == "weibull":
            if len(args) != 2:
                raise DistributionError(f"weibull takes 2 args, got {len(args)}")
            return Weibull(_float(args[0], spec), _float(args[1], spec))
        if kind == "empirical":
            values: List[float] = []
            cdf: List[float] = []
            for pair in args:
                if ":" not in pair:
                    raise DistributionError(f"empirical pairs are value:cdf, got {pair!r}")
                v, c = pair.split(":", 1)
                values.append(_float(v, spec))
                cdf.append(_float(c, spec))
            return EmpiricalCDF(tuple(values), tuple(cdf))
        if kind == "mixture":
            weights: List[float] = []
            comps: List[Distribution] = []
            for part in args:
                if "*" not in part:
                    raise DistributionError(
                        f"mixture components are weight*spec, got {part!r}"
                    )
                w, comp = part.split("*", 1)
                weights.append(_float(w, spec))
                comps.append(parse_spec(comp))
            return Mixture(tuple(comps), tuple(weights))
    except DistributionError:
        raise
    raise DistributionError(f"unknown distribution kind {kind!r} in {spec!r}")


#: The legacy day-factor expression as a mixture: binge days scale a
#: customer-day's flow sizes by 8x around the same sigma-0.5 noise.
DAY_FACTOR_BINGE = Mixture(
    components=(LogNormal(8.0, 0.5), LogNormal(1.0, 0.5)),
    weights=(0.035, 0.965),
)

#: Unit-median noise: multiplying by its samples is bitwise-equal to
#: multiplying by the bare ``rng.lognormal(0, sigma, n)`` draw.
def unit_lognormal(sigma: float) -> LogNormal:
    return LogNormal(1.0, sigma)


def choice_cdf(p: np.ndarray) -> np.ndarray:
    """The cumulative table ``Generator.choice(len(p), p=p)`` searches.

    Built once, it lets a hot loop draw with :func:`choice_from_cdf`
    instead of paying ``choice``'s per-call validation and cumsum.
    """
    cdf = np.asarray(p, dtype=np.float64).cumsum()
    cdf /= cdf[-1]
    return cdf


def choice_from_cdf(rng: np.random.Generator, cdf: np.ndarray, n: int) -> np.ndarray:
    """Indices drawn from a :func:`choice_cdf` table.

    Element for element, and variate for variate, the same as
    ``rng.choice(len(p), size=n, p=p)``: one uniform per draw, searched
    in the same normalised cumulative table. ``tests`` pin this against
    the installed numpy for every table the generator builds.
    """
    return cdf.searchsorted(rng.random(n), side="right")
