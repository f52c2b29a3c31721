"""Reference values the benchmark computes itself, independently of divbounds.

Every divergence is a sum over coordinates of q_i * B(u_i) with
u = (p - q) / q.  B is written in Bregman form, f(x) - f'(1) (x - 1), so a
term carries no cancellation between large pieces; the linear parts the
library's definitional sums carry are added back once, exactly, through
sum(p - q) computed with math.fsum.  Near u = 0 the two primitives that
would cancel, log1p(v) - v and exp(y) - 1 - y, are evaluated by series.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

#: The nine catalog ids and their f''(x), from the paper.
F_SECOND = {
    "D1": lambda x: (x + 3.0) / (x + 1.0) ** 2,
    "D2": lambda x: (3.0 * x + 1.0) / (x**2 * (x + 1.0) ** 2),
    "F1": lambda x: 1.0 / (x * (x + 1.0) ** 2),
    "F2": lambda x: 1.0 / (x + 1.0) ** 2,
    "G1": lambda x: 1.0 / (2.0 * x**2 * (x + 1.0)),
    "G2": lambda x: 1.0 / (2.0 * (x + 1.0)),
    "J": lambda x: (x + 1.0) / x**2,
    "I": lambda x: 1.0 / (2.0 * x * (x + 1.0)),
    "T": lambda x: (x**2 + 1.0) / (4.0 * x**2 * (x + 1.0)),
}
CATALOG_IDS = tuple(F_SECOND)


def g_values(measure: str, s: float, x: np.ndarray) -> np.ndarray:
    """g(x) = x^(2-s) f''(x), the multiplier whose extrema are (m, M)."""
    return x ** (2.0 - s) * F_SECOND[measure](x)


def log1pmx(v: np.ndarray) -> np.ndarray:
    """log(1 + v) - v, accurate to a few ulps for every v > -1."""
    v = np.asarray(v, dtype=np.float64)
    out = np.log1p(v) - v
    small = np.abs(v) < 0.25
    if np.any(small):
        # log(1+v) = 2 atanh(t) with t = v / (2 + v) and v = 2t / (1 - t),
        # so log(1+v) - v = -2t^2/(1-t) + 2t^3 (1/3 + t^2/5 + t^4/7 + ...).
        t = v[small] / (2.0 + v[small])
        t2 = t * t
        acc = np.zeros_like(t)
        for k in range(14, 0, -1):  # |t| <= 1/7 here, so t^28 < 1e-23
            acc = acc * t2 + 1.0 / (2 * k + 1)
        out[small] = -2.0 * t2 / (1.0 - t) + 2.0 * t * t2 * acc
    return out


def expm1mx(y: np.ndarray) -> np.ndarray:
    """exp(y) - 1 - y, accurate to a few ulps."""
    y = np.asarray(y, dtype=np.float64)
    out = np.expm1(y) - y
    small = np.abs(y) < 0.5
    if np.any(small):
        ys = y[small]
        acc = np.zeros_like(ys)
        for k in range(18, -1, -1):  # y^2 * sum_k y^k / (k+2)!
            acc = acc * ys + 1.0 / math.factorial(k + 2)
        out[small] = ys * ys * acc
    return out


#: Entries per slice.  The reference works one slice at a time, so its own
#: temporaries stay well below those of a single library call on a large
#: pair, and the benchmark's peak memory is set by the library.
CHUNK = 32_768


class _Terms:
    """The termwise pieces of one slice of a pair, with u = (p - q) / q."""

    def __init__(self, p: np.ndarray, q: np.ndarray):
        self.q = q
        self.u = u = (p - q) / q
        self.log_x = np.log1p(u)
        self.h_u = log1pmx(u)
        self.w = u / 2.0  # (p + q) / (2q) - 1
        self.v = -u / (2.0 + 2.0 * u)  # (p + q) / (2p) - 1
        self.h_w = log1pmx(self.w)
        self.h_v = log1pmx(self.v)


#: measure -> (B, c): the library's definitional sum for the measure, in
#: nats, is sum q * B(terms) + c * sum(p - q).
DIVERGENCE = {
    "KL": (lambda t: t.u * t.u + (1.0 + t.u) * t.h_u, 1.0),
    "KL_ADJ": (lambda t: -t.h_u, -1.0),
    "J": (lambda t: t.u * t.log_x, 0.0),
    "D1": (lambda t: t.u * np.log1p(t.w), 0.0),
    "D2": (lambda t: -t.u * np.log1p(t.v), 0.0),
    "F1": (lambda t: -(1.0 + t.u) * t.h_v, 0.5),
    "F2": (lambda t: -t.h_w, -0.5),
    "G1": (lambda t: t.u * t.u / (4.0 * (1.0 + t.u)) + (2.0 + t.u) / 2.0 * t.h_v, -0.5),
    "G2": (lambda t: t.u * t.u / 4.0 + (2.0 + t.u) / 2.0 * t.h_w, 0.5),
    "I": (lambda t: t.u * t.u / 4.0 + (1.0 + t.u) / 2.0 * t.h_u - (2.0 + t.u) / 2.0 * t.h_w, 0.0),
    "T": (lambda t: (2.0 + t.u) / 2.0 * (t.h_w - t.h_u / 2.0), 0.0),
    "CHI2": (lambda t: t.u * t.u, 0.0),
    "CHI2_ADJ": (lambda t: t.u * t.u / (1.0 + t.u), 0.0),
    "HELLINGER": (lambda t: 0.5 * (t.u / (np.sqrt(1.0 + t.u) + 1.0)) ** 2, 0.0),
    "BHATTACHARYYA": (lambda t: np.sqrt(1.0 + t.u), 0.0),
}


def _phi_body(s: float):
    return lambda t: expm1mx(s * t.log_x) + s * t.h_u  # x^s - 1 - s u


def _e_body(s: float):
    return lambda t: t.u * np.expm1((s - 1.0) * t.log_x) / (s - 1.0)


class PairReference:
    """Termwise reference values for one pair (p, q) of probability vectors.

    Every quantity is a sum over coordinates, so all of them are computed
    in set-up, slice by slice: the divergences, and phi_s and its E bound
    for each s in `s_grid`.
    """

    def __init__(self, p: np.ndarray, q: np.ndarray, s_grid=()):
        slices = [slice(i, i + CHUNK) for i in range(p.size)[::CHUNK]]
        # Exact sums: every p_i and q_i goes into fsum unrounded.
        self.sum_p_minus_q = math.fsum(x for sl in slices for part in (p[sl], -q[sl]) for x in part.tolist())
        self.sum_q_minus_1 = math.fsum(itertools.chain((x for sl in slices for x in q[sl].tolist()), (-1.0,)))
        bodies = {("div", m): body for m, (body, _) in DIVERGENCE.items()}
        bodies.update({("phi", s): _phi_body(s) for s in s_grid if s not in (0.0, 1.0)})
        bodies.update({("e", s): _e_body(s) for s in s_grid if s != 1.0})
        parts = {key: [] for key in bodies}
        lo, hi = [], []
        for sl in slices:
            terms = _Terms(p[sl], q[sl])
            for key, body in bodies.items():
                parts[key].append(float(np.sum(terms.q * body(terms))))
            x = p[sl] / q[sl]
            lo.append(float(x.min()))
            hi.append(float(x.max()))
        self.sums = {key: math.fsum(values) for key, values in parts.items()}
        self.r, self.R = min(lo), max(hi)

    def divergence(self, measure: str) -> float:
        """The library's definitional sum for `measure`, in nats."""
        return self.sums[("div", measure)] + DIVERGENCE[measure][1] * self.sum_p_minus_q

    def csiszar(self, measure: str) -> float:
        """sum q f(p/q) for a catalog generator: each has f'(1) = 0, so this
        is the Bregman sum alone, without the linear part of divergence()."""
        return self.sums[("div", measure)]

    def phi_s(self, s: float) -> float:
        """[s(s-1)]^-1 (sum p^s q^(1-s) - 1), with the KL limits at the poles."""
        if s == 0.0:
            return self.divergence("KL_ADJ")
        if s == 1.0:
            return self.divergence("KL")
        total = self.sums[("phi", s)] + s * self.sum_p_minus_q + self.sum_q_minus_1
        return total / (s * (s - 1.0))

    def e_phi_s(self, s: float) -> float:
        """(s-1)^-1 sum (p - q) (p/q)^(s-1), the data-dependent bound on phi_s."""
        if s == 1.0:
            return self.divergence("J")
        return self.sums[("e", s)] + self.sum_p_minus_q / (s - 1.0)


def _sq(x: float) -> float:
    return math.sqrt(x)


#: Ratio-range estimators as (family, t) -> (measures used, formula of d).
ESTIMATORS = {
    ("XI", 1): (("F1", "CHI2_ADJ"), lambda d: _sq(2 * d["F1"]) / (_sq(d["CHI2_ADJ"]) - _sq(2 * d["F1"]))),
    ("XI", 2): (("KL", "F1"), lambda d: (_sq(d["KL"]) - _sq(d["F1"])) / _sq(d["F1"])),
    ("XI", 3): (("F2", "KL_ADJ"), lambda d: _sq(d["F2"]) / (_sq(d["KL_ADJ"]) - _sq(d["F2"]))),
    ("XI", 4): (("CHI2", "F2"), lambda d: (_sq(d["CHI2"]) - _sq(2 * d["F2"])) / _sq(2 * d["F2"])),
    ("XI", 5): (("G1", "CHI2_ADJ"), lambda d: 4 * d["G1"] / (d["CHI2_ADJ"] - 4 * d["G1"])),
    ("XI", 6): (("KL_ADJ", "G1"), lambda d: (d["KL_ADJ"] - 2 * d["G1"]) / (2 * d["G1"])),
    ("XI", 7): (("G2", "KL"), lambda d: 2 * d["G2"] / (d["KL"] - 2 * d["G2"])),
    ("XI", 8): (("CHI2", "G2"), lambda d: (d["CHI2"] - 4 * d["G2"]) / (4 * d["G2"])),
    ("ZETA", 1): (("J", "KL_ADJ"), lambda d: (d["J"] - d["KL_ADJ"]) / d["KL_ADJ"]),
    ("ZETA", 2): (("KL", "J"), lambda d: d["KL"] / (d["J"] - d["KL"])),
    ("ZETA", 3): (("I", "KL_ADJ"), lambda d: 2 * d["I"] / (d["KL_ADJ"] - 2 * d["I"])),
    ("ZETA", 4): (("KL", "I"), lambda d: (d["KL"] - 2 * d["I"]) / (2 * d["I"])),
}


def estimator(ref: PairReference, family: str, t: int) -> float:
    used, formula = ESTIMATORS[(family, t)]
    return formula({m: ref.divergence(m) for m in used})
