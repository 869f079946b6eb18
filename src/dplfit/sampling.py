"""Exact discrete power-law variates by rejection, no zeta evaluation.

Proposals come from inverting the continuous tail: with w uniform on
(0, 1], y = int(a * w^(-1/beta)) has mass q(y) = (a/y)^beta - (a/(y+1))^beta
on y >= a.  A proposal is accepted when a second uniform v satisfies

    v <= f(y) q(a) / (f(a) q(y))
      = (a/y) * (t_a - 1)/t_a * t_y/(t_y - 1),

with t_x = (1 + 1/x)^beta.  The threshold equals 1 at y = a and decreases
toward a positive limit, so every draw costs O(1) proposals.  t_y - 1 is
computed as expm1(beta * log1p(1/y)) to stay exact for huge y.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .distribution import IntegerSample

RNG_ALGORITHM = "pcg64-seedsequence"

# Proposals whose float value would not fit in int64 are redrawn.  The
# redraw leaves the distribution conditioned on y < 2^63, which removes
# mass below (a / 9.2e18)^beta -- unobservable for any beta of interest.
_MAX_PROPOSAL = float(2**63 - 1024)

# Substream ids at and above this base are reserved for regenerated
# replicas so that retries never collide with an extended ensemble.
RETRY_STREAM_BASE = 2**32

# Proposals are tested this many at a time, so that the test's temporaries
# stay small and are reused from chunk to chunk; whole-batch temporaries
# are tens of MB on large tails, and mapping them afresh for every replica
# costs more than the test itself.  The variates do not depend on it.
_CHUNK = 1 << 14


def replica_stream(replica, attempt):
    """Substream id of a replica's draw: the replica index itself at attempt
    0, then one reserved id per regeneration (replica < RETRY_STREAM_BASE).

    A replica's variates thus depend only on (seed, replica, attempt), not
    on how many other replicas were regenerated before it.
    """
    return attempt * RETRY_STREAM_BASE + replica


@dataclass
class RngStream:
    """Deterministic uniform source: one (seed, stream_id) pair, one stream."""

    seed: int
    stream_id: int = 0
    _gen: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if self.stream_id < 0:
            raise ValueError("stream_id must be non-negative")
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        self._gen = np.random.Generator(np.random.PCG64(ss))

    def uniform_open_closed(self, size):
        """Uniforms on (0, 1]."""
        return 1.0 - self._gen.random(size)

    def uniform(self, size):
        """Uniforms on [0, 1)."""
        return self._gen.random(size)


@dataclass(frozen=True)
class SamplerParams:
    """Cutoff and exponent plus the constants the sampler derives from them."""

    a: int
    beta: float
    u_max: float = field(init=False)
    b: float = field(init=False)
    # (1 + 1/a)^beta - 1, the accept threshold's cutoff-side factor.
    ta_minus_1: float = field(init=False)

    def __post_init__(self):
        if self.a < 1:
            raise ValueError(f"cutoff must be >= 1, got {self.a}")
        if not self.beta > 0:
            raise ValueError(f"exponent must be positive, got {self.beta}")
        tam1 = math.expm1(self.beta * math.log1p(1.0 / self.a))
        object.__setattr__(self, "ta_minus_1", tam1)
        object.__setattr__(self, "u_max", float(self.a) ** -self.beta)
        object.__setattr__(self, "b", float(self.a) ** self.beta * (1.0 + tam1))


def _proposals_from_uniforms(params, w):
    """Map uniforms on (0, 1] to proposal values; NaN-free, inf for overflow."""
    return params.a * np.asarray(w) ** (-1.0 / params.beta)


def accept_test(params, y, v):
    """Whether uniform v accepts proposal y; y and v may be arrays.

    Evaluates v * y * (t_y - 1) * t_a <= a * t_y * (t_a - 1), which is the
    paper form v y (t_y - 1)/(b - a^beta) <= a t_y / b cleared of the
    common a^beta factor.
    """
    y = np.asarray(y, dtype=np.float64)
    tau_m1 = np.expm1(params.beta * np.log1p(1.0 / y))
    ta_m1 = params.ta_minus_1
    lhs = v * y * tau_m1 * (1.0 + ta_m1)
    rhs = params.a * (1.0 + tau_m1) * ta_m1
    out = lhs <= rhs
    return bool(out) if out.ndim == 0 else out


def acceptance_ratio(params, y):
    """f(y) q(a) / (f(a) q(y)), the exact accept probability of proposal y."""
    y = np.asarray(y, dtype=np.float64)
    tau_m1 = np.expm1(params.beta * np.log1p(1.0 / y))
    ta_m1 = params.ta_minus_1
    out = (params.a / y) * (ta_m1 / (1.0 + ta_m1)) * ((1.0 + tau_m1) / tau_m1)
    return float(out) if out.ndim == 0 else out


def sample_n(params, count, rng):
    """Draw ``count`` i.i.d. variates with mass f(n) = n^-(beta+1)/zeta(beta+1, a).

    Deterministic for a given (seed, stream_id, params, count).
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    # Overall acceptance rate is q(a)/f(a) >= ~0.5 for beta >= ~0.5; size
    # batches for the worst realistic case and loop until filled.
    out = np.empty(count, dtype=np.int64)
    filled = 0
    while filled < count:
        batch = max(256, int(1.6 * (count - filled)) + 16)
        w = rng.uniform_open_closed(batch)
        v = rng.uniform(batch)
        for lo in range(0, batch, _CHUNK):
            y = _proposals_from_uniforms(params, w[lo:lo + _CHUNK])
            fits = y < _MAX_PROPOSAL
            y = np.maximum(y[fits].astype(np.int64), params.a)
            accepted = y[accept_test(params, y, v[lo:lo + _CHUNK][fits])]
            take = min(accepted.size, count - filled)
            out[filled:filled + take] = accepted[:take]
            filled += take
            if filled == count:
                break
    return IntegerSample(out)
