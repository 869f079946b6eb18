"""Exact discrete power-law variates by rejection, no zeta evaluation.

Proposals come from inverting the continuous tail: with w uniform on
(0, 1], y = int(a * w^(-1/beta)) has mass q(y) = (a/y)^beta - (a/(y+1))^beta
on y >= a.  A proposal is accepted when a second uniform v satisfies

    v <= f(y) q(a) / (f(a) q(y))
      = (a/y) * (t_a - 1)/t_a * t_y/(t_y - 1),

with t_x = (1 + 1/x)^beta.  The threshold equals 1 at y = a and decreases
toward a positive limit, so every draw costs O(1) proposals.  t_y - 1 is
computed as expm1(beta * log1p(1/y)) to stay exact for huge y.

Each substream (seed, id) is a PCG64 whose state and increment are set
from four words of numpy's ``SeedSequence(seed, spawn_key=(id // 256,))``:
the words at 4 (id mod 256) of its 1024-word state, so one SeedSequence
call keys 256 substreams.  Proposal k of a substream is made from its uniform
2k (w = 1 - u) and tested with its uniform 2k + 1 (v), and a draw of
``count`` variates is the first ``count`` accepted proposals.  How many
proposals are drawn at once (``_batch_size``, ``_CHUNK``) is not part of
that definition, so it changes no variate.

Replicas are drawn a group at a time: each row's start state is set on
one reused bit generator, and the group's first batches are one
(rows x 2 batch) array of uniforms whose proposals are made and tested
in one pass, as many rows as fit in ``_CHUNK`` proposals.  A row that
comes up short, as every row of a tail larger than ``_CHUNK`` proposals
does, goes on alone from the end of its first batch, ``_CHUNK``
proposals at a time.  ``sample_groups`` hands rows on in units of about
``_UNIT`` variates, one array that its groups fill in place, so that the
caller's per-unit work (sort, tabulation) runs on arrays of that size
however few variates a row has.  ``sample_n`` draws a row from where an
``RngStream`` stands.
"""

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .distribution import IntegerSample
from .errors import TailTooLargeError

RNG_ALGORITHM = "pcg64-seedsequence-block256-pairs"

# Proposals whose float value would not fit in int64 are redrawn.  The
# redraw leaves the distribution conditioned on y < 2^63, which removes
# the proposal mass (a / 9.2e18)^beta (``SamplerParams.lost_mass``).
_MAX_PROPOSAL = float(2**63 - 1024)

# Substream ids at and above this base are reserved for regenerated
# replicas so that retries never collide with an extended ensemble.
RETRY_STREAM_BASE = 2**32

# Substreams keyed by one SeedSequence: ids i with equal i // _BLOCK.
_BLOCK = 256
_M128 = (1 << 128) - 1

# At most this many proposals are made and tested at once: a group holds
# as many replicas' first batches as fit, and a larger batch is drawn in
# passes of this many.  Its temporaries stay in cache and are reused from
# pass to pass; at 2^16 proposals a draw runs slower, not faster.
_CHUNK = 1 << 14

# Rows are handed on in units of about this many variates (at least one
# row a unit), so a small tail's replicas are sorted and tabulated
# hundreds of rows at once.
_UNIT = 1 << 18


def replica_stream(replica, attempt):
    """Substream id of a replica's draw: the replica index itself at attempt
    0, then one reserved id per regeneration (replica < RETRY_STREAM_BASE).

    A replica's variates thus depend only on (seed, replica, attempt), not
    on how many other replicas were regenerated before it.
    """
    return attempt * RETRY_STREAM_BASE + replica


def _stream_starts(seed, stream_ids):
    """PCG64 (state, increment) of each substream (seed, id): the four
    words at 4 (id mod 256) of ``SeedSequence(seed, spawn_key=(id // 256,))``
    ``.generate_state(1024, np.uint64)``: the state is the first two, and
    the increment the last two shifted up one bit and made odd, as in
    PCG's reference seeding."""
    seed = operator.index(seed)
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    blocks = {}
    starts = []
    for stream_id in stream_ids:
        block, slot = divmod(int(stream_id), _BLOCK)
        if block not in blocks:
            state = np.random.SeedSequence(seed, spawn_key=(block,))
            blocks[block] = state.generate_state(4 * _BLOCK, np.uint64).reshape(-1, 4)
        w0, w1, w2, w3 = blocks[block][slot].tolist()
        starts.append((w0 << 64 | w1, ((w2 << 64 | w3) << 1 | 1) & _M128))
    return starts


def _seek(bitgen, start, skip=0):
    """Put a PCG64 at the (state, increment) ``start``, then ``skip`` draws on."""
    state, inc = start
    bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                    "has_uint32": 0, "uinteger": 0}
    if skip:
        bitgen.advance(skip)


@dataclass
class RngStream:
    """Deterministic uniform source: one (seed, stream_id) pair, one stream."""

    seed: int
    stream_id: int = 0
    _gen: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.stream_id < 0:
            raise ValueError("stream_id must be non-negative")
        start, = _stream_starts(self.seed, [self.stream_id])
        self._gen = np.random.Generator(np.random.PCG64(0))
        _seek(self._gen.bit_generator, start)

    def uniform(self, size):
        """Uniforms on [0, 1)."""
        return self._gen.random(size)


@dataclass(frozen=True)
class SamplerParams:
    """Cutoff and exponent plus the constants the sampler derives from them."""

    a: int
    beta: float
    # (1 + 1/a)^beta - 1, the accept threshold's cutoff-side factor.
    ta_minus_1: float = field(init=False)
    # Proposal mass at or above the 2^63 cap, which the sampler redraws.
    lost_mass: float = field(init=False)
    # Share of proposals accepted, q(a) Z(beta+1, a) with Z(s, a) = a^s
    # zeta(s, a), from below: Z is taken as its first term plus the
    # Euler-Maclaurin integral and half-term from a + 1, which is never
    # above Z (but for rounding) and at most 2.1% below it.
    rate: float = field(init=False)

    def __post_init__(self):
        if self.a < 1:
            raise ValueError(f"cutoff must be >= 1, got {self.a}")
        if not self.beta > 0:
            raise ValueError(f"exponent must be positive, got {self.beta}")
        log_step = math.log1p(1.0 / self.a)
        tam1 = math.expm1(self.beta * log_step)
        z = 1.0 + math.exp(-(self.beta + 1.0) * log_step) * ((self.a + 1.0) / self.beta + 0.5)
        object.__setattr__(self, "ta_minus_1", tam1)
        object.__setattr__(self, "lost_mass", (self.a / _MAX_PROPOSAL) ** self.beta)
        object.__setattr__(self, "rate", min(1.0, tam1 / (1.0 + tam1) * z))


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


def _batch_size(params, need):
    """Proposals to draw while ``need`` accepts are still wanted: enough for
    ``need`` plus three standard deviations of the accept count at
    ``params.rate``, so that a row seldom comes up short."""
    rate = params.rate
    return int((need + 3.0 * math.sqrt(need * (1.0 - rate)) + 1.0) / rate) + 1


def _propose(params, u):
    """Proposals from uniforms u, proposal k from u[..., 2k] (w = 1 - u),
    and whether u[..., 2k + 1] accepts it."""
    y = _proposals_from_uniforms(params, 1.0 - u[..., 0::2])
    fits = y < _MAX_PROPOSAL
    y[~fits] = params.a
    y = np.maximum(y.astype(np.int64), params.a)
    return y, fits & accept_test(params, y, u[..., 1::2])


def _fill(params, row, filled, gen):
    """Fill row[filled:] with the next accepted proposals of the stream at
    ``gen``, at most ``_CHUNK`` proposals a pass, and leave ``gen`` just
    past the pair of the last one."""
    count = row.size
    while True:
        batch = min(_batch_size(params, count - filled), _CHUNK)
        y, ok = _propose(params, gen.random(2 * batch))
        at = np.flatnonzero(ok)[:count - filled]
        row[filled:filled + at.size] = y[at]
        filled += at.size
        if filled == count:
            # a negative advance steps back over the pairs not used
            gen.bit_generator.advance(2 * (int(at[-1]) + 1 - batch))
            return


def _empty_rows(rows, count):
    """An unfilled (rows x count) int64 array, or TailTooLargeError."""
    try:
        return np.empty((rows, count), dtype=np.int64)
    except MemoryError as err:
        raise TailTooLargeError(
            f"a replica of {count} observations does not fit in memory"
        ) from err


def _draw(params, count, gen, starts, group):
    """One row of ``count`` variates, in draw order, per PCG64 start state
    in ``starts``, all through the one bit generator of ``gen``.

    The rows are drawn ``group`` at a time: a group's first batches, of at
    most ``_CHUNK`` proposals, are drawn as one (rows x 2 batch) array and
    tested in one pass; each row keeps its first ``count`` accepts, and a
    row left short goes on alone.
    """
    bitgen = gen.bit_generator
    batch = min(_batch_size(params, count), _CHUNK)
    out = _empty_rows(len(starts), count)
    uniforms = np.empty((min(group, len(starts)), 2 * batch))
    for lo in range(0, len(starts), group):
        rows = out[lo:lo + group]
        u = uniforms[:len(rows)]
        for row, start in zip(u, starts[lo:lo + group]):
            _seek(bitgen, start)
            gen.random(out=row)
        y, ok = _propose(params, u)
        taken = np.cumsum(ok, axis=1, dtype=np.int32)
        full = taken[:, -1] >= count
        rows[full] = y[ok & (taken <= count) & full[:, None]].reshape(-1, count)
        for r in np.flatnonzero(~full).tolist():
            got = y[r, ok[r]]
            rows[r, :got.size] = got
            _seek(bitgen, starts[lo + r], 2 * batch)
            _fill(params, rows[r], got.size, gen)
    return out


def sample_groups(params, count, seed, stream_ids):
    """Yield ``count`` variates from each substream (seed, id), one row per
    id in draw order, a unit of rows at a time.

    Row i holds the first ``count`` accepts of ``RngStream(seed, id_i)``.
    A unit holds as many rows as fit in ``_UNIT`` variates, at least one,
    and is drawn in groups of as many rows as first batches fit in
    ``_CHUNK`` proposals, at least one.  Only the caller holds a unit once
    it is yielded, so it can let it go before the next is drawn.
    """
    starts = _stream_starts(seed, stream_ids)
    gen = np.random.Generator(np.random.PCG64(0))
    group = max(1, _CHUNK // _batch_size(params, count))
    unit = max(1, _UNIT // count)
    for lo in range(0, len(starts), unit):
        yield _draw(params, count, gen, starts[lo:lo + unit], group)


def sample_n(params, count, rng):
    """Draw ``count`` i.i.d. variates with mass f(n) = n^-(beta+1)/zeta(beta+1, a).

    They are the next ``count`` accepted proposals of ``rng``, which is
    left just past the uniforms of the last one: deterministic for a given
    (seed, stream_id, params) and the counts drawn before.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    row, = _empty_rows(1, count)
    _fill(params, row, 0, rng._gen)
    return IntegerSample(row)
