"""Exact discrete power-law variates by rejection, no zeta evaluation.

Proposals come from inverting the continuous tail: with w uniform on
(0, 1], y = int(a * w^(-1/beta)) has mass q(y) = (a/y)^beta - (a/(y+1))^beta
on y >= a.  A proposal is accepted when a second uniform v satisfies

    v <= f(y) q(a) / (f(a) q(y))
      = (a/y) * (t_a - 1)/t_a * t_y/(t_y - 1),

with t_x = (1 + 1/x)^beta.  The threshold equals 1 at y = a and decreases
toward a positive limit, so every draw costs O(1) proposals.  t_y - 1 is
computed as expm1(beta * log1p(1/y)) to stay exact for huge y.

Replicas are drawn a group at a time.  Each has its own PCG64 substream,
seeded by numpy's SeedSequence(entropy=seed, spawn_key=(stream_id,)).
``stream_words`` computes that hash for many ids at once in uint32 array
arithmetic, and each row's start state is set on one reused bit
generator, so no SeedSequence, PCG64 or Generator is built per replica.
A group's first batches of uniforms are one (rows x 2 batch) array whose
proposals are made and tested in one pass; each row keeps its first
``count`` accepts, and a row that comes up short draws further batches
from its own stream.  A tail whose batch exceeds the group budget is
drawn one row at a time, each batch drawn and tested a column chunk at a
time.  ``sample_n`` is the one-row case.  A row's variates are those of
a one-at-a-time draw from its stream, whatever group it is drawn in.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .distribution import IntegerSample
from .errors import TailTooLargeError

RNG_ALGORITHM = "pcg64-seedsequence"

# Proposals whose float value would not fit in int64 are redrawn.  The
# redraw leaves the distribution conditioned on y < 2^63, which removes
# the proposal mass (a / 9.2e18)^beta (``SamplerParams.lost_mass``).
_MAX_PROPOSAL = float(2**63 - 1024)

# Substream ids at and above this base are reserved for regenerated
# replicas so that retries never collide with an extended ensemble.
RETRY_STREAM_BASE = 2**32

# Proposals are made and tested this many at a time: a group holds as many
# replicas' first batches as fit, and a larger batch is drawn and tested in
# chunks of this many columns.  Its temporaries (64 kB each) stay below
# glibc's mmap threshold and are reused from pass to pass; whole-batch
# temporaries are tens of MB on large tails, and mapping them afresh for
# every replica costs more than the test itself.  The variates do not
# depend on it.
_CHUNK = 1 << 13

# numpy's SeedSequence hash (pool of 4 uint32 words) and PCG64 seeding.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_M32 = 0xFFFFFFFF
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M128 = (1 << 128) - 1


def replica_stream(replica, attempt):
    """Substream id of a replica's draw: the replica index itself at attempt
    0, then one reserved id per regeneration (replica < RETRY_STREAM_BASE).

    A replica's variates thus depend only on (seed, replica, attempt), not
    on how many other replicas were regenerated before it.
    """
    return attempt * RETRY_STREAM_BASE + replica


def stream_words(seed, stream_ids):
    """``SeedSequence(entropy=seed, spawn_key=(i,)).generate_state(4, np.uint64)``
    for every id i, as one (ids x 4) uint64 array.

    The seed words (padded to the pool size, as numpy pads when a spawn key
    is given) are mixed once; only the mixing of each id's one or two
    words and the output hash run per id, as uint32 array operations.
    Every product is reduced mod 2^32, so the same code serves Python ints
    and uint32 arrays.
    """
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    ids = np.asarray(stream_ids, dtype=np.uint64)
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _M32
        value = value * const & _M32
        return value ^ value >> 16

    def mix(x, y):
        result = (_MIX_MULT_L * x & _M32) - (_MIX_MULT_R * y & _M32) & _M32
        return result ^ result >> 16

    pool = [hashmix(seed >> 32 * i & _M32) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    low = (ids & _M32).astype(np.uint32)
    pool = [mix(word, hashmix(low)) for word in pool]
    # an id of 2^32 or more is two entropy words, its high word mixed last
    high = (ids >> 32).astype(np.uint32)
    if high.any():
        two = high != 0
        pool = [np.where(two, mix(word, hashmix(high)), word) for word in pool]
    const = _INIT_B
    out = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ const
        const = const * _MULT_B & _M32
        value = value * const & _M32
        out.append((value ^ value >> 16).astype(np.uint64))
    return np.stack([out[i] | out[i + 1] << 32 for i in range(0, len(out), 2)], axis=1)


def _pcg64_start(words):
    """PCG64's (state, increment) after seeding with the four 64-bit words."""
    inc = ((words[2] << 64 | words[3]) << 1 | 1) & _M128
    return ((inc + (words[0] << 64 | words[1])) * _PCG_MULT + inc) & _M128, inc


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
    # (1 + 1/a)^beta - 1, the accept threshold's cutoff-side factor.
    ta_minus_1: float = field(init=False)
    # Proposal mass at or above the 2^63 cap, which the sampler redraws.
    lost_mass: float = field(init=False)

    def __post_init__(self):
        if self.a < 1:
            raise ValueError(f"cutoff must be >= 1, got {self.a}")
        if not self.beta > 0:
            raise ValueError(f"exponent must be positive, got {self.beta}")
        tam1 = math.expm1(self.beta * math.log1p(1.0 / self.a))
        object.__setattr__(self, "ta_minus_1", tam1)
        object.__setattr__(self, "lost_mass", (self.a / _MAX_PROPOSAL) ** self.beta)


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


def _batch_size(remaining):
    """Proposals per batch while ``remaining`` variates are still wanted."""
    # Overall acceptance rate is q(a)/f(a) >= ~0.5 for beta >= ~0.5; size
    # batches for the worst realistic case and loop until filled.
    return max(256, int(1.6 * remaining) + 16)


def _propose(params, r, v):
    """Proposals from uniforms r on [0, 1) (w = 1 - r) and whether their
    uniforms v accept them; r and v of any one shape."""
    y = _proposals_from_uniforms(params, 1.0 - r)
    fits = y < _MAX_PROPOSAL
    y[~fits] = params.a
    y = np.maximum(y.astype(np.int64), params.a)
    return y, fits & accept_test(params, y, v)


def _fill(params, row, filled, gen, start, drawn):
    """Fill row[filled:] from the stream that starts at PCG64 state
    ``start``, of which ``drawn`` uniforms are used, and leave ``gen`` just
    past the last batch.

    A batch is ``batch`` uniforms for w, then ``batch`` for v.  It is drawn
    and tested a column chunk of ``_CHUNK`` at a time, each side of a chunk
    read at its place in the stream, so that temporaries stay small and
    the chunks past the last accept needed are never drawn.
    """
    bitgen = gen.bit_generator
    count = row.size
    while filled < count:
        batch = _batch_size(count - filled)
        for lo in range(0, batch, _CHUNK):
            size = min(_CHUNK, batch - lo)
            _seek(bitgen, start, drawn + lo)
            r = gen.random(size)
            _seek(bitgen, start, drawn + batch + lo)
            y, ok = _propose(params, r, gen.random(size))
            got = y[ok][:count - filled]
            row[filled:filled + got.size] = got
            filled += got.size
            if filled == count:
                break
        drawn += 2 * batch
    _seek(bitgen, start, drawn)


def _draw(params, count, gen, starts):
    """One row of ``count`` variates, in draw order, per PCG64 start state
    in ``starts``, all through the one bit generator of ``gen``.

    While a row's first batch fits in ``_CHUNK`` proposals, the group's
    first batches are drawn as one (rows x 2 batch) array and tested in one
    pass; each row keeps its first ``count`` accepts, and a row left short
    goes on alone.  A larger batch is drawn a row at a time.
    """
    batch = _batch_size(count)
    try:
        out = np.empty((len(starts), count), dtype=np.int64)
        if batch > _CHUNK:
            for row, start in zip(out, starts):
                _fill(params, row, 0, gen, start, 0)
            return out
        u = np.empty((len(starts), 2 * batch))
        for row, start in zip(u, starts):
            _seek(gen.bit_generator, start)
            gen.random(out=row)
        y, ok = _propose(params, u[:, :batch], u[:, batch:])
        taken = np.cumsum(ok, axis=1, dtype=np.int32)
        full = taken[:, -1] >= count
        out[full] = y[ok & (taken <= count) & full[:, None]].reshape(-1, count)
        for r in np.flatnonzero(~full).tolist():
            got = y[r, ok[r]]
            out[r, :got.size] = got
            _fill(params, out[r], got.size, gen, starts[r], 2 * batch)
        return out
    except MemoryError as err:
        raise TailTooLargeError(
            f"a replica of {count} observations does not fit in memory"
        ) from err


def sample_groups(params, count, seed, stream_ids):
    """Yield ``count`` variates from each substream (seed, id), one row per
    id in draw order, a group of rows at a time.

    Row i equals ``sample_n(params, count, RngStream(seed, id_i))`` as a
    multiset.  A group holds as many rows as first batches fit in
    ``_CHUNK`` proposals, at least one.
    """
    words = stream_words(seed, stream_ids).tolist()
    gen = np.random.Generator(np.random.PCG64(0))
    group = max(1, _CHUNK // _batch_size(count))
    for lo in range(0, len(words), group):
        yield _draw(params, count, gen, [_pcg64_start(w) for w in words[lo:lo + group]])


def sample_n(params, count, rng):
    """Draw ``count`` i.i.d. variates with mass f(n) = n^-(beta+1)/zeta(beta+1, a).

    The one-row case of the group draw behind ``sample_groups``:
    deterministic for a given (seed, stream_id, params, count), and it
    advances ``rng`` past the uniforms it used.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    state = rng._gen.bit_generator.state["state"]
    row, = _draw(params, count, rng._gen, [(state["state"], state["inc"])])
    return IntegerSample(row)
