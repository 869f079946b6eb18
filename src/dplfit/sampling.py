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
2k (w = 1 - u) and tested with its uniform 2k + 1 (v), and a row of
``count`` variates is the first ``count`` accepted proposals.  How many
proposals are drawn at once (``_batch_size``, ``_CHUNK``) is not part of
that definition, so it changes no variate.

A replica of N draws at (a, beta), s = beta + 1, whose values a <= n < T
are each expected at least once, N (a/n)^s / Z >= 1 with Z taken from
below, is drawn as its table instead (``composite``, ``_draw_tables``).
Those values are its cells, at most ``_MAX_CELLS``, and cell n weighs
(a/n)^s; everything at or above T is the envelope, the proposal at cutoff
T, of weight W = (a/T)^s t_T/(t_T - 1).  From the start of the replica's
substream, each round draws one ``Generator.multinomial`` of the draws
still needed over (cells, envelope), then makes the envelope's m trials
as m proposals at cutoff T from the stream's next 2m uniforms; the ones
they reject are still needed.  Rejected trials restart from the whole
composite, not inside the envelope, so the draws are exactly i.i.d. f,
conditioned on y < 2^63 as a row's are, in O(cells + envelope) work, not
O(N).  With no cells (pvals (1,)) the multinomial draws nothing, since
numpy draws a binomial for each category but the last, and the replica
is its row.  A replica is drawn as its table only where its cells are
expected to take at least ``_TABLE_DRAWS`` of its draws, a rule that
measurements below it do not bear out (ROADMAP item 12).  The replicas
of one call are drawn a round at a time: each replica still short draws
its round from its own stream, and the round's envelope trials, pooled,
are made and tested by one ``_propose`` a pass of at most ``_CHUNK``
proposals, so that a pass's numpy calls are shared by its replicas
rather than repeated for each.

Rows are drawn a group at a time (``sample_rows``): each row's start
state is set on one reused bit generator, and the group's first batches
are one (rows x 2 batch) array of uniforms whose proposals are made and
tested in one pass, as many rows as fit in ``_CHUNK`` proposals.  A row
that comes up short, as every row of a tail larger than ``_CHUNK``
proposals does, goes on from the end of its first batch as a draw from
the composite with no cells: ``_draw_tables`` is the one rejection loop
after the first batches, and the row's remaining variates are the next
accepts of its stream, in draw order.  The short rows of a call share
its rounds, as a block's tables do.

However a replica is drawn, what the sampler returns is its table of
distinct values and counts (``sample_replicas``), reduced by the one
``_distinct``: every caller reads replicas in that one shape.  An
``RngStream`` only names a substream, and ``sample_n`` draws that
substream's replica.
"""

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .distribution import IntegerSample, _whole, scaled_power
from .errors import TailTooLargeError

RNG_ALGORITHM = "pcg64-seedsequence-block256-pairs-cells"

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

# Rows are drawn, sorted and reduced to their tables in units of about
# this many variates (at least one row a unit), so a small tail's rows are
# sorted hundreds at once and only one unit's rows are held at a time.
_UNIT = 1 << 18

# A replica's cells are at most this many values from the cutoff up.
_MAX_CELLS = 1 << 16

# A replica is drawn as its table when its cells are expected to take at
# least this many of its draws.  A table costs about 30-80 us a replica
# to draw (300 a call, 83-311 cells), growing with its cells, and a row
# about 35-40 ns a variate, so no one count of cell draws is the
# break-even.  Jobs of 1000 replicas of the corpus_scan corpus (one
# process, 2 vCPUs) ran faster as tables at every cutoff a = 5-12 (2214
# down to 697 cell draws, 44.6 against 120.7 ms at a = 5), most of them
# drawn as rows by this rule, and as rows from a = 13 (621 cell draws).
# A better rule changes which replicas are tables, so RNG_ALGORITHM with
# it (ROADMAP item 12).
_TABLE_DRAWS = 1 << 11


def replica_stream(replica, attempt):
    """Substream id of a replica's draw: the replica index itself at attempt
    0, then one reserved id per regeneration (replica < RETRY_STREAM_BASE).

    A replica's variates thus depend only on (seed, replica, attempt), not
    on how many other replicas were regenerated before it.
    """
    return attempt * RETRY_STREAM_BASE + replica


def stream_starts(seed, stream_ids):
    """Yield the PCG64 (state, increment) of each substream (seed, id): the
    four words at 4 (id mod 256) of ``SeedSequence(seed, spawn_key=(id //
    256,)).generate_state(1024, np.uint64)``: the state is the first two,
    and the increment the last two shifted up one bit and made odd, as in
    PCG's reference seeding.  A key block is hashed when an id's block is
    not the previous id's, so increasing ids hash each block once."""
    seed = operator.index(seed)
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    block = None
    for stream_id in stream_ids:
        key, slot = divmod(int(stream_id), _BLOCK)
        if key != block:
            block = key
            state = np.random.SeedSequence(seed, spawn_key=(block,))
            words = state.generate_state(4 * _BLOCK, np.uint64).reshape(-1, 4)
        w0, w1, w2, w3 = words[slot].tolist()
        yield w0 << 64 | w1, ((w2 << 64 | w3) << 1 | 1) & _M128


def _seek(bitgen, start, skip=0):
    """Put a PCG64 at the (state, increment) ``start``, then ``skip`` draws on."""
    state, inc = start
    bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                    "has_uint32": 0, "uinteger": 0}
    if skip:
        bitgen.advance(skip)


# A class, not a (seed, stream_id) argument pair: bench/tracer.py looks
# ``dplfit.sampling:RngStream`` up by name, and the scripts, the README and
# the tests pass ``RngStream(seed, id)`` to ``sample_n``.
@dataclass(frozen=True)
class RngStream:
    """The name of substream (seed, stream_id): it holds no generator and
    has no position, and ``sample_n`` draws its replica."""

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        if operator.index(self.stream_id) < 0:
            raise ValueError("stream_id must be non-negative")
        list(stream_starts(self.seed, ()))  # the seed check alone: no substream is keyed


@dataclass(frozen=True)
class SamplerParams:
    """Cutoff and exponent plus the constants the sampler derives from them.

    The cutoff must be a whole number, of any numeric type, and is held as
    a Python int.  The 2^63 cap must leave the proposals at least 2^-20 of
    their mass, 1 - ``lost_mass`` >= 2^-20, or ``ValueError``: below that a
    variate takes over 2^20 proposals on average, and at a cutoff at or
    past the cap every proposal is redrawn, so a draw never ends.  A fitted
    exponent keeps far more, since the tail it is fitted to lies below the
    cap."""

    a: int
    beta: float
    # (1 + 1/a)^beta - 1, the accept threshold's cutoff-side factor.
    ta_minus_1: float = field(init=False)
    # Proposal mass at or above the 2^63 cap, which the sampler redraws.
    lost_mass: float = field(init=False)
    # Z(beta+1, a), with Z(s, a) = a^s zeta(s, a), from below: its first
    # term plus the Euler-Maclaurin integral and half-term from a + 1,
    # which is never above Z (but for rounding) and at most 2.1% below it.
    norm_bound: float = field(init=False)
    # Share of proposals accepted, q(a) Z(beta+1, a), from below: q(a)
    # times ``norm_bound``.
    rate: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "a", int(_whole(self.a)))
        if self.a < 1:
            raise ValueError(f"cutoff must be >= 1, got {self.a}")
        if not self.beta > 0:
            raise ValueError(f"exponent must be positive, got {self.beta}")
        log_step = math.log1p(1.0 / self.a)
        tam1 = math.expm1(self.beta * log_step)
        z = 1.0 + math.exp(-(self.beta + 1.0) * log_step) * ((self.a + 1.0) / self.beta + 0.5)
        object.__setattr__(self, "ta_minus_1", tam1)
        object.__setattr__(self, "lost_mass", (self.a / _MAX_PROPOSAL) ** self.beta)
        if not self.lost_mass <= 1.0 - 2.0**-20:
            raise ValueError(f"the 2^63 proposal cap leaves less than 2^-20 of the proposal "
                             f"mass at cutoff {self.a}, exponent {self.beta}")
        object.__setattr__(self, "norm_bound", z)
        object.__setattr__(self, "rate", min(1.0, tam1 / (1.0 + tam1) * z))


def _proposals_from_uniforms(params, w):
    """Map uniforms on (0, 1] to proposal values; NaN-free, inf for overflow."""
    # below w = (a / 1.8e308)^beta the power or the product overflows to
    # inf, which ``_propose`` redraws as at or above the 2^63 cap; the
    # errstate is set here because it holds only for the calling thread
    with np.errstate(over="ignore"):
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


def _empty(shape, count):
    """An unfilled int64 array of ``shape`` for a replica of ``count``
    observations, or TailTooLargeError."""
    try:
        return np.empty(shape, dtype=np.int64)
    except MemoryError as err:
        raise TailTooLargeError(
            f"a replica of {count} observations does not fit in memory"
        ) from err


def sample_rows(params, count, starts):
    """One row of ``count`` variates, in draw order, per PCG64 start state
    in ``starts``: a (len(starts) x count) array.

    Row i holds the first ``count`` accepts of substream (seed, id_i) when
    start i is the ``stream_starts`` of (seed, id_i): that substream's
    replica, where ``sample_replicas`` draws it as a row.  The rows are
    drawn through one reused bit generator in groups of as many rows as
    first batches fit in ``_CHUNK`` proposals, at least one: a group's
    first batches are drawn as one (rows x 2 batch) array and tested in one
    pass; each row keeps its first ``count`` accepts.  A row left short
    goes on from the end of its first batch, and its remaining variates are
    its envelope of ``_draw_tables`` at pvals (1,), the composite with no
    cells: the next accepts of its stream, in draw order.  The short rows
    of all the groups go through that loop together, after the groups.
    """
    starts = list(starts)
    gen = np.random.Generator(np.random.PCG64(0))
    bitgen = gen.bit_generator
    size = _batch_size(params, count)
    batch, group = min(size, _CHUNK), max(1, _CHUNK // size)
    out = _empty((len(starts), count), count)
    uniforms = np.empty((min(group, len(starts)), 2 * batch))
    short = []  # (row, accepts of its first batch)
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
            short.append((lo + r, got.size))
    _, rest = _draw_tables(count, params, (1.0,), [starts[i] for i, _ in short],
                           [count - k for _, k in short], 2 * batch)
    for (i, k), values in zip(short, rest):
        out[i, k:] = values
    return out


def composite(params, count):
    """The composite law that a replica of ``count`` draws at ``params`` is
    drawn from, as (``SamplerParams`` of the envelope's cutoff T, pvals).

    The cells are the values a <= n < T whose expected count,
    count (a/n)^s / ``params.norm_bound`` with s = beta + 1, is at least 1,
    at most ``_MAX_CELLS`` of them; cell n weighs (a/n)^s
    (``scaled_power``).  The envelope is the proposal at
    cutoff T and weighs W = (a/T)^s t_T/(t_T - 1): its proposals, accepted
    as at cutoff T, give every n >= T the weight (a/n)^s.  pvals holds each
    cell's share of the total weight and, last, the envelope's; with no
    cells T = a and pvals = (1,).
    """
    a, s = params.a, params.beta + 1.0
    # the cells end near a (count / Z)^(1/s), a + reach; the weights decide
    # exactly, among candidates up to one past that, within the cap and
    # below the proposal cap
    reach = a * math.expm1((math.log(count) - math.log(params.norm_bound)) / s)
    span = max(0, min(_MAX_CELLS, int(_MAX_PROPOSAL) - a, math.floor(reach) + 2))
    n = np.arange(a, a + span + 1)
    power = scaled_power(s, a, n)
    cells = int(np.count_nonzero(count * power[:span] / params.norm_bound >= 1.0))
    tail = SamplerParams(a + cells, params.beta)
    weights = power[:cells + 1]
    weights[-1] *= (1.0 + tail.ta_minus_1) / tail.ta_minus_1
    return tail, weights / weights.sum()


def _settle(tail, u, pooled, envelopes, kept, needs):
    """Make and test the proposals at cutoff ``tail`` of one pass's
    uniforms ``u``, which hold the trials of each (replica, trials) of
    ``pooled`` in turn, and add each replica's accepts to its envelope, in
    draw order: so many fewer of its trials are still needed."""
    y, ok = _propose(tail, u)
    got = y[ok]
    trials = [size for _, size in pooled]
    ends = np.cumsum(np.add.reduceat(ok, np.cumsum(trials) - trials)).tolist()
    for (r, _), lo, hi in zip(pooled, [0] + ends, ends):
        envelopes[r][kept[r]:kept[r] + hi - lo] = got[lo:hi]
        kept[r] += hi - lo
        needs[r] -= hi - lo


def _draw_tables(count, tail, pvals, starts, needs, skip=0):
    """Replicas from the composite (``composite``), replica i ``needs[i]``
    draws from the PCG64 start ``starts[i]``, ``skip`` draws on: each one's
    count of each cell and its accepted envelope values, in draw order, as
    two lists.  With pvals (1,), no cells, the multinomials draw nothing,
    and a replica's envelope is the next ``needs[i]`` accepts of its stream
    at cutoff ``tail``: how ``sample_rows`` finishes its short rows.

    The replicas are drawn round by round.  In a round, each replica still
    short restores its bit generator's state, draws one multinomial over
    the cells and the envelope for the draws it still needs, then its
    envelope's m trials' 2m uniforms, and keeps its state for the next
    round.  The round's uniforms are pooled, and one ``_propose`` makes and
    tests at most ``_CHUNK`` of their proposals a pass, so a replica of
    more trials than that takes passes of its own.  The rejected trials
    are still needed and go back through the whole multinomial, never
    through the envelope alone, so the draws are exact; and each replica
    reads its own stream in the order it would alone, so it does not
    depend on the replicas drawn with it.  A replica's envelope is
    allocated once, for its first round's trials, since no later round
    has more, through ``_empty``: ``count``, the replicas' size, is what a
    ``TailTooLargeError`` names.
    """
    gen = np.random.Generator(np.random.PCG64(0))
    bitgen = gen.bit_generator
    needs = list(needs)
    size = len(needs)
    tallies, envelopes, kept, states = [0] * size, [None] * size, [0] * size, [None] * size
    uniforms = np.empty(2 * min(_CHUNK, sum(needs)))
    live = list(range(size))
    while live:
        pooled, fill = [], 0
        for r in live:
            if states[r] is None:
                _seek(bitgen, starts[r], skip)
            else:
                bitgen.state = states[r]
            drawn = gen.multinomial(needs[r], pvals)
            tallies[r] += drawn[:-1]
            trials = needs[r] = int(drawn[-1])
            if envelopes[r] is None:
                envelopes[r] = _empty(trials, count)
            for lo in range(0, trials, _CHUNK):
                part = min(_CHUNK, trials - lo)
                if fill + part > _CHUNK:
                    _settle(tail, uniforms[:2 * fill], pooled, envelopes, kept, needs)
                    pooled, fill = [], 0
                gen.random(out=uniforms[2 * fill:2 * (fill + part)])
                pooled.append((r, part))
                fill += part
            states[r] = bitgen.state
        if pooled:
            _settle(tail, uniforms[:2 * fill], pooled, envelopes, kept, needs)
        live = [r for r in live if needs[r]]
    return tallies, [envelope[:k] for envelope, k in zip(envelopes, kept)]


def _distinct(flat, lengths, weights=None):
    """The tables of segments of ``flat``, each sorted and ``lengths`` long,
    one after another: their distinct values and counts, flat, and each
    segment's number of distinct values.

    A value is new where it differs from the one before it or starts a
    segment.  Its count is the sum of ``weights`` from it to the next new
    value, the weight of each element of ``flat`` being how many draws it
    stands for; with no weights, each stands for one, and the count is the
    distance to the next new value."""
    ends = np.cumsum(lengths)
    new = np.ones(flat.size + 1, dtype=bool)
    np.not_equal(flat[1:], flat[:-1], out=new[1:-1])
    new[ends - lengths] = True
    at = np.flatnonzero(new)
    counts = np.diff(at) if weights is None else np.add.reduceat(weights, at[:-1])
    return flat[at[:-1]], counts, np.diff(np.searchsorted(at, ends), prepend=0)


def sample_replicas(params, count, starts):
    """One replica of ``count`` draws per PCG64 start state in ``starts``,
    each as its table: all the replicas' distinct values and counts, flat,
    one replica after another, and each replica's number of distinct
    values.

    Replica i is the replica of substream (seed, id_i) when start i is the
    ``stream_starts`` of (seed, id_i), however many are drawn at once.
    Where the cells of the composite (``composite``, computed once a call)
    are expected to take at least ``_TABLE_DRAWS`` of a replica's draws,
    the replicas are drawn from their starts by ``_draw_tables``, round by
    round, each round's envelope trials pooled.  A replica's segment for
    ``_distinct`` is the cells that were hit, weighing their hits, then its
    sorted envelope, each value weighing one; the segment is sorted, since
    the cells are distinct and below T and every envelope value is at
    least T.  Otherwise the replicas are the rows of ``sample_rows``,
    drawn, sorted and reduced to their tables a unit of about ``_UNIT``
    variates at a time, so that only one unit's rows are held at once.
    """
    starts = list(starts)
    tail, pvals = composite(params, count)
    if count * (1.0 - pvals[-1]) < _TABLE_DRAWS:
        unit = max(1, _UNIT // count)
        parts = []
        for lo in range(0, len(starts), unit):
            rows = sample_rows(params, count, starts[lo:lo + unit])
            rows.sort(axis=1)
            parts.append(_distinct(rows.ravel(), np.full(len(rows), count)))
        return tuple(np.concatenate(arrays) for arrays in zip(*parts))
    tallies, envelopes = _draw_tables(count, tail, pvals, starts, [count] * len(starts))
    # the envelopes' weights are slices of one buffer of ones, grown to the
    # largest envelope yet
    parts, weights, lengths, ones = [], [], [], np.ones(0, dtype=np.int64)
    for tally, envelope in zip(tallies, envelopes):
        at = np.flatnonzero(tally)
        envelope.sort()
        if ones.size < envelope.size:
            ones = np.ones(envelope.size, dtype=np.int64)
        parts += (at + params.a, envelope)
        weights += (tally[at], ones[:envelope.size])
        lengths.append(at.size + envelope.size)
    return _distinct(np.concatenate(parts), lengths, np.concatenate(weights))


def sample_n(params, count, rng):
    """Draw ``count`` i.i.d. variates with mass f(n) = n^-(beta+1)/zeta(beta+1, a).

    They are the replica that the substream ``rng`` names gives, the one
    a fit's replica on that substream is: replica 0 of ``sample_replicas``
    from its start.  The same variates for the same (seed, stream_id,
    params, count), however often it is drawn.
    """
    if operator.index(count) < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    values, counts, _ = sample_replicas(params, count, stream_starts(rng.seed, [rng.stream_id]))
    return IntegerSample(values, counts)
