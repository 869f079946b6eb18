"""Seeded input generation for the benchmark workloads.

Every input is drawn with numpy's own generator: ``Generator.zipf(beta + 1)``
has mass n^-(beta+1) / zeta(beta+1) on n >= 1, which is exactly the
discrete power law at cutoff a = 1.  Nothing here imports dplfit, so a
change to the program's sampler cannot change what a workload feeds it.
"""

import string
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BETA = 1.13

# corpus_scan: the paper's corpus size and replica count
CORPUS_TYPES = 22035
CORPUS_CUTOFFS = 140
CORPUS_MIN_TAIL = 10
CORPUS_NSIM = 1000
WORDS_PER_LINE = 12

# large_tail_fit: one cutoff, a tail of a few hundred thousand observations
LARGE_TAIL_N = 300_000
LARGE_TAIL_NSIM = 100

# counts_ingest: a frequency table of ten million observations
INGEST_N = 10_000_000
INGEST_TAIL = 1000
INGEST_NSIM = 100
INGEST_CHUNK = 1_000_000


@dataclass
class Table:
    """A multiset of positive integers as sorted distinct values and counts."""

    values: np.ndarray
    counts: np.ndarray

    @classmethod
    def of(cls, draws):
        values, counts = np.unique(draws, return_counts=True)
        return cls(values, counts)

    @property
    def size(self):
        return int(self.counts.sum())

    def survival(self):
        """Number of observations >= v, for each distinct value v."""
        return self.counts[::-1].cumsum()[::-1]

    def tail(self, a):
        keep = self.values >= a
        return Table(self.values[keep], self.counts[keep])


def derived_seed(seed, *key):
    """A 32-bit seed for one purpose of one benchmark seed."""
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])


def _word(i):
    """The i-th word (i >= 0) of the bijective base-26 alphabet a..z, aa, ab, ..."""
    letters = []
    i += 1
    while i:
        i, r = divmod(i - 1, 26)
        letters.append(string.ascii_lowercase[r])
    return "".join(reversed(letters))


def scan_cutoffs(table):
    """Cutoffs ``dplfit scan`` tests: values with >= CORPUS_MIN_TAIL data at or above."""
    return table.values[table.survival() >= CORPUS_MIN_TAIL]


def corpus(seed, path):
    """Write a text whose word-type frequencies follow the power law.

    The frequencies are redrawn from the same generator until the scan
    has exactly CORPUS_CUTOFFS cutoffs, so every seed gives a scan of the
    same length; without this the cutoff count ranges over ~129-152 and
    the scan time with it.  The draw must also contain frequency 1 and
    leave no cutoff whose tail is a single repeated value.
    """
    rng = np.random.default_rng(seed)
    while True:
        freqs = rng.zipf(BETA + 1.0, CORPUS_TYPES)
        cutoffs = scan_cutoffs(Table.of(freqs))
        top = freqs[freqs >= cutoffs[-1]]
        if (len(cutoffs) == CORPUS_CUTOFFS and cutoffs[0] == 1
                and top.min() != top.max()):
            break
    words = [_word(i) for i in range(CORPUS_TYPES)]
    tokens = np.repeat(np.arange(CORPUS_TYPES), freqs)
    rng.shuffle(tokens)
    lines = []
    for start in range(0, tokens.size, WORDS_PER_LINE):
        line = [words[t] for t in tokens[start:start + WORDS_PER_LINE]]
        line[0] = line[0].capitalize()
        lines.append(", ".join(line) + ".")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return freqs


def write_counts(table, path):
    Path(path).write_text(
        "".join(f"{v} {c}\n" for v, c in zip(table.values.tolist(), table.counts.tolist())),
        encoding="utf-8",
    )


def large_tail(seed, path):
    table = Table.of(np.random.default_rng(seed).zipf(BETA + 1.0, LARGE_TAIL_N))
    write_counts(table, path)
    return table


def ingest_table(seed, path):
    """Ten million draws, tallied in chunks to keep the generator's memory small."""
    rng = np.random.default_rng(seed)
    tally = {}
    for _ in range(INGEST_N // INGEST_CHUNK):
        chunk = Table.of(rng.zipf(BETA + 1.0, INGEST_CHUNK))
        for v, c in zip(chunk.values.tolist(), chunk.counts.tolist()):
            tally[v] = tally.get(v, 0) + c
    values = np.array(sorted(tally), dtype=np.int64)
    table = Table(values, np.array([tally[v] for v in values.tolist()], dtype=np.int64))
    write_counts(table, path)
    return table


def ingest_cutoff(table):
    """The largest distinct value whose tail keeps at least INGEST_TAIL observations."""
    return int(table.values[table.survival() >= INGEST_TAIL][-1])
