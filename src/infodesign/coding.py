"""Monte Carlo block-coding coordination simulator.

A random codebook carries the message-bearing words (w_words) and the channel
words (x_words). Per trial: draw a source block, find a codeword whose pair
with the source block is typical (encoder), push the channel word through the
noisy channel, identify the unique typical codeword at the other end
(decoder), then emit actions symbolwise from the decoded word. The trial is
an error unless the encoder found a word, the decoder returned the same
index, and the realized (source, word, action) triple is typical.

Trials run as stacks, a bounded chunk of them at a time: one codebook scan
encodes a chunk, one decodes it, one draw each transmits it and acts on it,
and every row comes out the same bits as its trial run alone. encode,
decode, transmit, generate_actions and run_trial are those stages on a
single row.

Scans and draws are integer work. A codebook keeps one bit plane per symbol
(a bit per position, 64 to a uint64 word) and each word's symbol counts; a
scan counts a joint type with popcounts of ANDed planes, derives the last
row and column from the symbol counts, and reads each |c / n - t| from a
table over c = 0..n, so a distance is the same bits as counting pair by
pair. A draw counts the cdf entries below the last that its uniform reaches,
the index searchsorted(cdf, u, side="right") capped at the last symbol.

Typicality is an L1 criterion on empirical types: a tuple qualifies when the
L1 distance between its joint type and the target distribution is at most
eps_typ * sqrt(20 / n), so the criterion tightens as blocks grow.

Randomness is split into five hierarchical streams per config seed
(codebook / source / channel / actions / encoder choice), which lets the
deviation test replay identical trials against alternative responses. Each
stream is bit for bit numpy's default_rng(SeedSequence((seed, tag[, t]))):
the SeedSequence hash runs over the keys of a block of trials at once, one
numpy op a step, each key's state words seed a PCG64 state as PCG64 itself
would, and one reused generator is set to each state in turn.
"""
from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .channel import bsc
from .prob import (Distribution, JointDistribution, StochasticMatrix,
                   checked_fields, compose_markov, conditional, marginal,
                   payoff_table, shown)

MEMORY_CAP_WORDS = 2 ** 24
MEMORY_CAP_BYTES = 2 ** 33
# bytes one trial's results hold until its run is written out: its row of
# run_experiment's columns and of the trials CSV's text columns, about 145 B
# under tracemalloc on CPython 3.11 with word indices above 256, bounded
# generously so that the trial cap stays at 2^24 trials
TRIAL_BYTES = 512
TYPE_ATOL = 1e-12
# (sequence, codeword) pairs a codebook scan takes per kernel call, in the
# trial pipeline and in the belief audit alike, and trials a stream block
# derives at once. At binary alphabets and n < 256 a scan holds 30 B a pair:
# four 1-byte joint counts, one ANDed 64-bit plane word and its popcount,
# the float64 distance and a gather buffer, and the typical mask; 480 KiB in
# all. A stream block holds 128 B of state words a trial, 2 MiB. At 2^15, an
# n = 80 simulate call between calls at other n took about 13 000 minor page
# faults against 300, on glibc, which cost more than halving the scans saves
CHUNK_PAIRS = 2 ** 14

# stream tags under the config seed
_CODEBOOK, _SOURCE, _CHANNEL, _ACTIONS, _ENCODER = range(5)
_TRIAL_TAGS = (_SOURCE, _CHANNEL, _ACTIONS, _ENCODER)

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx, NEP 19) and the
# PCG64 multiplier (numpy/random/src/pcg64/pcg64.h)
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
_POOL_WORDS = 4
_INIT_A, _MULT_A = 0x43b0d7e5, 0x931e8875
_INIT_B, _MULT_B = 0x8b51f9dd, 0x58f38ded
_MIX_L, _MIX_R = 0xca01f9dd, 0x4973f715
_PCG64_MULT = 0x2360ed051fc65da44385df649fccf645


def _key_int(value, name: str) -> int:
    """A stream key part: a nonnegative integer, as SeedSequence takes it."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < 0):
        raise ValueError(f"stream key: {name} = {shown(value)} must be a "
                         f"nonnegative integer")
    return int(value)


def _words(value: int) -> list:
    """SeedSequence's uint32 entropy words of a nonnegative int, low first."""
    words = [value & _MASK32]
    while value >> 32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _hashes(h: int, mult: int):
    """The (xor, multiply) constant pairs of SeedSequence's hashmix, in order:
    they depend on the step alone, never on the data."""
    while True:
        nxt = h * mult & _MASK32
        yield h, nxt
        h = nxt


def _hashmix(value: np.ndarray, hashes) -> np.ndarray:
    xor, mult = next(hashes)
    value = value ^ xor
    value *= mult
    value ^= value >> 16
    return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * _MIX_L
    out -= y * _MIX_R
    out ^= out >> 16
    return out


def _seed_words(entropy: np.ndarray) -> np.ndarray:
    """(4, K) uint64: SeedSequence(key).generate_state(4, np.uint64) for each
    column key of an (L, K) uint32 entropy matrix, every step one numpy op
    over all K keys."""
    hashes = _hashes(_INIT_A, _MULT_A)
    zeros = np.zeros(entropy.shape[1], np.uint32)
    pool = [_hashmix(entropy[i] if i < len(entropy) else zeros, hashes)
            for i in range(_POOL_WORDS)]
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], hashes))
    for src in range(_POOL_WORDS, len(entropy)):
        for dst in range(_POOL_WORDS):
            pool[dst] = _mix(pool[dst], _hashmix(entropy[src], hashes))
    # eight uint32 words from the pool in turn, read as four little-endian
    # uint64 words
    hashes = _hashes(_INIT_B, _MULT_B)
    state = np.empty((4, entropy.shape[1]), np.uint64)
    for j in range(4):
        state[j] = _hashmix(pool[2 * j % _POOL_WORDS], hashes)
        state[j] |= (_hashmix(pool[(2 * j + 1) % _POOL_WORDS], hashes)
                     .astype(np.uint64) << 32)
    return state


def _index_words(indices: range) -> list:
    """The indices' entropy words, one (words, K) uint32 array per run of
    indices of one word count: a single run below 2^32."""
    if indices.start < 0:
        raise ValueError(f"stream key: index = {shown(indices.start)} must be a "
                         f"nonnegative integer")
    if indices.stop <= 1 << 32:
        return [np.arange(indices.start, indices.stop, dtype=np.uint32)[None]]
    return [np.array([_words(i) for i in run], np.uint32).T
            for _, run in itertools.groupby(indices, lambda i: len(_words(i)))]


def _state_words(seed: int, tags, indices: range | None = None) -> np.ndarray:
    """(len(tags), 4, K) uint64: column k of row j is the state words numpy's
    SeedSequence((seed, tags[j], indices[k])) generates for PCG64, or those
    of SeedSequence((seed, tags[j])), K = 1, when indices is None."""
    head = _words(_key_int(seed, "seed"))
    tails = ([np.empty((0, 1), np.uint32)] if indices is None
             else _index_words(indices))
    out = []
    for tail in tails:
        entropy = np.empty((len(head) + 1 + len(tail), len(tags), tail.shape[1]),
                           np.uint32)
        entropy[:len(head)] = np.array(head, np.uint32)[:, None, None]
        entropy[len(head)] = np.array(tags, np.uint32)[:, None]
        entropy[len(head) + 1:] = tail[:, None]
        out.append(_seed_words(entropy.reshape(len(entropy), -1))
                   .reshape(4, len(tags), -1))
    return np.concatenate(out, axis=2).transpose(1, 0, 2)


def _seat(gen: np.random.Generator, words: np.ndarray) -> np.random.Generator:
    """gen, its PCG64 set to the state PCG64 seeds from four state words:
    two 128-bit LCG steps, from zero, with initstate added between them."""
    s_hi, s_lo, i_hi, i_lo = words.tolist()
    inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
    state = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128
    gen.bit_generator.state = {"bit_generator": "PCG64",
                               "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
    return gen


def _generator() -> np.random.Generator:
    """A PCG64 generator for _seat; its own seed is never drawn from."""
    return np.random.Generator(np.random.PCG64(0))


def _stream(seed: int, tag: int) -> np.random.Generator:
    """The generator default_rng(SeedSequence((seed, tag))) gives."""
    return _seat(_generator(), _state_words(seed, (tag,))[0, :, 0])


@dataclass(frozen=True)
class TrialStreams:
    """Independent per-trial generators; pairing tests rebuild them at will."""

    source: np.random.Generator
    channel: np.random.Generator
    actions: np.random.Generator
    encoder: np.random.Generator


def trial_streams(seed: int, index: int) -> TrialStreams:
    index = _key_int(index, "index")
    words = _state_words(seed, _TRIAL_TAGS, range(index, index + 1))
    return TrialStreams(*(_seat(_generator(), w[:, 0]) for w in words))


@dataclass(frozen=True)
class CodingConfig:
    """Simulation instance: block length, rate, the target joint over
    (source, word, action), the channel, its input law, the two payoff
    tables, the master seed, and the typicality tolerance."""

    n: int
    rate: float
    target: JointDistribution
    channel: StochasticMatrix
    input_dist: Distribution
    phi1: np.ndarray
    phi2: np.ndarray
    seed: int
    eps_typ: float = 0.15

    def __post_init__(self):
        # n, seed and rate: bool (JSON true, false) subclasses int but is refused.
        # A word of more than MEMORY_CAP_BYTES symbols never fits, and capping n
        # keeps n * rate a float
        if (isinstance(self.n, bool) or not isinstance(self.n, (int, np.integer))
                or not 1 <= self.n <= MEMORY_CAP_BYTES):
            raise ValueError(f"CodingConfig: n = {shown(self.n)} must be an "
                             f"integer in [1, {MEMORY_CAP_BYTES}]")
        if (isinstance(self.rate, bool) or not isinstance(self.rate, numbers.Real)
                or not 0.0 <= self.rate < math.inf):
            raise ValueError(f"CodingConfig: rate = {self.rate!r} is not a number "
                             f"in [0, inf)")
        if not 0.0 < self.eps_typ < 1.0:
            raise ValueError(f"CodingConfig: eps_typ = {self.eps_typ!r} outside (0, 1)")
        if (isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer))
                or self.seed < 0):
            raise ValueError(f"CodingConfig: seed = {shown(self.seed)} must be a "
                             f"nonnegative integer")
        if self.target.axes != ("u", "w", "v"):
            raise ValueError(f"CodingConfig: target axes {self.target.axes!r} must "
                             f"be ('u', 'w', 'v'), in that order")
        if len(self.input_dist) != self.channel.num_inputs:
            raise ValueError("CodingConfig: input_dist length does not match "
                             "the channel input alphabet")
        ku, kw, kv = self.target.probs.shape
        for name in ("phi1", "phi2"):
            object.__setattr__(self, name, payoff_table(getattr(self, name), (ku, kv),
                                                        f"CodingConfig: {name}"))
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "seed", int(self.seed))
        rebuilt = compose_markov(self.prior, self.signal, self.response)
        gap = float(np.abs(rebuilt.probs - self.target.probs).sum())
        if gap > 1e-9:
            raise ValueError(f"CodingConfig: target does not factor as "
                             f"prior x signal x response (L1 gap {gap:.3e})")
        # the 2^(n R) words are refused by their exponent, as a float of
        # them overflows past 2^1024
        bits = self.n * self.rate
        if bits > math.log2(MEMORY_CAP_WORDS):
            words = shown(self.codebook_size) if bits < 1024 else f"2^{bits:.6g}"
            raise ValueError(f"CodingConfig: codebook needs {words} words, above "
                             f"the cap of {MEMORY_CAP_WORDS}")
        if self.codebook_bytes > MEMORY_CAP_BYTES:
            raise ValueError(f"CodingConfig: codebook words and scan tables "
                             f"need {self.codebook_bytes} bytes, above the cap "
                             f"of {MEMORY_CAP_BYTES}")

    @property
    def codebook_size(self) -> int:
        # ceil of 2^(n R) with a guard against float drift at exact powers
        return int(math.ceil(2.0 ** (self.n * self.rate) * (1.0 - 1e-12)))

    @property
    def codebook_bytes(self) -> int:
        """Bytes of the two int16 word arrays plus their scan tables
        (`ScanTables`): for each alphabet, a word's bit plane of 64-bit
        words per symbol but the last, and its count of every symbol in the
        smallest unsigned type that holds n."""
        kw, kx = self.target.probs.shape[1], self.channel.num_inputs
        plane = 8 * -(-self.n // 64)
        count = np.min_scalar_type(self.n).itemsize
        per_word = 2 * 2 * self.n + (plane * (kw - 1 + kx - 1)
                                     + count * (kw + kx))
        return self.codebook_size * per_word

    @property
    def typicality_radius(self) -> float:
        return self.eps_typ * math.sqrt(20.0 / self.n)

    # Derived tables, computed once per config: every trial reads them.
    @functools.cached_property
    def prior(self) -> Distribution:
        return marginal(self.target, "u")

    @functools.cached_property
    def signal(self) -> StochasticMatrix:
        return conditional(marginal(self.target, ("u", "w")), "u")

    @functools.cached_property
    def response(self) -> StochasticMatrix:
        return conditional(marginal(self.target, ("w", "v")), "w")

    @functools.cached_property
    def target_uw(self) -> np.ndarray:
        """(source, word) target table the encoder and the audit match."""
        return marginal(self.target, ("u", "w")).probs

    @functools.cached_property
    def target_yx(self) -> np.ndarray:
        """(output, input) channel table the decoder matches."""
        table = (self.input_dist.probs[:, None] * self.channel.rows).T
        table.flags.writeable = False
        return table


@dataclass(frozen=True)
class Codebook:
    """M message words over W paired with M channel words over X."""

    w_words: np.ndarray
    x_words: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w_words)
        x = np.asarray(self.x_words)
        if w.ndim != 2 or x.ndim != 2 or w.shape != x.shape:
            raise ValueError("Codebook: word arrays must share an (M, n) shape")
        if w.shape[0] == 0:
            raise ValueError("Codebook: needs at least one word")
        w = np.ascontiguousarray(w, dtype=np.int16)
        x = np.ascontiguousarray(x, dtype=np.int16)
        if w.size and min(w.min(), x.min()) < 0:
            raise ValueError("Codebook: word symbols must be nonnegative")
        w.flags.writeable = False
        x.flags.writeable = False
        object.__setattr__(self, "w_words", w)
        object.__setattr__(self, "x_words", x)

    @property
    def size(self) -> int:
        return self.w_words.shape[0]

    @property
    def n(self) -> int:
        return self.w_words.shape[1]

    # Scan tables, built on the first scan and freed with the codebook.
    @functools.cached_property
    def w_tables(self) -> ScanTables:
        return _scan_tables(self.w_words)

    @functools.cached_property
    def x_tables(self) -> ScanTables:
        return _scan_tables(self.x_words)


@dataclass(frozen=True)
class TrialResult:
    error_event: bool
    chosen_m: Optional[int]
    decoded_m: Optional[int]
    l1_to_target: float
    util1_n: float
    util2_n: float


class ScanTables(NamedTuple):
    """A word array's scan tables: planes (K - 1, W, M) uint64 holds, for each
    symbol b below the largest one, K - 1, a bit per position where word m is
    b, packed into W = ceil(n / 64) words (`_bit_planes`); counts (K, M) holds
    each word's count of every symbol up to K - 1, in the smallest unsigned
    type that holds n."""

    planes: np.ndarray
    counts: np.ndarray


def _draw_iid(dist: Distribution, uniforms: np.ndarray) -> np.ndarray:
    """Draws from dist, one a uniform, in the uniforms' shape: the number of
    cdf entries below the last that the uniform reaches."""
    idx = np.zeros(uniforms.shape, np.int16)
    for edge in np.cumsum(dist.probs)[:-1]:
        idx += uniforms >= edge
    return idx


def _draw_rows(rows: np.ndarray, cond_seq: np.ndarray,
               uniforms: np.ndarray) -> np.ndarray:
    """Draws from the rows of a stochastic matrix that cond_seq picks, one a
    uniform; cond_seq and uniforms share any shape. As in _draw_iid, each
    cdf column but the last is gathered by cond_seq and compared once."""
    cond = np.asarray(cond_seq, dtype=np.intp)
    idx = np.zeros(uniforms.shape, np.int16)
    for edges in np.cumsum(rows, axis=1).T[:-1]:
        idx += uniforms >= edges.take(cond)
    return idx


def _bit_planes(rows: np.ndarray, symbols: int) -> np.ndarray:
    """(symbols, W, R) uint64 view: plane b of an (R, n) symbol array sets one
    bit per position where the row holds b, packed by np.packbits into
    W = ceil(n / 64) words a row, the padding bits clear."""
    r, n = rows.shape
    packed = np.zeros((symbols, r, -(-n // 64) * 8), np.uint8)
    for b in range(symbols):
        packed[b, :, :(n + 7) // 8] = np.packbits(rows == b, axis=1)
    return packed.view(np.uint64).transpose(0, 2, 1)


def _scan_tables(words: np.ndarray) -> ScanTables:
    """The ScanTables of an (M, n) word array, CHUNK_PAIRS symbols at a time,
    so no (M, n) temporary is held."""
    m, n = words.shape
    top = int(words.max()) if words.size else 0
    planes = np.empty((top, -(-n // 64), m), np.uint64)
    counts = np.empty((top + 1, m), np.min_scalar_type(n))
    step = max(1, CHUNK_PAIRS // n)
    for s in range(0, m, step):
        block = planes[:, :, s:s + step]
        block[...] = _bit_planes(words[s:s + step], top)
        np.add.reduce(np.bitwise_count(block), axis=1, out=counts[:top, s:s + step])
    counts[top] = n - counts[:top].sum(axis=0)
    planes.flags.writeable = counts.flags.writeable = False
    return ScanTables(planes, counts)


def _pair_type_l1(seqs: np.ndarray, tables: ScanTables,
                  target: np.ndarray) -> np.ndarray:
    """L1 distance from each (seq, words[m]) joint type to the target table,
    for one sequence (n,) -> (M,) or a stack of them (S, n) -> (S, M).

    tables are the words' ScanTables. The joint count c_ab of sequence
    symbol a < |A| - 1 and word symbol b < K - 1 is the popcount of the AND of
    their bit planes; the count of the words' largest symbol K - 1 is the
    rest of the sequence's a's, and the last row the rest of each word's
    symbol counts. Every count is an exact integer, and |c / n - t_ab| is read
    from a table over c = 0..n made by the same IEEE operations, summed in
    (a, b) order, so the result is the same bits as counting pair by pair,
    and a row of a stack the same bits as that sequence alone."""
    seqs = np.asarray(seqs)
    n = seqs.shape[-1]
    flat = seqs.reshape(-1, n)
    ka, kb = target.shape
    planes, word_counts = tables
    top, width, m = planes.shape
    s = len(flat)
    seq_planes = _bit_planes(flat, ka - 1)
    kind = word_counts.dtype
    counts = np.zeros((ka, kb, s, m), kind)
    both = np.empty((s, m), np.uint64)
    ones = np.empty((s, m), np.uint8)
    for a in range(ka - 1):
        for b in range(top):
            for w in range(width):
                np.bitwise_and(seq_planes[a, w, :, None], planes[b, w], out=both)
                counts[a, b] += np.bitwise_count(both, out=ones)
        seq_count = np.count_nonzero(flat == a, axis=1).astype(kind)
        np.subtract(seq_count[:, None], counts[a, :top].sum(axis=0, dtype=kind),
                    out=counts[a, top])
    np.subtract(word_counts[:, None],
                counts[:ka - 1, :top + 1].sum(axis=0, dtype=kind),
                out=counts[ka - 1, :top + 1])
    # every count lies in [0, n], so clipping the gather never moves one
    lut = np.abs(np.arange(n + 1) / n - target[:, :, None])
    dist = lut[0, 0].take(counts[0, 0], mode="clip")
    term = np.empty_like(dist)
    for a, b in itertools.islice(np.ndindex(ka, kb), 1, None):
        dist += lut[a, b].take(counts[a, b], out=term, mode="clip")
    return dist.reshape(seqs.shape[:-1] + (m,))


def generate_codebook(cfg: CodingConfig) -> Codebook:
    """Independent words: message words from the target's W marginal, channel
    words from the channel input law. Fully determined by cfg.seed."""
    rng = _stream(cfg.seed, _CODEBOOK)
    m, n = cfg.codebook_size, cfg.n
    step = max(1, CHUNK_PAIRS // n)
    words = [np.empty((m, n), dtype=np.int16) for _ in range(2)]
    for out, dist in zip(words, (marginal(cfg.target, "w"), cfg.input_dist)):
        # CHUNK_PAIRS symbols at a time, so no (m, n) float array is held:
        # the stream gives the uniforms in the order one (m, n) draw would
        for s in range(0, m, step):
            out[s:s + step] = _draw_iid(dist, rng.random(out[s:s + step].shape))
    return Codebook(*words)


def _chunk_rows(cb: Codebook) -> int:
    """Sequences per codebook scan: at most CHUNK_PAIRS pairs and CHUNK_PAIRS
    symbols, at least one row."""
    return max(1, CHUNK_PAIRS // max(cb.size, cb.n))


def _typical(seqs: np.ndarray, tables: ScanTables, target: np.ndarray,
             cfg: CodingConfig) -> np.ndarray:
    """(S, M) mask of the (sequence, word) pairs within the typicality radius."""
    return _pair_type_l1(seqs, tables, target) <= cfg.typicality_radius + TYPE_ATOL


def _encode(u_seqs: np.ndarray, cb: Codebook, cfg: CodingConfig, rng_of):
    """(chosen index, typical word count) per source block of a stack; the
    index is -1 where no word covers the block.

    A block with one typical word takes it; block i with several draws one
    uniformly from its own generator rng_of(i), the only draw any generator
    makes."""
    typical = _typical(u_seqs, cb.w_tables, cfg.target_uw, cfg)
    cover = typical.sum(axis=1)
    chosen = np.where(cover > 0, typical.argmax(axis=1), -1)
    for i in np.flatnonzero(cover > 1):
        chosen[i] = np.flatnonzero(typical[i])[rng_of(i).integers(int(cover[i]))]
    return chosen, cover


def _decode(y_seqs: np.ndarray, cb: Codebook, cfg: CodingConfig):
    """(decoded index, typical word count) per received block of a stack; the
    index is -1 unless exactly one channel word is typical with the block."""
    typical = _typical(y_seqs, cb.x_tables, cfg.target_yx, cfg)
    hits = typical.sum(axis=1)
    return np.where(hits == 1, typical.argmax(axis=1), -1), hits


def encode(u_seq: np.ndarray, cb: Codebook, cfg: CodingConfig,
           rng: np.random.Generator) -> Optional[int]:
    """Index of a codeword jointly typical with the source block.

    Uniform choice among qualifiers (seeded); None means no cover exists.
    """
    m = int(_encode(np.asarray(u_seq)[None], cb, cfg, lambda i: rng)[0][0])
    return m if m >= 0 else None


def transmit(x_seq: np.ndarray, channel: StochasticMatrix,
             rng: np.random.Generator) -> np.ndarray:
    """Memoryless channel pass: one conditional draw per symbol."""
    x_seq = np.asarray(x_seq)
    return _draw_rows(channel.rows, x_seq, rng.random(x_seq.size))


def decode(y_seq: np.ndarray, cb: Codebook, cfg: CodingConfig) -> Optional[int]:
    """Unique-typicality decoding: the one codeword whose channel word pairs
    typically with the received block, or None when zero or several do."""
    m = int(_decode(np.asarray(y_seq)[None], cb, cfg)[0][0])
    return m if m >= 0 else None


def generate_actions(w_seq: np.ndarray, response: StochasticMatrix,
                     rng: np.random.Generator) -> np.ndarray:
    """Symbolwise conditional draws of actions given word symbols."""
    w_seq = np.asarray(w_seq)
    return _draw_rows(response.rows, w_seq, rng.random(w_seq.size))


@dataclass(frozen=True)
class _Decoded:
    """A chunk of trials, one row each, taken through source, encode,
    transmit and decode, with its action uniforms drawn. Index -1 stands for
    no cover (word 0 is sent) and for a failed decode (the word of first
    symbols is acted on); cover counts the typical words at the encoder and
    hits those at the decoder."""

    u: np.ndarray
    chosen: np.ndarray
    cover: np.ndarray
    decoded: np.ndarray
    hits: np.ndarray
    w: np.ndarray
    action_uniforms: np.ndarray


def _decoded_chunks(cfg: CodingConfig, cb: Codebook, trials: range):
    """The trials of a range, _chunk_rows at a time, as _Decoded chunks.

    The four streams of every trial in a block of CHUNK_PAIRS trials are
    derived in one pass (_state_words), and one generator, set to each
    stream in turn (_seat), draws every trial's source, channel and action
    uniforms in full before any scan, so every stream is consumed as a
    trial run alone would consume it; a tie at the encoder sets it to that
    trial's encoder stream."""
    step = _chunk_rows(cb)
    gen = _generator()
    for first in range(trials.start, trials.stop, CHUNK_PAIRS):
        block = range(first, min(first + CHUNK_PAIRS, trials.stop))
        words = _state_words(cfg.seed, _TRIAL_TAGS, block)
        for start in range(0, len(block), step):
            chunk = words[:, :, start:start + step]
            uniforms = np.empty((3, chunk.shape[2], cfg.n))
            for tag in range(3):
                for k in range(chunk.shape[2]):
                    _seat(gen, chunk[tag, :, k]).random(out=uniforms[tag, k])
            u = _draw_iid(cfg.prior, uniforms[0])
            chosen, cover = _encode(u, cb, cfg,
                                    lambda i: _seat(gen, chunk[3, :, i]))
            y = _draw_rows(cfg.channel.rows, cb.x_words[np.maximum(chosen, 0)],
                           uniforms[1])
            decoded, hits = _decode(y, cb, cfg)
            w = cb.w_words[np.maximum(decoded, 0)]
            w[decoded < 0] = 0
            yield _Decoded(u, chosen, cover, decoded, hits, w, uniforms[2])


def _act(cfg: CodingConfig, chunk: _Decoded, response: StochasticMatrix):
    """(ok, l1, util1, util2), one entry a trial, of a decoded chunk with its
    actions drawn from response.

    One bincount tallies every trial's (u, w, v) type; each row's L1 and
    utilities reduce that row alone, the same bits as the trial by itself."""
    v = _draw_rows(response.rows, chunk.w, chunk.action_uniforms)
    ku, kw, kv = cfg.target.probs.shape
    size = ku * kw * kv
    cells = ((chunk.u.astype(np.intp) * kw + chunk.w) * kv + v
             + np.arange(len(v))[:, None] * size)
    counts = np.bincount(cells.ravel(), minlength=len(v) * size)
    l1 = np.abs(counts.reshape(len(v), -1) / cfg.n
                - cfg.target.probs.ravel()).sum(axis=1)
    ok = ((chunk.chosen >= 0) & (chunk.decoded == chunk.chosen)
          & (l1 <= cfg.typicality_radius + TYPE_ATOL))
    return (ok, l1, cfg.phi1[chunk.u, v].mean(axis=1),
            cfg.phi2[chunk.u, v].mean(axis=1))


def _index_column(indices: np.ndarray) -> np.ndarray:
    """Word indices as an object column, None where the index is -1."""
    column = indices.astype(object)
    column[indices < 0] = None
    return column


def run_trial(cfg: CodingConfig, cb: Codebook, t: int,
              response: StochasticMatrix | None = None) -> TrialResult:
    """One encode-transmit-decode-act round on the streams of trial t: the
    batched pipeline on a chunk of one.

    A non-default response only redirects the action draws; the error event
    and empirical statistics are computed for whatever actions came out.
    """
    t = _key_int(t, "index")
    chunk = next(_decoded_chunks(cfg, cb, range(t, t + 1)))
    ok, *stats = _act(cfg, chunk, cfg.response if response is None else response)
    m, m_hat = _index_column(np.concatenate([chunk.chosen, chunk.decoded]))
    return TrialResult(not ok[0], m, m_hat, *(float(x[0]) for x in stats))


@dataclass(frozen=True)
class ExperimentSummary:
    trials: int
    n: int
    error_rate: float
    nocover_rate: float
    decodefail_rate: float
    mean_l1: float
    median_l1: float
    mean_util1: float
    mean_util2: float
    hw_error_rate: float
    hw_l1: float
    hw_util1: float
    hw_util2: float
    results: dict
    counters: dict


def _half_width(values: np.ndarray) -> float:
    if values.size < 2:
        return 0.0
    return float(1.96 * values.std(ddof=1) / math.sqrt(values.size))


def run_experiment(cfg: CodingConfig, trials: int) -> ExperimentSummary:
    """Aggregate independent seeded trials; deterministic given cfg.seed.

    results holds the trials' columns under the trials CSV's names: error
    (int8, 1 for an error), chosen_m and decoded_m (int, None for no cover
    and for a failed decode), l1_to_target, util1 and util2 (float).
    counters holds the trial, error and no-cover counts, the decode
    failures split into no typical word and several, ok_mean_util1 and
    ok_mean_util2, the mean utilities over the error-free trials (None when
    there are none), and the min, median, 90th percentile and max of the
    encoder's cover, the typical word count of each source block."""
    if trials < 1:
        raise ValueError(f"run_experiment: trials = {shown(trials)} must be >= 1")
    if trials * TRIAL_BYTES > MEMORY_CAP_BYTES:
        raise ValueError(f"run_experiment: {shown(trials)} trials hold about "
                         f"{shown(trials * TRIAL_BYTES)} bytes of results, "
                         f"above the cap of {MEMORY_CAP_BYTES}")
    cb = generate_codebook(cfg)
    parts = [(chunk.chosen, chunk.cover, chunk.decoded, chunk.hits,
              *_act(cfg, chunk, cfg.response))
             for chunk in _decoded_chunks(cfg, cb, range(trials))]
    (chosen, cover, decoded, hits,
     ok, l1s, u1, u2) = map(np.concatenate, zip(*parts))
    errs, nocover = ~ok, chosen < 0
    p_err = float(errs.mean())
    return ExperimentSummary(
        trials=trials, n=cfg.n,
        error_rate=p_err,
        nocover_rate=float(np.mean(nocover)),
        decodefail_rate=float(np.mean(decoded < 0)),
        mean_l1=float(l1s.mean()), median_l1=float(np.median(l1s)),
        mean_util1=float(u1.mean()), mean_util2=float(u2.mean()),
        hw_error_rate=float(1.96 * math.sqrt(max(p_err * (1 - p_err), 0.0) / trials)),
        hw_l1=_half_width(l1s), hw_util1=_half_width(u1), hw_util2=_half_width(u2),
        results={"error": errs.astype(np.int8), "chosen_m": _index_column(chosen),
                 "decoded_m": _index_column(decoded), "l1_to_target": l1s,
                 "util1": u1, "util2": u2},
        counters={"trials": trials, "errors": int(errs.sum()),
                  "nocover": int(nocover.sum()),
                  "decode_no_typical": int((hits == 0).sum()),
                  "decode_several_typical": int((hits > 1).sum()),
                  **{f"ok_mean_util{k}": float(u[ok].mean()) if ok.any() else None
                     for k, u in ((1, u1), (2, u2))},
                  "cover_min": int(cover.min()),
                  "cover_median": float(np.median(cover)),
                  "cover_p90": float(np.quantile(cover, 0.9)),
                  "cover_max": int(cover.max())})


def single_letter_utilities(cfg: CodingConfig):
    """Expected per-stage (phi1, phi2) under the target joint itself."""
    q_uv = marginal(cfg.target, ("u", "v")).probs
    return (float((q_uv * cfg.phi1).sum()), float((q_uv * cfg.phi2).sum()))


def deviation_gaps(cfg: CodingConfig, cb: Codebook, alt_responses,
                   trials: int) -> np.ndarray:
    """Paired mean-utility gaps of alternative responses vs the prescribed one.

    Every response sees identical source blocks, codeword choices, channel
    noise, and action uniforms, so an alternative equal to the prescribed
    response gets a gap of exactly zero.
    """
    if trials < 1:
        raise ValueError(f"deviation_gaps: trials = {shown(trials)} must be >= 1")
    alts = list(alt_responses)
    base = cfg.response
    for k, r in enumerate(alts):
        if r.rows.shape != base.rows.shape:
            raise ValueError(f"deviation_gaps: alternative {k} has shape "
                             f"{r.rows.shape}, expected {base.rows.shape}")
    utils = [[] for _ in range(len(alts) + 1)]
    for chunk in _decoded_chunks(cfg, cb, range(trials)):
        for got, response in zip(utils, [base, *alts]):
            got.append(_act(cfg, chunk, response)[3])
    means = np.array([np.concatenate(u).mean() for u in utils])
    return means[1:] - means[0]


def deviation_test(cfg: CodingConfig, cb: Codebook,
                   alt_response: StochasticMatrix, trials: int) -> float:
    """Gap of a single alternative response; positive means the prescribed
    response leaves utility on the table."""
    return float(deviation_gaps(cfg, cb, [alt_response], trials)[0])


@dataclass(frozen=True)
class AuditResult:
    mean_l1_belief: float
    ceiling: float
    successes: int
    trials: int


def posterior_belief_audit(cfg: CodingConfig, cb: Codebook,
                           trials: int) -> AuditResult:
    """Exact per-position belief audit against the single-letter conditional.

    For each successful trial, enumerates every binary source block, weights
    it by the prior and the encoding rule (uniform over qualifying codewords),
    conditions on the decoded word, and compares each position's belief with
    the target's conditional of source given word symbol. Reports the mean
    over trials of the per-position average L1 gap, alongside the asymptotic
    ceiling 2 sqrt(ln2 * eps_typ).
    """
    prior = cfg.prior
    if len(prior) != 2:
        raise ValueError("posterior_belief_audit: binary source alphabets only")
    if cfg.n > 16:
        raise ValueError(f"posterior_belief_audit: n = {cfg.n} too large; "
                         f"enumeration is capped at n = 16")
    total = (1 << cfg.n) * cb.size
    if total > 1 << 26:
        raise ValueError(f"posterior_belief_audit: enumeration of {total} "
                         f"(source, codeword) pairs exceeds the 2^26 bound")
    n = cfg.n
    blocks = ((np.arange(1 << n, dtype=np.int64)[:, None]
               >> np.arange(n, dtype=np.int64)) & 1).astype(np.int16)
    ones = blocks.sum(axis=1)
    weights = prior.probs[0] ** (n - ones) * prior.probs[1] ** ones

    bits = blocks.astype(np.float64)
    typical = np.empty(((1 << n), cb.size), dtype=bool)
    step = _chunk_rows(cb)
    for s in range(0, 1 << n, step):
        typical[s:s + step] = _typical(blocks[s:s + step], cb.w_tables,
                                       cfg.target_uw, cfg)
    cover = typical.sum(axis=1)
    inv_cover = np.divide(1.0, cover, out=np.zeros(cover.shape), where=cover > 0)

    cond_uw = conditional(marginal(cfg.target, ("u", "w")), "w")
    q1_by_w = cond_uw.rows[:, 1]

    gaps = []
    for chunk in _decoded_chunks(cfg, cb, range(trials)):
        # a successful trial decoded the word it chose, so its index is >= 0
        for m in chunk.decoded[_act(cfg, chunk, cfg.response)[0]].tolist():
            wts = weights * typical[:, m] * inv_cover
            z = wts.sum()
            if z <= 0:
                continue
            belief1 = (wts @ bits) / z
            q1 = q1_by_w[cb.w_words[m].astype(np.intp)]
            gaps.append(float(np.mean(2.0 * np.abs(belief1 - q1))))
    mean_gap = float(np.mean(gaps)) if gaps else math.nan
    return AuditResult(mean_l1_belief=mean_gap,
                       ceiling=2.0 * math.sqrt(math.log(2.0) * cfg.eps_typ),
                       successes=len(gaps), trials=trials)


def coding_config_from_dict(doc: dict) -> CodingConfig:
    """Build a CodingConfig from the experiment JSON schema."""
    checked_fields(doc, "experiment",
                   ("n", "rate", "seed", "prior", "signal", "response",
                    "channel", "input_dist", "phi1", "phi2"), ("eps_typ",))

    def build(field, fn):
        try:
            return fn(doc[field])
        except (ValueError, TypeError) as e:
            raise ValueError(f"experiment.{field}: {e}") from None

    prior = build("prior", Distribution)
    signal = build("signal", StochasticMatrix)
    response = build("response", StochasticMatrix)
    input_dist = build("input_dist", Distribution)
    ch_spec = doc["channel"]
    if isinstance(ch_spec, dict) and set(ch_spec) == {"bsc"}:
        channel = build("channel", lambda s: bsc(s["bsc"]))
    elif isinstance(ch_spec, dict) and set(ch_spec) == {"matrix"}:
        channel = build("channel", lambda s: StochasticMatrix(s["matrix"]))
    else:
        raise ValueError("experiment.channel: expected {\"bsc\": eps} or "
                         "{\"matrix\": rows}")
    try:
        target = compose_markov(prior, signal, response)
        return CodingConfig(n=doc["n"], rate=doc["rate"],
                            eps_typ=doc.get("eps_typ", 0.15),
                            target=target, channel=channel, input_dist=input_dist,
                            phi1=doc["phi1"], phi2=doc["phi2"], seed=doc["seed"])
    except (ValueError, TypeError) as e:
        raise ValueError(f"experiment: {e}") from None
