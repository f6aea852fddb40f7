"""Monte Carlo block-coding coordination simulator.

A random codebook carries the message-bearing words (w_words) and the channel
words (x_words). Per trial: draw a source block, find a codeword whose pair
with the source block is typical (encoder), push the channel word through the
noisy channel, identify the unique typical codeword at the other end
(decoder), then emit actions symbolwise from the decoded word. The trial is
an error unless the encoder found a word, the decoder returned the same
index, and the realized (source, word, action) triple is typical.

Typicality is an L1 criterion on empirical types: a tuple qualifies when the
L1 distance between its joint type and the target distribution is at most
eps_typ * sqrt(20 / n), so the criterion tightens as blocks grow.

Randomness is split into five hierarchical streams per config seed
(codebook / source / channel / actions / encoder choice), which lets the
deviation test replay identical trials against alternative responses.
"""
from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .channel import bsc
from .prob import (Distribution, JointDistribution, StochasticMatrix,
                   checked_fields, compose_markov, conditional, marginal,
                   payoff_table)

MEMORY_CAP_WORDS = 2 ** 24
MEMORY_CAP_BYTES = 2 ** 33
TYPE_ATOL = 1e-12
# float32 holds every integer up to 2^24 exactly, so a count table in float32
# sums 0/1 products exactly for blocks up to this length
FLOAT32_EXACT = 2 ** 24
# (source block, codeword) pairs the belief audit scores per kernel call: its
# float64 count array is 8 B x |U| x |W| a pair, 2 MiB at binary alphabets
AUDIT_CHUNK_PAIRS = 2 ** 16

# stream tags under the config seed
_CODEBOOK, _SOURCE, _CHANNEL, _ACTIONS, _ENCODER = range(5)


def _stream(seed: int, tag: int, index: int | None = None) -> np.random.Generator:
    key = (seed, tag) if index is None else (seed, tag, index)
    return np.random.default_rng(np.random.SeedSequence(key))


@dataclass(frozen=True)
class TrialStreams:
    """Independent per-trial generators; pairing tests rebuild them at will."""

    source: np.random.Generator
    channel: np.random.Generator
    actions: np.random.Generator
    encoder: np.random.Generator


def trial_streams(seed: int, index: int) -> TrialStreams:
    return TrialStreams(source=_stream(seed, _SOURCE, index),
                        channel=_stream(seed, _CHANNEL, index),
                        actions=_stream(seed, _ACTIONS, index),
                        encoder=_stream(seed, _ENCODER, index))


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
        # n, seed and rate: bool (JSON true, false) subclasses int but is refused
        if (isinstance(self.n, bool) or not isinstance(self.n, (int, np.integer))
                or self.n < 1):
            raise ValueError(f"CodingConfig: n = {self.n!r} must be an integer >= 1")
        if (isinstance(self.rate, bool) or not isinstance(self.rate, numbers.Real)
                or not 0.0 <= self.rate < math.inf):
            raise ValueError(f"CodingConfig: rate = {self.rate!r} is not a number "
                             f"in [0, inf)")
        if not 0.0 < self.eps_typ < 1.0:
            raise ValueError(f"CodingConfig: eps_typ = {self.eps_typ!r} outside (0, 1)")
        if (isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer))
                or self.seed < 0):
            raise ValueError(f"CodingConfig: seed = {self.seed!r} must be a "
                             f"nonnegative integer")
        if self.target.probs.ndim != 3:
            raise ValueError("CodingConfig: target must be a joint over three axes")
        if len(self.input_dist) != self.channel.num_inputs:
            raise ValueError("CodingConfig: input_dist length does not match "
                             "the channel input alphabet")
        ku, kw, kv = self.target.probs.shape
        for name in ("phi1", "phi2"):
            object.__setattr__(self, name, payoff_table(getattr(self, name), (ku, kv),
                                                        f"CodingConfig: {name}"))
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "seed", int(self.seed))
        rebuilt = compose_markov(self.prior, self.signal, self.response,
                                 axes=self.target.axes)
        gap = float(np.abs(rebuilt.probs - self.target.probs).sum())
        if gap > 1e-9:
            raise ValueError(f"CodingConfig: target does not factor as "
                             f"prior x signal x response (L1 gap {gap:.3e})")
        if self.codebook_size > MEMORY_CAP_WORDS:
            raise ValueError(f"CodingConfig: codebook needs {self.codebook_size} "
                             f"words, above the cap of {MEMORY_CAP_WORDS}")
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
        """Bytes of the two int16 word arrays plus their indicator tables
        (`_indicator_tables`), one per symbol but the last of each alphabet."""
        tables = self.target.probs.shape[1] - 1 + self.channel.num_inputs - 1
        per_symbol = 2 * 2 + tables * np.dtype(_count_dtype(self.n)).itemsize
        return self.codebook_size * self.n * per_symbol

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
    def w_tables(self) -> np.ndarray:
        return _indicator_tables(self.w_words)

    @functools.cached_property
    def x_tables(self) -> np.ndarray:
        return _indicator_tables(self.x_words)


@dataclass(frozen=True)
class TrialResult:
    error_event: bool
    chosen_m: Optional[int]
    decoded_m: Optional[int]
    l1_to_target: float
    util1_n: float
    util2_n: float


def _draw_iid(dist: Distribution, size, rng: np.random.Generator) -> np.ndarray:
    cdf = np.cumsum(dist.probs)
    idx = np.searchsorted(cdf, rng.random(size), side="right")
    return np.minimum(idx, len(dist) - 1).astype(np.int16)


def _draw_rows(rows: np.ndarray, cond_seq: np.ndarray,
               uniforms: np.ndarray) -> np.ndarray:
    cdf = np.cumsum(rows, axis=1)[np.asarray(cond_seq, dtype=np.intp)]
    idx = (uniforms[:, None] >= cdf).sum(axis=1)
    return np.minimum(idx, rows.shape[1] - 1).astype(np.int16)


def _count_dtype(n: int):
    return np.float32 if n <= FLOAT32_EXACT else np.float64


def _indicator_tables(words: np.ndarray) -> np.ndarray:
    """(K - 1, M, n) 0/1 tables (words == b) for each symbol b below the
    largest one, K - 1; that symbol's counts follow by subtraction."""
    top = int(words.max()) if words.size else 0
    tables = np.empty((top,) + words.shape, dtype=_count_dtype(words.shape[1]))
    for b in range(top):
        np.equal(words, b, out=tables[b], casting="unsafe")
    tables.flags.writeable = False
    return tables


def _pair_type_l1(seqs: np.ndarray, tables: np.ndarray,
                  target: np.ndarray) -> np.ndarray:
    """L1 distance from each (seq, words[m]) joint type to the target table,
    for one sequence (n,) -> (M,) or a stack of them (S, n) -> (S, M).

    tables are the words' indicator tables (`_indicator_tables`). One matrix
    product against the sequences' one-hot matrices counts every joint
    symbol; the counts are exact integers, and the distances are summed in
    (a, b) order, so the result is the same bits as counting pair by pair,
    and a row of a stack the same bits as that sequence alone."""
    seqs = np.asarray(seqs)
    n = seqs.shape[-1]
    ka, kb = target.shape
    top, m = tables.shape[:2]
    onehot = np.equal.outer(seqs.reshape(-1, n), np.arange(ka)).astype(tables.dtype)
    s = onehot.shape[0]
    k = min(top, kb)
    counts = np.zeros((ka, kb, s, m))
    counts[:, :k] = (tables[:k].reshape(-1, n) @ onehot
                     ).reshape(s, k, m, ka).transpose(3, 1, 0, 2)
    if top < kb:
        # the top symbol's counts: each source symbol's count less the other
        # word symbols' (at top = 0, counts[:, 0] is that zero column itself)
        last = counts[:, top]
        np.subtract(np.add.reduce(onehot, 1).T[:, :, None], counts[:, 0],
                    out=last)
        for b in range(1, top):
            last -= counts[:, b]
    counts /= n
    counts -= target[:, :, None, None]
    np.abs(counts, out=counts)
    rows = counts.reshape(ka * kb, s, m)
    dist = rows[0].copy()
    for row in rows[1:]:
        dist += row
    return dist.reshape(seqs.shape[:-1] + (m,))


def generate_codebook(cfg: CodingConfig) -> Codebook:
    """Independent words: message words from the target's W marginal, channel
    words from the channel input law. Fully determined by cfg.seed."""
    rng = _stream(cfg.seed, _CODEBOOK)
    m = cfg.codebook_size
    q_w = marginal(cfg.target, "w")
    w_words = _draw_iid(q_w, (m, cfg.n), rng)
    x_words = _draw_iid(cfg.input_dist, (m, cfg.n), rng)
    return Codebook(w_words, x_words)


def encode(u_seq: np.ndarray, cb: Codebook, cfg: CodingConfig,
           rng: np.random.Generator) -> Optional[int]:
    """Index of a codeword jointly typical with the source block.

    Uniform choice among qualifiers (seeded); None means no cover exists.
    """
    dist = _pair_type_l1(u_seq, cb.w_tables, cfg.target_uw)
    hits = np.flatnonzero(dist <= cfg.typicality_radius + TYPE_ATOL)
    if hits.size == 0:
        return None
    if hits.size == 1:
        return int(hits[0])
    return int(hits[rng.integers(hits.size)])


def transmit(x_seq: np.ndarray, channel: StochasticMatrix,
             rng: np.random.Generator) -> np.ndarray:
    """Memoryless channel pass: one conditional draw per symbol."""
    x_seq = np.asarray(x_seq)
    return _draw_rows(channel.rows, x_seq, rng.random(x_seq.size))


def decode(y_seq: np.ndarray, cb: Codebook, cfg: CodingConfig) -> Optional[int]:
    """Unique-typicality decoding: the one codeword whose channel word pairs
    typically with the received block, or None when zero or several do."""
    dist = _pair_type_l1(y_seq, cb.x_tables, cfg.target_yx)
    hits = np.flatnonzero(dist <= cfg.typicality_radius + TYPE_ATOL)
    if hits.size == 1:
        return int(hits[0])
    return None


def generate_actions(w_seq: np.ndarray, response: StochasticMatrix,
                     rng: np.random.Generator) -> np.ndarray:
    """Symbolwise conditional draws of actions given word symbols."""
    w_seq = np.asarray(w_seq)
    return _draw_rows(response.rows, w_seq, rng.random(w_seq.size))


def _trial_pipeline(cfg: CodingConfig, cb: Codebook, streams: TrialStreams):
    """Source -> encode -> transmit -> decode on one trial's streams, the
    action stream left untouched: (source block, chosen index, decoded index,
    decoded word); a failed decode yields the fallback word of first symbols."""
    u_seq = _draw_iid(cfg.prior, cfg.n, streams.source)
    m = encode(u_seq, cb, cfg, streams.encoder)
    y_seq = transmit(cb.x_words[m if m is not None else 0], cfg.channel,
                     streams.channel)
    m_hat = decode(y_seq, cb, cfg)
    w_seq = (cb.w_words[m_hat] if m_hat is not None
             else np.zeros(cfg.n, dtype=np.int16))
    return u_seq, m, m_hat, w_seq


def run_trial(cfg: CodingConfig, cb: Codebook, t: int,
              response: StochasticMatrix | None = None) -> TrialResult:
    """One encode-transmit-decode-act round on the streams of trial t.

    A non-default response only redirects the action draws; the error event
    and empirical statistics are computed for whatever actions came out.
    """
    streams = trial_streams(cfg.seed, int(t))
    if response is None:
        response = cfg.response
    u_seq, m, m_hat, w_seq = _trial_pipeline(cfg, cb, streams)
    v_seq = generate_actions(w_seq, response, streams.actions)
    u, w, v = (seq.astype(np.intp) for seq in (u_seq, w_seq, v_seq))
    counts = np.zeros(cfg.target.probs.shape)
    np.add.at(counts, (u, w, v), 1.0)
    l1 = float(np.abs(counts / cfg.n - cfg.target.probs).sum())
    ok = (m is not None and m_hat == m
          and l1 <= cfg.typicality_radius + TYPE_ATOL)
    return TrialResult(error_event=not ok, chosen_m=m, decoded_m=m_hat,
                       l1_to_target=l1,
                       util1_n=float(cfg.phi1[u, v].mean()),
                       util2_n=float(cfg.phi2[u, v].mean()))


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
    results: tuple


def _half_width(values: np.ndarray) -> float:
    if values.size < 2:
        return 0.0
    return float(1.96 * values.std(ddof=1) / math.sqrt(values.size))


def run_experiment(cfg: CodingConfig, trials: int) -> ExperimentSummary:
    """Aggregate independent seeded trials; deterministic given cfg.seed."""
    if trials < 1:
        raise ValueError(f"run_experiment: trials = {trials!r} must be >= 1")
    cb = generate_codebook(cfg)
    results = tuple(run_trial(cfg, cb, t) for t in range(trials))
    errs = np.array([r.error_event for r in results], dtype=float)
    l1s = np.array([r.l1_to_target for r in results])
    u1 = np.array([r.util1_n for r in results])
    u2 = np.array([r.util2_n for r in results])
    p_err = float(errs.mean())
    return ExperimentSummary(
        trials=trials, n=cfg.n,
        error_rate=p_err,
        nocover_rate=float(np.mean([r.chosen_m is None for r in results])),
        decodefail_rate=float(np.mean([r.decoded_m is None for r in results])),
        mean_l1=float(l1s.mean()), median_l1=float(np.median(l1s)),
        mean_util1=float(u1.mean()), mean_util2=float(u2.mean()),
        hw_error_rate=float(1.96 * math.sqrt(max(p_err * (1 - p_err), 0.0) / trials)),
        hw_l1=_half_width(l1s), hw_util1=_half_width(u1), hw_util2=_half_width(u2),
        results=results)


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
        raise ValueError(f"deviation_gaps: trials = {trials!r} must be >= 1")
    alts = list(alt_responses)
    base = cfg.response
    for k, r in enumerate(alts):
        if r.rows.shape != base.rows.shape:
            raise ValueError(f"deviation_gaps: alternative {k} has shape "
                             f"{r.rows.shape}, expected {base.rows.shape}")
    us = np.empty((trials, cfg.n), dtype=np.int16)
    ws = np.empty((trials, cfg.n), dtype=np.int16)
    uniforms = np.empty((trials, cfg.n))
    for t in range(trials):
        streams = trial_streams(cfg.seed, t)
        us[t], _, _, ws[t] = _trial_pipeline(cfg, cb, streams)
        uniforms[t] = streams.actions.random(cfg.n)

    def mean_util2(response: StochasticMatrix) -> float:
        v = _draw_rows(response.rows, ws.ravel(), uniforms.ravel())
        return float(cfg.phi2[us.ravel().astype(np.intp),
                              v.astype(np.intp)].mean())

    base_val = mean_util2(base)
    return np.array([mean_util2(r) - base_val for r in alts])


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
    step = max(1, AUDIT_CHUNK_PAIRS // cb.size)
    for s in range(0, 1 << n, step):
        dist = _pair_type_l1(blocks[s:s + step], cb.w_tables, cfg.target_uw)
        np.less_equal(dist, cfg.typicality_radius + TYPE_ATOL,
                      out=typical[s:s + step])
    cover = typical.sum(axis=1)
    inv_cover = np.divide(1.0, cover, out=np.zeros(cover.shape), where=cover > 0)

    cond_uw = conditional(marginal(cfg.target, ("u", "w")), "w")
    q1_by_w = cond_uw.rows[:, 1]

    gaps = []
    for t in range(trials):
        res = run_trial(cfg, cb, t)
        if res.error_event or res.decoded_m is None:
            continue
        wts = weights * typical[:, res.decoded_m] * inv_cover
        z = wts.sum()
        if z <= 0:
            continue
        belief1 = (wts @ bits) / z
        q1 = q1_by_w[cb.w_words[res.decoded_m].astype(np.intp)]
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
