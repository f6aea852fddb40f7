import gc
import json
import math
import tracemalloc
import weakref
from importlib import resources
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from infodesign import coding
from infodesign.channel import bsc, capacity
from infodesign.coding import (MEMORY_CAP_BYTES, MEMORY_CAP_WORDS, TYPE_ATOL,
                               Codebook, CodingConfig, TrialResult,
                               _pair_type_l1, coding_config_from_dict,
                               decode, deviation_gaps, deviation_test, encode,
                               generate_actions, generate_codebook,
                               posterior_belief_audit,
                               run_experiment, run_trial, single_letter_utilities,
                               transmit, trial_streams)
from infodesign.mac import build_scenario, default_config
from infodesign.persuasion import Block, solve_equilibrium
from infodesign.prob import (Distribution, JointDistribution, StochasticMatrix,
                             binary_entropy, compose_markov, marginal,
                             mutual_information)

UNIFORM = Distribution([0.5, 0.5])
IDENTITY = StochasticMatrix([[1.0, 0.0], [0.0, 1.0]])
FLAT = StochasticMatrix([[0.5, 0.5], [0.5, 0.5]])
SIGNAL = StochasticMatrix([[0.65, 0.35], [0.35, 0.65]])
EYE = np.eye(2)

# moderately informative target: I(source; word) ~ 0.066 bits, so rates in
# (0.066, 0.714) satisfy both the covering and the packing requirement on
# a bsc(0.05) channel
TREND_TARGET = compose_markov(UNIFORM, SIGNAL, IDENTITY)


def trend_config(n, rate=0.15, eps_typ=0.5, seed=0):
    return CodingConfig(n=n, rate=rate, target=TREND_TARGET, channel=bsc(0.05),
                        input_dist=UNIFORM, phi1=EYE, phi2=EYE, seed=seed,
                        eps_typ=eps_typ)


def all_words(n):
    return ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(np.int16)


def reference_draw_iid(probs, uniforms):
    """The searchsorted draw the threshold counts replaced, kept as their
    oracle."""
    cdf = np.cumsum(probs)
    return np.minimum(np.searchsorted(cdf, uniforms, side="right"), len(cdf) - 1)


def reference_draw_rows(rows, cond, uniforms):
    """The (..., K) cdf-gather draw the threshold counts replaced, kept as
    their oracle."""
    cdf = np.cumsum(rows, axis=1)[np.asarray(cond, dtype=np.intp)]
    return np.minimum((uniforms[..., None] >= cdf).sum(axis=-1), rows.shape[1] - 1)


def reference_sequences(cfg, cb, t, response):
    """The per-trial pipeline the batched one replaced, kept as its oracle:
    trial t's source block, chosen index, decoded index, word and actions.

    Its streams come straight from numpy, the layout spelled out: key
    (seed, tag, t), tags 1-4 for source, channel, actions and encoder."""
    source, channel, actions, encoder = (
        np.random.default_rng(np.random.SeedSequence((cfg.seed, tag, t)))
        for tag in (1, 2, 3, 4))
    radius = cfg.typicality_radius + TYPE_ATOL
    u = reference_draw_iid(cfg.prior.probs, source.random(cfg.n))
    hits = np.flatnonzero(_pair_type_l1(u, cb.w_tables, cfg.target_uw) <= radius)
    m = (None if hits.size == 0 else int(hits[0]) if hits.size == 1
         else int(hits[encoder.integers(hits.size)]))
    y = reference_draw_rows(cfg.channel.rows,
                            cb.x_words[m if m is not None else 0],
                            channel.random(cfg.n))
    hits = np.flatnonzero(_pair_type_l1(y, cb.x_tables, cfg.target_yx) <= radius)
    m_hat = int(hits[0]) if hits.size == 1 else None
    w = cb.w_words[m_hat] if m_hat is not None else np.zeros(cfg.n, np.int16)
    v = reference_draw_rows(response.rows, w, actions.random(cfg.n))
    return u, m, m_hat, w, v


def reference_trial(cfg, cb, t, response=None):
    """run_trial as it stood before trials were batched: every TrialResult
    of the batched pipeline must equal this one field for field."""
    u, m, m_hat, w, v = reference_sequences(cfg, cb, t, response or cfg.response)
    counts = np.zeros(cfg.target.probs.shape)
    np.add.at(counts, (u, w, v), 1.0)
    l1 = float(np.abs(counts / cfg.n - cfg.target.probs).sum())
    ok = (m is not None and m_hat == m
          and l1 <= cfg.typicality_radius + TYPE_ATOL)
    return TrialResult(error_event=not ok, chosen_m=m, decoded_m=m_hat,
                       l1_to_target=l1,
                       util1_n=float(cfg.phi1[u, v].mean()),
                       util2_n=float(cfg.phi2[u, v].mean()))


# run_experiment's result columns and the TrialResult field each one holds
COLUMNS = {"error": "error_event", "chosen_m": "chosen_m",
           "decoded_m": "decoded_m", "l1_to_target": "l1_to_target",
           "util1": "util1_n", "util2": "util2_n"}


def columns(summary):
    """A summary's result columns as lists, each checked for its dtype."""
    kinds = {"error": np.int8, "chosen_m": object, "decoded_m": object}
    assert list(summary.results) == list(COLUMNS)
    for name, column in summary.results.items():
        assert column.dtype == kinds.get(name, np.float64)
        assert len(column) == summary.trials
    return {name: column.tolist() for name, column in summary.results.items()}


def reference_columns(results):
    """TrialResults laid out as run_experiment's columns, field for field."""
    return {name: [getattr(r, field) for r in results]
            for name, field in COLUMNS.items()}


def ternary_config(n, seed=0):
    """Source, word, action and channel alphabets of three symbols each."""
    rng = np.random.default_rng(seed)
    target = compose_markov(
        Distribution([0.2, 0.5, 0.3]),
        StochasticMatrix([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.1, 0.1, 0.8]]),
        StochasticMatrix([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1], [0.3, 0.3, 0.4]]))
    channel = StochasticMatrix([[0.9, 0.05, 0.05], [0.05, 0.9, 0.05],
                                [0.1, 0.1, 0.8]])
    return CodingConfig(n=n, rate=0.2, target=target, channel=channel,
                        input_dist=Distribution([1 / 3] * 3),
                        phi1=rng.random((3, 3)), phi2=rng.random((3, 3)),
                        seed=seed, eps_typ=0.4)


class TestConfig:
    def test_field_validation(self):
        with pytest.raises(ValueError, match="n"):
            trend_config(0)
        with pytest.raises(ValueError, match="rate"):
            trend_config(20, rate=-0.1)
        with pytest.raises(ValueError, match="eps_typ"):
            trend_config(20, eps_typ=0.0)
        with pytest.raises(ValueError, match="eps_typ"):
            trend_config(20, eps_typ=1.0)
        with pytest.raises(ValueError, match="seed"):
            trend_config(20, seed=-1)

    def test_bool_is_not_an_integer(self):
        # JSON true and false arrive as bools, which isinstance counts as int
        with pytest.raises(ValueError, match="n = True must be an integer"):
            trend_config(True)
        with pytest.raises(ValueError, match="seed = False must be a "):
            trend_config(20, seed=False)
        assert trend_config(np.int64(20), seed=np.int64(1)).seed == 1

    def test_eps_typ_defaults(self):
        cfg = CodingConfig(n=20, rate=0.15, target=TREND_TARGET,
                           channel=bsc(0.05), input_dist=UNIFORM,
                           phi1=EYE, phi2=EYE, seed=0)
        assert cfg.eps_typ == 0.15

    def test_target_must_factor(self):
        # source copied straight into the action axis, word independent:
        # no (prior, signal, response) chain reproduces it
        probs = np.zeros((2, 2, 2))
        for u in range(2):
            for w in range(2):
                probs[u, w, u] = 0.25
        twisted = JointDistribution(probs, axes=("u", "w", "v"))
        with pytest.raises(ValueError, match="factor"):
            CodingConfig(n=4, rate=0.5, target=twisted, channel=bsc(0.1),
                         input_dist=UNIFORM, phi1=EYE, phi2=EYE, seed=0,
                         eps_typ=0.2)

    def test_input_dist_must_match_channel(self):
        with pytest.raises(ValueError, match="input"):
            CodingConfig(n=4, rate=0.5, target=TREND_TARGET, channel=bsc(0.1),
                         input_dist=Distribution([0.2, 0.3, 0.5]),
                         phi1=EYE, phi2=EYE, seed=0, eps_typ=0.2)

    def test_phi_shape_checked(self):
        with pytest.raises(ValueError, match="phi1"):
            CodingConfig(n=4, rate=0.5, target=TREND_TARGET, channel=bsc(0.1),
                         input_dist=UNIFORM, phi1=np.ones((2, 3)), phi2=EYE,
                         seed=0, eps_typ=0.2)
        with pytest.raises(ValueError, match="phi2"):
            CodingConfig(n=4, rate=0.5, target=TREND_TARGET, channel=bsc(0.1),
                         input_dist=UNIFORM, phi1=EYE,
                         phi2=np.array([[1.0, np.inf], [0.0, 1.0]]),
                         seed=0, eps_typ=0.2)

    def test_memory_cap(self):
        with pytest.raises(ValueError, match="33554432"):
            trend_config(25, rate=1.0)
        assert 2 ** 25 > MEMORY_CAP_WORDS

    @pytest.mark.parametrize("n,rate,match", [
        (10000, 0.15, r"needs 2\^1500 words"), (1, 1e308, r"needs 2\^1e\+308 words"),
        (20, 1e308, r"needs 2\^inf words"),
        (10 ** 400, 0.15, r"n = 1\.000000e\+400 must be"),
        (2 ** 33 + 1, 0.0, "must be an integer in")])
    def test_memory_cap_before_the_size(self, n, rate, match):
        """2^(n R) overflows a float past n R = 1024, and n R overflows for
        n past 2^1024: both are refused by the caps before either is formed."""
        with pytest.raises(ValueError, match=match):
            trend_config(n, rate=rate)

    def test_target_axes_must_be_u_w_v(self):
        """The target's dimensions are read as (u, w, v): the same valid
        chain with its axes named in another order is refused as such, not
        as a chain that does not factor."""
        swapped = JointDistribution(TREND_TARGET.probs.transpose(1, 0, 2),
                                    axes=("w", "u", "v"))
        with pytest.raises(ValueError, match=r"target axes \('w', 'u', 'v'\) must "
                                             r"be \('u', 'w', 'v'\)"):
            CodingConfig(n=4, rate=0.5, target=swapped, channel=bsc(0.1),
                         input_dist=UNIFORM, phi1=EYE, phi2=EYE, seed=0)

    def test_byte_cap(self):
        # checked on the config alone: neither codebook is ever allocated
        with pytest.raises(ValueError, match="bytes"):
            trend_config(160, rate=0.15)
        cfg = trend_config(40, rate=0.6)
        assert cfg.codebook_size == MEMORY_CAP_WORDS
        # a word: two int16 words of 40 symbols, one 64-bit plane for each
        # binary alphabet, and a 1-byte count per symbol of each
        assert cfg.codebook_bytes == MEMORY_CAP_WORDS * (2 * 2 * 40 + 2 * 8
                                                         + 2 + 2)
        assert cfg.codebook_bytes <= MEMORY_CAP_BYTES

    def test_byte_cap_counts_one_table_per_extra_symbol(self):
        wide = CodingConfig(n=20, rate=0.3,
                            target=compose_markov(UNIFORM, StochasticMatrix(
                                [[0.4, 0.3, 0.2, 0.1], [0.1, 0.2, 0.3, 0.4]]),
                                StochasticMatrix([[1.0, 0.0]] * 4)),
                            channel=bsc(0.05), input_dist=UNIFORM,
                            phi1=EYE, phi2=EYE, seed=0)
        # three planes and four counts for the four word symbols, one plane
        # and two counts for the binary input
        assert wide.codebook_bytes == 64 * (2 * 2 * 20 + 4 * 8 + 4 + 2)

    def test_codebook_size_values(self):
        assert trend_config(20).codebook_size == 8
        assert trend_config(60).codebook_size == 512
        assert trend_config(20, rate=0.21).codebook_size == 19
        assert trend_config(20, rate=0.0).codebook_size == 1

    def test_codebook_size_exact_power_guard(self):
        # 2^(20 * 0.4) is exactly 256; the ceiling must not round it to 257
        assert trend_config(20, rate=0.4).codebook_size == 256

    def test_typicality_radius_scaling(self):
        assert trend_config(20).typicality_radius == pytest.approx(0.5)
        assert trend_config(80).typicality_radius == pytest.approx(0.25)
        assert trend_config(5).typicality_radius == pytest.approx(1.0)

    def test_marginal_views(self):
        cfg = trend_config(20)
        assert np.allclose(cfg.prior.probs, UNIFORM.probs)
        assert np.allclose(cfg.signal.rows, SIGNAL.rows)
        assert np.allclose(cfg.response.rows, IDENTITY.rows)

    @given(n=st.integers(1, 30), rate=st.floats(0.0, 0.8))
    @settings(max_examples=60, deadline=None)
    def test_codebook_size_is_valid_ceiling(self, n, rate):
        cfg = trend_config(n, rate=rate)
        m = cfg.codebook_size
        assert m >= 1
        assert m < 2.0 ** (n * rate) + 1.0
        assert m >= 2.0 ** (n * rate) * (1.0 - 1e-9) - 1e-9


class TestCodebook:
    def test_shape_and_dtype(self):
        cb = generate_codebook(trend_config(20))
        assert cb.size == 8 and cb.n == 20
        assert cb.w_words.shape == (8, 20) == cb.x_words.shape
        assert cb.w_words.dtype == np.int16
        assert not cb.w_words.flags.writeable

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            Codebook(np.zeros((4, 8), np.int16), np.zeros((4, 9), np.int16))
        with pytest.raises(ValueError, match="shape"):
            Codebook(np.zeros(8, np.int16), np.zeros(8, np.int16))

    def test_empty_codebook_rejected(self):
        # trials are chunked by codebook size, and an empty one has no word 0
        # to send when the encoder finds no cover
        with pytest.raises(ValueError, match="one word"):
            Codebook(np.zeros((0, 8), np.int16), np.zeros((0, 8), np.int16))

    def test_seed_determinism(self):
        a = generate_codebook(trend_config(20))
        b = generate_codebook(trend_config(20))
        c = generate_codebook(trend_config(20, seed=1))
        assert np.array_equal(a.w_words, b.w_words)
        assert np.array_equal(a.x_words, b.x_words)
        assert not np.array_equal(a.w_words, c.w_words)

    def test_symbol_frequencies(self):
        # uniform word marginal and uniform channel input: 5120 draws each,
        # ones within 3 sigma of half
        cb = generate_codebook(trend_config(20, rate=0.4))
        total = 256 * 20
        bound = 3.0 * math.sqrt(total * 0.25)
        assert abs(cb.w_words.sum() - total / 2) <= bound
        assert abs(cb.x_words.sum() - total / 2) <= bound
        assert set(np.unique(cb.w_words)) <= {0, 1}


class TestEncoder:
    # identity-signal target makes the typical set transparent: a word
    # qualifies iff it tracks the source block closely
    IDENT_CFG = CodingConfig(n=20, rate=0.1,
                             target=compose_markov(UNIFORM, IDENTITY, IDENTITY),
                             channel=bsc(0.0), input_dist=UNIFORM,
                             phi1=EYE, phi2=EYE, seed=0, eps_typ=0.15)
    BALANCED = np.array([0, 1] * 10, dtype=np.int16)

    def test_single_qualifier_found(self):
        junk = np.zeros(20, np.int16)
        cb = Codebook(np.stack([junk, self.BALANCED]),
                      np.stack([junk, self.BALANCED]))
        m = encode(self.BALANCED, cb, self.IDENT_CFG,
                   trial_streams(0, 0).encoder)
        assert m == 1

    def test_no_cover_returns_none(self):
        cb = Codebook(np.zeros((1, 20), np.int16), np.zeros((1, 20), np.int16))
        assert encode(self.BALANCED, cb, self.IDENT_CFG,
                      trial_streams(0, 0).encoder) is None

    def test_uniform_choice_among_qualifiers(self):
        words = np.stack([self.BALANCED, self.BALANCED,
                          np.zeros(20, np.int16)])
        cb = Codebook(words, words)
        picks = {encode(self.BALANCED, cb, self.IDENT_CFG,
                        trial_streams(0, t).encoder) for t in range(30)}
        assert picks == {0, 1}

    def test_cover_fails_persistently_below_rate_bound(self):
        # rate under the signal's information rate: no codebook growth can
        # keep up with the covering requirement
        rate_needed = mutual_information(marginal(TREND_TARGET, ("u", "w")))
        assert 0.02 < rate_needed
        for n in (20, 40, 60):
            s = run_experiment(trend_config(n, rate=0.02, eps_typ=0.15), 100)
            assert s.nocover_rate >= 0.5


class TestChannelPass:
    def test_noiseless_is_identity(self):
        x = np.array([0, 1, 1, 0, 1], np.int16)
        y = transmit(x, bsc(0.0), trial_streams(0, 0).channel)
        assert np.array_equal(y, x)

    def test_flip_fraction(self):
        x = np.zeros(10000, np.int16)
        y = transmit(x, bsc(0.25), trial_streams(0, 0).channel)
        frac = y.mean()
        assert abs(frac - 0.25) <= 3.0 * math.sqrt(0.25 * 0.75 / 10000)

    def test_half_noise_destroys_input(self):
        x = np.zeros(10000, np.int16)
        y = transmit(x, bsc(0.5), trial_streams(0, 1).channel)
        assert abs(y.mean() - 0.5) <= 3.0 * 0.5 / 100.0


class TestDecoder:
    CFG = TestEncoder.IDENT_CFG
    BALANCED = TestEncoder.BALANCED

    def test_unique_typical_word_recovered(self):
        comp = (1 - self.BALANCED).astype(np.int16)
        cb = Codebook(np.stack([self.BALANCED, comp]),
                      np.stack([self.BALANCED, comp]))
        assert decode(self.BALANCED, cb, self.CFG) == 0
        assert decode(comp, cb, self.CFG) == 1

    def test_ambiguity_returns_none(self):
        cb = Codebook(np.stack([self.BALANCED, self.BALANCED]),
                      np.stack([self.BALANCED, self.BALANCED]))
        assert decode(self.BALANCED, cb, self.CFG) is None

    def test_no_match_returns_none(self):
        junk = np.zeros((1, 20), np.int16)
        assert decode(self.BALANCED, Codebook(junk, junk), self.CFG) is None


def pair_type_l1_oracle(seq, words, target):
    """The per-(a, b) boolean scan the count products replaced, kept as
    their oracle."""
    n = seq.size
    dist = np.zeros(words.shape[0])
    for a in range(target.shape[0]):
        cols = words[:, seq == a]
        for b in range(target.shape[1]):
            cnt = (cols == b).sum(axis=1) if cols.shape[1] else 0.0
            dist += np.abs(cnt / n - target[a, b])
    return dist


@st.composite
def scan_cases(draw):
    """A source block, a codebook and a (source, word) target table; the
    block may miss one source symbol and the codebook its top symbols."""
    ka, kb = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    n, m = draw(st.integers(1, 40)), draw(st.integers(1, 30))
    absent = draw(st.none() | st.integers(0, ka - 1))
    present = [a for a in range(ka) if a != absent]
    seq = draw(arrays(np.int16, n, elements=st.sampled_from(present)))
    top = draw(st.integers(0, kb - 1))
    words = draw(arrays(np.int16, (m, n), elements=st.integers(0, top)))
    weights = draw(arrays(float, (ka, kb),
                          elements=st.floats(0.01, 1.0)))
    return seq, words, weights / weights.sum()


@st.composite
def long_scan_cases(draw):
    """scan_cases at blocks of up to 200 symbols, four 64-bit words a plane,
    drawn often at the word edges 63, 64, 65 and 128; the codebook may also
    miss a symbol below its top one."""
    ka, kb = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    n = draw(st.sampled_from([63, 64, 65, 128, 129, 200]) | st.integers(1, 200))
    m = draw(st.integers(1, 12))
    absent = draw(st.none() | st.integers(0, ka - 1))
    seq = draw(arrays(np.int16, n, elements=st.sampled_from(
        [a for a in range(ka) if a != absent])))
    top = draw(st.integers(0, kb - 1))
    gap = draw(st.none() | st.integers(0, top))
    symbols = [b for b in range(top + 1) if b != gap] or [top]
    words = draw(arrays(np.int16, (m, n), elements=st.sampled_from(symbols)))
    weights = draw(arrays(float, (ka, kb), elements=st.floats(0.01, 1.0)))
    return seq, words, weights / weights.sum()


class TestTypeScan:
    @given(case=long_scan_cases())
    @settings(max_examples=150, deadline=None)
    def test_multiword_planes_match_pairwise_oracle(self, case):
        """Blocks past 64 symbols pack a plane into several words: every
        distance, alone and as a stack row, is the oracle's bits."""
        seq, words, target = case
        tables = Codebook(words, words).w_tables
        assert tables.planes.shape[1] == -(-seq.size // 64)
        want = pair_type_l1_oracle(seq, words, target)
        assert np.array_equal(_pair_type_l1(seq, tables, target), want)
        stack = _pair_type_l1(np.stack([seq[::-1], seq]), tables, target)
        assert np.array_equal(stack[1], want)

    @pytest.mark.parametrize("n", [64, 65, 128, 200, 255, 256, 300])
    def test_word_edges_match_pairwise_oracle(self, n):
        """Blocks at the 64-bit word edges, and past 255 symbols, where the
        counts take two bytes."""
        rng = np.random.default_rng(n)
        for ka, kb in [(2, 2), (3, 4), (4, 2)]:
            target = rng.random((ka, kb))
            target /= target.sum()
            seqs = rng.integers(0, ka, (5, n)).astype(np.int16)
            words = rng.integers(0, kb, (9, n)).astype(np.int16)
            got = _pair_type_l1(seqs, Codebook(words, words).x_tables, target)
            for row, seq in zip(got, seqs):
                assert np.array_equal(row, pair_type_l1_oracle(seq, words, target))

    @given(case=scan_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_pairwise_oracle(self, case):
        seq, words, target = case
        got = _pair_type_l1(seq, Codebook(words, words).w_tables, target)
        assert np.array_equal(got, pair_type_l1_oracle(seq, words, target))

    @given(case=scan_cases())
    @settings(max_examples=100, deadline=None)
    def test_stack_rows_match_single_sequences(self, case):
        seq, words, target = case
        stack = np.stack([seq, seq[::-1], np.roll(seq, 1), np.zeros_like(seq)])
        tables = Codebook(words, words).w_tables
        got = _pair_type_l1(stack, tables, target)
        assert got.shape == (4, words.shape[0])
        for row, one in zip(got, stack):
            assert np.array_equal(row, _pair_type_l1(one, tables, target))
            assert np.array_equal(row, pair_type_l1_oracle(one, words, target))

    @pytest.mark.parametrize("n,m", [(1, 1), (1, 5), (7, 1)])
    def test_smallest_blocks_and_codebooks(self, n, m):
        rng = np.random.default_rng(n * 10 + m)
        target = rng.random((3, 3))
        target /= target.sum()
        for _ in range(20):
            seq = rng.integers(0, 3, n).astype(np.int16)
            words = rng.integers(0, 3, (m, n)).astype(np.int16)
            got = _pair_type_l1(seq, Codebook(words, words).x_tables, target)
            assert np.array_equal(got, pair_type_l1_oracle(seq, words, target))

    def test_codebook_scans_match_oracle(self):
        cfg = trend_config(60)
        cb = generate_codebook(cfg)
        for t in range(20):
            u_seq = reference_sequences(cfg, cb, t, cfg.response)[0]
            y_seq = transmit(cb.x_words[t], cfg.channel,
                             trial_streams(cfg.seed, t).channel)
            for seq, tables, words, target in (
                    (u_seq, cb.w_tables, cb.w_words, cfg.target_uw),
                    (y_seq, cb.x_tables, cb.x_words, cfg.target_yx)):
                assert np.array_equal(_pair_type_l1(seq, tables, target),
                                      pair_type_l1_oracle(seq, words, target))

    def test_tables_die_with_their_codebook(self):
        cfg = trend_config(40)
        refs = []
        for seed in (0, 1):
            cb = generate_codebook(trend_config(40, seed=seed))
            run_trial(cfg, cb, 0)
            for tables in (cb.w_tables, cb.x_tables):
                assert tables.planes.shape == (1, 1, cb.size)
                assert tables.counts.shape == (2, cb.size)
            refs.append(weakref.ref(cb))
            del cb
        gc.collect()
        assert [r() for r in refs] == [None, None]

    def test_negative_symbols_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Codebook(np.array([[0, -1]], np.int16), np.zeros((1, 2), np.int16))


@st.composite
def draw_cases(draw):
    """Rows over 1-5 symbols, some with zero entries and some whose cdf ends
    below 1, condition symbols, and uniforms that often sit exactly on a cdf
    entry."""
    k, r = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    rows = draw(arrays(float, (r, k), elements=st.sampled_from(
        [0.0, 0.1, 0.2, 0.25, 0.3, 1 / 3, 0.5, 0.7])))
    rows = rows / np.maximum(rows.sum(axis=1, keepdims=True), 1.0)
    cond = draw(arrays(np.int16, 30, elements=st.integers(0, r - 1)))
    edges = np.unique(np.cumsum(rows, axis=1))
    uniforms = draw(arrays(float, 30, elements=st.sampled_from(edges.tolist())
                           | st.floats(0.0, 1.0, exclude_max=True)))
    return rows, cond, uniforms


class TestDraws:
    """The threshold-count draws equal the searchsorted and cdf-gather draws
    they replaced, bit for bit."""

    @given(case=draw_cases())
    @settings(max_examples=200, deadline=None)
    def test_rows_match_cdf_gather(self, case):
        rows, cond, uniforms = case
        got = coding._draw_rows(rows, cond, uniforms)
        assert got.dtype == np.int16
        assert np.array_equal(got, reference_draw_rows(rows, cond, uniforms))
        stacked = coding._draw_rows(rows, cond.reshape(5, 6), uniforms.reshape(5, 6))
        assert np.array_equal(stacked.ravel(), got)

    @given(case=draw_cases())
    @settings(max_examples=200, deadline=None)
    def test_iid_matches_searchsorted(self, case):
        rows, _, uniforms = case
        # a Distribution's probs, which need not sum to 1 here
        got = coding._draw_iid(SimpleNamespace(probs=rows[0]),
                               uniforms.reshape(3, 10))
        assert got.dtype == np.int16
        assert np.array_equal(got.ravel(), reference_draw_iid(rows[0], uniforms))

    def test_cdf_below_one_and_uniforms_on_the_edges(self):
        # ten tenths sum to 0.9999999999999999: a uniform above that, and
        # every uniform equal to a cdf entry, draws what searchsorted did
        probs = np.full(10, 0.1)
        cdf = np.cumsum(probs)
        assert cdf[-1] < 1.0
        uniforms = np.concatenate([cdf, np.nextafter(cdf, 0.0),
                                   [0.0, np.nextafter(1.0, 0.0)]])
        dist = Distribution(probs)
        assert np.array_equal(coding._draw_iid(dist, uniforms),
                              reference_draw_iid(probs, uniforms))
        rows = np.stack([probs, probs[::-1]])
        cond = np.arange(uniforms.size) % 2
        assert np.array_equal(coding._draw_rows(rows, cond, uniforms),
                              reference_draw_rows(rows, cond, uniforms))


class TestActions:
    def test_deterministic_response(self):
        w = np.array([0, 1, 1, 0], np.int16)
        v = generate_actions(w, IDENTITY, trial_streams(0, 0).actions)
        assert np.array_equal(v, w)
        flip = StochasticMatrix([[0.0, 1.0], [1.0, 0.0]])
        v = generate_actions(w, flip, trial_streams(0, 0).actions)
        assert np.array_equal(v, 1 - w)

    def test_uniform_response_frequencies(self):
        w = np.zeros(10000, np.int16)
        v = generate_actions(w, FLAT, trial_streams(0, 2).actions)
        assert abs(v.mean() - 0.5) <= 3.0 * 0.5 / 100.0


class TestTrial:
    def test_identity_pipeline_hits_target_exactly(self):
        # all-words codebook, noiseless channel, copy response: every
        # successful trial realizes the target type with zero distance
        n = 10
        cfg = CodingConfig(n=n, rate=1.0,
                           target=compose_markov(UNIFORM, IDENTITY, IDENTITY),
                           channel=bsc(0.0), input_dist=UNIFORM,
                           phi1=EYE, phi2=EYE, seed=0, eps_typ=0.1)
        cb = Codebook(all_words(n), all_words(n))
        results = [run_trial(cfg, cb, t) for t in range(50)]
        succ = [r for r in results if not r.error_event]
        assert len(succ) == 10
        assert all(r.l1_to_target == 0.0 for r in succ)
        assert all(r.chosen_m == r.decoded_m for r in succ)

    def test_error_event_definition(self):
        cfg = trend_config(40)
        cb = generate_codebook(cfg)
        tol = cfg.typicality_radius + 1e-12
        seen_error = seen_success = False
        for t in range(200):
            r = run_trial(cfg, cb, t)
            ok = (r.chosen_m is not None and r.decoded_m == r.chosen_m
                  and r.l1_to_target <= tol)
            assert r.error_event == (not ok)
            seen_error |= r.error_event
            seen_success |= not r.error_event
        assert seen_error and seen_success

    def test_utilities_match_empirical_joint(self):
        # q(u, v) rebuilt from the sequences of a replay of trial t
        cfg = trend_config(20)
        cb = generate_codebook(cfg)
        for t in range(20):
            r = run_trial(cfg, cb, t)
            u_seq, _, _, _, v_seq = reference_sequences(cfg, cb, t, cfg.response)
            q_uv = np.zeros(cfg.phi1.shape)
            np.add.at(q_uv, (u_seq.astype(np.intp), v_seq.astype(np.intp)), 1.0)
            q_uv /= cfg.n
            assert abs(r.util1_n - (q_uv * cfg.phi1).sum()) <= 1e-12
            assert abs(r.util2_n - (q_uv * cfg.phi2).sum()) <= 1e-12

    def test_response_override_changes_actions_only(self):
        cfg = trend_config(20)
        cb = generate_codebook(cfg)
        flip = StochasticMatrix([[0.0, 1.0], [1.0, 0.0]])
        base = run_trial(cfg, cb, 3)
        overridden = run_trial(cfg, cb, 3, response=flip)
        assert overridden.chosen_m == base.chosen_m
        assert overridden.decoded_m == base.decoded_m
        assert overridden.util1_n != base.util1_n


class TestBatchedPipeline:
    """Every trial the batched pipeline gives, as a row of run_experiment's
    columns and as run_trial's chunk of one, equals the per-trial oracle's."""

    @pytest.mark.parametrize("cfg", [trend_config(1), trend_config(20),
                                     trend_config(80), ternary_config(1),
                                     ternary_config(20, seed=3)],
                             ids=["n1", "n20", "n80", "ternary_n1",
                                  "ternary_n20"])
    def test_matches_per_trial_reference(self, cfg):
        cb = generate_codebook(cfg)
        trials = 40
        want = [reference_trial(cfg, cb, t) for t in range(trials)]
        assert columns(run_experiment(cfg, trials)) == reference_columns(want)
        assert [run_trial(cfg, cb, t) for t in range(0, trials, 9)] == want[::9]

    @pytest.mark.parametrize("cfg", [trend_config(20), ternary_config(7)],
                             ids=["binary", "ternary"])
    def test_response_override_matches_reference(self, cfg):
        cb = generate_codebook(cfg)
        k = cfg.response.rows.shape
        alt = StochasticMatrix(np.full(k, 1.0 / k[1]))
        assert ([run_trial(cfg, cb, t, response=alt) for t in range(30)]
                == [reference_trial(cfg, cb, t, alt) for t in range(30)])

    def test_chunk_boundaries_do_not_move_the_trials(self, monkeypatch):
        # chunks of 3 trials, which do not divide the 10 trials: bound by the
        # pairs (64 words of 40 symbols) or by the symbols (49 words of 80)
        for cfg, chunk_pairs in [(trend_config(40), 3 * 64 + 1),
                                 (trend_config(80, rate=0.07), 3 * 80 + 1)]:
            cb = generate_codebook(cfg)
            want = [reference_trial(cfg, cb, t) for t in range(10)]
            monkeypatch.setattr(coding, "CHUNK_PAIRS", chunk_pairs)
            assert [len(c.chosen) for c in
                    coding._decoded_chunks(cfg, cb, range(10))] == [3, 3, 3, 1]
            assert columns(run_experiment(cfg, 10)) == reference_columns(want)
            monkeypatch.undo()

    def test_long_blocks_of_a_small_codebook_scan_in_small_chunks(self):
        """A chunk holds at most CHUNK_PAIRS symbols a stage, so a one-word
        codebook with long blocks keeps memory per trial O(n), not a
        CHUNK_PAIRS-trial stack of blocks."""
        cfg = trend_config(20000, rate=0.0)
        assert cfg.codebook_size == 1
        tracemalloc.start()
        try:
            run_experiment(cfg, 200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20

    def test_counters_split_the_failures(self):
        s = run_experiment(trend_config(20, rate=0.15, eps_typ=0.3), 200)
        c = s.counters
        assert c["trials"] == 200 and c["errors"] == round(200 * s.error_rate)
        got = columns(s)
        assert c["errors"] == sum(got["error"])
        assert c["nocover"] == got["chosen_m"].count(None) > 0
        assert (c["decode_no_typical"] + c["decode_several_typical"]
                == got["decoded_m"].count(None))
        assert c["decode_no_typical"] > 0 and c["decode_several_typical"] > 0

    def test_counters_give_the_encoder_cover_quantiles(self):
        """The cover counters are the quantiles of each source block's count
        of typical words, as the pairwise oracle counts them."""
        cfg = trend_config(20, rate=0.15, eps_typ=0.3)
        cb = generate_codebook(cfg)
        radius = cfg.typicality_radius + TYPE_ATOL
        cover = np.array([(pair_type_l1_oracle(
            reference_sequences(cfg, cb, t, cfg.response)[0], cb.w_words,
            cfg.target_uw) <= radius).sum() for t in range(200)])
        c = run_experiment(cfg, 200).counters
        assert c["cover_min"] == cover.min() == 0 < c["nocover"]
        assert c["cover_max"] == cover.max() > 1
        assert c["cover_median"] == float(np.median(cover))
        assert c["cover_p90"] == float(np.quantile(cover, 0.9))
        assert c["nocover"] == (cover == 0).sum()

    def test_counters_mean_the_error_free_utilities(self):
        s = run_experiment(trend_config(20, rate=0.15, eps_typ=0.3), 200)
        ok = s.results["error"] == 0
        assert 0 < ok.sum() < 200
        for k in (1, 2):
            assert s.counters[f"ok_mean_util{k}"] == float(
                s.results[f"util{k}"][ok].mean())
        failed = run_experiment(trend_config(20, rate=0.0, eps_typ=0.15, seed=1), 50)
        assert failed.error_rate == 1.0
        assert failed.counters["ok_mean_util1"] is None
        assert failed.counters["ok_mean_util2"] is None


class TestExperiment:
    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError, match="trials"):
            run_experiment(trend_config(20), 0)

    def test_single_trial_summary(self):
        s = run_experiment(trend_config(20), 1)
        assert s.trials == 1 and s.n == 20
        assert s.error_rate in (0.0, 1.0)
        assert s.mean_l1 == columns(s)["l1_to_target"][0] == s.median_l1
        assert s.hw_l1 == 0.0

    def test_seed_determinism(self):
        a = run_experiment(trend_config(20), 50)
        b = run_experiment(trend_config(20), 50)
        assert columns(a) == columns(b)
        assert a.error_rate == b.error_rate and a.mean_util1 == b.mean_util1

    def test_rate_zero_single_word_always_fails(self):
        cfg = trend_config(20, rate=0.0, eps_typ=0.15, seed=1)
        assert cfg.codebook_size == 1
        s = run_experiment(cfg, 50)
        assert s.error_rate == 1.0
        assert s.nocover_rate == 1.0

    def test_block_length_ladder_trends(self):
        # rate sits inside the feasible window; longer blocks must not get
        # worse on error rate, typing distance, or realized sender utility
        sl1, _ = single_letter_utilities(trend_config(20))
        errs, meds, gaps = [], [], []
        for n in (20, 40, 60):
            s = run_experiment(trend_config(n), 200)
            errs.append(s.error_rate)
            meds.append(s.median_l1)
            gaps.append(abs(s.mean_util1 - sl1))
        se = [math.sqrt(max(e * (1 - e), 1e-12) / 200) for e in errs]
        assert errs[1] <= errs[0] + se[0] and errs[2] <= errs[1] + se[1]
        assert meds[0] >= meds[1] >= meds[2]
        assert gaps[0] >= gaps[1] >= gaps[2]
        assert errs[2] < errs[0]

    def test_power_case_study_target_is_simulable(self):
        # block-feasible equilibrium of the power-allocation scenario,
        # re-run through the coding pipeline: realized sender utility
        # approaches the single-letter value as blocks grow
        sc = build_scenario(default_config())
        res = solve_equilibrium(sc, Block(1.0 - binary_entropy(0.25)), 1e-3)
        response = np.zeros((2, 5))
        response[0, sc.actions.index(res.receiver_actions[0])] = 1.0
        response[1, sc.actions.index(res.receiver_actions[1])] = 1.0
        sig = res.signal
        signal = [[sig.one_minus_alpha, sig.alpha], [sig.beta, sig.one_minus_beta]]
        target = compose_markov(sc.prior, StochasticMatrix(signal),
                                StochasticMatrix(response))
        rate_needed = mutual_information(marginal(target, ("u", "w")))
        assert rate_needed < 0.25 < capacity(bsc(0.05)).capacity
        gaps = []
        for n in (20, 40, 60):
            cfg = CodingConfig(n=n, rate=0.25, target=target,
                               channel=bsc(0.05), input_dist=UNIFORM,
                               phi1=np.array(sc.phi1), phi2=np.array(sc.phi2),
                               seed=0, eps_typ=0.5)
            s = run_experiment(cfg, 100)
            sl1, _ = single_letter_utilities(cfg)
            gaps.append(abs(s.mean_util1 - sl1))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 0.01


class TestDeviation:
    # prescribing the swapped response violates the receiver's best-reply
    # condition; playing the identity instead must pay
    ANTI = StochasticMatrix([[0.0, 1.0], [1.0, 0.0]])
    ANTI_CFG = CodingConfig(n=20, rate=0.15,
                            target=compose_markov(UNIFORM, SIGNAL,
                                                  StochasticMatrix([[0.0, 1.0],
                                                                    [1.0, 0.0]])),
                            channel=bsc(0.05), input_dist=UNIFORM,
                            phi1=EYE, phi2=EYE, seed=0, eps_typ=0.5)

    def test_same_response_gap_is_exactly_zero(self):
        cfg = trend_config(20)
        cb = generate_codebook(cfg)
        assert deviation_test(cfg, cb, IDENTITY, 50) == 0.0

    def test_fixing_a_bad_prescription_pays(self):
        cb = generate_codebook(self.ANTI_CFG)
        gap = deviation_test(self.ANTI_CFG, cb, IDENTITY, 100)
        assert gap > 0.01
        assert deviation_test(self.ANTI_CFG, cb, self.ANTI, 100) == 0.0

    def test_gap_vector_is_paired(self):
        cfg = trend_config(20)
        cb = generate_codebook(cfg)
        flip = StochasticMatrix([[0.0, 1.0], [1.0, 0.0]])
        gaps = deviation_gaps(cfg, cb, [IDENTITY, flip, IDENTITY], 50)
        assert gaps.shape == (3,)
        assert gaps[0] == 0.0 == gaps[2]
        assert gaps[1] < 0.0

    @pytest.mark.parametrize("n", [20, 40])
    def test_gaps_replay_run_trial(self, n):
        # both consumers replay the same trials: each gap is the mean over
        # trials of run_trial's paired utility differences
        cfg = trend_config(n)
        cb = generate_codebook(cfg)
        alts = [IDENTITY, FLAT, StochasticMatrix([[0.0, 1.0], [1.0, 0.0]]),
                StochasticMatrix([[0.8, 0.2], [0.3, 0.7]])]
        trials = 30
        gaps = deviation_gaps(cfg, cb, alts, trials)
        base = [run_trial(cfg, cb, t).util2_n for t in range(trials)]
        for gap, alt in zip(gaps, alts):
            paired = [run_trial(cfg, cb, t, response=alt).util2_n - base[t]
                      for t in range(trials)]
            assert abs(gap - np.mean(paired)) <= 1e-12

    def test_shape_mismatch_rejected(self):
        cfg = trend_config(20)
        cb = generate_codebook(cfg)
        wide = StochasticMatrix([[0.5, 0.25, 0.25], [0.2, 0.3, 0.5]])
        with pytest.raises(ValueError, match="shape"):
            deviation_gaps(cfg, cb, [wide], 10)

    def test_rejects_zero_trials(self):
        cfg = trend_config(20)
        with pytest.raises(ValueError, match="trials"):
            deviation_gaps(cfg, generate_codebook(cfg), [IDENTITY], 0)


def audit_distance_oracle(blocks, words, target):
    """The audit's float64 product per word symbol that the count kernel
    replaced, kept as its oracle: the distance of every (block, word) pair
    of a binary source, summed in (b, a) order."""
    n = blocks.shape[1]
    bits = blocks.astype(np.float64)
    dist = np.zeros((blocks.shape[0], words.shape[0]))
    for b in range(target.shape[1]):
        wb = (words == b).astype(np.float64)
        n1b = bits @ wb.T
        n0b = wb.sum(axis=1)[None, :] - n1b
        dist += np.abs(n1b / n - target[1, b])
        dist += np.abs(n0b / n - target[0, b])
    return dist


@st.composite
def audit_cases(draw):
    """A binary-source target over 2-4 word symbols, a codebook that may
    miss its top symbols, and a radius on one of the oracle's distances."""
    kw = draw(st.integers(2, 4))
    n, m = draw(st.integers(1, 10)), draw(st.integers(1, 20))
    top = draw(st.integers(0, kw - 1))
    words = draw(arrays(np.int16, (m, n), elements=st.integers(0, top)))
    weights = draw(arrays(float, (2, kw), elements=st.floats(0.01, 1.0)))
    return words, weights / weights.sum(), draw(st.integers(0, (m << n) - 1))


class TestAudit:
    @given(case=audit_cases())
    @settings(max_examples=100, deadline=None)
    def test_typical_mask_matches_product_oracle(self, case):
        words, target, pick = case
        blocks = all_words(words.shape[1])
        want = audit_distance_oracle(blocks, words, target)
        got = _pair_type_l1(blocks, Codebook(words, words).w_tables, target)
        # at most eight terms below 2 summed in another order: a few ulps
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
        radius = want.ravel()[pick] + TYPE_ATOL
        assert np.array_equal(got <= radius, want <= radius)

    def test_refuses_long_blocks(self):
        cfg = trend_config(17, rate=0.0)
        with pytest.raises(ValueError, match="16"):
            posterior_belief_audit(cfg, generate_codebook(cfg), 10)

    def test_refuses_oversized_enumeration(self):
        cfg = trend_config(16, rate=11.0 / 16.0)
        with pytest.raises(ValueError, match="2\\^26"):
            posterior_belief_audit(cfg, generate_codebook(cfg), 10)

    def test_refuses_nonbinary_source(self):
        prior3 = Distribution([1 / 3, 1 / 3, 1 / 3])
        sig3 = StochasticMatrix([[0.5, 0.5]] * 3)
        target = compose_markov(prior3, sig3, IDENTITY)
        cfg = CodingConfig(n=8, rate=0.25, target=target, channel=bsc(0.1),
                           input_dist=UNIFORM, phi1=np.ones((3, 2)),
                           phi2=np.ones((3, 2)), seed=0, eps_typ=0.3)
        with pytest.raises(ValueError, match="binary"):
            posterior_belief_audit(cfg, generate_codebook(cfg), 10)

    def test_identity_control_is_exact(self):
        # perfect copy chain with an exhaustive codebook: the conditional
        # belief collapses onto the decoded word, gap exactly zero
        n = 12
        cfg = CodingConfig(n=n, rate=1.0,
                           target=compose_markov(UNIFORM, IDENTITY, IDENTITY),
                           channel=bsc(0.0), input_dist=UNIFORM,
                           phi1=EYE, phi2=EYE, seed=0, eps_typ=0.1)
        audit = posterior_belief_audit(cfg, Codebook(all_words(n),
                                                     all_words(n)), 100)
        assert audit.mean_l1_belief == 0.0
        assert audit.successes == 24
        assert audit.trials == 100

    def test_uninformative_control_keeps_the_prior(self):
        # flat signal, uniform prior: conditioning on the decoded word moves
        # nothing, belief stays at one half up to roundoff
        cfg = CodingConfig(n=12, rate=0.25,
                           target=compose_markov(UNIFORM, FLAT, IDENTITY),
                           channel=bsc(0.1), input_dist=UNIFORM,
                           phi1=EYE, phi2=EYE, seed=0, eps_typ=0.3)
        audit = posterior_belief_audit(cfg, generate_codebook(cfg), 200)
        assert audit.successes == 93
        assert audit.mean_l1_belief <= 1e-12

    def test_informative_golden_value(self):
        cfg = CodingConfig(n=12, rate=0.15, target=TREND_TARGET,
                           channel=bsc(0.05), input_dist=UNIFORM,
                           phi1=EYE, phi2=EYE, seed=0, eps_typ=0.35)
        audit = posterior_belief_audit(cfg, generate_codebook(cfg), 400)
        assert audit.mean_l1_belief == pytest.approx(0.12116070309899998,
                                                     abs=1e-12)
        assert audit.ceiling == pytest.approx(0.9850919006792835, abs=1e-12)
        assert audit.successes == 198
        assert audit.mean_l1_belief < audit.ceiling


    def test_chunk_boundaries_do_not_move_the_audit(self, monkeypatch):
        cfg = CodingConfig(n=10, rate=0.3, target=TREND_TARGET,
                           channel=bsc(0.05), input_dist=UNIFORM,
                           phi1=EYE, phi2=EYE, seed=0, eps_typ=0.35)
        cb = generate_codebook(cfg)
        whole = posterior_belief_audit(cfg, cb, 60)
        # chunks of 7 blocks, which do not divide the 2^10 blocks
        monkeypatch.setattr(coding, "CHUNK_PAIRS", 7 * cb.size + 1)
        assert posterior_belief_audit(cfg, cb, 60) == whole
        assert whole.successes > 0 and whole.mean_l1_belief > 0

class TestStreams:
    def test_same_key_same_draws(self):
        a = trial_streams(0, 5)
        b = trial_streams(0, 5)
        assert np.array_equal(a.source.random(8), b.source.random(8))
        assert np.array_equal(a.channel.random(8), b.channel.random(8))

    def test_streams_are_separated(self):
        s = trial_streams(0, 5)
        assert not np.array_equal(s.source.random(8), s.channel.random(8))
        other = trial_streams(0, 6)
        assert not np.array_equal(trial_streams(0, 5).source.random(8),
                                  other.source.random(8))

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 96 - 1), tag=st.integers(0, 4),
           index=st.integers(0, 2 ** 24), n=st.integers(1, 64),
           k=st.integers(1, 1000))
    def test_derived_streams_are_numpys(self, seed, tag, index, n, k):
        """Keys of one to five words: a new stream, a stream in a block of
        keys and the shared generator set to a stream after another one drew
        from it all draw what default_rng(SeedSequence(key)) draws."""
        def numpy_draws(key):
            rng = np.random.default_rng(np.random.SeedSequence(key))
            return rng.random(n).tolist(), int(rng.integers(k))

        def draws(gen):
            return gen.random(n).tolist(), int(gen.integers(k))

        def stream(seed, tag, index):
            words = coding._state_words(seed, (tag,), range(index, index + 1))
            return coding._seat(coding._generator(), words[0, :, 0])

        assert draws(coding._stream(seed, tag)) == numpy_draws((seed, tag))
        assert (draws(stream(seed, tag, index))
                == numpy_draws((seed, tag, index)))
        gen = stream(seed + 1, tag, index)
        draws(gen)
        block = coding._state_words(seed, range(5), range(max(0, index - 3),
                                                          index + 1))
        assert (draws(coding._seat(gen, block[tag, :, -1]))
                == numpy_draws((seed, tag, index)))

    @pytest.mark.parametrize("seed, index", [(-1, 0), (0, -1), (-2 ** 40, 3),
                                             (0.0, 0), (0, 2.5), (0, "3"),
                                             (True, 0), (0, None)])
    def test_bad_keys_are_refused(self, seed, index):
        """A negative or non-integer key part would wrap into another key's
        uint32 words: it is refused, as SeedSequence refuses it."""
        with pytest.raises(ValueError, match="nonnegative integer"):
            trial_streams(seed, index)

    def test_bad_trial_index_refused_by_the_pipeline(self):
        cfg = trend_config(20)
        with pytest.raises(ValueError, match="nonnegative integer"):
            run_trial(cfg, generate_codebook(cfg), -1)

    @pytest.mark.parametrize("index", [2 ** 32 - 1, 2 ** 32, 2 ** 32 + 5,
                                       2 ** 64, 2 ** 70 + 3])
    def test_wide_indices_take_numpys_multiword_streams(self, index):
        got = trial_streams(7, index)
        for tag, gen in zip((1, 2, 3, 4), (got.source, got.channel,
                                           got.actions, got.encoder)):
            want = np.random.default_rng(np.random.SeedSequence((7, tag, index)))
            assert np.array_equal(gen.random(8), want.random(8))

    def test_block_across_a_word_boundary(self):
        """A block of keys whose indices pass 2^32 splits by word count and
        still gives each key numpy's state words, in order."""
        block = range(2 ** 32 - 3, 2 ** 32 + 3)
        words = coding._state_words(7, (1, 4), block)
        for j, tag in enumerate((1, 4)):
            for k, t in enumerate(block):
                want = np.random.SeedSequence((7, tag, t)).generate_state(4, np.uint64)
                assert np.array_equal(words[j, :, k], want)


def default_doc():
    """The packaged experiment document, trend_config(20) with a bsc channel."""
    return json.loads(resources.files("infodesign").joinpath(
        "data/coding_default.json").read_text())


class TestConfigIO:
    def test_missing_field_named(self):
        doc = default_doc()
        del doc["rate"]
        with pytest.raises(ValueError, match="rate"):
            coding_config_from_dict(doc)

    def test_unknown_field_rejected(self):
        doc = default_doc()
        doc["bogus"] = 1
        with pytest.raises(ValueError, match="bogus"):
            coding_config_from_dict(doc)

    def test_eps_typ_optional(self):
        doc = default_doc()
        del doc["eps_typ"]
        assert coding_config_from_dict(doc).eps_typ == 0.15

    def test_channel_spec_forms(self):
        doc = default_doc()
        cfg = coding_config_from_dict(doc)
        assert cfg.channel.rows[0, 0] == 0.95
        doc["channel"] = {"matrix": [[0.9, 0.1], [0.2, 0.8]]}
        assert coding_config_from_dict(doc).channel.rows[1, 0] == 0.2
        doc["channel"] = 0.05
        with pytest.raises(ValueError, match="channel"):
            coding_config_from_dict(doc)
        doc["channel"] = {"bsc": 0.05, "matrix": [[1, 0], [0, 1]]}
        with pytest.raises(ValueError, match="channel"):
            coding_config_from_dict(doc)

    def test_invalid_entry_names_its_field(self):
        doc = default_doc()
        doc["prior"] = [0.5, 0.6]
        with pytest.raises(ValueError, match="prior"):
            coding_config_from_dict(doc)

    def test_packaged_default_loads(self):
        cfg = coding_config_from_dict(default_doc())
        assert cfg.n == 20 and cfg.rate == 0.15 and cfg.eps_typ == 0.5
        assert cfg.seed == 0
        want = trend_config(20)
        assert np.array_equal(cfg.target.probs, want.target.probs)
        assert np.array_equal(cfg.channel.rows, want.channel.rows)
