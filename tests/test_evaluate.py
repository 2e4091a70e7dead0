"""Embedding providers, classification metrics, caption overlap, judge,
and the ordering/counting probes."""

import hashlib
import math
import re
import time
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aqakit.evaluate import (JUDGE_PROMPT, HashedBagOfWordsProvider,
                             LabelSet, RemoteEmbeddingProvider, accuracy,
                             caption_overlap_f1, classify_corpus,
                             classify_output, cosine, counting_probe,
                             extract_first_sound, judge_instruction_following,
                             judge_rate, mean_average_precision, micro_f1,
                             order_accuracy, order_probe, parse_count,
                             pearson)
from aqakit.evaluate import probes
from aqakit.evaluate.providers import (_dense, _dot, _nonzero_terms, _norm,
                                       _token_hash, _tokens)
from aqakit.forge import ReplayLlmClient
from aqakit.synthetic import DEMO_CLASSES
from exact_match import ExactMatchProvider


class PlantedProvider:
    """Fixed vectors per text; anything unplanted is orthogonal one-hot."""

    def __init__(self, planted):
        self.name = "planted"
        self.dimension = 16
        self._planted = dict(planted)
        self._fallback = ExactMatchProvider(dimension=16)

    def terms(self, text):
        if text in self._planted:
            return _nonzero_terms(np.asarray(self._planted[text], dtype=float))
        return self._fallback.terms(text)

    def embed(self, text):
        return _dense(self.terms(text), self.dimension)


class ScaledProvider(HashedBagOfWordsProvider):
    """Hashed embeddings scaled by a per-text factor, so none is unit-norm."""

    def terms(self, text):
        scale = 0.5 + len(text)
        return {i: w * scale for i, w in super().terms(text).items()}


class CountingProvider(HashedBagOfWordsProvider):
    def __init__(self):
        super().__init__()
        self.calls = 0

    def terms(self, text):
        self.calls += 1
        return super().terms(text)


# -- providers -------------------------------------------------------------------

def test_hashed_provider_is_deterministic_unit_norm():
    p = HashedBagOfWordsProvider()
    v1 = p.embed("Dog barking Loudly")
    v2 = p.embed("dog barking loudly")
    assert p.dimension == 4096
    assert v1.shape == (4096,)
    np.testing.assert_array_equal(v1, v2)
    assert math.isclose(np.linalg.norm(v1), 1.0, rel_tol=1e-12)


def test_hashed_provider_empty_text_is_zero():
    assert np.linalg.norm(HashedBagOfWordsProvider().embed("")) == 0.0


def _hashed_reference(text, dimension=4096):
    """One MD5 and one += per token, normalized after."""
    v = np.zeros(dimension)
    for tok in re.findall(r"[a-z0-9]+", text.lower()):
        digest = hashlib.md5(tok.encode("utf-8")).digest()
        v[int.from_bytes(digest[:8], "big") % dimension] += 1.0
    n = np.linalg.norm(v)
    if n > 0:
        v /= n
    return v


_WORDS = ["dog", "bark", "siren", "rain", "engine", "bell", "7", "a1"]
HASHED_ORACLE_TEXTS = {
    "repeated": "dog dog dog bark dog bark",
    "mixed_case": "Dog BARK dOg Siren",
    "punctuation_only": "!!! ... ?? --",
    "empty": "",
    "non_ascii": "café naïve 東京 dog—bark Straße",
    "long": " ".join(_WORDS[(i * 5) % len(_WORDS)] + str(i % 37)
                     for i in range(500)),
}


@pytest.mark.parametrize("text", HASHED_ORACLE_TEXTS.values(),
                         ids=HASHED_ORACLE_TEXTS)
def test_hashed_provider_matches_per_token_reference(text):
    got = HashedBagOfWordsProvider().embed(text)
    assert got.dtype == np.float64 and got.shape == (4096,)
    assert np.array_equal(got, _hashed_reference(text))


def test_hashed_provider_subclass_buckets_into_its_own_dimension():
    class Small(HashedBagOfWordsProvider):
        dimension = 97

    text = HASHED_ORACLE_TEXTS["long"]
    # the token hashes are cached by the 4096-bucket call first
    big = HashedBagOfWordsProvider().embed(text)
    small = Small().embed(text)
    assert small.shape == (97,)
    assert np.array_equal(small, _hashed_reference(text, 97))
    assert np.array_equal(big, _hashed_reference(text))


def _dense_embed(text, dimension):
    """The dense formula the count-built embedding replaced: a bincount over
    every bucket, cast to float, divided in place by its np.linalg.norm."""
    buckets = np.array([_token_hash(tok) % dimension for tok in _tokens(text)],
                       dtype=np.intp)
    v = np.bincount(buckets, minlength=dimension).astype(float)
    n = np.linalg.norm(v)
    if n > 0:
        v /= n
    return v


class _Dim97(HashedBagOfWordsProvider):
    dimension = 97


# words repeat often enough that a text holds repeated tokens and, at 97
# buckets, distinct tokens sharing a bucket
_EMBED_TEXTS = st.lists(
    st.one_of(st.sampled_from(_WORDS + ["Dog", "BARK", "café", "東京", "42",
                                        "0", "x9y", "...", "!?", "—", "_"]),
              st.text(max_size=6)),
    max_size=40,
).map(" ".join)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(_EMBED_TEXTS)
@example("")
@example("!!! ... ?? --")
@example("dog " * 5000)
@example(HASHED_ORACLE_TEXTS["non_ascii"])
@example(HASHED_ORACLE_TEXTS["long"])
def test_hashed_embed_equals_the_dense_formula_bit_for_bit(text):
    for provider in (HashedBagOfWordsProvider(), _Dim97()):
        got = provider.embed(text)
        want = _dense_embed(text, provider.dimension)
        assert got.dtype == np.float64 and got.shape == want.shape
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_hashed_embed_returns_a_fresh_writable_array_each_call():
    p = HashedBagOfWordsProvider()
    text = "a dog barks at the bell"
    first = p.embed(text)
    assert first.dtype == np.float64 and first.flags.writeable
    first[:] = 7.0
    second = p.embed(text)
    assert not np.shares_memory(first, second)
    assert second.flags.writeable
    assert np.array_equal(second, _dense_embed(text, p.dimension))


def _exact_sum(values):
    """The sum of the floats in exact rationals, rounded once."""
    return float(sum(map(Fraction, values), Fraction(0)))


def test_norm_and_dot_are_correctly_rounded_in_any_order():
    rng = np.random.default_rng(61)
    for n in (1, 2, 7, 527, 4096):
        v = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4, size=n)
        u = rng.normal(size=n)
        terms = dict(enumerate(v.tolist()))
        other = dict(enumerate(u.tolist()))
        norm = math.sqrt(_exact_sum(w * w for w in terms.values()))
        dot = _exact_sum(terms[i] * other[i] for i in terms)
        for keys in (range(n), rng.permutation(n).tolist()):
            shuffled = {k: terms[k] for k in keys}
            assert _norm(shuffled) == norm
            assert _dot(shuffled, other) == _dot(other, shuffled) == dot
        # a dense vector read through its nonzero terms, as cosine reads it
        assert _norm(_nonzero_terms(v)) == norm
        # np.linalg.norm's dot product rounds as it goes
        assert math.isclose(np.linalg.norm(v), norm, rel_tol=1e-15)
    # a sum that rounds as it goes depends on the order
    terms = {0: 1.0, **{i: 1e-8 for i in range(1, 1001)}}
    assert math.sqrt(sum(w * w for w in terms.values())) == 1.0
    assert math.sqrt(sum(w * w for w in reversed(terms.values()))) > 1.0
    assert _norm(terms) == _norm(dict(reversed(terms.items()))) > 1.0
    assert _norm({}) == 0.0 and _dot({}, terms) == 0.0


def test_norm_beyond_float_range_raises():
    # each square finite but their sum past float range, and a square alone
    for terms in ({0: 1e154, 1: 1e154}, {3: 1e200}, {0: -math.inf}):
        with pytest.raises(ValueError, match="norm exceeds float range"):
            _norm(terms)
    assert _norm({0: 1e153, 1: 1e153}) == math.sqrt(2e306)


def test_embed_is_the_dense_view_of_terms(monkeypatch):
    monkeypatch.setenv("LLM_API_KEY", "k")
    remote = RemoteEmbeddingProvider(
        "http://example.invalid/v1", sleep=lambda s: None,
        session=FlakyEmbeddingSession(0, (0.0, -0.5, -0.0, 2.0, 1e-300, 0.0)))
    cases = [(HashedBagOfWordsProvider(), t) for t in HASHED_ORACLE_TEXTS.values()]
    cases += [(_Dim97(), HASHED_ORACLE_TEXTS["long"]),
              (ExactMatchProvider(dimension=4), "dog"),
              (ExactMatchProvider(dimension=4), ""), (remote, "dog")]
    for provider, text in cases:
        terms = provider.terms(text)
        v = provider.embed(text)
        assert v.dtype == np.float64 and v.shape == (provider.dimension,)
        assert np.flatnonzero(v).tolist() == sorted(terms)
        assert all(type(w) is float and v[i] == w for i, w in terms.items())
        assert not np.signbit(v[v == 0.0]).any()
    assert remote.terms("dog") == {1: -0.5, 3: 2.0, 4: 1e-300}
    assert HashedBagOfWordsProvider().terms("!!! ... ?? --") == {}
    assert ExactMatchProvider().terms("") == {0: 1.0}


def test_exact_match_provider_one_hot():
    p = ExactMatchProvider()
    a = p.embed("dog")
    b = p.embed("cat")
    assert p.dimension == 8192
    assert cosine(a, p.embed("dog")) == pytest.approx(1.0, abs=1e-12)
    assert float(np.dot(a, b)) == 0.0


def test_exact_match_capacity_guard():
    p = ExactMatchProvider(dimension=2)
    p.embed("a")
    p.embed("b")
    with pytest.raises(ValueError):
        p.embed("c")


def test_cosine_rejects_zero_vector():
    with pytest.raises(ValueError):
        cosine(np.zeros(3), np.ones(3))


def test_cosine_rejects_vectors_of_different_shapes():
    for u, v in ((np.ones(3), np.ones(4)), (np.ones((2, 2)), np.ones((2, 2)))):
        with pytest.raises(ValueError, match="two vectors of equal length"):
            cosine(u, v)


class FlakyEmbeddingSession:
    """Raises on the first `failures` posts, then returns one embedding."""

    def __init__(self, failures, vector=(0.6, 0.8)):
        self.failures = failures
        self.vector = list(vector)
        self.posts = 0

    def post(self, url, json=None, headers=None, timeout=None):
        self.posts += 1
        if self.posts <= self.failures:
            raise ConnectionError("boom")
        return self

    def raise_for_status(self):
        pass

    def json(self):
        return {"data": [{"embedding": self.vector}]}


def test_remote_provider_requires_api_key(monkeypatch):
    monkeypatch.delenv("EMBED_KEY", raising=False)
    with pytest.raises(RuntimeError, match="EMBED_KEY"):
        RemoteEmbeddingProvider("http://example.invalid/v1",
                                api_key_env="EMBED_KEY",
                                session=FlakyEmbeddingSession(0))


def test_remote_provider_retries_with_backoff(monkeypatch):
    monkeypatch.setenv("LLM_API_KEY", "k")
    sleeps = []
    session = FlakyEmbeddingSession(failures=2)
    provider = RemoteEmbeddingProvider("http://example.invalid/v1",
                                       session=session, sleep=sleeps.append)
    np.testing.assert_array_equal(provider.embed("dog"), [0.6, 0.8])
    assert session.posts == 3
    assert sleeps == [1.0, 2.0]


def test_remote_provider_gives_up_after_three_attempts(monkeypatch):
    monkeypatch.setenv("LLM_API_KEY", "k")
    session = FlakyEmbeddingSession(failures=99)
    provider = RemoteEmbeddingProvider("http://example.invalid/v1",
                                       session=session, sleep=lambda s: None)
    with pytest.raises(RuntimeError, match="after 3 attempts"):
        provider.embed("dog")
    assert session.posts == 3


# -- classify_output -------------------------------------------------------------

def test_classify_exact_match_worked_case():
    labels = LabelSet(("cat", "dog"))
    scores, idx = classify_output("dog", labels, ExactMatchProvider())
    np.testing.assert_allclose(scores, [0.0, 1.0], atol=1e-12)
    assert labels.names[idx] == "dog"


def test_classify_shared_token_wins():
    labels = LabelSet(("dog", "siren"))
    scores, idx = classify_output("dog barking loudly", labels,
                                  HashedBagOfWordsProvider())
    assert labels.names[idx] == "dog"
    assert scores[0] > scores[1]


def test_classify_self_similarity():
    labels = LabelSet(("a dog barks",))
    scores, _ = classify_output("a dog barks", labels,
                                HashedBagOfWordsProvider())
    assert scores[0] == pytest.approx(1.0, abs=1e-9)


def test_classify_tie_breaks_to_lowest_index():
    planted = {"out": [1.0, 0.0], "l1": [1.0, 1.0], "l2": [1.0, 1.0]}
    p = PlantedProvider({k: v + [0.0] * 14 for k, v in planted.items()})
    _, idx = classify_output("out", LabelSet(("l1", "l2")), p)
    assert idx == 0


def test_classify_scale_invariance_of_argmax():
    planted = {
        "out": [3.0, 1.0], "l1": [2.0, 0.5], "l2": [0.5, 2.0],
    }
    base = PlantedProvider({k: v + [0.0] * 14 for k, v in planted.items()})
    scaled = PlantedProvider(
        {k: [7.5 * x for x in v] + [0.0] * 14 for k, v in planted.items()})
    labels = LabelSet(("l1", "l2"))
    _, i1 = classify_output("out", labels, base)
    _, i2 = classify_output("out", labels, scaled)
    assert i1 == i2


def test_classify_label_cache_changes_nothing_but_saves_calls():
    labels = LabelSet(("dog", "cat", "owl"))
    batches = [["dog barks", "cat purrs"], ["owl hoots"], ["dog again", "cat"]]
    p = CountingProvider()
    results = [classify_corpus(b, labels, p) for b in batches]
    # every label is embedded once over all calls with the same provider
    assert p.calls == sum(map(len, batches)) + len(labels.names)
    for b, res in zip(batches, results):
        fresh = classify_corpus(b, LabelSet(labels.names),
                                HashedBagOfWordsProvider())
        np.testing.assert_array_equal(res.scores, fresh.scores)
        assert res.predictions == fresh.predictions

    # another provider rebuilds the matrix: exact-match scores, not hashed ones
    q = ExactMatchProvider(dimension=16)
    res = classify_corpus(["owl", "dog"], labels, q)
    np.testing.assert_array_equal(res.scores, [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    assert res.predictions == [2, 0]
    # and going back to the first provider rebuilds it again
    res = classify_corpus(batches[0], labels, p)
    assert p.calls == sum(map(len, batches)) + len(batches[0]) + 2 * len(labels.names)
    np.testing.assert_array_equal(res.scores, results[0].scores)


def test_classify_rejects_zero_embedding_output():
    with pytest.raises(ValueError):
        classify_output("", LabelSet(("dog",)), HashedBagOfWordsProvider())


def _filler_labels(n):
    words = ["rain", "siren", "engine", "bird", "music", "speech", "wind",
             "water", "bell", "horn", "crowd", "train"]
    return [f"{words[i % len(words)]} {words[(i * 7) % len(words)]} sound{i}"
            for i in range(n)]


@pytest.mark.parametrize("n_labels", [8, 527])
def test_classify_matches_per_label_cosine(n_labels):
    p = ScaledProvider()
    labels = LabelSet(tuple(_filler_labels(n_labels)))
    for text in ["rain on a bell", "a siren and a crowd", "sound3 speech",
                 "engine engine wind"]:
        scores, idx = classify_output(text, labels, p)
        want = np.array([cosine(p.embed(text), p.embed(n)) for n in labels.names])
        np.testing.assert_allclose(scores, want, rtol=0, atol=1e-12)
        assert idx == int(np.argmax(scores))


def test_classify_identical_label_embeddings_tie_exactly():
    p = HashedBagOfWordsProvider()
    names = _filler_labels(527)
    names[3], names[400] = "Dog bark", "dog BARK"
    labels = LabelSet(tuple(names))
    np.testing.assert_array_equal(p.embed(names[3]), p.embed(names[400]))
    scores, idx = classify_output("a dog bark", labels, p)
    assert scores[3] == scores[400]
    assert idx == 3


def test_classify_rejects_zero_embedding_label():
    with pytest.raises(ValueError, match="'!!!' embeds to a zero vector"):
        classify_output("dog", LabelSet(("dog", "!!!")),
                        HashedBagOfWordsProvider())


_BATCH = ["rain on a bell", "a siren and a crowd", "sound3 speech",
          "engine engine wind", "music horn music sound5"]


@pytest.mark.parametrize("provider", [HashedBagOfWordsProvider(),
                                      ScaledProvider()], ids=["hashed", "scaled"])
@pytest.mark.parametrize("n_labels", [8, 527])
def test_classify_corpus_batch_matches_per_label_cosine(provider, n_labels):
    names = _filler_labels(n_labels)
    # the last label embeds exactly like label 1, so they tie on every row
    names[-1] = names[1].upper()
    labels = LabelSet(tuple(names))
    texts = _BATCH + [names[1]]
    res = classify_corpus(texts, labels, provider)
    assert res.scores.shape == (len(texts), n_labels)
    label_vecs = [provider.embed(n) for n in names]
    for k, text in enumerate(texts):
        e = provider.embed(text)
        want = np.array([cosine(e, v) for v in label_vecs])
        np.testing.assert_allclose(res.scores[k], want, rtol=0, atol=1e-12)
        assert res.scores[k, 1] == res.scores[k, -1]
        assert res.predictions[k] == int(np.argmax(res.scores[k]))
        # labels that tie only up to rounding may go either way
        assert want[res.predictions[k]] >= want.max() - 1e-12
    # an exact tie goes to the lowest index
    assert res.predictions[-1] == 1


@pytest.mark.parametrize("provider", [HashedBagOfWordsProvider(),
                                      ScaledProvider()], ids=["hashed", "scaled"])
@pytest.mark.parametrize("n_labels", [8, 527])
def test_classify_corpus_rejects_a_zero_norm_output_or_label(provider,
                                                             n_labels):
    names = _filler_labels(n_labels)
    with pytest.raises(ValueError, match="output '!!!' embeds to a zero vector"):
        classify_corpus(_BATCH[:2] + ["!!!"] + _BATCH[2:],
                        LabelSet(tuple(names)), provider)
    names[-1] = "??"
    with pytest.raises(ValueError, match=r"label '\?\?' embeds to a zero vector"):
        classify_corpus(_BATCH, LabelSet(tuple(names)), provider)


def _demo_outputs():
    """Outputs phrased as a demo classification batch: a label with its
    feature, with its caption, and a tie between two labels."""
    out = []
    for k, c in enumerate(DEMO_CLASSES):
        other = DEMO_CLASSES[(k + 3) % len(DEMO_CLASSES)]
        out += [f"The {c.label} sound is {c.feature}.",
                f"I can hear a {c.label}, {c.caption}.",
                f"Either a {other.label} or a {c.label}."]
    return out


def _fsum_norm(v):
    """The L2 norm of a dense vector with a correctly rounded sum of
    squares over every entry."""
    return math.sqrt(math.fsum((v * v).tolist()))


def _classify_reference(texts, names, provider, norm):
    """classify_corpus's scores over dense vectors, with norm for every
    norm."""
    matrix = np.empty((len(names), provider.dimension))
    for row, name in zip(matrix, names):
        row[:] = provider.embed(name)
        row /= norm(row)
    cols = np.flatnonzero(matrix.any(axis=0))
    out = np.empty((len(texts), len(cols)))
    for row, t in zip(out, texts):
        e = provider.embed(t)
        row[:] = e[cols] / norm(e)
    return out @ matrix[:, cols].T


@pytest.mark.parametrize("provider", [HashedBagOfWordsProvider(),
                                      ScaledProvider()], ids=["hashed", "scaled"])
@pytest.mark.parametrize("n_labels", [8, 527])
def test_classify_corpus_scores_equal_the_numpy_norm_formulas(provider,
                                                              n_labels):
    demo = [c.label for c in DEMO_CLASSES]
    names = demo if n_labels == 8 else demo + _filler_labels(n_labels - 8)
    texts = _BATCH + _demo_outputs()
    res = classify_corpus(texts, LabelSet(tuple(names)), provider)
    assert np.array_equal(res.scores,
                          _classify_reference(texts, names, provider,
                                              _fsum_norm))
    # np.linalg.norm rounds its sum of squares as it goes
    np.testing.assert_allclose(
        res.scores, _classify_reference(texts, names, provider,
                                        np.linalg.norm), rtol=0, atol=1e-15)


class NoisyProvider(HashedBagOfWordsProvider):
    """Hashed buckets, each with a weight drawn from the text and bucket and
    spread over 40 binades, so that sums of the terms round differently in
    different orders."""

    def terms(self, text):
        seed = _token_hash(text)
        out = {}
        for i in super().terms(text):
            rng = np.random.default_rng([seed, i])
            out[i] = float(rng.normal()) * 2.0 ** int(rng.integers(-20, 20))
        return out


def _random_texts(rng, n, words):
    return [" ".join(rng.choice(words, size=int(rng.integers(1, 12))))
            for _ in range(n)]


_NOISY_WORDS = np.array([f"w{k}" for k in range(300)] + _WORDS)


def test_classify_corpus_equals_the_dense_fsum_reference_on_random_terms():
    rng = np.random.default_rng(67)
    provider = NoisyProvider()
    names = sorted(set(_random_texts(rng, 600, _NOISY_WORDS)))[:527]
    texts = _random_texts(rng, 400, _NOISY_WORDS)
    assert len(names) == 527
    res = classify_corpus(texts, LabelSet(tuple(names)), provider)
    assert np.array_equal(res.scores, _classify_reference(
        texts, names, provider, _fsum_norm))
    np.testing.assert_allclose(
        res.scores, _classify_reference(texts, names, provider,
                                        np.linalg.norm), rtol=0, atol=1e-15)


def test_label_set_validation():
    with pytest.raises(ValueError):
        LabelSet(())
    with pytest.raises(ValueError):
        LabelSet(("dog", "dog"))
    with pytest.raises(ValueError):
        LabelSet(("dog", ""))


def test_classify_corpus_shapes():
    labels = LabelSet(("dog", "cat"))
    res = classify_corpus(["dog barks", "cat purrs"], labels,
                          HashedBagOfWordsProvider())
    assert res.scores.shape == (2, 2)
    assert res.predictions == [0, 1]


# -- accuracy / micro-F1 ---------------------------------------------------------

def test_accuracy_all_correct():
    assert accuracy([1, 2, 3], [1, 2, 3]) == 1.0


def test_accuracy_validation():
    with pytest.raises(ValueError):
        accuracy([], [])
    with pytest.raises(ValueError):
        accuracy([1], [1, 2])


def test_accuracy_random_baseline_monte_carlo():
    rng = np.random.default_rng(11)
    preds = rng.integers(0, 2, size=10_000)
    truths = rng.integers(0, 2, size=10_000)
    assert abs(accuracy(list(preds), list(truths)) - 0.5) < 0.02


def test_micro_f1_hand_confusion_case():
    # sample 1: TP on class a; sample 2: FP (pred b, truth empty);
    # sample 3: FN (pred empty, truth b) -> F1 = 2/(2+1+1)
    preds = [{"a"}, {"b"}, set()]
    truths = [{"a"}, set(), {"b"}]
    assert micro_f1(preds, truths) == pytest.approx(0.5, abs=1e-12)


def test_micro_f1_scalar_inputs_are_singletons():
    assert micro_f1(["a", "b"], ["a", "b"]) == 1.0


# -- mAP -------------------------------------------------------------------------

def test_map_perfect_ranking():
    scores = np.array([[0.9], [0.8], [0.2], [0.1]])
    truths = np.array([[1], [1], [0], [0]])
    assert mean_average_precision(scores, truths) == pytest.approx(1.0)


def test_map_hand_rank_precision_oracle():
    scores = np.array([[0.9], [0.8], [0.7]])
    truths = np.array([[1], [0], [1]])
    expected = (1.0 / 1 + 2.0 / 3) / 2
    assert mean_average_precision(scores, truths) == pytest.approx(
        expected, abs=1e-9)
    assert expected == pytest.approx(0.8333, abs=5e-5)


def test_map_worst_start_ranking_oracle():
    scores = np.array([[0.8], [0.9], [0.7]])
    truths = np.array([[1], [0], [1]])
    expected = (1.0 / 2 + 2.0 / 3) / 2
    assert mean_average_precision(scores, truths) == pytest.approx(
        expected, abs=1e-9)
    assert expected == pytest.approx(0.5833, abs=5e-5)


def test_map_tie_breaks_by_ascending_sample_index():
    # equal scores: ranking is sample order, so truths [0,1] give AP 1/2
    scores = np.array([[0.5], [0.5]])
    truths = np.array([[0], [1]])
    assert mean_average_precision(scores, truths) == pytest.approx(0.5)


def test_map_excludes_positive_free_classes_with_warning():
    scores = np.array([[0.9, 0.1], [0.2, 0.8]])
    truths = np.array([[1, 0], [0, 0]])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = mean_average_precision(scores, truths)
    assert value == pytest.approx(1.0)
    assert any("without positives" in str(w.message) for w in caught)


def _map_reference(scores, truths):
    """Per-class AP with each column's positives counted in the loop."""
    aps = []
    for c in range(scores.shape[1]):
        col_truth = truths[:, c]
        n_pos = int(col_truth.sum())
        if n_pos == 0:
            continue
        order = np.argsort(-scores[:, c], kind="stable")
        hits = 0
        ap = 0.0
        for rank, idx in enumerate(order, start=1):
            if col_truth[idx]:
                hits += 1
                ap += hits / rank
        aps.append(ap / n_pos)
    return float(np.mean(aps))


@pytest.mark.parametrize("dtype", [int, bool])
def test_map_matches_a_per_column_reference_loop(dtype):
    rng = np.random.default_rng(11)
    scores = rng.normal(size=(40, 30))
    scores[5:9, 3] = scores[4, 3]                   # tied samples
    truths = (rng.random((40, 30)) < 0.1).astype(dtype)
    truths[:, [0, 7, 29]] = 0
    skipped = [c for c in range(30) if not truths[:, c].any()]
    assert {0, 7, 29} <= set(skipped) and len(skipped) < 30
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = mean_average_precision(scores, truths)
    assert value == _map_reference(scores, truths)
    assert [str(w.message) for w in caught] == [
        f"classes without positives excluded from mAP: {len(skipped)} of "
        f"{scores.shape[1]}"]


def test_map_at_audioset_size_loops_over_positive_classes_only():
    # one eval batch: 16 samples, 527 classes, 8 of them with positives
    rng = np.random.default_rng(12)
    scores = rng.normal(size=(16, 527))
    scores[3:7, 40] = scores[2, 40]                 # tied samples
    positive = np.sort(rng.choice(527, size=8, replace=False))
    truths = np.zeros((16, 527), dtype=int)
    truths[np.arange(16), positive[np.arange(16) % 8]] = 1
    skipped = [c for c in range(527) if not truths[:, c].any()]
    assert len(skipped) == 519
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = mean_average_precision(scores, truths)
    assert value == _map_reference(scores, truths)
    assert [str(w.message) for w in caught] == [
        f"classes without positives excluded from mAP: {len(skipped)} of "
        f"{scores.shape[1]}"]


def test_map_equals_the_reference_loop_on_random_tied_cases():
    # scores of four values tie often; the running sum of precisions must
    # be the loop's, bit for bit
    rng = np.random.default_rng(13)
    for case in range(300):
        n, c = rng.integers(1, 30), rng.integers(1, 12)
        scores = rng.integers(0, 4, size=(n, c)).astype(float)
        truths = rng.random((n, c)) < rng.uniform(0.05, 0.9)
        truths[rng.integers(n), rng.integers(c)] = True
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            value = mean_average_precision(scores, truths)
        assert value == _map_reference(scores, truths), case


def test_map_rejects_all_zero_truths():
    with pytest.raises(ValueError):
        mean_average_precision(np.ones((2, 2)), np.zeros((2, 2)))


@pytest.mark.parametrize("truth", [[[2], [0]], [[0.5], [0]], [[1], [-1]]])
def test_map_rejects_truths_that_are_not_binary(truth):
    # as counts, 2 would read a perfect ranking as 0.5, 0.5 would read it
    # as 2.0, and -1 would cancel the positive and drop its class
    with pytest.raises(ValueError, match="truths must be 0 or 1"):
        mean_average_precision(np.array([[0.9], [0.1]]), np.array(truth))


def test_map_monotone_transform_invariance():
    rng = np.random.default_rng(3)
    scores = rng.normal(size=(12, 4))
    truths = (rng.random((12, 4)) < 0.4).astype(int)
    truths[0] = 1  # every class keeps a positive
    base = mean_average_precision(scores, truths)
    assert mean_average_precision(3.0 * scores + 2.0, truths) == pytest.approx(
        base, abs=1e-12)
    assert mean_average_precision(np.tanh(scores), truths) == pytest.approx(
        base, abs=1e-12)


# -- caption overlap -------------------------------------------------------------

def test_caption_identical_is_one():
    assert caption_overlap_f1("a dog barks", ["a dog barks"]) == 1.0


def test_caption_disjoint_is_zero():
    assert caption_overlap_f1("a dog barks", ["silent night"]) == 0.0


def test_caption_hand_token_oracle():
    got = caption_overlap_f1("a dog barks", ["the dog barks loudly"])
    assert got == pytest.approx(4.0 / 7.0, abs=1e-9)
    assert got == pytest.approx(0.571, abs=5e-4)


def test_caption_empty_prediction_is_zero():
    assert caption_overlap_f1("", ["a dog barks"]) == 0.0
    assert caption_overlap_f1("...", ["a dog barks"]) == 0.0


def test_caption_max_over_references():
    got = caption_overlap_f1("a dog barks",
                             ["silent night", "a dog barks", "dog barks"])
    assert got == 1.0


def test_caption_requires_reference():
    with pytest.raises(ValueError):
        caption_overlap_f1("a dog barks", [])


def test_caption_multiset_counts_matter():
    # repeated token only overlaps as often as it appears in the reference
    got = caption_overlap_f1("dog dog dog", ["dog"])
    assert got == pytest.approx(2 * (1 / 3) * 1.0 / (1 / 3 + 1.0), abs=1e-12)


def _caption_reference(prediction, references):
    """Token-multiset F1 with the overlap taken as a Counter intersection."""
    pred = Counter(_tokens(prediction))
    n_pred = sum(pred.values())
    if n_pred == 0:
        return 0.0
    best = 0.0
    for ref_text in references:
        ref = Counter(_tokens(ref_text))
        n_ref = sum(ref.values())
        overlap = sum((pred & ref).values())
        if n_ref == 0 or overlap == 0:
            continue
        p, r = overlap / n_pred, overlap / n_ref
        best = max(best, 2 * p * r / (p + r))
    return best


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(_EMBED_TEXTS, st.lists(_EMBED_TEXTS, min_size=1, max_size=4))
@example("dog dog dog", ["dog"])
@example("", ["a dog barks"])
@example("a dog barks", ["...", "dog dog bark"])
def test_caption_overlap_equals_the_counter_intersection(prediction,
                                                          references):
    assert (caption_overlap_f1(prediction, references)
            == _caption_reference(prediction, references))


# -- judge -----------------------------------------------------------------------

def test_judge_prompt_is_frozen():
    assert JUDGE_PROMPT == ("Below is a pair of question and response. "
                            "Identify if the response answers the question. "
                            "Return yes or no.")


def test_judge_parses_yes_and_no():
    client = ReplayLlmClient({}, fallback=lambda _: "Yes")
    assert judge_instruction_following("q", "a", client) is True
    client = ReplayLlmClient({}, fallback=lambda _: "no, it does not.")
    assert judge_instruction_following("q", "a", client) is False
    client = ReplayLlmClient({}, fallback=lambda _: "unsure about this")
    assert judge_instruction_following("q", "a", client) is None


def test_judge_prompt_contains_question_and_answer():
    client = ReplayLlmClient({}, fallback=lambda _: "yes")
    judge_instruction_following("why?", "because.", client)
    sent = client.calls[0]
    assert sent.startswith(JUDGE_PROMPT)
    assert "Question: why?" in sent
    assert "Response: because." in sent


def test_judge_rate_nine_of_ten():
    pairs = [(f"q{i}", f"a{i}") for i in range(10)]
    responses = {}
    for i, (q, a) in enumerate(pairs):
        prompt = f"{JUDGE_PROMPT}\n\nQuestion: {q}\nResponse: {a}"
        responses[prompt] = "no" if i == 0 else "yes"
    report = judge_rate(pairs, ReplayLlmClient(responses))
    assert report.rate == pytest.approx(0.9)
    assert (report.n_yes, report.n_no, report.n_abstained) == (9, 1, 0)


def test_judge_rate_excludes_abstentions():
    pairs = [("q0", "a0"), ("q1", "a1"), ("q2", "a2")]
    responses = {
        f"{JUDGE_PROMPT}\n\nQuestion: q0\nResponse: a0": "yes",
        f"{JUDGE_PROMPT}\n\nQuestion: q1\nResponse: a1": "hmm",
        f"{JUDGE_PROMPT}\n\nQuestion: q2\nResponse: a2": "No.",
    }
    report = judge_rate(pairs, ReplayLlmClient(responses))
    assert report.rate == pytest.approx(0.5)
    assert report.n_abstained == 1


# -- order probe -----------------------------------------------------------------

def _order_provider():
    # applause ~ clapping (cosine .9), footsteps orthogonal
    return PlantedProvider({
        "applause": [0.9, 0.1] + [0.0] * 14,
        "clapping": [1.0, 0.0] + [0.0] * 14,
        "footsteps": [0.0, 0.0, 1.0] + [0.0] * 13,
        "footsteps follow in a rhythmic pattern": [0.0, 0.0, 1.0] + [0.0] * 13,
    })


def test_order_probe_worked_example():
    answer = ("the applause starts first, while the footsteps follow in a "
              "rhythmic pattern afterward.")
    assert order_probe(answer, "clapping", "footsteps",
                       _order_provider()) is True


def test_order_probe_wrong_order_is_false():
    assert order_probe("the footsteps start first.", "clapping", "footsteps",
                       _order_provider()) is False


def test_order_probe_unparseable_is_none():
    assert order_probe("both sounds are lovely.", "clapping", "footsteps",
                       _order_provider()) is None


def test_extract_first_sound_patterns():
    assert extract_first_sound("the dog barking begins first") == "dog barking"
    assert extract_first_sound("The first sound is a siren.") == "siren"
    assert extract_first_sound("rain comes first") == "rain"
    assert extract_first_sound("no ordering here") is None


def _order_reference(answer, first, second, provider):
    """order_probe with both labels embedded and compared by cosine."""
    clause = extract_first_sound(answer)
    if clause is None:
        return None
    e = provider.embed(clause)
    if np.linalg.norm(e) == 0.0:
        return None
    return cosine(e, provider.embed(first)) >= cosine(e, provider.embed(second))


ORDER_ANSWERS = ["the dog sound comes first.", "the cat starts first",
                 "a dog and a cat come first", "the first sound is the cat.",
                 "bark dog is first", "nothing in order here",
                 "the !!! comes first", "the cat bark dog begins first"]


@pytest.mark.parametrize("provider_cls", [CountingProvider, ScaledProvider],
                         ids=["hashed", "scaled"])
@pytest.mark.parametrize("first, second, tie", [
    ("dog", "cat", False), ("cat", "dog bark", False),
    # identical embeddings: every tie resolves to the first label
    ("dog bark", "bark dog", True), ("Dog Bark", "dog bark", True),
], ids=["dog-cat", "cat-dogbark", "tie", "tie_case"])
def test_order_probe_matches_a_cosine_reference(provider_cls, first, second,
                                                tie):
    p, ref = provider_cls(), provider_cls()
    want = [_order_reference(a, first, second, ref) for a in ORDER_ANSWERS]
    assert None in want and (False not in want) == tie
    for _ in range(2):   # the second pass reads the kept label vectors
        assert [order_probe(a, first, second, p)
                for a in ORDER_ANSWERS] == want


def test_order_probe_embeds_each_label_once_per_provider():
    p = CountingProvider()
    answers = [ORDER_ANSWERS[k % 5] for k in range(50)]
    for a in answers:
        order_probe(a, "dog", "cat", p)
    clauses = sum(extract_first_sound(a) is not None for a in answers)
    # one embed per clause, and each label once over all 50 calls
    assert p.calls == clauses + 2
    q = CountingProvider()
    order_probe(answers[0], "dog", "cat", q)
    assert q.calls == 1 + 2
    order_probe(answers[0], "cat", "dog", q)
    assert q.calls == 2 + 2


def test_order_probe_zero_norm_label_raises_every_time():
    p = CountingProvider()
    for _ in range(3):
        before = p.calls
        with pytest.raises(ValueError, match="'!!!' embeds to a zero vector"):
            order_probe("the dog comes first", "!!!", "dog", p)
        assert p.calls == before + 2   # the clause, and the label again
        with pytest.raises(ValueError, match="'...' embeds to a zero vector"):
            order_probe("the dog comes first", "dog", "...", p)


def test_order_probe_label_cache_is_bounded():
    from aqakit.evaluate import probes
    p = CountingProvider()
    for k in range(probes._LABEL_CACHE + 40):
        assert order_probe("the dog comes first", f"dog{k}", "dog", p) is False
    assert probes._label_terms.cache_info().currsize <= probes._LABEL_CACHE
    # "dog" is used on every call, so it stays; the oldest labels are gone
    calls = p.calls
    order_probe("the dog comes first", "dog0", "dog", p)
    assert p.calls == calls + 2


def _dense_fsum_order_rule(answer, first, second, provider):
    """order_probe over dense vectors, every sum correctly rounded."""
    clause = extract_first_sound(answer)
    if clause is None:
        return None
    e = provider.embed(clause)
    ne = _fsum_norm(e)
    if ne == 0.0:
        return None
    sims = [math.fsum((e * lv).tolist()) / (ne * _fsum_norm(lv))
            for lv in (provider.embed(first), provider.embed(second))]
    return sims[0] >= sims[1]


def test_order_probe_equals_the_dense_fsum_cosine_rule():
    rng = np.random.default_rng(71)
    words = _NOISY_WORDS[:12]   # few words, so labels and clauses share some
    p, ref = NoisyProvider(), NoisyProvider()
    labels = sorted(set(_random_texts(rng, 60, words)))
    got, want = [], []
    for _ in range(400):
        clause = " ".join(rng.choice(words, size=int(rng.integers(1, 6))))
        answer = f"the {clause} comes first"
        first, second = rng.choice(labels, size=2, replace=False)
        got.append(order_probe(answer, first, second, p))
        want.append(_dense_fsum_order_rule(answer, first, second, ref))
        e, lv = ref.embed(clause), ref.embed(first)
        assert cosine(e, lv) == (math.fsum((e * lv).tolist())
                                 / (_fsum_norm(e) * _fsum_norm(lv)))
    assert got == want
    assert True in got and False in got


def test_order_probe_ties_labels_whose_products_are_permuted():
    rng = np.random.default_rng(73)
    split = 0
    for _ in range(200):
        vals = rng.normal(size=16) * 10.0 ** rng.integers(-8, 9, size=16)
        p = PlantedProvider({"x": [1.0] * 16, "a": vals.tolist(),
                             "b": vals[rng.permutation(16)].tolist()})
        # equal exact cosines: a tie, which goes to the first label
        assert order_probe("the x comes first", "a", "b", p) is True
        assert order_probe("the x comes first", "b", "a", p) is True
        e, a, b = map(p.embed, "xab")
        split += float(np.dot(e, a)) != float(np.dot(e, b))
    # a dot product that rounds as it goes would split some of these ties
    assert split > 0


# the order patterns as written, searched from every position
_UNANCHORED = tuple(re.compile(p, re.IGNORECASE)
                    for p in probes.DEFAULT_ORDER_PATTERNS)


def _unanchored_first_sound(text):
    """extract_first_sound over the unanchored patterns."""
    for pattern in _UNANCHORED:
        m = pattern.search(text)
        if m:
            clause = re.sub(r"^(?:the|a|an)\s+", "", m.group(1).strip(),
                            flags=re.IGNORECASE)
            if clause:
                return clause
    return None


def _order_probe_reference(answer, first, second, provider):
    """order_probe with the unanchored patterns and np.linalg.norm."""
    clause = _unanchored_first_sound(answer)
    if clause is None:
        return None
    e = provider.embed(clause)
    ne = np.linalg.norm(e)
    if ne == 0.0:
        return None
    sims = []
    for label in (first, second):
        lv = provider.embed(label)
        sims.append(float(np.dot(e, lv) / (ne * np.linalg.norm(lv))))
    return sims[0] >= sims[1]


@pytest.mark.parametrize("provider_cls", [HashedBagOfWordsProvider,
                                          ScaledProvider], ids=["hashed", "scaled"])
def test_order_probe_equals_the_unanchored_numpy_norm_formulas(provider_cls):
    labels = [c.label for c in DEMO_CLASSES]
    answers = ORDER_ANSWERS + [f"The {c.label} sound comes first."
                               for c in DEMO_CLASSES]
    answers.append("Both sounds overlap in the clip.")
    p, ref = provider_cls(), provider_cls()
    for k, a in enumerate(answers):
        first, second = labels[k % 8], labels[(k + 1 + k // 8) % 8]
        assert (order_probe(a, first, second, p)
                == _order_probe_reference(a, first, second, ref))


_ORDER_WORDS = ["the", "sound", "sounds", "starts", "start", "begins",
                "begin", "and ends", "and end", "comes", "come", "came", "is",
                "first", "first sound is", "dog", "bark", "a", "an"]
_ORDER_NOISE = [",", "&", "-", ".", ";", "!", "?", "7", "42", "_", "é",
                "naïve", "東京", "Straße", " ", "  ", "\t", "\n",
                # case-fold to s and k under IGNORECASE
                "\u017f", "\u212a"]
_ORDER_TEXTS = st.lists(
    st.tuples(st.sampled_from(_ORDER_WORDS + _ORDER_NOISE),
              st.sampled_from([str, str.upper, str.title, str.swapcase]),
              st.sampled_from(["", " ", " ", "  ", "\t", "\n", ", "])),
    max_size=24,
).map(lambda parts: "".join(case(word) + gap for word, case, gap in parts))


@settings(max_examples=600, deadline=None, database=None, derandomize=True)
@given(_ORDER_TEXTS)
@example("the  comes first")
@example(". \tcomes first")
@example("x, the dog, the cat comes first")
@example("the first sound is the first sound is")
def test_run_start_anchor_keeps_every_order_match(text):
    for old, new in zip(_UNANCHORED, probes._ORDER_RES):
        want, got = old.search(text), new.search(text)
        assert (got is None) == (want is None)
        if want is not None:
            assert got.span() == want.span()
            assert got.groups() == want.groups()
    assert extract_first_sound(text) == _unanchored_first_sound(text)


def test_extraction_of_a_20000_char_answer_takes_under_a_second():
    # one run of the clause class: the unanchored patterns would retry it
    # from every position and take tens of seconds, so they are not run
    unit = "a dog barks and a bell rings, "
    plain = unit * 667
    ordered = unit * 666 + "then the dog comes first"
    assert min(len(plain), len(ordered)) >= 20_000
    for text in (plain, ordered):
        t0 = time.perf_counter()
        got = extract_first_sound(text)
        assert time.perf_counter() - t0 < 1.0
        if text is plain:
            assert got is None
        else:
            assert got.endswith(" the dog")


def test_order_accuracy_planted_fixtures():
    rng = np.random.default_rng(5)
    provider = ExactMatchProvider()
    results = []
    planted = 0
    for i in range(50):
        first, second = ("alpha", "beta")
        if rng.random() < 0.5:
            answer = f"the {first} starts first"
            planted += 1
        else:
            answer = f"the {second} starts first"
        results.append(order_probe(answer, first, second, provider))
    acc, n_followed, n_excluded = order_accuracy(results)
    assert n_followed == 50 and n_excluded == 0
    assert acc == pytest.approx(planted / 50)


def test_order_accuracy_excludes_none():
    acc, n_followed, n_excluded = order_accuracy([True, None, False, True])
    assert (acc, n_followed, n_excluded) == (pytest.approx(2 / 3), 3, 1)
    with pytest.raises(ValueError):
        order_accuracy([None, None])


# -- counting probe --------------------------------------------------------------

def test_parse_count_paper_phrasing():
    assert parse_count("The bell is rung three times.") == 3


def test_parse_count_first_number_wins():
    assert parse_count("2 dogs bark five times") == 2
    assert parse_count("I hear ten claps, maybe 12") == 10
    assert parse_count("eleven") is None
    assert parse_count("no counts here") is None


def test_counting_probe_perfect_linearity():
    answers = ["two", "four", "2", "4"]
    truths = [1, 2, 1, 2]
    report = counting_probe(answers, truths)
    assert report.pearson_r == pytest.approx(1.0, abs=1e-12)
    assert report.double_single_ratio == pytest.approx(2.0, abs=1e-12)


def test_counting_probe_hand_pearson_oracle():
    answers = ["one", "two", "two", "four"]
    truths = [1, 2, 3, 4]
    x = np.array([1.0, 2.0, 3.0, 4.0])
    y = np.array([1.0, 2.0, 2.0, 4.0])
    xc, yc = x - x.mean(), y - y.mean()
    expected = float(np.dot(xc, yc) /
                     np.sqrt(np.dot(xc, xc) * np.dot(yc, yc)))
    report = counting_probe(answers, truths)
    assert report.pearson_r == pytest.approx(expected, abs=1e-12)


def test_counting_probe_excludes_unparseable():
    answers = ["three", "cannot tell", "one", "two"]
    truths = [2, 2, 1, 1]
    report = counting_probe(answers, truths)
    assert report.excluded == (1,)
    assert report.n_used == 3
    ratio = 3.0 / ((1 + 2) / 2)
    assert report.double_single_ratio == pytest.approx(ratio)


def test_counting_probe_validation():
    with pytest.raises(ValueError):
        counting_probe(["one"], [1])
    with pytest.raises(ValueError):
        counting_probe(["a", "b", "c"], [1, 2, 1])


# -- pearson ---------------------------------------------------------------------

def test_pearson_identity_and_negation():
    assert pearson([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0, abs=1e-12)
    assert pearson([1, 2, 3], [-1, -2, -3]) == pytest.approx(-1.0, abs=1e-12)


def test_pearson_hand_formula_case():
    assert pearson([1, 2, 3, 4], [2, 1, 4, 3]) == pytest.approx(0.6, abs=1e-12)


def test_pearson_affine_invariance():
    rng = np.random.default_rng(7)
    x = rng.normal(size=20)
    y = rng.normal(size=20)
    base = pearson(list(x), list(y))
    assert pearson(list(3.0 * x + 5.0), list(y)) == pytest.approx(
        base, abs=1e-12)
    assert pearson(list(-2.0 * x), list(y)) == pytest.approx(
        -base, abs=1e-12)


def test_pearson_validation():
    with pytest.raises(ValueError):
        pearson([1], [1])
    with pytest.raises(ValueError):
        pearson([1, 1, 1], [1, 2, 3])


@pytest.mark.parametrize("x", [
    [1, 2, 10 ** 400],            # no float holds it
    [1, 2, 10 ** 300],            # a float, but its square overflows
    [1.0, 2.0, float("nan")],
    [1.0, 2.0, float("inf")],
], ids=["int_beyond_float", "square_overflows", "nan", "inf"])
def test_pearson_rejects_values_it_cannot_correlate(x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, b in ((x, [1, 2, 3]), ([1, 2, 3], x)):
            with pytest.raises(ValueError):
                pearson(a, b)


def test_pearson_rejects_a_variance_product_that_overflows():
    # each variance is 2e200, finite; their product is not
    x = [0.0, 1e100, 2e100]
    with pytest.raises(ValueError, match="float range"):
        pearson(x, x)
    assert pearson([0.0, 1e75, 2e75], [0.0, 1e75, 2e75]) == pytest.approx(
        1.0, abs=1e-12)
