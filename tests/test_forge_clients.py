"""LLM clients, the feature bank, the weighted audio sampler, and dataset
statistics. Everything here runs offline; network traffic is faked."""

import json

import numpy as np
import pytest
import requests

from aqakit.forge import (
    QAPair,
    build_aig_prompt,
    compute_dataset_stats,
    feature_prompt,
    gen_feature_bank,
    parse_aig_response,
    sample_audioset,
)
from aqakit.evaluate import (RemoteEmbeddingProvider,
                             judge_instruction_following)
from aqakit.forge.llm import (RateLimiter, RealLlmClient, ReplayLlmClient,
                              SynthLlmClient)
from fractions import Fraction

from test_forge import ambulance_meta


# -- rate limiter --------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0
        self.sleeps = []

    def clock(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds


def test_rate_limiter_passes_under_limit():
    fake = FakeClock()
    limiter = RateLimiter(3, clock=fake.clock, sleep=fake.sleep)
    for _ in range(3):
        limiter.wait()
        fake.now += 1.0
    assert fake.sleeps == []


def test_rate_limiter_blocks_at_limit():
    fake = FakeClock()
    limiter = RateLimiter(2, clock=fake.clock, sleep=fake.sleep)
    limiter.wait()          # t=0
    fake.now = 1.0
    limiter.wait()          # t=1
    fake.now = 2.0
    limiter.wait()          # window full: must wait until t=60
    assert fake.sleeps == [58.0]


def test_rate_limiter_window_expires():
    fake = FakeClock()
    limiter = RateLimiter(1, clock=fake.clock, sleep=fake.sleep)
    limiter.wait()
    fake.now = 61.0
    limiter.wait()
    assert fake.sleeps == []


# -- clients -------------------------------------------------------------------

def test_replay_client_serves_and_logs():
    client = ReplayLlmClient({"p1": "r1"})
    assert client.complete("p1") == "r1"
    with pytest.raises(KeyError):
        client.complete("p2")
    assert client.calls == ["p1", "p2"]


def test_replay_client_fallback():
    client = ReplayLlmClient({}, fallback=lambda p: p.upper())
    assert client.complete("abc") == "ABC"


def test_synth_client_counts_feature_prompts_per_class():
    client = SynthLlmClient()
    assert client.complete(feature_prompt("Dog")) == "feature-1 of Dog"
    assert client.complete(feature_prompt("Cat")) == "feature-1 of Cat"
    assert client.complete(feature_prompt("Dog")) == "feature-2 of Dog"
    with pytest.raises(ValueError):
        client.complete("what is a dog?")


class FakeResponse:
    def __init__(self, content):
        self._content = content

    def raise_for_status(self):
        pass

    def json(self):
        return {"choices": [{"message": {"content": self._content}}]}


class FlakySession:
    """Fails n times, then answers."""

    def __init__(self, failures, content="ok"):
        self.failures = failures
        self.content = content
        self.posts = 0

    def post(self, url, json=None, headers=None, timeout=None):
        self.posts += 1
        if self.posts <= self.failures:
            raise requests.ConnectionError("boom")
        return FakeResponse(self.content)


class RecordingSession:
    def __init__(self, reply):
        self.reply = reply
        self.posts = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.posts.append((url, json, headers, timeout))
        return self

    def raise_for_status(self):
        pass

    def json(self):
        return self.reply


def test_remote_clients_send_the_same_request_shape(monkeypatch):
    monkeypatch.setenv("LLM_API_KEY", "k")
    headers = {"Authorization": "Bearer k", "Content-Type": "application/json"}
    chat = RecordingSession({"choices": [{"message": {"content": "hi"}}]})
    assert RealLlmClient("http://x.invalid/chat",
                         session=chat).complete("hello") == "hi"
    assert chat.posts == [("http://x.invalid/chat", {
        "model": "", "messages": [{"role": "user", "content": "hello"}]},
        headers, 60.0)]
    emb = RecordingSession({"data": [{"embedding": [0.6, 0.8]}]})
    RemoteEmbeddingProvider("http://x.invalid/emb", session=emb).embed("dog")
    assert emb.posts == [("http://x.invalid/emb",
                          {"model": "", "input": "dog"}, headers, 60.0)]


@pytest.mark.parametrize("entry", ["NaN", "Infinity", "-Infinity", "null"])
def test_remote_embeddings_reject_an_entry_that_is_not_finite(monkeypatch,
                                                              entry):
    monkeypatch.setenv("LLM_API_KEY", "k")
    # json reads NaN and Infinity as floats; numpy reads null as nan
    session = RecordingSession(json.loads(
        f'{{"data": [{{"embedding": [0.6, {entry}, 0.8]}}]}}'))
    sleeps = []
    provider = RemoteEmbeddingProvider("http://x.invalid/emb",
                                       session=session, sleep=sleeps.append)
    for read in (provider.terms, provider.embed):
        with pytest.raises(RuntimeError, match=r"after 3 attempts: "
                           r"embedding entry 1 is -?(nan|inf), not a finite"):
            read("dog")
    assert len(session.posts) == 6 and sleeps == [1.0, 2.0] * 2
    # a rejected reply fixes no width
    assert provider.dimension is None


@pytest.mark.parametrize("width", [768, 1024, 3072])
def test_remote_embeddings_take_their_width_from_the_first_reply(monkeypatch,
                                                                 width):
    monkeypatch.setenv("LLM_API_KEY", "k")
    vector = [0.0] * width
    vector[-1] = 2.0
    session = RecordingSession({"data": [{"embedding": vector}]})
    provider = RemoteEmbeddingProvider("http://x.invalid/emb",
                                       session=session, sleep=lambda s: None)
    assert provider.dimension is None
    v = provider.embed("dog")
    assert provider.dimension == width and v.shape == (width,)
    assert provider.terms("cat") == {width - 1: 2.0}
    # a later reply of another width is retried, then fails
    session.reply = {"data": [{"embedding": [0.6, 0.8]}]}
    with pytest.raises(RuntimeError, match=rf"after 3 attempts: expected "
                       rf"dimension {width}, got \(2,\)"):
        provider.terms("bird")
    assert len(session.posts) == 5 and provider.dimension == width


@pytest.mark.parametrize("embedding, shape", [([], r"\(0,\)"), ([[0.6, 0.8]], r"\(1, 2\)"),
                                              (0.5, r"\(\)")])
def test_remote_embeddings_reject_a_first_reply_that_is_not_a_vector(monkeypatch,
                                                                    embedding, shape):
    monkeypatch.setenv("LLM_API_KEY", "k")
    session = RecordingSession({"data": [{"embedding": embedding}]})
    provider = RemoteEmbeddingProvider("http://x.invalid/emb",
                                       session=session, sleep=lambda s: None)
    with pytest.raises(RuntimeError, match=r"after 3 attempts: expected "
                       rf"dimension >= 1, got {shape}"):
        provider.terms("dog")
    assert len(session.posts) == 3 and provider.dimension is None


def test_real_client_requires_api_key(monkeypatch):
    monkeypatch.delenv("LLM_API_KEY", raising=False)
    with pytest.raises(RuntimeError, match="LLM_API_KEY"):
        RealLlmClient("http://example.invalid/v1")


def _remote_clients(session=None):
    return (RealLlmClient("http://example.invalid/v1", session=session),
            RemoteEmbeddingProvider("http://example.invalid/emb",
                                    session=session))


def test_remote_clients_build_a_requests_session_when_given_none(monkeypatch):
    monkeypatch.setenv("LLM_API_KEY", "k")
    for client in _remote_clients():
        assert isinstance(client._session, requests.Session)


class FalsySession(RecordingSession):
    def __len__(self):
        return 0


def test_remote_clients_keep_a_falsy_session(monkeypatch):
    monkeypatch.setenv("LLM_API_KEY", "k")
    session = FalsySession({})
    assert not session
    for client in _remote_clients(session):
        assert client._session is session


def test_real_client_retries_with_backoff(monkeypatch):
    monkeypatch.setenv("LLM_API_KEY", "k")
    sleeps = []
    session = FlakySession(failures=2, content="answer text")
    client = RealLlmClient("http://example.invalid/v1", session=session,
                           sleep=sleeps.append)
    assert client.complete("hello") == "answer text"
    assert session.posts == 3
    assert sleeps == [1.0, 2.0]


def test_real_client_gives_up_after_three_attempts(monkeypatch):
    monkeypatch.setenv("LLM_API_KEY", "k")
    session = FlakySession(failures=99)
    client = RealLlmClient("http://example.invalid/v1", session=session,
                           sleep=lambda s: None)
    with pytest.raises(RuntimeError, match="after 3 attempts"):
        client.complete("hello")
    assert session.posts == 3


def test_synth_client_output_parses_and_flags_unanswerable():
    client = SynthLlmClient()
    m = ambulance_meta()
    pairs = parse_aig_response(client.complete(build_aig_prompt(m)),
                               audio_id=m.audio_id)
    assert len(pairs) >= 4
    assert all(p.task == "open_ended" for p in pairs)
    assert sum(p.unanswerable for p in pairs) == 1
    # deterministic: same prompt, same text
    assert client.complete(build_aig_prompt(m)) == \
        client.complete(build_aig_prompt(m))


def test_synth_client_handles_feature_prompts():
    client = SynthLlmClient()
    assert client.complete(feature_prompt("Dog")) == "feature-1 of Dog"


def test_synth_client_answers_judge_prompts_yes():
    assert judge_instruction_following("What barks?", "A dog.",
                                       SynthLlmClient()) is True


# -- feature bank ---------------------------------------------------------------

def test_feature_bank_mock_contract(tmp_path):
    client = SynthLlmClient()
    bank = gen_feature_bank(["Dog", "Cat"], client,
                            cache_path=tmp_path / "bank.json")
    assert sorted(bank) == ["Cat", "Dog"]
    assert bank["Dog"] == [f"feature-{i} of Dog" for i in range(1, 11)]
    assert len(bank["Cat"]) == 10
    assert len(client.calls) == 20


def test_feature_bank_cache_makes_rerun_free(tmp_path):
    cache = tmp_path / "bank.json"
    first = gen_feature_bank(["Dog"], SynthLlmClient(), cache_path=cache)
    second_client = SynthLlmClient()
    second = gen_feature_bank(["Dog"], second_client, cache_path=cache)
    assert second == first
    assert second_client.calls == []


class FailsFor:
    def __init__(self, bad_class):
        self.bad = bad_class
        self._echo = SynthLlmClient()

    def complete(self, prompt):
        if self.bad in prompt:
            raise RuntimeError("simulated outage")
        return self._echo.complete(prompt)


def test_feature_bank_partial_on_failure(tmp_path):
    cache = tmp_path / "bank.json"
    with pytest.warns(UserWarning, match="missing classes: Cat"):
        bank = gen_feature_bank(["Dog", "Cat"], FailsFor("Cat"),
                                cache_path=cache)
    assert sorted(bank) == ["Dog"]
    # recovery run only asks about the missing class
    client = SynthLlmClient()
    bank = gen_feature_bank(["Dog", "Cat"], client, cache_path=cache)
    assert sorted(bank) == ["Cat", "Dog"]
    assert all("Cat" in p for p in client.calls)
    assert len(client.calls) == 10


def test_feature_bank_warns_on_long_description(tmp_path):
    long_sentence = "a very wordy description that rambles on well past ten words"
    client = ReplayLlmClient({}, fallback=lambda p: long_sentence)
    with pytest.warns(UserWarning, match="exceeds 10 words"):
        bank = gen_feature_bank(["Dog"], client)
    assert bank["Dog"] == [long_sentence] * 10


# -- weighted sampler ------------------------------------------------------------

def test_sampler_worked_example():
    label_counts = {"A": 1, "B": 2}
    labels_of = {"a1": ["A"], "a2": ["B"], "a3": ["A", "B"]}
    # weights a1 = 1, a2 = 1/2, a3 = 3/2
    assert sample_audioset(label_counts, labels_of, 3) == ["a3", "a1", "a2"]
    assert sample_audioset(label_counts, labels_of, 2) == ["a3", "a1"]


def test_sampler_tie_break_is_lexicographic():
    label_counts = {"A": 4}
    labels_of = {f"a{i}": ["A"] for i in (3, 1, 4, 2)}
    assert sample_audioset(label_counts, labels_of, 3) == ["a1", "a2", "a3"]


def test_sampler_validation():
    with pytest.raises(ValueError):
        sample_audioset({"A": 1}, {"a1": ["A"]}, 2)
    with pytest.raises(ValueError, match="asked for 0 audios"):
        sample_audioset({"A": 1}, {"a1": ["A"]}, 0)
    with pytest.raises(ValueError, match="asked for -1 audios"):
        sample_audioset({"A": 1}, {"a1": ["A"]}, -1)
    with pytest.raises(ValueError, match="audio 'a1' has unknown class 'B'"):
        sample_audioset({"A": 1}, {"a1": ["B"]}, 1)
    with pytest.raises(ValueError, match="class 'A' has non-positive count 0"):
        sample_audioset({"A": 0}, {"a1": ["A"]}, 1)
    # the checks run in this order: n, then counts, then classes
    with pytest.raises(ValueError, match="asked for 2 audios"):
        sample_audioset({"A": 0}, {"a1": ["B"]}, 2)
    with pytest.raises(ValueError, match="non-positive count"):
        sample_audioset({"A": 0}, {"a1": ["B"]}, 1)


def _random_instance(rng):
    n_classes = int(rng.integers(1, 11))
    classes = [f"c{k}" for k in range(n_classes)]
    n_audio = int(rng.integers(1, 51))
    labels_of = {}
    label_counts = {c: 0 for c in classes}
    for i in range(n_audio):
        picks = sorted(set(rng.choice(classes,
                                      size=int(rng.integers(1, 4)),
                                      replace=True).tolist()))
        labels_of[f"a{i:02d}"] = picks
        for c in picks:
            label_counts[c] += 1
    label_counts = {c: n for c, n in label_counts.items() if n > 0}
    return label_counts, labels_of


def brute_force_sample(label_counts, labels_of, n):
    scored = []
    for audio_id, classes in labels_of.items():
        w = Fraction(0)
        for c in classes:
            w += Fraction(1, label_counts[c])
        scored.append((audio_id, w))
    best = sorted(scored, key=lambda t: (-t[1], t[0]))
    return [audio_id for audio_id, _ in best[:n]]


def test_sampler_matches_brute_force_oracle():
    rng = np.random.default_rng(42)
    for _ in range(100):
        label_counts, labels_of = _random_instance(rng)
        n = int(rng.integers(1, len(labels_of) + 1))
        assert sample_audioset(label_counts, labels_of, n) == \
            brute_force_sample(label_counts, labels_of, n)


def test_sampler_permutation_invariant():
    rng = np.random.default_rng(7)
    label_counts, labels_of = _random_instance(rng)
    items = list(labels_of.items())
    rng.shuffle(items)
    shuffled = dict(items)
    n = max(1, len(labels_of) // 2)
    assert sample_audioset(label_counts, labels_of, n) == \
        sample_audioset(label_counts, shuffled, n)


def test_rare_class_strictly_raises_weight():
    # an audio whose labels are a strict superset has strictly larger weight:
    # it ranks before its base, although the tie-break would put the base
    # ("a..." < "superset") first
    rng = np.random.default_rng(3)
    for _ in range(20):
        label_counts, labels_of = _random_instance(rng)
        rare = "rare"
        label_counts[rare] = 1
        base = next(iter(labels_of))
        labels_of = dict(labels_of)
        labels_of["superset"] = labels_of[base] + [rare]
        ranked = sample_audioset(label_counts, labels_of, len(labels_of))
        assert ranked.index("superset") < ranked.index(base)


def test_adding_a_sample_decreases_class_weight():
    # an audio of a 3-count class ranks before one of a 4-count class,
    # although the tie-break would put "a4" first
    assert sample_audioset({"A": 3, "B": 4}, {"x3": ["A"], "a4": ["B"]},
                           2) == ["x3", "a4"]


# -- dataset statistics -----------------------------------------------------------

def _pair(question, answer, task="open_ended", unanswerable=False):
    return QAPair("a", question, answer, task=task, unanswerable=unanswerable)


def test_unique_question_fraction_worked_example():
    # four questions, one duplicated: three distinct of four
    pairs = [_pair("q1", "x1"), _pair("q1", "x2"), _pair("q2", "x3"),
             _pair("q3", "x4")]
    stats = compute_dataset_stats(pairs)
    assert stats.unique_question_fraction == 0.75
    assert stats.unique_answer_fraction == 1.0


def test_scaled_corpus_percentages():
    # 1918 closed + 3764 open rows mirror the corpus-level 33.8% / 66.2% split
    pairs = [_pair(f"c{i}", f"ca{i}", task="classification")
             for i in range(1918)]
    pairs += [_pair(f"o{i}", f"oa{i}") for i in range(3764)]
    stats = compute_dataset_stats(pairs)
    assert stats.total_pairs == 5682
    assert abs(stats.closed_percent - 33.8) < 0.1
    assert abs(stats.open_percent - 66.2) < 0.1
    assert abs(sum(stats.task_percentages.values()) - 100.0) < 1e-9


def test_unanswerable_fraction_is_exact_mean():
    pairs = [_pair(f"q{i}", f"x{i}", unanswerable=i < 3) for i in range(8)]
    assert compute_dataset_stats(pairs).unanswerable_fraction == 3 / 8


def test_stats_reject_empty_manifest():
    with pytest.raises(ValueError):
        compute_dataset_stats([])


def test_stats_random_manifests_are_consistent():
    rng = np.random.default_rng(0)
    tasks = ["classification", "acoustic_features", "caption", "temporal",
             "open_ended"]
    for _ in range(50):
        n = int(rng.integers(1, 40))
        pairs = [_pair(f"q{int(rng.integers(0, 10))}",
                       f"x{int(rng.integers(0, 10))}",
                       task=tasks[int(rng.integers(0, 5))],
                       unanswerable=bool(rng.integers(0, 2)))
                 for _ in range(n)]
        stats = compute_dataset_stats(pairs)
        assert abs(sum(stats.task_percentages.values()) - 100.0) < 1e-9
        assert 0.0 <= stats.unique_question_fraction <= 1.0
        assert 0.0 <= stats.unique_answer_fraction <= 1.0
        assert stats.unanswerable_fraction == \
            sum(p.unanswerable for p in pairs) / n
