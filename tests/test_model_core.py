"""Model-core contracts: LoRA algebra, decoder causality, frozen-base
invariance, the next-token loss, the audio path, gradient checking,
checkpoints."""

from __future__ import annotations

import dataclasses
import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aqakit.cli import main
from aqakit.frontend import (FbankConfig, PatchGrid, Waveform, compute_fbank,
                             encode_patches, patchify, pool_tokens, write_wav)
from aqakit.model import (
    AudioTextLm,
    DecoderConfig,
    GenerationConfig,
    TrainingExample,
    build_qa_ids,
    count_lora_params,
    decode_ids,
    encode_text,
    finite_diff_check,
    generate,
    llama_7b_geometry,
    load_checkpoint,
    next_token_loss,
    prompt_ids,
    save_checkpoint,
)
from aqakit.model import decoder, sampling
from aqakit.model.losses import masked_nll_and_dlogits
from aqakit.model.tokenizer import BOS_ID, EOS_ID, SEP_ID, VOCAB_SIZE
from aqakit.synthetic import DEMO_CLASSES


def tiny_cfg() -> DecoderConfig:
    return DecoderConfig(n_layers=2, n_heads=2, d_model=16, max_seq_len=96,
                         d_audio=8)


def random_audio(cfg: DecoderConfig, seed: int = 0) -> PatchGrid:
    rng = np.random.default_rng(seed)
    return PatchGrid(rng.normal(size=(2 * cfg.n_audio_tokens, 8, 256)))


def random_example(cfg: DecoderConfig, seed: int = 0) -> TrainingExample:
    ids, mask = build_qa_ids("what is it", "a dog")
    return TrainingExample(audio=random_audio(cfg, seed), text_tokens=ids,
                           loss_mask=mask)


# -- tokenizer ---------------------------------------------------------------

def test_tokenizer_roundtrip() -> None:
    for text in ["hello", "Ambulance (siren): [0.0s-1.0s]", "café → ok"]:
        assert decode_ids(encode_text(text)) == text


@given(st.text())
def test_tokenizer_roundtrip_any_text(text: str) -> None:
    assert decode_ids(encode_text(text)) == text


def test_qa_layout_and_mask() -> None:
    ids, mask = build_qa_ids("ab", "xyz")
    assert ids.tolist() == [BOS_ID, 97, 98, SEP_ID, 120, 121, 122, EOS_ID]
    assert mask.tolist() == [False, False, False, False, True, True, True, True]
    ids_cut, mask_cut = build_qa_ids("ab", "xyz", cutoff=5)
    assert ids_cut.size == 5 and mask_cut.size == 5


@given(st.text(), st.text())
def test_qa_ids_start_with_the_prompt(question: str, answer: str) -> None:
    prompt = prompt_ids(question)
    ids, mask = build_qa_ids(question, answer)
    assert prompt[0] == BOS_ID and prompt[-1] == SEP_ID
    assert ids[:len(prompt)].tolist() == prompt
    assert not mask[:len(prompt)].any() and mask[len(prompt):].all()


# -- LoRA --------------------------------------------------------------------

def one_layer_model(d_model: int) -> AudioTextLm:
    """A model to run one decoder block through: one layer, one head."""
    return AudioTextLm(DecoderConfig(n_layers=1, n_heads=1, d_model=d_model,
                                     d_audio=4))


def test_lora_zero_b_is_frozen_map() -> None:
    rng = np.random.default_rng(0)
    model = one_layer_model(4)
    W = model.base["layers.0.attn.wq"] = rng.normal(size=(4, 4))
    model.lora["layers.0.attn.query.lora_A"] = rng.normal(size=(8, 4))
    assert not model.lora["layers.0.attn.query.lora_B"].any()
    x = rng.normal(size=(1, 4))
    _, cache = model._block(0, x, model._layer_weights()[0], None)
    np.testing.assert_array_equal(cache["qh"][0], cache["h1"] @ W.T)


def test_lora_hand_case() -> None:
    # ln1 with gamma 0 and beta [2, 3] hands h1 = [2, 3] to the adapter;
    # with W = I, one live row [1, 1] in A and one live entry 1 in B:
    # h1 A^T = [5, 0, ...] and q = [2, 3] + LORA_SCALE * [5, 0] = [12, 3]
    model = one_layer_model(2)
    p = "layers.0."
    model.base[p + "ln1.gamma"] = np.zeros(2)
    model.base[p + "ln1.beta"] = np.array([2.0, 3.0])
    model.base[p + "attn.wq"] = np.eye(2)
    model.lora[p + "attn.query.lora_A"][0] = 1.0
    model.lora[p + "attn.query.lora_A"][1:] = 0.0
    model.lora[p + "attn.query.lora_B"][0, 0] = 1.0
    _, cache = model._block(0, np.array([[0.3, -0.7]]), model._layer_weights()[0], None)
    np.testing.assert_array_equal(cache["qh"], [[[12.0, 3.0]]])


def test_lora_layout_constants() -> None:
    assert decoder.LORA_RANK == 8 and decoder.LORA_SCALE == 2.0
    assert decoder.LORA_TARGETS == ("query", "key")
    model = AudioTextLm(tiny_cfg())
    assert sorted(model.lora) == sorted(
        f"layers.{i}.attn.{t}.lora_{m}"
        for i in range(2) for t in ("query", "key") for m in "AB")
    for name, arr in model.lora.items():
        assert arr.shape == ((8, 16) if name.endswith("lora_A") else (16, 8))


def test_count_lora_params_llama_and_toy() -> None:
    assert count_lora_params(llama_7b_geometry()) == 4_194_304
    # one layer, two adapters, A and B of 8 x 4 each
    assert count_lora_params(DecoderConfig(n_layers=1, n_heads=1, d_model=4)) == 128
    toy = DecoderConfig()
    assert count_lora_params(toy) == 8192
    # cross-check by enumerating the trainable adapter tensors
    model = AudioTextLm(toy)
    enumerated = sum(v.size for k, v in model.lora.items())
    assert enumerated == 8192


# -- the config's fixed values and checks --------------------------------------

def test_the_vocabulary_is_the_tokenizers() -> None:
    cfg = DecoderConfig()
    assert cfg.vocab_size == VOCAB_SIZE
    shapes = decoder.tensor_shapes(cfg)["base"]
    assert shapes["tok_emb"] == shapes["out.w"] == (VOCAB_SIZE, cfg.d_model)


@pytest.mark.parametrize("seconds", [1, 12])
def test_the_audio_token_count_is_the_frontend_grids(seconds) -> None:
    # a short clip is padded and a long one cut to the same grid
    rng = np.random.default_rng(seconds)
    grid = patchify(compute_fbank(Waveform(rng.uniform(-1, 1, 16000 * seconds))))
    assert grid.patches.shape[:2] == FbankConfig.patch_grid == (64, 8)
    cfg = DecoderConfig(d_audio=8)
    assert pool_tokens(grid.patches).shape[0] == cfg.n_audio_tokens == 32
    assert decoder.tensor_shapes(cfg)["audio"]["audio.enc.pos"] == (64, 8, 8)
    rows, _ = AudioTextLm(cfg)._audio_rows(grid)
    assert rows.shape == (cfg.n_audio_tokens, cfg.d_model)


@pytest.mark.parametrize("field", ["vocab_size", "n_audio_tokens"])
def test_the_fixed_config_values_are_not_settable(field) -> None:
    with pytest.raises(TypeError, match=field):
        DecoderConfig(**{field: 16})


@pytest.mark.parametrize("kwargs, message", [
    ({"n_layers": -1}, "n_layers must be >= 0, got -1"),
    ({"n_heads": 0}, "n_heads must be >= 1, got 0"),
    ({"d_model": 0}, "d_model must be >= 1, got 0"),
    ({"max_seq_len": 0}, "max_seq_len must be >= 1, got 0"),
    ({"d_audio": -3}, "d_audio must be >= 1, got -3"),
    ({"mlp_ratio": 0}, "mlp_ratio must be >= 1, got 0"),
    ({"d_model": 30, "n_heads": 4}, "d_model must be divisible by n_heads"),
], ids=["n_layers", "n_heads", "d_model", "max_seq_len", "d_audio", "mlp_ratio",
        "indivisible"])
def test_config_rejects_a_bad_size(kwargs, message) -> None:
    with pytest.raises(ValueError) as err:
        DecoderConfig(**kwargs)
    assert str(err.value) == message


# -- decoder forward ---------------------------------------------------------

def test_decoder_logit_shape() -> None:
    cfg = tiny_cfg()
    model = AudioTextLm(cfg, seed=1)
    logits = model.forward(random_audio(cfg), np.arange(10))
    assert logits.shape == (10, cfg.vocab_size)


def test_decoder_rejects_overlong() -> None:
    cfg = tiny_cfg()
    model = AudioTextLm(cfg, seed=1)
    with pytest.raises(ValueError):
        model.forward(random_audio(cfg), np.zeros(cfg.max_seq_len, dtype=np.int64))


def test_decoder_causality_all_positions() -> None:
    cfg = tiny_cfg()
    model = AudioTextLm(cfg, seed=2)
    audio = random_audio(cfg, 3)
    ids = np.array([BOS_ID, 97, 98, 99, 100, 101])
    ref = model.forward(audio, ids)
    for j in range(1, ids.size):
        mutated = ids.copy()
        mutated[j] = 102
        out = model.forward(audio, mutated)
        np.testing.assert_array_equal(out[:j], ref[:j])
        assert not np.allclose(out[j], ref[j])


def test_decoder_audio_permutation_changes_logits() -> None:
    cfg = tiny_cfg()
    model = AudioTextLm(cfg, seed=4)
    patches = random_audio(cfg, 5).patches
    # grid rows 2t and 2t+1 pool into audio token t: swap tokens 0 and 1
    swapped = patches.copy()
    swapped[[0, 1, 2, 3]] = swapped[[2, 3, 0, 1]]
    ids = np.array([BOS_ID, 97, 98])
    a = model.forward(PatchGrid(patches), ids)
    b = model.forward(PatchGrid(swapped), ids)
    assert not np.array_equal(a, b)


def test_frozen_base_invariance_zero_b() -> None:
    cfg = tiny_cfg()
    audio = random_audio(cfg, 7)
    ids = np.array([BOS_ID, 104, 105, 106])
    model = AudioTextLm(cfg, seed=6)
    ref = model.forward(audio, ids)
    # scrambling A with B still zero must not move a single bit
    rng = np.random.default_rng(8)
    for name in model.lora:
        if name.endswith("lora_A"):
            model.lora[name] = rng.normal(size=model.lora[name].shape)
    np.testing.assert_array_equal(model.forward(audio, ids), ref)


def test_sgd_step_touches_only_trainables() -> None:
    cfg = tiny_cfg()
    model = AudioTextLm(cfg, seed=9)
    before = {k: v.copy() for k, v in model.base.items()}
    loss, grads = model.loss_and_grads(random_example(cfg, 1))
    assert math.isfinite(loss)
    model.sgd_step(grads, lr=0.1)
    for name, arr in model.base.items():
        np.testing.assert_array_equal(arr, before[name])


# -- cached decoding ---------------------------------------------------------

# the adapters given a live lora_B; each set checks that the cached path
# carries exactly those adapters' contributions
LIVE_TARGET_SETS = [(), ("query",), ("key",), ("query", "key")]


def adapted_model(targets=("query", "key"), max_seq_len: int = 160,
                  seed: int = 41) -> AudioTextLm:
    """A small model whose adapters on targets are live: lora_B is nonzero."""
    cfg = DecoderConfig(n_layers=2, n_heads=2, d_model=16, max_seq_len=max_seq_len,
                        d_audio=8)
    model = AudioTextLm(cfg, seed=seed)
    rng = np.random.default_rng(seed)
    for name in model.lora:
        if name.endswith("lora_B") and name.split(".")[3] in targets:
            model.lora[name] = rng.normal(0.0, 0.05, size=model.lora[name].shape)
    return model


@pytest.mark.parametrize("targets", LIVE_TARGET_SETS)
def test_merged_projection_matches_factored_lora(targets) -> None:
    model = adapted_model(targets)
    c, n = model.cfg, 7
    x = np.random.default_rng(48).normal(size=(n, c.d_model))
    for i, lw in enumerate(model._layer_weights()):
        _, cache = model._block(i, x, lw, decoder._causal_mask(n, 0))
        h1 = cache["h1"]
        p = f"layers.{i}.attn."
        for t, w, heads in (("query", "wq", cache["qh"]), ("key", "wk", cache["kh"]),
                            (None, "wv", cache["vh"])):
            want = h1 @ model.base[p + w].T
            if t is not None:
                want += decoder.LORA_SCALE * ((h1 @ model.lora[p + f"{t}.lora_A"].T)
                                              @ model.lora[p + f"{t}.lora_B"].T)
            got = heads.transpose(1, 0, 2).reshape(n, c.d_model)
            assert np.abs(got - want).max() <= 1e-12


def full_recompute_generate(model, audio, prompt_ids, cfg: GenerationConfig) -> list[int]:
    """Reference decoder: one full forward over the whole sequence per token."""
    rng = np.random.default_rng(cfg.seed)
    prompt = [int(t) for t in prompt_ids]
    generated: list[int] = []
    for _ in range(cfg.max_new_tokens):
        logits = model.forward(audio, np.array(prompt + generated, dtype=np.int64))
        generated.append(sampling.sample_next_id(logits[-1], generated, cfg, rng))
        if generated[-1] == EOS_ID:
            break
    return generated


@pytest.mark.parametrize("targets", LIVE_TARGET_SETS)
def test_prefill_and_step_match_forward_at_every_position(targets, monkeypatch) -> None:
    model = adapted_model(targets)
    rows = []

    def recorded(method):
        def call(*args):
            out = method(*args)
            rows.append(out[0] if isinstance(out, tuple) else out)
            return out
        return call

    monkeypatch.setattr(model, "prefill", recorded(model.prefill))
    monkeypatch.setattr(model, "step", recorded(model.step))
    audio = random_audio(model.cfg, 42)
    prompt = [BOS_ID] + encode_text("what sound is this?") + [SEP_ID]
    cfg = GenerationConfig(max_new_tokens=64, seed=3)
    ids = generate(model, audio, np.array(prompt), cfg).tolist()
    assert len(ids) == 64
    # prefill gives the prompt's last row, each step one more
    full = model.forward(audio, np.array(prompt + ids[:-1]))[len(prompt) - 1:]
    assert len(rows) == full.shape[0] == 64
    assert np.abs(np.array(rows) - full).max() <= 1e-12


@pytest.mark.parametrize("targets", LIVE_TARGET_SETS)
@pytest.mark.parametrize("temperature", [0.1, 0.0])
def test_generate_equals_full_recompute(targets, temperature: float) -> None:
    model = adapted_model(targets)
    audio = random_audio(model.cfg, 43)
    prompt = np.array([BOS_ID] + encode_text("count the barks") + [SEP_ID])
    cfg = GenerationConfig(temperature=temperature, max_new_tokens=64, seed=5)
    got = generate(model, audio, prompt, cfg).tolist()
    assert got == full_recompute_generate(model, audio, prompt, cfg)


def test_context_overrun_raises_at_the_same_token(monkeypatch) -> None:
    model = adapted_model(max_seq_len=96)
    audio = random_audio(model.cfg, 44)
    prompt = np.array([BOS_ID] + encode_text("x" * 48) + [SEP_ID])
    cfg = GenerationConfig(max_new_tokens=64, seed=7)
    sampled = []
    real = sampling.sample_next_id

    def counting(*args):
        sampled.append(real(*args))
        return sampled[-1]

    monkeypatch.setattr(sampling, "sample_next_id", counting)
    outcomes = []
    for decode in (generate, full_recompute_generate):
        sampled.clear()
        with pytest.raises(ValueError, match="exceeds max") as err:
            decode(model, audio, prompt, cfg)
        outcomes.append((str(err.value), list(sampled)))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == "sequence length 97 exceeds max 96"
    # token j needs 32 audio + len(prompt) + j positions
    assert len(outcomes[0][1]) == 96 - 32 - prompt.size + 1
    assert EOS_ID not in outcomes[0][1]


def test_generate_encodes_the_clip_once(monkeypatch) -> None:
    model = adapted_model()
    calls = []
    real = decoder.encode_patches

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(decoder, "encode_patches", counting)
    cfg = GenerationConfig(max_new_tokens=24, seed=1)
    out = generate(model, random_audio(model.cfg, 45), np.array([BOS_ID, 97]), cfg)
    assert out.size == 24
    assert len(calls) == 1


def test_generate_merges_the_adapters_once(monkeypatch) -> None:
    model = adapted_model()
    calls = []
    real = model._layer_weights

    def counting():
        calls.append(1)
        return real()

    monkeypatch.setattr(model, "_layer_weights", counting)
    cfg = GenerationConfig(max_new_tokens=24, seed=1)
    out = generate(model, random_audio(model.cfg, 45), np.array([BOS_ID, 97]), cfg)
    assert out.size == 24
    assert len(calls) == 1


@pytest.mark.parametrize("field", ["temperature"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_generation_config_rejects_non_finite_values(field: str, value: float) -> None:
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        GenerationConfig(**{field: value})


@pytest.mark.parametrize("field", ["max_new_tokens", "seed"])
def test_generation_config_takes_only_integer_counts(field: str) -> None:
    with pytest.raises(ValueError) as err:
        GenerationConfig(**{field: 2.5})
    assert str(err.value) == f"{field} must be an integer, got 2.5"
    cfg = GenerationConfig(**{field: np.int64(3)})
    assert getattr(cfg, field) == 3 and type(getattr(cfg, field)) is int
    least = {"max_new_tokens": 1, "seed": 0}[field]
    with pytest.raises(ValueError) as err:
        GenerationConfig(**{field: least - 1})
    assert str(err.value) == f"{field} must be >= {least}, got {least - 1}"


def test_generation_config_fixes_the_papers_recipe() -> None:
    for field in ("top_k", "top_p", "repetition_penalty"):
        with pytest.raises(TypeError):
            GenerationConfig(**{field: 1.0})
    cfg = GenerationConfig()
    assert (cfg.top_p, cfg.repetition_penalty) == (0.95, 1.1)


def test_sample_next_id_draws_as_generator_choice(monkeypatch) -> None:
    meta = np.random.default_rng(48)
    cfg = GenerationConfig(temperature=1.0)
    for case in range(1200):
        n = 1 if case % 8 == 0 else int(meta.integers(2, VOCAB_SIZE + 1))
        kept = meta.permutation(VOCAB_SIZE)[:n]
        p = meta.random(n) ** meta.uniform(0.5, 8.0)
        p /= p.sum()
        monkeypatch.setattr(sampling, "truncated_distribution", lambda *_: (kept, p))
        seed = int(meta.integers(2**32))
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            got = sampling.sample_next_id(np.zeros(VOCAB_SIZE), [], cfg, got_rng)
            assert got == int(want_rng.choice(kept, p=p))
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def reference_truncated_distribution(logits: np.ndarray, temperature: float):
    """Reference: temperature, the paper's top-k of 500 as an explicit
    slice, then top-p 0.95, then renormalize (highest probability first)."""
    z = np.asarray(logits, dtype=np.float64) / temperature
    z = z - z.max()
    probs = np.exp(z)
    probs /= probs.sum()
    order = np.argsort(-probs, kind="stable")
    kept = order[:min(500, order.size)]
    kept_probs = probs[kept]
    before = np.cumsum(kept_probs) - kept_probs
    kept = kept[before < 0.95]
    kept_probs = probs[kept]
    return kept, kept_probs / kept_probs.sum()


def reference_sample_next_id(logits, emitted_ids, temperature: float, rng) -> int:
    """Reference: repetition penalty 1.1, then the top-k/top-p draw above
    (greedy argmax at temperature 0)."""
    logits = np.array(logits, dtype=np.float64)
    for tid in set(emitted_ids):
        logits[tid] = logits[tid] / 1.1 if logits[tid] > 0 else logits[tid] * 1.1
    if temperature == 0.0:
        return int(np.argmax(logits))
    kept, kept_probs = reference_truncated_distribution(logits, temperature)
    cdf = np.cumsum(kept_probs)
    cdf /= cdf[-1]
    return int(kept[cdf.searchsorted(rng.random(), side="right")])


def test_sampler_without_top_k_matches_the_top_k_reference() -> None:
    """A top-k of 500 never cuts the 260-id vocabulary: ids, distributions
    and generator states match the reference that slices it."""
    meta = np.random.default_rng(53)
    nucleus_sizes = set()
    for case in range(1200):
        logits = meta.normal(size=VOCAB_SIZE) * math.exp(meta.uniform(-2.0, 3.0))
        if case % 5 == 0:
            logits = np.round(logits)   # ties exercise the stable order
        temperature = [0.1, 0.0, float(math.exp(meta.uniform(-4.0, 2.0)))][case % 3]
        emitted = meta.integers(0, VOCAB_SIZE, size=int(meta.integers(0, 65))).tolist()
        cfg = GenerationConfig(temperature=temperature)
        if temperature > 0.0:
            penalized = sampling.apply_repetition_penalty(logits, emitted, 1.1)
            got = sampling.truncated_distribution(penalized, cfg)
            want = reference_truncated_distribution(penalized, temperature)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1].view(np.uint64), want[1].view(np.uint64))
            nucleus_sizes.add(got[0].size)
        seed = int(meta.integers(2**32))
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            got_id = sampling.sample_next_id(logits, emitted, cfg, got_rng)
            assert got_id == reference_sample_next_id(logits, emitted, temperature, want_rng)
            emitted.append(got_id)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
    # the nucleus keeps from one id to nearly all 260
    assert min(nucleus_sizes) == 1 and max(nucleus_sizes) > 240 and len(nucleus_sizes) > 100


@pytest.mark.parametrize("temperature, logit, message", [
    (1.0, math.nan, "logits contain NaN"),
    (0.0, math.nan, "logits contain NaN"),
    (1e-320, 0.5, "logits / temperature are infinite at temperature 1e-320"),
])
def test_sampler_names_non_finite_scaled_logits(temperature: float, logit: float,
                                                message: str) -> None:
    logits = np.linspace(-1.0, 0.25, VOCAB_SIZE)
    logits[7] = logit
    cfg = GenerationConfig(temperature=temperature)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as err:
            sampling.sample_next_id(logits, [], cfg, np.random.default_rng(0))
    assert str(err.value) == message


def reference_top_probability(logits: np.ndarray, temperature: float) -> float:
    """The largest probability after temperature, in the reference's arithmetic."""
    z = logits / temperature
    z = z - z.max()
    probs = np.exp(z)
    probs /= probs.sum()
    return float(probs.max())


def float_bits(x: float) -> int:
    return int(np.float64(x).view(np.int64))


def logits_with_top_probability(target: float, temperature: float) -> np.ndarray:
    """Logits whose top probability after temperature is exactly target
    (just under 1). Id 137 leads at 0 and the rest put the top 1e-6 above
    target; then id 3's logit rises from -60 temperatures until the top
    falls to target, found by bisection over its float bits, where one
    step moves the top by far less than an ulp."""
    rng = np.random.default_rng(58)
    scaled = -rng.uniform(0.0, 1.0, VOCAB_SIZE)
    rest = np.ones(VOCAB_SIZE, dtype=bool)
    rest[[3, 137]] = False
    scaled[rest] += math.log((1.0 / (target + 1e-6) - 1.0) / np.exp(scaled[rest]).sum())
    scaled[137] = 0.0

    def top(knob_bits: int) -> float:
        # id 3 sits at -x temperatures for the x of these bits
        scaled[3] = -float(np.int64(knob_bits).view(np.float64))
        return reference_top_probability(scaled * temperature, temperature)

    low, high = float_bits(5.0), float_bits(60.0)  # the top reads below, then above
    assert top(low) < target <= top(high)
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (low, mid) if top(mid) >= target else (mid, high)
    assert top(high) == target
    return scaled * temperature


# top_p and the probabilities near it are on a grid of 2**-53. The top
# probability is 1 / s for the sum s of the exponentials, and 1 / s skips
# top_p itself: -1 and +1 ulp are the tops nearest it
NUCLEUS_EDGE_ULPS = [-3, -1, 1, 3, 4, 6]


def test_no_top_probability_lands_on_top_p() -> None:
    top_p = GenerationConfig().top_p
    sums = [1.0 / top_p + k * 2**-52 for k in range(-8, 9)]
    tops = sorted(round((1.0 / s - top_p) / 2**-53) for s in sums)
    assert 0 not in tops and set(NUCLEUS_EDGE_ULPS) <= set(tops)


@pytest.mark.parametrize("temperature", [0.1, 1.0])
@pytest.mark.parametrize("ulps", NUCLEUS_EDGE_ULPS)
def test_one_id_nucleus_matches_the_reference_at_its_edge(temperature: float,
                                                          ulps: int) -> None:
    # top_p + 4 ulps is top_p + 2**-51, the first top the one-id path takes
    top_p = GenerationConfig().top_p
    target = top_p + ulps * 2**-53
    logits = logits_with_top_probability(target, temperature)
    cfg = GenerationConfig(temperature=temperature)
    got = sampling.truncated_distribution(logits, cfg)
    want = reference_truncated_distribution(logits, temperature)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1].view(np.uint64), want[1].view(np.uint64))
    if ulps >= 4:
        assert got[0].tolist() == [137] and got[1].tolist() == [1.0]
    if ulps <= -3:
        assert got[0].size > 1
    got_rng, want_rng = np.random.default_rng(ulps + 10), np.random.default_rng(ulps + 10)
    for _ in range(3):
        assert sampling.sample_next_id(logits, [], cfg, got_rng) == \
            reference_sample_next_id(logits, [], temperature, want_rng)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("temperature", [0.1, 1.0])
def test_a_one_id_nucleus_ranks_nothing(temperature: float, monkeypatch) -> None:
    def no_ranking(*args, **kwargs):
        raise AssertionError("the vocabulary was ranked")

    cfg = GenerationConfig(temperature=temperature)
    top_p = cfg.top_p
    clear = np.full(VOCAB_SIZE, -20.0 * temperature)
    clear[9] = 0.0
    answered = [clear] + [logits_with_top_probability(top_p + ulps * 2**-53, temperature)
                          for ulps in (4, 6)]
    ranked = [logits_with_top_probability(top_p + ulps * 2**-53, temperature)
              for ulps in (-3, 1, 3)]
    monkeypatch.setattr(np, "argsort", no_ranking)
    for logits in answered:
        kept, kept_probs = sampling.truncated_distribution(logits, cfg)
        assert kept.tolist() == [int(logits.argmax())] and kept_probs.tolist() == [1.0]
    for logits in ranked:
        with pytest.raises(AssertionError, match="the vocabulary was ranked"):
            sampling.truncated_distribution(logits, cfg)


def additive_softmax(scores: np.ndarray, keep: np.ndarray | None) -> np.ndarray:
    """Reference: softmax with -inf added to the lanes keep drops."""
    if keep is not None:
        scores = scores + np.where(keep, 0.0, -np.inf)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


@pytest.mark.parametrize("n, start", [(1, 0), (5, 0), (4, 3), (1, 6)])
def test_causal_mask_keeps_the_keys_up_to_each_query(n: int, start: int) -> None:
    additive = np.triu(np.full((n, start + n), -np.inf), k=start + 1)
    assert np.array_equal(decoder._causal_mask(n, start), additive == 0.0)


def test_softmax_matches_the_additive_mask_bit_for_bit(monkeypatch) -> None:
    model = adapted_model()
    calls = []
    real = decoder._softmax_rows

    def recorded(scores, keep=None):
        before = scores.copy()
        out = real(scores, keep)
        calls.append((before, keep, out.copy()))
        return out

    monkeypatch.setattr(decoder, "_softmax_rows", recorded)
    audio = random_audio(model.cfg, 47)
    ids = np.array([BOS_ID] + encode_text("what sound") + [SEP_ID, 97, 98])
    model.forward(audio, ids)
    _, kv = model.prefill(audio, ids[:-1])
    model.step(kv, ids[-1])
    model.loss_and_grads(TrainingExample(audio, ids, np.arange(ids.size) >= ids.size - 2))
    layers = model.cfg.n_layers
    assert len(calls) == 4 * layers
    # step's single row needs no mask; the read span's last layer keeps only
    # the rows of its two targets' logits
    assert [keep is None for _, keep, _ in calls] == [False] * 2 * layers + [True] * layers \
        + [False] * layers
    assert calls[-1][1].shape == (2, 32 + ids.size - 1)
    for before, keep, got in calls:
        want = additive_softmax(before, keep)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_step_past_the_context_leaves_the_cache_as_it_was() -> None:
    model = adapted_model(max_seq_len=96)
    prompt = np.array([BOS_ID] + encode_text("x" * 62) + [SEP_ID])
    _, kv = model.prefill(random_audio(model.cfg, 46), prompt)
    assert kv.length == 96
    keys, values = kv.keys.copy(), kv.values.copy()
    with pytest.raises(ValueError) as err:
        model.step(kv, 97)
    assert str(err.value) == "sequence length 97 exceeds max 96"
    assert kv.length == 96
    assert np.array_equal(kv.keys, keys, equal_nan=True)
    assert np.array_equal(kv.values, values, equal_nan=True)


def vocab_message(token_id: int, pos: int) -> str:
    return (f"token id {token_id} at position {pos} is outside the vocabulary "
            f"(vocab_size {VOCAB_SIZE})")


@pytest.mark.parametrize("bad", [-1, VOCAB_SIZE])
@pytest.mark.parametrize("entry", ["forward", "prefill"])
def test_forward_and_prefill_reject_ids_outside_the_vocabulary(bad: int,
                                                               entry: str) -> None:
    # -1 used to embed SEP_ID's row, VOCAB_SIZE to fail inside numpy
    model = adapted_model()
    ids = np.array([BOS_ID, 97, bad, SEP_ID])
    with pytest.raises(ValueError) as err:
        getattr(model, entry)(random_audio(model.cfg, 52), ids)
    assert str(err.value) == vocab_message(bad, 2)


@pytest.mark.parametrize("bad", [-1, VOCAB_SIZE, 10**12])
def test_a_rejected_step_leaves_the_cache_as_it_was(bad: int) -> None:
    model = adapted_model()
    prompt = np.array([BOS_ID, 97, SEP_ID])
    _, kv = model.prefill(random_audio(model.cfg, 53), prompt)
    keys, values, length = kv.keys.copy(), kv.values.copy(), kv.length
    with pytest.raises(ValueError) as err:
        model.step(kv, bad)
    # the text position the token would take, as forward over the whole
    # sequence would name it
    assert str(err.value) == vocab_message(bad, prompt.size)
    assert kv.length == length
    assert np.array_equal(kv.keys, keys, equal_nan=True)
    assert np.array_equal(kv.values, values, equal_nan=True)


@pytest.mark.parametrize("bad", [-1, VOCAB_SIZE])
def test_training_example_rejects_ids_outside_the_vocabulary(bad: int) -> None:
    ids, mask = build_qa_ids("what is it", "a dog")
    ids[-1] = bad  # a supervised target, never an input row
    with pytest.raises(ValueError) as err:
        TrainingExample(random_audio(tiny_cfg()), ids, mask)
    assert str(err.value) == vocab_message(bad, ids.size - 1)


def test_the_weight_table_is_built_per_call(monkeypatch) -> None:
    model = adapted_model()
    audio = random_audio(model.cfg, 54)
    prompt = np.array(prompt_ids("what is it?"))
    cfg = GenerationConfig(max_new_tokens=12, seed=3)
    caches = []
    real_prefill = model.prefill

    def recorded(*args):
        logits, kv = real_prefill(*args)
        caches.append(kv)
        return logits, kv

    monkeypatch.setattr(model, "prefill", recorded)
    first = generate(model, audio, prompt, cfg)
    kv = caches[0]
    stale = dataclasses.replace(kv, keys=kv.keys.copy(), values=kv.values.copy())
    want_step = model.step(stale, 97)

    rng = np.random.default_rng(55)
    name = "layers.1.mlp.w1"
    model.base[name] = rng.normal(0.0, 0.1, size=model.base[name].shape)
    model.lora["layers.0.attn.key.lora_B"] += 0.05
    second = generate(model, audio, prompt, cfg)
    fresh = AudioTextLm.from_tensors(model.cfg, {
        group: {k: v.copy() for k, v in getattr(model, group).items()}
        for group in ("base", "lora", "audio")})
    assert np.array_equal(second, generate(fresh, audio, prompt, cfg))
    assert not np.array_equal(second, first)
    # the first request's cache keeps the weights its prefill merged
    got_step = model.step(kv, 97)
    assert np.array_equal(got_step.view(np.uint64), want_step.view(np.uint64))


def test_prefill_fills_the_cache_as_a_pass_over_every_row() -> None:
    model = adapted_model()
    audio = random_audio(model.cfg, 49)
    prompt = np.array([BOS_ID] + encode_text("is a dog barking?") + [SEP_ID])
    _, kv = model.prefill(audio, prompt)
    # reference: every row runs the whole stack into a fresh cache
    c = model.cfg
    shape = (c.n_layers, c.n_heads, c.max_seq_len, c.d_head)
    ref = decoder.KvCache(np.zeros(shape), np.zeros(shape), 0, model._layer_weights())
    x = model._input_rows(model._audio_rows(audio)[0], prompt)
    model._run(x, ref.weights, ref, first=0)
    assert kv.length == ref.length == c.n_audio_tokens + prompt.size
    filled = slice(0, kv.length)
    for got, want in ((kv.keys, ref.keys), (kv.values, ref.values)):
        assert np.array_equal(got[:, :, filled].view(np.uint64),
                              want[:, :, filled].view(np.uint64))
    assert all(np.array_equal(a.w_qkv.view(np.uint64), b.w_qkv.view(np.uint64))
               for a, b in zip(kv.weights, ref.weights, strict=True))


@pytest.mark.parametrize("n_layers", [4, 1, 0])
def test_prefill_logits_are_the_last_row_of_forward(n_layers: int) -> None:
    cfg = DecoderConfig(n_layers=n_layers, n_heads=2, d_model=16, max_seq_len=96,
                        d_audio=8)
    model = AudioTextLm(cfg, seed=50)
    audio = random_audio(cfg, 50)
    prompt = np.array([BOS_ID] + encode_text("what do you hear") + [SEP_ID])
    logits, _ = model.prefill(audio, prompt)
    assert logits.shape == (cfg.vocab_size,)
    assert np.abs(logits - model.forward(audio, prompt)[-1]).max() <= 1e-12


def test_prefill_keeps_no_backward_intermediates() -> None:
    # default geometry, 32 audio rows and a 128-token prompt: 160 rows. A
    # prefill that kept every layer's intermediates and ran the last layer,
    # the norm and the head on every row peaked at 8.60 MB; one that frees
    # them and runs that tail on the last row peaks at 5.23 MB
    model = AudioTextLm(DecoderConfig(), seed=0)
    rng = np.random.default_rng(51)
    audio = random_audio(model.cfg, 51)
    prompt = rng.integers(0, model.cfg.vocab_size, size=128)
    model.prefill(audio, prompt)
    tracemalloc.start()
    try:
        model.prefill(audio, prompt)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6.5e6


@pytest.mark.parametrize("cached", [False, True])
@pytest.mark.parametrize("first", [0, 4])
def test_a_block_without_keep_returns_the_same_rows_and_no_intermediates(
        cached: bool, first: int) -> None:
    model = adapted_model()
    c, n, start = model.cfg, 6, 5
    rng = np.random.default_rng(59)
    x = rng.normal(size=(n, c.d_model))
    shape = (c.n_layers, c.n_heads, c.max_seq_len, c.d_head)
    old_keys, old_values = rng.normal(size=shape), rng.normal(size=shape)
    lw = model._layer_weights()[1]
    runs = []
    for keep in (True, False):
        past = decoder.KvCache(old_keys.copy(), old_values.copy(), start, []) \
            if cached else None
        causal = decoder._causal_mask(n, start if cached else 0)[first:]
        out, cache = model._block(1, x, lw, causal, past, first, keep)
        runs.append((out, cache, past))
    (kept_out, kept_cache, kept_past), (out, cache, past) = runs
    assert isinstance(kept_cache, dict) and cache is None
    assert out.shape == (n - first, c.d_model)
    assert np.array_equal(out.view(np.uint64), kept_out.view(np.uint64))
    if cached:
        assert past.length == kept_past.length == start
        assert np.array_equal(past.keys.view(np.uint64), kept_past.keys.view(np.uint64))
        assert np.array_equal(past.values.view(np.uint64), kept_past.values.view(np.uint64))


def test_forward_with_want_cache_keeps_one_cache_per_layer() -> None:
    model = adapted_model()
    audio = random_audio(model.cfg, 60)
    ids = np.array([BOS_ID] + encode_text("what sound") + [SEP_ID, 97])
    logits, cache = model.forward(audio, ids, want_cache=True)
    assert len(cache["layers"]) == model.cfg.n_layers
    assert all(isinstance(lc, dict) and "probs" in lc for lc in cache["layers"])
    plain = model.forward(audio, ids)
    assert np.array_equal(logits.view(np.uint64), plain.view(np.uint64))


@pytest.mark.parametrize("temperature", [0.0, 0.5])
def test_generate_leaves_every_base_tensor_as_it_was(temperature: float) -> None:
    # step embeds its token through a view of tok_emb
    model = adapted_model()
    before = {name: arr.copy() for name, arr in model.base.items()}
    cfg = GenerationConfig(temperature=temperature, max_new_tokens=24, seed=4)
    generate(model, random_audio(model.cfg, 61), np.array(prompt_ids("what is it?")), cfg)
    for name, arr in model.base.items():
        assert np.array_equal(arr.view(np.uint64), before[name].view(np.uint64)), name


def test_repetition_penalty_reads_numpy_ids_as_python_ones() -> None:
    rng = np.random.default_rng(62)
    logits = rng.normal(size=VOCAB_SIZE)
    emitted = rng.integers(0, VOCAB_SIZE, size=40)
    want = sampling.apply_repetition_penalty(logits, emitted.tolist(), 1.1)
    for ids in (emitted, list(emitted)):
        got = sampling.apply_repetition_penalty(logits, ids, 1.1)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_repetition_penalty_returns_a_new_array_of_the_old_values() -> None:
    rng = np.random.default_rng(52)
    logits = rng.normal(size=VOCAB_SIZE)
    emitted = rng.integers(0, VOCAB_SIZE, size=40).tolist()
    got = sampling.apply_repetition_penalty(logits, emitted, 1.3)
    # the old two-copy form, loop included
    want = logits.astype(np.float64).copy()
    for tid in set(emitted):
        want[tid] = want[tid] / 1.3 if want[tid] > 0 else want[tid] * 1.3
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert not np.shares_memory(got, logits)
    assert got.dtype == np.float64 and got.flags.writeable
    single = sampling.apply_repetition_penalty(logits.astype(np.float32), [], 1.3)
    assert single.dtype == np.float64


@pytest.mark.parametrize("tid", [-1, 2, 5])
def test_repetition_penalty_rejects_an_id_outside_the_logits(tid: int) -> None:
    with pytest.raises(ValueError) as err:
        sampling.apply_repetition_penalty(np.array([0.5, 0.3]), [0, tid], 1.1)
    assert str(err.value) == f"emitted id {tid} is outside the vocabulary (vocab_size 2)"


def test_layer_norm_matches_numpy_mean_and_var() -> None:
    rng = np.random.default_rng(47)
    for n_rows in (1, 2, 7, 64, 199):
        for scale in (0.01, 1.0, 100.0):
            x = rng.normal(0.0, scale, size=(n_rows, 64)) + rng.normal(0.0, scale)
            gamma, beta = rng.normal(size=64), rng.normal(size=64)
            mu = x.mean(axis=1, keepdims=True)
            ivar = 1.0 / np.sqrt(x.var(axis=1, keepdims=True) + decoder.LN_EPS)
            xhat = (x - mu) * ivar
            out, (got_xhat, got_ivar) = decoder._ln_forward(x, gamma, beta)
            assert np.array_equal(out, xhat * gamma + beta)
            assert np.array_equal(got_xhat, xhat)
            assert np.array_equal(got_ivar, ivar)


@pytest.mark.parametrize("width", [2, 16, 96])
def test_one_row_layer_norm_is_a_row_of_the_multi_row_one(width: int) -> None:
    rng = np.random.default_rng(58 + width)
    gamma, beta = rng.normal(size=width), rng.normal(size=width)
    x = rng.normal(0.3, 2.0, size=(5, width))
    x[2] = 0.5  # a constant row: variance 0, ivar 1 / sqrt(LN_EPS)
    dy = rng.normal(size=(5, width))
    many_out, many_cache = decoder._ln_forward(x, gamma, beta)
    many_dx = decoder._ln_backward(dy, many_cache, gamma)
    for r in range(x.shape[0]):
        out, (xhat, ivar) = decoder._ln_forward(x[r:r + 1], gamma, beta)
        assert ivar.shape == (1, 1)
        want_ivar = 1.0 / np.sqrt(x[r:r + 1].var(axis=1, keepdims=True) + decoder.LN_EPS)
        assert np.array_equal(ivar, want_ivar)
        for got, want in ((out, many_out[r:r + 1]), (xhat, many_cache[0][r:r + 1]),
                          (ivar, many_cache[1][r:r + 1])):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        dx = decoder._ln_backward(dy[r:r + 1], (xhat, ivar), gamma)
        assert np.array_equal(dx.view(np.uint64), many_dx[r:r + 1].view(np.uint64))
    assert many_cache[1][2, 0] == 1.0 / math.sqrt(decoder.LN_EPS)
    assert not many_cache[0][2].any()


# -- next-token loss ---------------------------------------------------------

def test_loss_uniform_vocab_50() -> None:
    logits = np.zeros((4, 50))
    loss = next_token_loss(logits, np.array([3, 1, 4, 1]), np.ones(4, dtype=bool))
    assert abs(loss - math.log(50)) < 1e-12


def test_loss_confident_target_near_zero() -> None:
    logits = np.zeros((2, 10))
    logits[0, 7] = 1e6
    logits[1, 2] = 1e6
    loss = next_token_loss(logits, np.array([7, 2]), np.ones(2, dtype=bool))
    assert loss < 1e-6


def test_loss_hand_case_two_positions() -> None:
    logits = np.array([[0.3, -0.2, 0.1], [1.0, 2.0, -1.0]])
    targets = np.array([2, 0])
    expected = 0.0
    for row, t in zip(logits, targets):
        denom = sum(math.exp(v) for v in row)
        expected -= math.log(math.exp(row[t]) / denom)
    expected /= 2
    loss = next_token_loss(logits, targets, np.ones(2, dtype=bool))
    assert abs(loss - expected) < 1e-12


def test_loss_shift_invariance_and_mask() -> None:
    rng = np.random.default_rng(11)
    logits = rng.normal(size=(5, 7))
    targets = rng.integers(0, 7, size=5)
    mask = np.array([False, True, True, False, True])
    base = next_token_loss(logits, targets, mask)
    shifted = logits + rng.normal(size=(5, 1))
    assert abs(next_token_loss(shifted, targets, mask) - base) < 1e-10
    with pytest.raises(ValueError):
        next_token_loss(logits, targets, np.zeros(5, dtype=bool))


def test_loss_gradient_matches_probability_identity() -> None:
    rng = np.random.default_rng(12)
    logits = rng.normal(size=(4, 6))
    targets = rng.integers(0, 6, size=4)
    mask = np.array([True, False, True, True])
    _, dlogits = masked_nll_and_dlogits(logits, targets, mask)
    assert np.array_equal(dlogits[1], np.zeros(6))
    np.testing.assert_allclose(dlogits[mask].sum(axis=1), 0.0, atol=1e-12)


def test_loss_rejects_length_mismatch() -> None:
    logits = np.zeros((4, 6))
    for targets, mask in [(np.zeros(3, dtype=int), np.ones(3, dtype=bool)),
                          (np.zeros(4, dtype=int), np.ones(5, dtype=bool))]:
        with pytest.raises(ValueError):
            masked_nll_and_dlogits(logits, targets, mask)
        with pytest.raises(ValueError):
            next_token_loss(logits, targets, mask)


# -- audio path --------------------------------------------------------------

def encode_then_pool(model: AudioTextLm, audio: PatchGrid, da: np.ndarray):
    """Reference: the audio path that encodes every patch and pools after.
    Returns its audio rows and, from da, the gradient on those rows, the
    gradients of the five audio tensors."""
    a = model.audio
    emb = encode_patches(audio, a["audio.enc.weight"], a["audio.enc.bias"],
                         a["audio.enc.pos"])
    tokens = pool_tokens(emb)
    rows = tokens @ a["audio.proj.weight"] + a["audio.proj.bias"]
    dtokens = da @ a["audio.proj.weight"].T
    t_dim, n_freq, d_audio = emb.shape
    demb = np.repeat(dtokens[:, None, :], 2 * n_freq, axis=1) / (2 * n_freq)
    demb = demb.reshape(t_dim, n_freq, d_audio)
    flat_p = audio.patches.reshape(-1, audio.patches.shape[2])
    flat_d = demb.reshape(-1, d_audio)
    return rows, {"audio.proj.weight": tokens.T @ da,
                  "audio.proj.bias": da.sum(axis=0),
                  "audio.enc.weight": flat_p.T @ flat_d,
                  "audio.enc.bias": flat_d.sum(axis=0),
                  "audio.enc.pos": demb}


@pytest.mark.parametrize("cfg", [DecoderConfig(), DecoderConfig(d_audio=24)],
                         ids=["default", "d_audio_24"])
def test_pooling_before_encoding_matches_encode_then_pool(cfg, monkeypatch) -> None:
    model = AudioTextLm(cfg, seed=41)
    rng = np.random.default_rng(42)
    for name in ("audio.enc.bias", "audio.proj.bias"):
        model.audio[name] = rng.normal(0.0, 0.02, size=model.audio[name].shape)
    ex = random_example(cfg, seed=43)
    seen = []
    real = model._audio_backward

    def spy(da, ac):
        seen.append(da)
        return real(da, ac)

    monkeypatch.setattr(model, "_audio_backward", spy)
    _, grads = model.loss_and_grads(ex)
    assert len(seen) == 1 and seen[0].any()
    want_rows, want_grads = encode_then_pool(model, ex.audio, seen[0])
    rows, _ = model._audio_rows(ex.audio)
    np.testing.assert_allclose(rows, want_rows, rtol=0, atol=1e-12)
    assert sorted(n for n in grads if n.startswith("audio.")) == sorted(want_grads)
    for name, want in want_grads.items():
        assert grads[name].shape == want.shape
        np.testing.assert_allclose(grads[name], want, rtol=0, atol=1e-12,
                                   err_msg=name)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_audio_path_carries_a_label(seed) -> None:
    """A small model trained on oracle clips, whose every patch holds 3.0 in
    the class's own patch value, names the held-out clip's label by
    likelihood, and the true answer costs more on another class's clip.
    Cutting the audio off (a zero projection) brings both to chance."""
    labels = [c.label for c in DEMO_CLASSES]
    rng = np.random.default_rng(seed)

    def clip(c: int) -> PatchGrid:
        patches = 0.1 * rng.normal(size=(64, 8, 256))
        patches[:, :, 16 * c] += 3.0
        return PatchGrid(patches)

    def example(audio: PatchGrid, label: str) -> TrainingExample:
        ids, mask = build_qa_ids("What sound is this?", label)
        return TrainingExample(audio=audio, text_tokens=ids, loss_mask=mask)

    cfg = DecoderConfig(n_layers=1, n_heads=2, d_model=32, max_seq_len=64)
    model = AudioTextLm(cfg, seed=seed, out_scale=0.35, lora_a_scale=0.5)
    train = [example(clip(c), label) for c, label in enumerate(labels)
             for _ in range(3)]
    for _ in range(150):
        grads = [model.loss_and_grads(train[i])[1]
                 for i in rng.choice(len(train), size=8, replace=False)]
        model.sgd_step({name: sum(g[name] for g in grads) / 8
                        for name in grads[0]}, lr=1e-2)
    held_out = [(c, clip(c)) for c in range(len(labels)) for _ in range(2)]

    def accuracy_and_gain() -> tuple[float, float]:
        hits, gains = 0, []
        for c, audio in held_out:
            nll = [model.loss_only(example(audio, label)) for label in labels]
            hits += int(np.argmin(nll)) == c
            other = held_out[(2 * c + 2) % len(held_out)][1]
            gains.append(model.loss_only(example(other, labels[c])) - nll[c])
        return hits / len(held_out), float(np.mean(gains))

    accuracy, gain = accuracy_and_gain()
    assert accuracy >= 0.5 and gain >= 1.0, (accuracy, gain)
    # every clip now gives the same audio rows: one prediction, no gain
    model.audio["audio.proj.weight"][:] = 0.0
    assert accuracy_and_gain() == (1 / len(labels), 0.0)


# -- gradient check ----------------------------------------------------------

def test_finite_diff_small_model_full_audio_path() -> None:
    cfg = tiny_cfg()
    model = AudioTextLm(cfg, seed=21)
    ex = random_example(cfg, seed=22)
    err = finite_diff_check(model, ex, epsilon=1e-5, samples_per_tensor=6, seed=0)
    assert err < 1e-4


@pytest.mark.parametrize("target", ["query", "key"])
def test_single_lora_target(target: str) -> None:
    other = "key" if target == "query" else "query"
    model = adapted_model((other,), max_seq_len=96, seed=27)
    audio = random_audio(model.cfg, 28)
    ids = np.array([BOS_ID, 104, 105, 106])
    ref = model.forward(audio, ids)
    # scrambling the target's A with its B still zero must not move a single
    # bit, while the other adapter is live
    rng = np.random.default_rng(29)
    for name in model.lora:
        if name.endswith(f"{target}.lora_A"):
            model.lora[name] = rng.normal(size=model.lora[name].shape)
    np.testing.assert_array_equal(model.forward(audio, ids), ref)

    for name in model.lora:
        if name.endswith(f"{target}.lora_B"):
            model.lora[name] = rng.normal(0.0, 0.05, size=model.lora[name].shape)
    assert not np.array_equal(model.forward(audio, ids), ref)
    err = finite_diff_check(model, random_example(model.cfg, seed=22),
                            epsilon=1e-5, samples_per_tensor=6, seed=0)
    assert err < 1e-4


def test_zero_b_means_zero_grad_for_a() -> None:
    cfg = tiny_cfg()
    model = AudioTextLm(cfg, seed=23)
    _, grads = model.loss_and_grads(random_example(cfg, 24))
    for name, g in grads.items():
        if name.endswith("lora_A"):
            assert np.all(g == 0.0)


def test_gradcheck_rejects_nonfinite_loss() -> None:
    cfg = tiny_cfg()
    model = AudioTextLm(cfg, seed=25)
    model.audio["audio.proj.weight"][:] = np.inf
    with pytest.raises(ValueError):
        finite_diff_check(model, random_example(cfg, 26))


# -- read span ---------------------------------------------------------------

def full_row_loss_and_grads(model: AudioTextLm, ex: TrainingExample):
    """Reference: a forward over every row, then _backward with a zero
    gradient on the logits the loss does not read."""
    logits, cache = model.forward(ex.audio, ex.text_tokens, want_cache=True)
    loss, drows = masked_nll_and_dlogits(logits[:-1], ex.text_tokens[1:],
                                         ex.loss_mask[1:])
    dlogits = np.zeros_like(logits)
    dlogits[:-1] = drows
    return loss, model._backward(dlogits, cache)


def read_span_model(n_layers: int, max_seq_len: int = 96) -> AudioTextLm:
    """A small model with live adapters and audio biases."""
    cfg = DecoderConfig(n_layers=n_layers, n_heads=2, d_model=16,
                        max_seq_len=max_seq_len, d_audio=8)
    model = AudioTextLm(cfg, seed=51)
    rng = np.random.default_rng(52)
    params = model.trainable_parameters()
    for name in [n for n in params if n.endswith("lora_B")] + ["audio.enc.bias",
                                                               "audio.proj.bias"]:
        params[name][:] = rng.normal(0.0, 0.05, size=params[name].shape)
    return model


def read_span_example(kind: str) -> TrainingExample:
    # text positions: BOS 0, question 1-18, SEP 19, answer 20-36, EOS 37
    ids, mask = build_qa_ids("what sound is this", "a dog barks twice")
    if kind == "interior_gaps":
        mask[[20, 25, 26, 27, 33]] = False
    elif kind == "final_target_only":
        mask[:-1] = False
    elif kind == "first_target_at_1":
        mask[1] = True
    elif kind == "text_cutoff":
        ids, mask = build_qa_ids("what sound is this", "a dog barks twice", cutoff=30)
    return TrainingExample(audio=random_audio(DecoderConfig(), 53), text_tokens=ids,
                           loss_mask=mask)


# kind -> (text rows the forward runs, read_from): row t predicts token t + 1
READ_SPANS = {"answer_only": (37, 19), "interior_gaps": (37, 20),
              "final_target_only": (37, 36), "first_target_at_1": (37, 0),
              "text_cutoff": (29, 19)}


@pytest.mark.parametrize("n_layers", [2, 1, 0])
@pytest.mark.parametrize("kind", sorted(READ_SPANS))
def test_read_span_matches_the_full_row_path(kind: str, n_layers: int,
                                             monkeypatch) -> None:
    model = read_span_model(n_layers)
    ex = read_span_example(kind)
    want_loss, want = full_row_loss_and_grads(model, ex)
    spans = []
    real = model.forward

    def spy(audio, text_ids, want_cache=False, read_from=0):
        spans.append((len(text_ids), read_from, want_cache))
        return real(audio, text_ids, want_cache, read_from)

    monkeypatch.setattr(model, "forward", spy)
    loss, got = model.loss_and_grads(ex)
    assert math.isclose(loss, want_loss, rel_tol=1e-12, abs_tol=0.0)
    # loss_only reads the same span, keeps no cache and gives the same loss
    assert model.loss_only(ex) == loss
    assert spans == [READ_SPANS[kind] + (True,), READ_SPANS[kind] + (False,)]
    assert sorted(got) == sorted(want)
    for name, w in want.items():
        assert got[name].shape == w.shape
        assert np.abs(got[name] - w).max() <= 1e-12 * max(np.abs(w).max(), 1.0), name


def score_space_attention_backward(dctx, lc, d_head: int, dq, dk, dv) -> None:
    """Reference: the softmax backward's row term summed from dP * P, and
    the 1/sqrt(d_head) scale applied to the gradient on the scores."""
    probs = lc["probs"]
    dprobs = dctx @ lc["vh"].transpose(0, 2, 1)
    dscores = probs * (dprobs - (dprobs * probs).sum(axis=2, keepdims=True))
    dscores /= np.sqrt(d_head)
    dq[...] = dscores @ lc["kh"]
    dk[...] = dscores.transpose(0, 2, 1) @ lc["qh"]
    dv[...] = probs.transpose(0, 2, 1) @ dctx


@pytest.mark.parametrize("n_heads", [4, 8], ids=["d_head_16", "d_head_8"])
@pytest.mark.parametrize("kind", ["first_target_at_1", "answer_only"])
def test_attention_backward_matches_the_score_space_reference(kind: str, n_heads: int,
                                                              monkeypatch) -> None:
    # first_target_at_1 reads from text row 0, answer_only from row 19
    model = AudioTextLm(DecoderConfig(n_heads=n_heads), seed=54)
    rng = np.random.default_rng(55)
    for name in [n for n in model.lora if n.endswith("lora_B")]:
        model.lora[name] = rng.normal(0.0, 0.05, size=model.lora[name].shape)
    ex = read_span_example(kind)
    loss, got = model.loss_and_grads(ex)
    monkeypatch.setattr(decoder, "_attention_backward", score_space_attention_backward)
    want_loss, want = model.loss_and_grads(ex)
    assert loss == want_loss
    assert sorted(got) == sorted(want)
    for name, w in want.items():
        assert np.abs(got[name] - w).max() <= 1e-12 * np.abs(w).max(), name


@pytest.mark.parametrize("first", [0, 5])
def test_scaled_queries_give_the_scaled_scores_bit_for_bit(first: int,
                                                           monkeypatch) -> None:
    # d_head 16: dividing q by 4 before the product is exact
    model = AudioTextLm(DecoderConfig(), seed=56)
    assert model.cfg.d_head == 16
    scores = []
    real = decoder._softmax_rows

    def recorded(s, keep=None):
        scores.append(s.copy())
        return real(s, keep)

    monkeypatch.setattr(decoder, "_softmax_rows", recorded)
    x = np.random.default_rng(57).normal(size=(9, model.cfg.d_model))
    _, cache = model._block(0, x, model._layer_weights()[0],
                            decoder._causal_mask(9, 0)[first:], first=first)
    want = cache["qh"] @ cache["kh"].transpose(0, 2, 1) / 4
    assert scores[0].shape == want.shape == (4, 9 - first, 9)
    assert np.array_equal(scores[0].view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("read_from", [-1, 38])
def test_forward_rejects_a_read_from_outside_the_text(read_from: int) -> None:
    ex = read_span_example("answer_only")
    with pytest.raises(ValueError) as err:
        read_span_model(2).forward(ex.audio, ex.text_tokens, read_from=read_from)
    assert str(err.value) == f"read_from {read_from} is outside the 38 text rows"


def test_loss_and_grads_rejects_an_empty_loss_mask() -> None:
    ex = read_span_example("answer_only")
    ex.loss_mask[:] = False
    with pytest.raises(ValueError) as err:
        read_span_model(2).loss_and_grads(ex)
    assert str(err.value) == "empty loss mask"


def test_loss_and_grads_checks_the_length_of_the_whole_sequence() -> None:
    # 32 audio + 38 text rows; the span, text rows 0-1, would fit in 64
    model = read_span_model(2, max_seq_len=64)
    ex = read_span_example("answer_only")
    ex.loss_mask[:] = False
    ex.loss_mask[2] = True
    for run in (model.loss_and_grads, model.loss_only):
        with pytest.raises(ValueError) as err:
            run(ex)
        assert str(err.value) == "sequence length 70 exceeds max 64"


# -- checkpoints -------------------------------------------------------------

@pytest.mark.parametrize("cfg", [tiny_cfg(), DecoderConfig(),
                                 DecoderConfig(n_layers=0)],
                         ids=["tiny", "default", "no_layers"])
def test_checkpoint_roundtrip(tmp_path, cfg) -> None:
    model = AudioTextLm(cfg, seed=31)
    save_checkpoint(tmp_path / "ckpt", model)
    loaded = load_checkpoint(tmp_path / "ckpt")
    assert loaded.cfg == cfg
    for name, arr in model.base.items():
        np.testing.assert_array_equal(loaded.base[name],
                                      arr.astype("<f4").astype(np.float64))
    loaded_params = loaded.trainable_parameters()
    for name, arr in model.trainable_parameters().items():
        np.testing.assert_array_equal(loaded_params[name],
                                      arr.astype("<f4").astype(np.float64))
    # the loaded model writes the same manifest and blob again
    save_checkpoint(tmp_path / "again", loaded)
    for name in ("manifest.txt", "tensors.bin"):
        assert ((tmp_path / "again" / name).read_bytes()
                == (tmp_path / "ckpt" / name).read_bytes())
    audio = random_audio(cfg, 32)
    ids = np.array([BOS_ID, 97, 98])
    # float32 storage: forwards agree to float32 precision
    np.testing.assert_allclose(loaded.forward(audio, ids),
                               model.forward(audio, ids), rtol=1e-4, atol=1e-4)


def test_load_reads_the_tensors_and_draws_no_model(tmp_path, monkeypatch) -> None:
    cfg = tiny_cfg()
    model = AudioTextLm(cfg, seed=41)
    save_checkpoint(tmp_path / "ckpt", model)

    def no_draw(*args, **kwargs):
        raise AssertionError("a model was drawn")

    monkeypatch.setattr(AudioTextLm, "__init__", no_draw)
    monkeypatch.setattr(np.random, "default_rng", no_draw)
    loaded = load_checkpoint(tmp_path / "ckpt")
    monkeypatch.undo()
    assert vars(loaded).keys() == vars(AudioTextLm(cfg)).keys()
    assert loaded.cfg == cfg
    for group, shapes in decoder.tensor_shapes(cfg).items():
        tensors, saved = getattr(loaded, group), getattr(model, group)
        assert list(tensors) == list(shapes)
        for name, arr in tensors.items():
            assert arr.dtype == np.float64 and arr.shape == shapes[name]
            assert arr.flags.writeable and arr.flags.c_contiguous
            assert np.array_equal(arr, saved[name].astype(np.float32))


def test_a_loaded_model_steps_and_saves_as_a_drawn_one(tmp_path) -> None:
    # the drawn model's tensors hold float32 values, so both start equal
    cfg = tiny_cfg()
    drawn = AudioTextLm(cfg, seed=42)
    for group in (drawn.base, drawn.lora, drawn.audio):
        for arr in group.values():
            arr[...] = arr.astype(np.float32)
    save_checkpoint(tmp_path / "ckpt", drawn)
    loaded = load_checkpoint(tmp_path / "ckpt")
    _, grads = loaded.loss_and_grads(random_example(cfg, 43))
    for m, name in ((drawn, "drawn"), (loaded, "loaded")):
        m.sgd_step(grads, lr=0.1)
        save_checkpoint(tmp_path / name, m)
    for name in ("manifest.txt", "tensors.bin"):
        assert ((tmp_path / "loaded" / name).read_bytes()
                == (tmp_path / "drawn" / name).read_bytes())
    assert ((tmp_path / "loaded" / "tensors.bin").read_bytes()
            != (tmp_path / "ckpt" / "tensors.bin").read_bytes())


@pytest.mark.parametrize("cfg, init", [
    (DecoderConfig(), {}),
    (DecoderConfig(), {"out_scale": 0.35, "lora_a_scale": 0.5}),
    (DecoderConfig(n_layers=1, n_heads=2, d_model=16), {}),
    (DecoderConfig(n_layers=0), {}),
], ids=["default", "desk_init", "one_layer_d16", "no_layers"])
def test_save_load_save_writes_the_same_files(tmp_path, cfg, init) -> None:
    save_checkpoint(tmp_path / "first", AudioTextLm(cfg, seed=44, **init))
    save_checkpoint(tmp_path / "again", load_checkpoint(tmp_path / "first"))
    for name in ("manifest.txt", "tensors.bin"):
        digests = {hashlib.sha256((tmp_path / run / name).read_bytes()).hexdigest()
                   for run in ("first", "again")}
        assert len(digests) == 1, name


# the header save_checkpoint writes for the default model; checkpoints on
# disk are read by it, so any drift in the format fails here
GOLDEN_MANIFEST_HEADER = [
    "format=aqakit-checkpoint-v1", "lora_only=0", "config.n_layers=4",
    "config.n_heads=4", "config.d_model=64", "config.vocab_size=260",
    "config.max_seq_len=192", "config.lora_rank=8", "config.lora_alpha=16.0",
    "config.d_audio=64", "config.n_audio_tokens=32", "config.mlp_ratio=4",
    "config.lora_targets=query,key",
]


# sha256 of the whole manifest of the default model; it follows from the
# config alone, so every seed writes it
GOLDEN_MANIFEST_SHA256 = ("59f18b6ab0c8990a5ab64320ae6344c9"
                          "63c6986b22122dceecbb23c9f72ad15d")


def test_manifest_header_is_pinned(tmp_path) -> None:
    for seed in (0, 1):
        save_checkpoint(tmp_path / f"seed{seed}",
                        AudioTextLm(DecoderConfig(), seed=seed))
    raw = (tmp_path / "seed0" / "manifest.txt").read_bytes()
    lines = raw.decode("utf-8").splitlines()
    assert lines[:len(GOLDEN_MANIFEST_HEADER)] == GOLDEN_MANIFEST_HEADER
    assert lines[len(GOLDEN_MANIFEST_HEADER)].startswith("tensor ")
    assert hashlib.sha256(raw).hexdigest() == GOLDEN_MANIFEST_SHA256
    assert (tmp_path / "seed1" / "manifest.txt").read_bytes() == raw


@pytest.mark.parametrize("old, new, key", [
    ("config.lora_alpha=16.0", "config.lora_alpha=32.0", "config.lora_alpha"),
    ("config.lora_targets=query,key", "config.lora_targets=query",
     "config.lora_targets"),
    ("config.lora_rank=8\n", "", "config.lora_rank"),
], ids=["alpha_32", "query_only", "rank_missing"])
def test_load_rejects_another_adapter_layout(tmp_path, capsys, old, new,
                                             key) -> None:
    ckpt = tmp_path / "ckpt"
    save_checkpoint(ckpt, AudioTextLm(tiny_cfg(), seed=33))
    manifest = ckpt / "manifest.txt"
    text = manifest.read_text(encoding="utf-8")
    assert old in text
    manifest.write_text(text.replace(old, new), encoding="utf-8")
    with pytest.raises(ValueError, match=key) as err:
        load_checkpoint(ckpt)
    assert str(ckpt) in str(err.value)

    wav = tmp_path / "clip.wav"
    write_wav(wav, Waveform(np.zeros(16000)))
    assert main(["answer", "--audio", str(wav), "--question", "what is it?",
                 "--ckpt", str(ckpt)]) == 1
    captured = capsys.readouterr()
    assert key in captured.err and str(ckpt) in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("old, new, key", [
    ("config.d_model=16\n", "", "config.d_model"),
    ("config.n_heads=2\n", "config.n_heads=two\n", "config.n_heads"),
    ("config.mlp_ratio=4\n", "config.mlp_ratio=4.5\n", "config.mlp_ratio"),
], ids=["d_model_missing", "n_heads_word", "mlp_ratio_fraction"])
def test_load_rejects_a_missing_or_non_integer_config_line(tmp_path, capsys,
                                                           old, new, key) -> None:
    ckpt = tmp_path / "ckpt"
    save_checkpoint(ckpt, AudioTextLm(tiny_cfg(), seed=33))
    manifest = ckpt / "manifest.txt"
    text = manifest.read_text(encoding="utf-8")
    assert old in text
    manifest.write_text(text.replace(old, new), encoding="utf-8")
    with pytest.raises(ValueError, match=key) as err:
        load_checkpoint(ckpt)
    assert str(ckpt) in str(err.value)

    wav = tmp_path / "clip.wav"
    write_wav(wav, Waveform(np.zeros(16000)))
    assert main(["answer", "--audio", str(wav), "--question", "what is it?",
                 "--ckpt", str(ckpt)]) == 1
    captured = capsys.readouterr()
    assert key in captured.err and str(ckpt) in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def answer_fails(tmp_path, capsys, ckpt) -> str:
    """stderr of `aqakit answer` on ckpt, which must exit 1 without a
    traceback or any output."""
    wav = tmp_path / "clip.wav"
    write_wav(wav, Waveform(np.zeros(16000)))
    assert main(["answer", "--audio", str(wav), "--question", "what is it?",
                 "--ckpt", str(ckpt)]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err and captured.out == ""
    return captured.err


def differs_at(manifest, line_no: int, written: list[str],
               edited: list[str]) -> str:
    """The error for an edited manifest whose line line_no is the first
    that differs from the written one."""
    def shown(lines):
        return (repr(lines[line_no - 1]) if line_no <= len(lines)
                else "the end of the file")
    return f"{manifest}:{line_no}: expected {shown(written)}, got {shown(edited)}"


def test_load_rejects_adapter_only_checkpoint(tmp_path, capsys) -> None:
    ckpt = tmp_path / "ckpt"
    save_checkpoint(ckpt, AudioTextLm(tiny_cfg(), seed=33))
    manifest = ckpt / "manifest.txt"
    text = manifest.read_text(encoding="utf-8")
    assert "\nlora_only=0\n" in text
    manifest.write_text(text.replace("lora_only=0", "lora_only=1"),
                        encoding="utf-8")
    message = f"{manifest}:2: expected 'lora_only=0', got 'lora_only=1'"
    with pytest.raises(ValueError) as err:
        load_checkpoint(ckpt)
    assert str(err.value) == message
    assert message in answer_fails(tmp_path, capsys, ckpt)


def _drop_line(prefix: str):
    return lambda text: "".join(ln for ln in text.splitlines(keepends=True)
                                if not ln.startswith(prefix))


def _repeat_line(prefix: str):
    return lambda text: text + next(ln for ln in text.splitlines(keepends=True)
                                    if ln.startswith(prefix))


# tiny_cfg: audio.proj.weight is d_audio x d_model = 8 x 16. Each case: the
# edit, the tensor the error shows, and the start of the written line the
# error is at (None: one past the last line)
@pytest.mark.parametrize("edit, tensor, at", [
    (_drop_line("tensor base.layers.0.attn.wq "), "base.layers.0.attn.wq",
     "tensor base.layers.0.attn.wq "),
    (lambda text: text + "tensor audio.extra float32 4 0 16\n", "audio.extra",
     None),
    (lambda text: text.replace("tensor audio.proj.weight float32 8x16 ",
                               "tensor audio.proj.weight float32 16x8 "),
     "audio.proj.weight", "tensor audio.proj.weight "),
    (_repeat_line("tensor audio.proj.bias "), "audio.proj.bias", None),
], ids=["missing", "extra", "wrong_shape", "duplicate"])
def test_load_rejects_a_tensor_table_that_does_not_fit(tmp_path, capsys, edit,
                                                       tensor, at) -> None:
    ckpt = tmp_path / "ckpt"
    save_checkpoint(ckpt, AudioTextLm(tiny_cfg(), seed=34))
    manifest = ckpt / "manifest.txt"
    text = manifest.read_text(encoding="utf-8")
    manifest.write_text(edit(text), encoding="utf-8")
    written, edited = text.splitlines(), edit(text).splitlines()
    assert edited != written
    line_no = len(written) + 1 if at is None else next(
        i for i, ln in enumerate(written, start=1) if ln.startswith(at))
    message = differs_at(manifest, line_no, written, edited)
    assert f"tensor {tensor} " in message
    with pytest.raises(ValueError) as err:
        load_checkpoint(ckpt)
    assert str(err.value) == message
    assert message in answer_fails(tmp_path, capsys, ckpt)


# the config lines whose values build the model the manifest is checked
# against; without one of them there is nothing to compare. vocab_size and
# n_audio_tokens are fixed, so their lines are compared like the adapter
# layout's
INTEGER_CONFIG_KEYS = {f"config.{f.name}" for f in dataclasses.fields(DecoderConfig)
                       if f.init}

# one line of the written manifest (lines, index) -> the edited lines
LINE_EDITS = {
    "trailing_space": lambda lines, i: lines[:i] + [lines[i] + " "] + lines[i + 1:],
    "blanked": lambda lines, i: lines[:i] + [""] + lines[i + 1:],
    "blank_before": lambda lines, i: lines[:i] + [""] + lines[i:],
    "dropped": lambda lines, i: lines[:i] + lines[i + 1:],
}


@pytest.mark.parametrize("edit", LINE_EDITS)
def test_load_names_the_first_manifest_line_that_differs(tmp_path,
                                                         edit) -> None:
    ckpt = tmp_path / "ckpt"
    save_checkpoint(ckpt, AudioTextLm(tiny_cfg(), seed=39))
    manifest = ckpt / "manifest.txt"
    written = manifest.read_text(encoding="utf-8").splitlines()
    # a blank line can also follow the last line
    for i in range(len(written) + (edit == "blank_before")):
        edited = LINE_EDITS[edit](written, i)
        manifest.write_text("".join(ln + "\n" for ln in edited),
                            encoding="utf-8")
        with pytest.raises(ValueError) as err:
            load_checkpoint(ckpt)
        key = written[i].partition("=")[0] if i < len(written) else None
        if edit in ("blanked", "dropped") and key in INTEGER_CONFIG_KEYS:
            assert str(err.value) == f"{manifest}: manifest lacks {key}"
        else:
            assert str(err.value) == differs_at(manifest, i + 1, written, edited)


# manifests no save_checkpoint writes: an edit of the written lines -> the
# error after the manifest path (tiny_cfg has two layers and d_audio 8)
MALFORMED_MANIFESTS = {
    "other_format": (
        lambda lines: ["format=something-else"] + lines[1:],
        "1: expected 'format=aqakit-checkpoint-v1', got 'format=something-else'"),
    "extra_line": (
        lambda lines: lines[:2] + ["colour=blue"] + lines[2:],
        "3: expected 'config.n_layers=2', got 'colour=blue'"),
    "blank_line": (
        lambda lines: lines[:13] + [""] + lines[13:],
        "14: expected 'tensor audio.enc.bias float32 8 0 32', got ''"),
    "config_line_twice": (
        lambda lines: lines[:2] + ["config.n_layers=3"] + lines[2:],
        "3: expected 'config.n_layers=2', got 'config.n_layers=3'"),
    "sorted_lines": (
        sorted, "1: expected 'format=aqakit-checkpoint-v1', got 'config.d_audio=8'"),
    "no_lora_only": (
        lambda lines: lines[:1] + lines[2:],
        "2: expected 'lora_only=0', got 'config.n_layers=2'"),
}


@pytest.mark.parametrize("fault", MALFORMED_MANIFESTS)
def test_load_rejects_a_manifest_save_checkpoint_does_not_write(
        tmp_path, capsys, fault) -> None:
    ckpt = tmp_path / "ckpt"
    save_checkpoint(ckpt, AudioTextLm(tiny_cfg(), seed=40))
    manifest = ckpt / "manifest.txt"
    edit, problem = MALFORMED_MANIFESTS[fault]
    lines = edit(manifest.read_text(encoding="utf-8").splitlines())
    manifest.write_text("".join(ln + "\n" for ln in lines), encoding="utf-8")
    message = f"{manifest}:{problem}"
    with pytest.raises(ValueError) as err:
        load_checkpoint(ckpt)
    assert str(err.value) == message
    assert message in answer_fails(tmp_path, capsys, ckpt)


# the first tensor line's fields -> the bytes written in its place
MANIFEST_LINE_FAULTS = {
    "short_tensor_line": lambda f: " ".join(f[:3]).encode(),
    "bad_offset": lambda f: " ".join(f[:4] + ["x"] + f[5:]).encode(),
    "bad_shape": lambda f: " ".join(f[:3] + ["8xq"] + f[4:]).encode(),
    "float16": lambda f: " ".join(f[:2] + ["float16"] + f[3:]).encode(),
    "not_utf8": lambda f: " ".join(f).encode() + b"\xff",
}


@pytest.mark.parametrize("fault", MANIFEST_LINE_FAULTS,
                         ids=MANIFEST_LINE_FAULTS)
def test_answer_names_the_manifest_line_at_fault(tmp_path, capsys,
                                                 fault) -> None:
    ckpt = tmp_path / "ckpt"
    save_checkpoint(ckpt, AudioTextLm(tiny_cfg(), seed=36))
    manifest = ckpt / "manifest.txt"
    lines = manifest.read_bytes().splitlines()
    at = next(i for i, ln in enumerate(lines) if ln.startswith(b"tensor "))
    lines[at] = MANIFEST_LINE_FAULTS[fault](lines[at].decode().split(" "))
    manifest.write_bytes(b"\n".join(lines) + b"\n")

    wav = tmp_path / "clip.wav"
    write_wav(wav, Waveform(np.zeros(16000)))
    out = tmp_path / "answer.json"
    assert main(["answer", "--audio", str(wav), "--question", "what is it?",
                 "--ckpt", str(ckpt), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    where = f"{manifest}: " if fault == "not_utf8" else f"{manifest}:{at + 1}: "
    assert where in captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("value", [np.nan, 1e300], ids=["nan", "overflow"])
def test_save_refuses_a_tensor_not_finite_in_float32(tmp_path, value) -> None:
    model = AudioTextLm(tiny_cfg(), seed=37)
    model.audio["audio.proj.weight"][1, 2] = value
    ckpt = tmp_path / "ckpt"
    with pytest.raises(RuntimeError) as err:
        save_checkpoint(ckpt, model)
    assert str(err.value) == f"{ckpt}: tensor audio.proj.weight does not fit float32"
    assert not ckpt.exists()


@pytest.mark.parametrize("after", [0, 1], ids=["blob_fails", "manifest_fails"])
def test_an_interrupted_save_leaves_a_checkpoint_that_loads(tmp_path, disk_full,
                                                            after) -> None:
    # each file is the old one or the new one, never part of one; the
    # manifest follows from the config, so a stop between the two files
    # leaves the new blob under an equal manifest
    ckpt = tmp_path / "ckpt"
    old, new = AudioTextLm(tiny_cfg(), seed=51), AudioTextLm(tiny_cfg(), seed=52)
    save_checkpoint(ckpt, old)
    manifest = (ckpt / "manifest.txt").read_bytes()
    disk_full(after)
    with pytest.raises(OSError):
        save_checkpoint(ckpt, new)
    assert {p.name for p in ckpt.iterdir()} == {"manifest.txt", "tensors.bin"}
    assert (ckpt / "manifest.txt").read_bytes() == manifest
    want, loaded = (old, new)[after], load_checkpoint(ckpt)
    for group in ("audio", "base", "lora"):
        for name, arr in getattr(want, group).items():
            np.testing.assert_array_equal(getattr(loaded, group)[name],
                                          arr.astype("<f4").astype(np.float64))


def test_load_rejects_a_non_finite_tensor(tmp_path) -> None:
    # an offset that points into the middle of other tensors can read NaN;
    # the model must not load it and then fail inside sampling.
    # save_checkpoint refuses a NaN, so the NaN is written into the blob
    model = AudioTextLm(tiny_cfg(), seed=37)
    save_checkpoint(tmp_path / "ckpt", model)
    manifest = tmp_path / "ckpt" / "manifest.txt"
    line_no, line = next((i, ln) for i, ln in enumerate(
        manifest.read_text(encoding="utf-8").splitlines(), start=1)
        if ln.startswith("tensor audio.proj.weight "))
    cols = model.audio["audio.proj.weight"].shape[1]
    blob = bytearray((tmp_path / "ckpt" / "tensors.bin").read_bytes())
    at = int(line.split()[4]) + 4 * (1 * cols + 2)
    blob[at:at + 4] = np.float32(np.nan).tobytes()
    (tmp_path / "ckpt" / "tensors.bin").write_bytes(bytes(blob))
    with pytest.raises(ValueError) as err:
        load_checkpoint(tmp_path / "ckpt")
    assert str(err.value) == (f"{manifest}:{line_no}: tensor audio.proj.weight "
                              f"holds non-finite values")


def test_load_rejects_a_truncated_blob(tmp_path, capsys) -> None:
    ckpt = tmp_path / "ckpt"
    save_checkpoint(ckpt, AudioTextLm(tiny_cfg(), seed=35))
    blob = ckpt / "tensors.bin"
    size = blob.stat().st_size
    blob.write_bytes(blob.read_bytes()[:size // 2])
    message = (f"{ckpt / 'manifest.txt'}: the tensor table spans {size} "
               f"bytes, but {blob} holds {size // 2}")
    with pytest.raises(ValueError) as err:
        load_checkpoint(ckpt)
    assert str(err.value) == message
    assert message in answer_fails(tmp_path, capsys, ckpt)


@pytest.mark.parametrize("field", ["vocab_size", "n_layers"])
def test_load_checks_the_blob_size_before_building_the_model(tmp_path, capsys,
                                                             monkeypatch,
                                                             field) -> None:
    # a config of 1e12 layers would allocate terabytes, or build its shape
    # table for ever, before any check; vocab_size is fixed, so a line of
    # 1e12 tokens fails the comparison with the written manifest instead
    cfg = tiny_cfg()
    ckpt, empty = tmp_path / "ckpt", tmp_path / "no_layers"
    save_checkpoint(ckpt, AudioTextLm(cfg, seed=35))
    save_checkpoint(empty, AudioTextLm(dataclasses.replace(cfg, n_layers=0), seed=35))
    blob = ckpt / "tensors.bin"
    size = blob.stat().st_size
    per_layer = (size - (empty / "tensors.bin").stat().st_size) // cfg.n_layers
    want = size + per_layer * (10**12 - cfg.n_layers)
    manifest = ckpt / "manifest.txt"
    text = manifest.read_text(encoding="utf-8")
    old = f"config.{field}={getattr(cfg, field)}\n"
    assert old in text
    manifest.write_text(text.replace(old, f"config.{field}={10**12}\n"), encoding="utf-8")

    def no_model(*args, **kwargs):
        raise AssertionError("a model was built")

    monkeypatch.setattr(AudioTextLm, "__init__", no_model)
    message = f"{manifest}: the tensor table spans {want} bytes, but {blob} holds {size}"
    if field == "vocab_size":
        message = (f"{manifest}:6: expected 'config.vocab_size=260', "
                   f"got 'config.vocab_size={10**12}'")
    with pytest.raises(ValueError) as err:
        load_checkpoint(ckpt)
    assert str(err.value) == message
    assert answer_fails(tmp_path, capsys, ckpt) == f"aqakit: invalid input: {message}\n"


def _shift_offset(manifest, name: str, by: int) -> None:
    lines = manifest.read_text(encoding="utf-8").splitlines(keepends=True)
    at = next(i for i, ln in enumerate(lines) if ln.startswith(f"tensor {name} "))
    fields = lines[at].split(" ")
    fields[4] = str(int(fields[4]) + by)
    lines[at] = " ".join(fields)
    manifest.write_text("".join(lines), encoding="utf-8")


@pytest.mark.parametrize("fault", ["offset_into_other_tensor",
                                   "first_not_at_zero", "trailing_bytes"])
def test_load_rejects_tensors_that_do_not_tile_the_blob(tmp_path, capsys,
                                                       fault) -> None:
    ckpt = tmp_path / "ckpt"
    save_checkpoint(ckpt, AudioTextLm(tiny_cfg(), seed=38))
    manifest = ckpt / "manifest.txt"
    blob = ckpt / "tensors.bin"
    size = blob.stat().st_size
    written = manifest.read_text(encoding="utf-8").splitlines()
    table = {ln.split(" ")[1]: line_no for line_no, ln in enumerate(written, start=1)
             if ln.startswith("tensor ")}
    if fault == "trailing_bytes":
        blob.write_bytes(blob.read_bytes() + b"\0" * 8)
        message = (f"{manifest}: the tensor table spans {size} bytes, "
                   f"but {blob} holds {size + 8}")
    else:
        # an offset moved into another tensor stays aligned and inside the blob
        tensor, by = (("base.out.w", -400) if fault == "offset_into_other_tensor"
                      else (next(iter(table)), 4))
        _shift_offset(manifest, tensor, by)
        edited = manifest.read_text(encoding="utf-8").splitlines()
        message = differs_at(manifest, table[tensor], written, edited)
        assert f"tensor {tensor} " in message
    with pytest.raises(ValueError) as err:
        load_checkpoint(ckpt)
    assert str(err.value) == message
    assert message in answer_fails(tmp_path, capsys, ckpt)
