"""Model-core contracts: LoRA algebra, decoder causality, frozen-base
invariance, losses, gradient checking, checkpoints."""

from __future__ import annotations

import math

import numpy as np
import pytest

from aqakit.frontend import PatchGrid
from aqakit.model import (
    AlignmentBatch,
    AudioTextLm,
    DecoderConfig,
    TrainingExample,
    alignment_losses,
    build_qa_ids,
    count_lora_params,
    decode_ids,
    encode_text,
    finite_diff_check,
    llama_7b_geometry,
    load_checkpoint,
    load_lora_into,
    next_token_loss,
    save_checkpoint,
)
from aqakit.model.lora import lora_apply_rows
from aqakit.model.losses import masked_nll_and_dlogits
from aqakit.model.tokenizer import BOS_ID, EOS_ID, SEP_ID


def tiny_cfg() -> DecoderConfig:
    return DecoderConfig(n_layers=2, n_heads=2, d_model=16, max_seq_len=96,
                         d_audio=8)


def random_audio(cfg: DecoderConfig, seed: int = 0) -> PatchGrid:
    rng = np.random.default_rng(seed)
    return PatchGrid(rng.normal(size=(2 * cfg.n_audio_tokens, 8, 256)))


def random_example(cfg: DecoderConfig, seed: int = 0) -> TrainingExample:
    ids, mask = build_qa_ids("what is it", "a dog")
    return TrainingExample(audio_tokens=random_audio(cfg, seed), text_tokens=ids,
                           loss_mask=mask)


# -- tokenizer ---------------------------------------------------------------

def test_tokenizer_roundtrip() -> None:
    for text in ["hello", "Ambulance (siren): [0.0s-1.0s]", "café → ok"]:
        assert decode_ids(encode_text(text)) == text


def test_qa_layout_and_mask() -> None:
    ids, mask = build_qa_ids("ab", "xyz")
    assert ids.tolist() == [BOS_ID, 97, 98, SEP_ID, 120, 121, 122, EOS_ID]
    assert mask.tolist() == [False, False, False, False, True, True, True, True]
    ids_cut, mask_cut = build_qa_ids("ab", "xyz", cutoff=5)
    assert ids_cut.size == 5 and mask_cut.size == 5


# -- LoRA --------------------------------------------------------------------

def test_lora_zero_b_is_frozen_map() -> None:
    rng = np.random.default_rng(0)
    W, A = rng.normal(size=(4, 4)), rng.normal(size=(2, 4))
    x = rng.normal(size=(1, 4))
    y, _ = lora_apply_rows(x, W, A, np.zeros((4, 2)), scale=16.0 / 2)
    np.testing.assert_array_equal(y, x @ W.T)


def test_lora_hand_case() -> None:
    y, u = lora_apply_rows(np.array([[2.0, 3.0]]), np.eye(2), np.array([[1.0, 1.0]]),
                           np.array([[1.0], [0.0]]), scale=1.0)
    np.testing.assert_array_equal(u, np.array([[5.0]]))
    np.testing.assert_array_equal(y, np.array([[7.0, 3.0]]))


def test_lora_scale_and_validation() -> None:
    assert AudioTextLm(DecoderConfig()).lora_scale() == 2.0
    with pytest.raises(ValueError):
        DecoderConfig(lora_targets=("value",))


def test_count_lora_params_llama_and_toy() -> None:
    assert count_lora_params(llama_7b_geometry()) == 4_194_304
    assert count_lora_params(DecoderConfig(n_layers=1, n_heads=1, d_model=4,
                                           lora_rank=1, lora_targets=("query",))) == 8
    toy = DecoderConfig()
    assert count_lora_params(toy) == 8192
    # cross-check by enumerating the trainable adapter tensors
    model = AudioTextLm(toy)
    enumerated = sum(v.size for k, v in model.lora.items())
    assert enumerated == 8192


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


# -- alignment losses --------------------------------------------------------

def test_alignment_identical_embeddings_zero_mse() -> None:
    e = np.random.default_rng(0).normal(size=(3, 5))
    total, l_c, l_mse = alignment_losses(AlignmentBatch(e_a=e.copy(), e_t=e.copy()))
    assert l_mse == 0.0
    assert total == l_c


def test_alignment_orthonormal_value() -> None:
    batch = AlignmentBatch(e_a=np.eye(2), e_t=np.eye(2), tau=0.05)
    _, l_c, _ = alignment_losses(batch)
    assert abs(l_c - math.log1p(math.exp(-20.0))) < 1e-12


def test_alignment_lambda_identity_random() -> None:
    rng = np.random.default_rng(3)
    for _ in range(10):
        batch = AlignmentBatch(e_a=rng.normal(size=(4, 6)),
                               e_t=rng.normal(size=(4, 6)))
        total, l_c, l_mse = alignment_losses(batch)
        # the exact float identity L = L_c + lambda * L_mse, no rearrangement
        assert total == l_c + 10.0 * l_mse


def test_alignment_permutation_invariance() -> None:
    rng = np.random.default_rng(4)
    e_a, e_t = rng.normal(size=(6, 8)), rng.normal(size=(6, 8))
    base, *_ = alignment_losses(AlignmentBatch(e_a=e_a, e_t=e_t))
    perm = rng.permutation(6)
    permuted, *_ = alignment_losses(AlignmentBatch(e_a=e_a[perm], e_t=e_t[perm]))
    assert abs(base - permuted) < 1e-9


def test_alignment_rejects_degenerate() -> None:
    with pytest.raises(ValueError):
        alignment_losses(AlignmentBatch(e_a=np.ones((1, 4)), e_t=np.ones((1, 4))))
    bad = np.ones((2, 4))
    bad_a = bad.copy()
    bad_a[0] = 0.0
    with pytest.raises(ValueError):
        alignment_losses(AlignmentBatch(e_a=bad_a, e_t=bad))


# -- gradient check ----------------------------------------------------------

def test_finite_diff_small_model_full_audio_path() -> None:
    cfg = tiny_cfg()
    model = AudioTextLm(cfg, seed=21)
    ex = random_example(cfg, seed=22)
    err = finite_diff_check(model, ex, epsilon=1e-5, samples_per_tensor=6, seed=0)
    assert err < 1e-4


@pytest.mark.parametrize("target", ["query", "key"])
def test_single_lora_target(target: str) -> None:
    cfg = DecoderConfig(n_layers=2, n_heads=2, d_model=16, max_seq_len=96,
                        d_audio=8, lora_targets=(target,))
    model = AudioTextLm(cfg, seed=27)
    assert sorted(model.lora) == sorted(
        f"layers.{i}.attn.{target}.lora_{m}" for i in range(2) for m in "AB")
    audio = random_audio(cfg, 28)
    ids = np.array([BOS_ID, 104, 105, 106])
    ref = model.forward(audio, ids)
    # scrambling A with B still zero must not move a single bit
    rng = np.random.default_rng(29)
    for name in model.lora:
        if name.endswith("lora_A"):
            model.lora[name] = rng.normal(size=model.lora[name].shape)
    np.testing.assert_array_equal(model.forward(audio, ids), ref)

    for name in model.lora:
        if name.endswith("lora_B"):
            model.lora[name] = rng.normal(0.0, 0.05, size=model.lora[name].shape)
    assert not np.array_equal(model.forward(audio, ids), ref)
    err = finite_diff_check(model, random_example(cfg, seed=22), epsilon=1e-5,
                            samples_per_tensor=6, seed=0)
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
    model.projection.weight[:] = np.inf
    with pytest.raises(ValueError):
        finite_diff_check(model, random_example(cfg, 26))


# -- checkpoints -------------------------------------------------------------

def test_checkpoint_roundtrip(tmp_path) -> None:
    cfg = tiny_cfg()
    model = AudioTextLm(cfg, seed=31)
    save_checkpoint(tmp_path / "ckpt", model)
    loaded = load_checkpoint(tmp_path / "ckpt")
    assert loaded.cfg == cfg
    for name, arr in model.base.items():
        np.testing.assert_array_equal(loaded.base[name],
                                      arr.astype("<f4").astype(np.float64))
    audio = random_audio(cfg, 32)
    ids = np.array([BOS_ID, 97, 98])
    # float32 storage: forwards agree to float32 precision
    np.testing.assert_allclose(loaded.forward(audio, ids),
                               model.forward(audio, ids), rtol=1e-4, atol=1e-4)


def test_lora_only_checkpoint(tmp_path) -> None:
    cfg = tiny_cfg()
    model = AudioTextLm(cfg, seed=33)
    rng = np.random.default_rng(34)
    for name in model.lora:
        model.lora[name] = rng.normal(size=model.lora[name].shape)
    save_checkpoint(tmp_path / "adapters", model, lora_only=True)

    fresh = AudioTextLm(cfg, seed=35)
    load_lora_into(tmp_path / "adapters", fresh)
    for name, arr in model.lora.items():
        np.testing.assert_array_equal(fresh.lora[name],
                                      arr.astype("<f4").astype(np.float64))
    with pytest.raises(ValueError):
        load_checkpoint(tmp_path / "adapters")
