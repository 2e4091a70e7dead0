"""Frontend contract tests: fbank, patch tiling, encoding, pooling, projection.

The sine test verifies compute_fbank against a brute-force DFT plus an
independently constructed mel filterbank so the check is not circular.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from aqakit.frontend import (
    FbankConfig,
    LogMelSpectrogram,
    PatchEncoder,
    PatchGrid,
    ProjectionLayer,
    Waveform,
    compute_fbank,
    encode_patches,
    load_spectrogram,
    mel_center_freqs_hz,
    patchify,
    pool_tokens,
    project_tokens,
    read_wav,
    reassemble_patches,
    save_spectrogram,
    waveform_to_tokens,
    write_wav,
)

SR = 16000


def ten_seconds(value: float = 0.0) -> Waveform:
    return Waveform(np.full(SR * 10, value))


def test_fbank_shape_ten_seconds() -> None:
    spec = compute_fbank(ten_seconds())
    assert spec.frames.shape == (1024, 128)


def test_fbank_silence_hits_floor_everywhere() -> None:
    cfg = FbankConfig()
    spec = compute_fbank(ten_seconds(0.0), cfg)
    assert np.all(spec.frames == math.log(cfg.log_floor))


def test_fbank_rejects_wrong_rate_and_empty() -> None:
    with pytest.raises(ValueError):
        Waveform(np.zeros(SR), sample_rate_hz=44100)
    with pytest.raises(ValueError):
        Waveform(np.array([]))
    with pytest.raises(ValueError):
        compute_fbank(Waveform(np.zeros(100)))  # shorter than one window


def test_fbank_deterministic_bit_identical() -> None:
    rng = np.random.default_rng(7)
    x = rng.uniform(-1, 1, SR * 2)
    a = compute_fbank(Waveform(x.copy())).frames
    b = compute_fbank(Waveform(x.copy())).frames
    assert np.array_equal(a, b)


def test_fbank_padding_and_truncation() -> None:
    cfg = FbankConfig()
    floor = math.log(cfg.log_floor)
    short = compute_fbank(Waveform(np.random.default_rng(0).uniform(-1, 1, SR)), cfg)
    n_real = (SR - cfg.window_samples) // cfg.hop_samples + 1
    assert np.all(short.frames[n_real:] == floor)
    assert not np.all(short.frames[:n_real] == floor)

    long_wave = Waveform(np.random.default_rng(1).uniform(-1, 1, SR * 12))
    eleven = compute_fbank(long_wave, cfg)
    assert eleven.frames.shape == (1024, 128)
    # truncation keeps the first 1024 frames: recompute on a prefix long
    # enough to cover them and compare
    prefix_len = cfg.window_samples + cfg.hop_samples * 1023
    prefix = compute_fbank(Waveform(long_wave.samples[:prefix_len]), cfg)
    assert np.array_equal(eleven.frames, prefix.frames)


def brute_force_frame_oracle(x: np.ndarray, frame_index: int, cfg: FbankConfig) -> np.ndarray:
    """Direct-sum DFT + independently built mel bank for one frame."""
    win = cfg.window_samples
    seg = x[frame_index * cfg.hop_samples: frame_index * cfg.hop_samples + win]
    hann = np.array([0.5 - 0.5 * math.cos(2 * math.pi * n / (win - 1)) for n in range(win)])
    seg = np.concatenate([seg * hann, np.zeros(cfg.n_fft - win)])
    n = np.arange(cfg.n_fft)
    power = np.empty(cfg.n_fft // 2 + 1)
    for k in range(cfg.n_fft // 2 + 1):
        re = float(np.sum(seg * np.cos(-2 * math.pi * k * n / cfg.n_fft)))
        im = float(np.sum(seg * np.sin(-2 * math.pi * k * n / cfg.n_fft)))
        power[k] = re * re + im * im

    def to_mel(hz: float) -> float:
        return 2595.0 * math.log10(1.0 + hz / 700.0)

    def to_hz(mel: float) -> float:
        return 700.0 * (10.0 ** (mel / 2595.0) - 1.0)

    edges = [to_hz(m) for m in np.linspace(to_mel(0.0), to_mel(8000.0), cfg.n_mels + 2)]
    bin_freqs = np.arange(cfg.n_fft // 2 + 1) * SR / cfg.n_fft
    mel_energy = np.zeros(cfg.n_mels)
    for m in range(cfg.n_mels):
        lo, mid, hi = edges[m], edges[m + 1], edges[m + 2]
        for k, f in enumerate(bin_freqs):
            w = min((f - lo) / (mid - lo), (hi - f) / (hi - mid))
            if w > 0:
                mel_energy[m] += w * power[k]
    return np.log(np.maximum(mel_energy, cfg.log_floor))


def test_fbank_sine_matches_dft_oracle() -> None:
    cfg = FbankConfig()
    t = np.arange(SR * 2) / SR
    x = 0.5 * np.sin(2 * np.pi * 1000.0 * t)
    spec = compute_fbank(Waveform(x), cfg)

    centers = mel_center_freqs_hz(cfg.n_mels)
    expected_bin = int(np.argmin(np.abs(centers - 1000.0)))
    n_real = (x.size - cfg.window_samples) // cfg.hop_samples + 1
    argmaxes = np.argmax(spec.frames[:n_real], axis=1)
    assert np.all(argmaxes == expected_bin)

    oracle = brute_force_frame_oracle(x, 37, cfg)
    np.testing.assert_allclose(spec.frames[37], oracle, rtol=1e-9, atol=1e-9)


def test_patchify_grid_shape_and_constant() -> None:
    grid = patchify(LogMelSpectrogram(np.zeros((1024, 128)) + 3.25))
    assert grid.patches.shape == (64, 8, 256)
    assert np.all(grid.patches == 3.25)


def test_patchify_rejects_indivisible() -> None:
    with pytest.raises(ValueError):
        patchify(LogMelSpectrogram(np.zeros((1000, 128))))


def test_patchify_roundtrip_bit_exact() -> None:
    rng = np.random.default_rng(11)
    for _ in range(5):
        frames = rng.normal(size=(1024, 128))
        back = reassemble_patches(patchify(LogMelSpectrogram(frames)))
        assert np.array_equal(back.frames, frames)


def test_patchify_tiles_are_contiguous_blocks() -> None:
    frames = np.arange(1024 * 128, dtype=np.float64).reshape(1024, 128)
    grid = patchify(LogMelSpectrogram(frames))
    tile = grid.patches[3, 2].reshape(16, 16)
    assert np.array_equal(tile, frames[3 * 16:4 * 16, 2 * 16:3 * 16])


def test_encode_shapes_and_identity_weight() -> None:
    grid = PatchGrid(np.full((64, 8, 256), 2.0))
    enc = PatchEncoder.create(d_audio=16, seed=0)
    emb = encode_patches(grid, enc)
    assert emb.shape == (64, 8, 16)

    ident = PatchEncoder(weight=np.eye(256)[:, :16], bias=np.zeros(16),
                         pos_offsets=np.zeros((64, 8, 16)))
    emb = encode_patches(grid, ident)
    assert np.all(emb == 2.0)


def test_encode_identical_patches_identical_embeddings() -> None:
    rng = np.random.default_rng(3)
    patches = rng.normal(size=(64, 8, 256))
    patches[10, 3] = patches[50, 7]
    enc = PatchEncoder.create(d_audio=32, seed=1)
    enc.pos_offsets[:] = 0.0
    emb = encode_patches(PatchGrid(patches), enc)
    assert np.array_equal(emb[10, 3], emb[50, 7])


def test_encode_rejects_dim_mismatch() -> None:
    enc = PatchEncoder.create(d_audio=8, patch_values=64)
    with pytest.raises(ValueError):
        encode_patches(PatchGrid(np.zeros((64, 8, 256))), enc)


def test_pool_token_count_and_constant() -> None:
    tokens = pool_tokens(np.full((64, 8, 5), 1.5))
    assert tokens.tokens.shape == (32, 5)
    assert np.all(tokens.tokens == 1.5)
    assert tokens.frame_rate_hz == 3.2


def test_pool_hand_mean_oracle() -> None:
    # cell (t, f) holds scalar t; token k must be (2k + (2k+1)) / 2
    grid = np.repeat(np.arange(64.0)[:, None, None], 8, axis=1)
    tokens = pool_tokens(grid).tokens
    expected = 2 * np.arange(32.0) + 0.5
    np.testing.assert_array_equal(tokens[:, 0], expected)


def test_pool_rejects_odd_time() -> None:
    with pytest.raises(ValueError):
        pool_tokens(np.zeros((63, 8, 4)))


def test_pool_commutes_with_scaling() -> None:
    rng = np.random.default_rng(5)
    for _ in range(20):
        e = rng.normal(size=(64, 8, 7))
        c = float(rng.normal())
        np.testing.assert_allclose(pool_tokens(c * e).tokens,
                                   c * pool_tokens(e).tokens, rtol=1e-12, atol=1e-12)


def test_project_llama_geometry_shape() -> None:
    seq = pool_tokens(np.zeros((64, 8, 768)))
    proj = ProjectionLayer.create(768, 4096, seed=0)
    out = project_tokens(seq, proj)
    assert out.tokens.shape == (32, 4096)


def test_project_zero_weights() -> None:
    seq = pool_tokens(np.ones((64, 8, 4)))
    proj = ProjectionLayer(weight=np.zeros((4, 6)), bias=np.zeros(6))
    assert np.all(project_tokens(seq, proj).tokens == 0.0)


def test_project_hand_affine_oracle() -> None:
    w = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    b = np.array([0.5, -0.5, 1.0])
    seq = pool_tokens(np.full((2, 1, 2), 1.0))  # tokens: one row [1, 1]
    out = project_tokens(seq, ProjectionLayer(weight=w, bias=b)).tokens
    np.testing.assert_array_equal(out, np.array([[5.5, 6.5, 10.0]]))


def test_project_rejects_mismatch() -> None:
    seq = pool_tokens(np.zeros((64, 8, 4)))
    with pytest.raises(ValueError):
        project_tokens(seq, ProjectionLayer(weight=np.zeros((5, 3)), bias=np.zeros(3)))


def test_pipeline_emits_32_tokens_at_3_2_hz() -> None:
    rng = np.random.default_rng(9)
    enc = PatchEncoder.create(d_audio=24, seed=2)
    proj = ProjectionLayer.create(24, 48, seed=3)
    for _ in range(3):
        w = Waveform(rng.uniform(-1, 1, SR * 10))
        out = waveform_to_tokens(w, enc, proj)
        assert out.tokens.shape == (32, 48)
        assert out.frame_rate_hz == 3.2


def test_wav_roundtrip_and_rejections(tmp_path) -> None:
    rng = np.random.default_rng(13)
    w = Waveform(rng.uniform(-1, 1, SR))
    path = tmp_path / "clip.wav"
    write_wav(path, w)
    back = read_wav(path)
    assert back.sample_rate_hz == SR
    # 16-bit quantization bounds the round-trip error
    assert np.max(np.abs(back.samples - w.samples)) <= 0.5 / 32768 + 1e-12

    bad = bytearray(path.read_bytes())
    bad[24:28] = (44100).to_bytes(4, "little")  # patch the declared rate
    bad_path = tmp_path / "bad_rate.wav"
    bad_path.write_bytes(bytes(bad))
    with pytest.raises(ValueError):
        read_wav(bad_path)

    stereo = bytearray(path.read_bytes())
    stereo[22:24] = (2).to_bytes(2, "little")
    stereo_path = tmp_path / "stereo.wav"
    stereo_path.write_bytes(bytes(stereo))
    with pytest.raises(ValueError):
        read_wav(stereo_path)

    not_wav = tmp_path / "nope.wav"
    not_wav.write_bytes(b"OggS" + b"\x00" * 64)
    with pytest.raises(ValueError):
        read_wav(not_wav)


def test_spectrogram_binary_roundtrip(tmp_path) -> None:
    rng = np.random.default_rng(17)
    frames = rng.normal(size=(1024, 128)).astype(np.float32).astype(np.float64)
    path = tmp_path / "spec.bin"
    save_spectrogram(path, LogMelSpectrogram(frames))
    back = load_spectrogram(path)
    assert np.array_equal(back.frames, frames)
    sidecar = (tmp_path / "spec.bin.manifest.txt").read_text(encoding="utf-8")
    assert "frames=1024" in sidecar and "mels=128" in sidecar

    truncated = path.read_bytes()[:100]
    bad = tmp_path / "trunc.bin"
    bad.write_bytes(truncated)
    with pytest.raises(ValueError):
        load_spectrogram(bad)
